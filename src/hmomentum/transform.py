"""The spherical-wave integral transform, its numerical path and checks.

The transform maps a radial function phi on (0, inf) to
(H phi)(p) = int_0^inf phi(r) e^{s i p r / hbar} r dr, where the kernel
sign s is -1 for the incoming spherical wave (the defining choice) and
+1 for the outgoing one, under which H R_{Nl} is `psi_trig` verbatim.
The numerical path `transform_numeric` takes s as an argument and
evaluates the oscillatory integral over a whole momentum grid at once, by
composite Gauss-Legendre panels in the dimensionless rho = 2 beta r on a
truncated interval, to the module's REL_TOL, ABS_TOL, MAX_RHO and
PANEL_BUDGET.
`gram_matrices` checks unitarity on the closed form `psi_trig`: its
momentum Gram matrix against the position one of `radial_wavefunction`,
by finite rules exact for both, the midpoint rule in
theta = arctan(p / hbar beta) and Gauss-Laguerre in rho.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .forms import _kernel_stack
from .hydrogenic import PhysicalScale, _radial_stack


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best estimate, the error bound reported by the
    integrator and the tolerance it was held to, all of one shape.
    """

    def __init__(self, message: str, estimate, error_bound, tolerance):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound
        self.tolerance = tolerance


# The numerical transform holds its error bound at each p within
# max(ABS_TOL, REL_TOL |value|), and without a support cuts the integral at
# rho = MAX_RHO.  Its panel count stops at PANEL_BUDGET.
REL_TOL = 1e-9
ABS_TOL = 1e-11
MAX_RHO = 250.0
PANEL_BUDGET = 40000
# It takes its value from GL_ORDER nodes per panel and its error bound
# from the difference to ESTIMATE_ORDER nodes on the same panels.
GL_ORDER = 16
ESTIMATE_ORDER = 10
# A panel spans at most half a period of cos/sin(b rho), where both orders
# are exact to rounding.  |p| = 1000 hbar beta over MAX_RHO needs
# 39789 panels.
PANEL_PHASE = math.pi
MIN_PANELS = 64
# (row, b, panel) products per block of b in the e^{i b rho} sums.
BLOCK_PRODUCTS = 1 << 16
# f must decay at least as e^{-rho/2}, so past the cut at MAX_RHO the
# integral is bounded by the largest |f rho| on the last panel times this
# e-folding length in rho.
TAIL_LENGTH = 2.0


def gauss_legendre_panels(lo: float, hi: float, panels: int,
                          order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The composite Gauss-Legendre rule with `order` nodes on each of
    `panels` equal panels of [lo, hi].

    Returns the panel centers c, and the node offsets d and weights w
    that every panel shares: the nodes are c[:, None] + d.
    """
    x, w = _gauss_legendre(order)
    half = 0.5 * (hi - lo) / panels
    return lo + half * (2.0 * np.arange(panels) + 1.0), half * x, half * w


@functools.lru_cache(maxsize=2)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    # numpy.polynomial is imported here, not by the package: it costs ~4 ms.
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


# numpy's Gauss-Laguerre rule has finite, positive weights up to this
# count; past it some are inf or NaN, with RuntimeWarnings.
LAGUERRE_MAX_COUNT = 186


@functools.lru_cache(maxsize=32)
def _gauss_laguerre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x of numpy's `count`-node Gauss-Laguerre rule and its weights
    times e^x, for int_0^inf g(x) dx of a g that decays as e^{-x}.

    Raises ValueError for count > LAGUERRE_MAX_COUNT.
    """
    if count > LAGUERRE_MAX_COUNT:
        raise ValueError(f"Gauss-Laguerre rule with {count} nodes has non-finite "
                         f"weights (limit {LAGUERRE_MAX_COUNT})")
    from numpy.polynomial.laguerre import laggauss

    x, w = laggauss(count)
    w = np.exp(np.log(w) + x)  # e^x alone overflows from x = 710 on
    x.flags.writeable = w.flags.writeable = False
    return x, w


def panels_needed(b, length: float):
    """Panels of the composite rule for cos/sin(b rho) over `length` in rho:
    one per PANEL_PHASE of phase, and at least MIN_PANELS."""
    return np.maximum(MIN_PANELS, np.ceil(np.abs(b) * length / PANEL_PHASE)).astype(np.int64)


def _fourier_sums(g: np.ndarray, centers: np.ndarray, offsets: np.ndarray,
                  weights: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_{k,j} weights_k g[s, k, j] e^{i b rho_kj}, rho_kj = offsets_k + centers_j,
    for every row s of g, of shape (rows, offsets, centers), and every b.

    Evaluated as sum_j e^{i b c_j} sum_k weights_k e^{i b d_k} g[s, k, j]:
    the inner sums are one real matrix product [cos; sin](b d_k) w_k @ g[s]
    of the same shape for every (s, b) (one product over all b at once
    would round differently with the number of b), and the outer sum runs
    along the contiguous panel axis; BLOCK_PRODUCTS (s, b, panel) products
    at a time.
    So the value for one row and one b does not depend on the other rows
    or the other b of the call.  Returns complex sums of shape (rows, b).
    """
    rows, _, panels = g.shape
    total = np.empty((rows, b.size), dtype=complex)
    g = g[:, None]
    step = max(1, BLOCK_PRODUCTS // max(1, rows * panels))
    for first in range(0, b.size, step):
        bs = b[first:first + step, None]
        inner = np.stack([np.cos(bs * offsets), np.sin(bs * offsets)], axis=1) * weights
        panel_sums = inner @ g
        cos_c, sin_c = np.cos(bs * centers), np.sin(bs * centers)
        re, im = panel_sums[:, :, 0], panel_sums[:, :, 1]
        total.real[:, first:first + step] = (re * cos_c - im * sin_c).sum(axis=-1)
        total.imag[:, first:first + step] = (re * sin_c + im * cos_c).sum(axis=-1)
    return total


def transform_numeric(f: Callable[[np.ndarray], np.ndarray], p, sign: int,
                      scale: PhysicalScale = PhysicalScale(),
                      support: tuple[float, float] | None = None):
    """Quadrature estimate of (H f)(p) for a real radial function f, or for
    a batch of them, under the kernel e^{sign i p r / hbar}: sign -1 is the
    incoming spherical wave and +1 the outgoing one.

    f takes a float64 array of r and returns its real values, of shape
    batch + r.shape: batch = () for one function, or the leading axes of a
    stack of functions evaluated on the same r.  Each function must decay
    at least as e^{-rho/2} or have compact support (pass `support` to
    restrict the integration interval).  p is a float or a float64 array;
    the value is complex, of shape batch + p.shape.  Negative p is
    allowed; for real f the result at -p is the conjugate of the result
    at p, and so is the result under the other sign.

    The integral is taken in rho = 2 beta r, as (2 beta)^{-2} times
    int f(rho / 2 beta) rho e^{sign i b rho} d rho, b = p / (2 hbar beta),
    over [0, MAX_RHO] (or the support).  f is called once, on the nodes
    of a composite Gauss-Legendre rule of GL_ORDER nodes on equal panels,
    and of ESTIMATE_ORDER nodes on the same panels; the panel count is
    `panels_needed` at the largest |b|, capped at PANEL_BUDGET.
    The node layout and the e^{i b rho} factors are shared by the whole
    batch.  On a given layout, the value and error bound of one function
    at one p depend on neither the other functions nor the other p of
    the call.

    The error bound at each p is the difference of the two orders, so a
    capped, under-resolved layout shows in it.  Without a support it adds
    the bound TAIL_LENGTH * max |f rho| on the last panel on the part of
    the integral cut off at MAX_RHO.

    Raises:
        ValueError: for a sign other than -1 and +1, a bad support or a
            non-finite p.
        ConvergenceError: if for any function at any p the error bound
            exceeds max(ABS_TOL, REL_TOL * |result|).  It carries the
            estimates, error bounds and tolerances, of shape batch + p.shape.
    """
    if sign not in (-1, 1):
        raise ValueError(f"kernel sign must be -1 (incoming) or +1 (outgoing), got {sign!r}")
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError("transform_numeric requires finite p")
    two_beta = 2.0 * scale.beta
    if support is not None:
        lo, hi = support
        if lo < 0 or hi <= lo:
            raise ValueError(f"bad support interval {support!r}")
        rho_lo, rho_hi = two_beta * lo, two_beta * hi
    else:
        rho_lo, rho_hi = 0.0, MAX_RHO
    b, index = np.unique(np.abs(p).ravel() / (2.0 * scale.momentum), return_inverse=True)
    needed = panels_needed(b, rho_hi - rho_lo)
    panels = int(min(needed.max(initial=MIN_PANELS), PANEL_BUDGET))
    rules = [gauss_legendre_panels(rho_lo, rho_hi, panels, order)
             for order in (GL_ORDER, ESTIMATE_ORDER)]
    # Node k of panel j at [k, j], so each order's values reshape to
    # (rows, order, panels) with the panel axis contiguous.
    rho = np.concatenate([(d[:, None] + c).ravel() for c, d, _ in rules])
    g = np.asarray(f(rho / two_beta)) * rho
    g /= two_beta ** 2
    batch = g.shape[:-1]
    g = g.reshape(-1, GL_ORDER + ESTIMATE_ORDER, panels)
    value, estimate = (_fourier_sums(part, c, d, w, b) for part, (c, d, w)
                       in zip(np.split(g, [GL_ORDER], axis=1), rules))
    tail = (0.0 if support is not None
            else TAIL_LENGTH * np.abs(g[:, :, -1]).max(axis=1, keepdims=True))
    err = np.abs(value - estimate) + tail
    tol = np.maximum(ABS_TOL, REL_TOL * np.abs(value))
    bad = err > tol
    shape = batch + p.shape
    # value is the integral at |p| under the outgoing kernel.
    value = value[:, index].reshape(shape)
    value = np.where(sign * p >= 0, value, value.conjugate())
    if bad.any():
        raise ConvergenceError(
            f"oscillatory quadrature error bound up to {err[bad].max():.3e} exceeds "
            f"tolerance at {bad.sum()} of {bad.size} (function, |p|), the largest |p| "
            f"{2.0 * scale.momentum * b[bad.any(axis=0)].max():g}; {panels} panels of "
            f"{needed.max()} needed (panel_budget {PANEL_BUDGET}); tail bound "
            f"{np.max(tail):.3e} past rho = {rho_hi:g}",
            value[()], err[:, index].reshape(shape)[()], tol[:, index].reshape(shape)[()],
        )
    return value[()]


def gram_matrices(states) -> tuple[np.ndarray, np.ndarray]:
    """Momentum and position Gram matrices of hydrogenic states of one scale.

    momentum[i, j] is the full-line integral of psi_i conj(psi_j) dp / (2 pi hbar),
    psi = `psi_trig`; position[i, j] is int_0^inf R_i R_j r^2 dr, R =
    `radial_wavefunction`, both evaluated as stacks, one pass per l.  psi is
    the transform of R, which is unitary, so the two are equal.  Both rules
    are exact at any scale, one node set for all states up to N_max = max N:
    at p = hbar beta tan(theta), psi_i conj(psi_j) dp / d theta is a
    trigonometric polynomial of degree N_max in 2 theta (psi is one in
    w = cos(theta) e^{i theta} of powers l+2 .. N+1), taken by the midpoint
    rule with 2 N_max + 8 nodes in theta; and R_i R_j r^2 is e^{-rho} times
    a polynomial of degree 2 N_max in rho, by Gauss-Laguerre with N_max + 4 nodes.

    Raises ValueError for states of more than one scale, or for
    N_max + 4 > LAGUERRE_MAX_COUNT.
    """
    scale = states[0].scale
    if any(s.scale != scale for s in states):
        raise ValueError("Gram matrices need states of one scale")
    top = max(s.N for s in states)
    rho, weights = _gauss_laguerre(top + 4)
    r = rho / (2.0 * scale.beta)
    radial = _radial_stack(states, r) * r
    position = (radial * weights) @ radial.T / (2.0 * scale.beta)
    count = 2 * top + 8
    theta = math.pi * ((np.arange(count) + 0.5) / count - 0.5)
    p = scale.momentum * np.tan(theta)
    psi = _kernel_stack(states, p) / np.cos(theta)
    momentum = (psi.real @ psi.real.T + psi.imag @ psi.imag.T) * (scale.beta / (2.0 * count))
    return momentum, position


def diagonalization_residual(f: Callable[[np.ndarray], np.ndarray],
                             df: Callable[[np.ndarray], np.ndarray],
                             support: tuple[float, float],
                             p_grid,
                             scale: PhysicalScale = PhysicalScale()) -> float:
    """Max |H(p_r f)(p) - p (H f)(p)| over a momentum grid, H under the
    incoming kernel.

    f must be smooth with compact support inside (0, inf), vanishing at
    both endpoints; df is its analytic derivative.  Both take a float or
    a float64 array of r; p_r f and f are transformed over the grid in one
    call.
    """
    lo, hi = support
    if lo <= 0:
        raise ValueError("support must be bounded away from r = 0")
    if abs(f(lo)) > 1e-13 or abs(f(hi)) > 1e-13:
        raise ValueError("test function must vanish at its support endpoints")

    def pf_and_f(r):
        # The real content of p_r f = -i hbar (f' + f/r); the -i hbar is
        # applied after the (linear) transform.
        value = f(r)
        return np.stack([df(r) + value / r, value])

    p_grid = np.asarray(p_grid, dtype=float)
    h_pf, h_f = transform_numeric(pf_and_f, p_grid, -1, scale, support=support)
    return float(np.max(np.abs(-1j * scale.hbar * h_pf - p_grid * h_f), initial=0.0))
