"""The spherical-wave integral transform, its numerical path and checks.

The transform maps a radial function phi on (0, inf) to
(H phi)(p) = int_0^inf phi(r) e^{s i p r / hbar} r dr, where the kernel
sign s is -1 for the incoming spherical wave (the defining choice) and
+1 for the outgoing one, under which H R_{Nl} is `psi_trig` verbatim.
The numerical path `transform_numeric` takes s as an argument and
evaluates the oscillatory integral over a whole momentum grid at once, by
composite Gauss-Legendre panels in the dimensionless rho = 2 beta r, to
the module's REL_TOL, ABS_TOL and PANEL_BUDGET, over [0, cut]: the cut is
where a coarse probe finds the integrand's tail below the rounding of the
integral (`tail_cut`), at MAX_RHO at the latest.
`gram_matrices` checks unitarity on the closed form `psi_trig`: its
momentum Gram matrix against the position one of `radial_wavefunction`,
by finite rules exact for both, the midpoint rule in
theta = arctan(p / hbar beta) and Gauss-Laguerre in rho.
`diagonalization_residual` checks that H diagonalizes the radial momentum
operator, H(p_r f) = p H f, on functions of rho that decay as e^{-rho/2}.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .forms import _kernel_stack
from .hydrogenic import PhysicalScale, _radial_stack
from .specfun import laguerre


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
# max(ABS_TOL, REL_TOL |value|), and cuts the integral at `tail_cut`, which
# searches rho up to MAX_RHO: R_{N0} reaches its cut at rho = 1036 for
# N = 200.  Its panel count stops at PANEL_BUDGET.
REL_TOL = 1e-9
ABS_TOL = 1e-11
MAX_RHO = 2000.0
PANEL_BUDGET = 40000
# It takes its value from GL_ORDER nodes per panel and its error bound
# from the difference to ESTIMATE_ORDER nodes on the same panels.
GL_ORDER = 16
ESTIMATE_ORDER = 10
# A panel spans at most half a period of cos/sin(b rho), where both orders
# are exact to rounding.  |p| = 1000 hbar beta over a cut at rho = 250
# needs 39789 panels.
PANEL_PHASE = math.pi
MIN_PANELS = 64
# (row, b, panel) products per block of b in the e^{i b rho} sums.
BLOCK_PRODUCTS = 1 << 16
# f must decay at least as e^{-rho/2}, so past the cut the integral is
# bounded by the largest |f rho| on the last panel times this e-folding
# length in rho.
TAIL_LENGTH = 2.0
# `tail_cut` probes the integrand every PROBE_STEP in rho.  A tail below
# TAIL_FLOOR of the largest probed |integrand| is below the rounding of
# the integral: with only an absolute floor the quadrature residual of
# verify rose from 2e-15 to 1e-12, and its relative Hankel check failed.
PROBE_STEP = 4.0
TAIL_FLOOR = 1e-17


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


# numpy's laggauss, which gives the nodes, also computes weights, and past
# this count some of them are inf or NaN, with RuntimeWarnings.
LAGUERRE_MAX_COUNT = 186


@functools.lru_cache(maxsize=32)
def _gauss_laguerre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x of numpy's `count`-node Gauss-Laguerre rule and its weights
    times e^x, for int_0^inf g(x) dx of a g that decays as e^{-x}.

    The weights are computed from the nodes, as
    x / ((count + 1) L_{count+1}(x) e^{-x/2})^2: numpy's own lose digits as
    the count grows (3e-13 on a Gram matrix at N = 100, against 1e-13).
    Raises ValueError for count > LAGUERRE_MAX_COUNT.
    """
    if count > LAGUERRE_MAX_COUNT:
        raise ValueError(f"Gauss-Laguerre rule with {count} nodes has non-finite "
                         f"weights (limit {LAGUERRE_MAX_COUNT})")
    from numpy.polynomial.laguerre import laggauss

    x = laggauss(count)[0]
    w = x / ((count + 1) * laguerre(count + 1, 0, x) * np.exp(-x / 2.0)) ** 2
    x.flags.writeable = w.flags.writeable = False
    return x, w


def panels_needed(b, length: float):
    """Panels of the composite rule for cos/sin(b rho) over `length` in rho:
    one per PANEL_PHASE of phase, and at least MIN_PANELS."""
    return np.maximum(MIN_PANELS, np.ceil(np.abs(b) * length / PANEL_PHASE)).astype(np.int64)


def tail_cut(integrand: Callable[[np.ndarray], np.ndarray], floor: float = math.inf) -> float:
    """Where to cut int_0^inf integrand(rho) d rho, in rho, for an integrand
    that decays at least as e^{-rho/2}, or a stack of them (batch + rho.shape).

    integrand is called once, on the probe points rho = PROBE_STEP,
    2 PROBE_STEP, ... up to MAX_RHO.  The cut is one PROBE_STEP past the
    last probe point where the tail bound TAIL_LENGTH |integrand| of any
    function exceeds min(floor, TAIL_FLOOR times its largest probed
    |integrand|), and at most MAX_RHO; a non-finite value counts as above
    it.  Taking the last such point, not the first small one, keeps a zero
    between probe points from ending the interval early.
    """
    rho = PROBE_STEP * np.arange(1, int(MAX_RHO / PROBE_STEP) + 1)
    g = np.abs(np.asarray(integrand(rho), dtype=float)).reshape(-1, rho.size)
    top = np.where(np.isfinite(g), g, 0.0).max(axis=1, keepdims=True)
    large = ~(TAIL_LENGTH * g <= np.minimum(floor, TAIL_FLOOR * top))
    last = np.flatnonzero(large.any(axis=0))
    return float(min(MAX_RHO, rho[last[-1]] + PROBE_STEP)) if last.size else PROBE_STEP


def _fourier_sums(g: np.ndarray, first: float, step: float, offsets: np.ndarray,
                  weights: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_{k,j} weights_k g[s, k, j] e^{i b rho_kj}, rho_kj = offsets_k + first + j step,
    for every row s of g, of shape (rows, offsets, panels), and every b.

    Evaluated as sum_j e^{i b c_j} sum_k weights_k e^{i b d_k} g[s, k, j],
    c_j = first + j step: the inner sums are one real matrix product
    [cos; sin](b d_k) w_k @ g[s] of the same shape for every (s, b) (one
    product over all b at once would round differently with the number of
    b), and the outer sum runs along the contiguous panel axis, by numpy's
    pairwise sum (a matrix product's running sum put ten times the error
    on the value at |p| = 1000 hbar beta); BLOCK_PRODUCTS (s, b, panel)
    products at a time.
    So the value for one row and one b does not depend on the other rows
    or the other b of the call.  Returns complex sums of shape (rows, b).

    The phase b c_j reaches b times the interval.  A rounded c_j, or b c_j,
    is off by up to its ulp from one panel to the next, and those errors do
    not cancel in the sum: at |p| = 1000 hbar beta they put an error of up
    to 1e-13 on the transform of R_{43}, whose value is 2.7e-15.  So j b step
    is taken exactly, as j times b step rounded to 52 - bits(panels) bits,
    and the small rest of the phase apart.
    """
    rows, _, panels = g.shape
    total = np.empty((rows, b.size), dtype=complex)
    g = g[:, None]
    j = np.arange(panels)
    theta = b * step
    mantissa, exponent = np.frexp(theta)
    bits = 52 - panels.bit_length()
    theta_hi = np.ldexp(np.round(np.ldexp(mantissa, bits)), exponent - bits)
    block = max(1, BLOCK_PRODUCTS // max(1, rows * panels))
    for start in range(0, b.size, block):
        part = slice(start, start + block)
        bs = b[part, None]
        inner = np.stack([np.cos(bs * offsets), np.sin(bs * offsets)], axis=1) * weights
        panel_sums = inner @ g
        exact = j * theta_hi[part, None]
        rest = j * (theta - theta_hi)[part, None] + bs * first
        cos_e, sin_e, cos_r, sin_r = np.cos(exact), np.sin(exact), np.cos(rest), np.sin(rest)
        cos_c, sin_c = cos_e * cos_r - sin_e * sin_r, sin_e * cos_r + cos_e * sin_r
        re, im = panel_sums[:, :, 0], panel_sums[:, :, 1]
        total.real[:, part] = (re * cos_c - im * sin_c).sum(axis=-1)
        total.imag[:, part] = (re * sin_c + im * cos_c).sum(axis=-1)
    return total


def transform_numeric(f: Callable[[np.ndarray], np.ndarray], p, sign: int,
                      scale: PhysicalScale = PhysicalScale()):
    """Quadrature estimate of (H f)(p) for a real radial function f, or for
    a batch of them, under the kernel e^{sign i p r / hbar}: sign -1 is the
    incoming spherical wave and +1 the outgoing one.

    f takes a float64 array of r and returns its real values, of shape
    batch + r.shape: batch = () for one function, or the leading axes of a
    stack of functions evaluated on the same r.  Each function must decay
    at least as e^{-rho/2}.  p is a float or a float64 array; the value is
    complex, of shape batch + p.shape.  Negative p is allowed; for real f
    the result at -p is the conjugate of the result at p, and so is the
    result under the other sign.

    The integral is taken in rho = 2 beta r, as (2 beta)^{-2} times
    int f(rho / 2 beta) rho e^{sign i b rho} d rho, b = p / (2 hbar beta),
    over [0, cut], the cut `tail_cut` of f rho / (2 beta)^2 with the floor
    ABS_TOL / 4: f is called once on its probe points, and the cut is
    where the tail of every function of the batch is below both
    ABS_TOL / 4 and the rounding of its integral, at MAX_RHO at the
    latest.  Then f is called once more, on the nodes of a composite
    Gauss-Legendre rule of GL_ORDER nodes on equal panels, and of
    ESTIMATE_ORDER nodes on the same panels; the panel count is
    `panels_needed` at the largest |b|, capped at PANEL_BUDGET.
    The node layout and the e^{i b rho} factors are shared by the whole
    batch.  On a given layout, the value and error bound of one function
    at one p depend on neither the other functions nor the other p of
    the call; the cut, and so the layout, follows the batch's longest tail.

    The error bound at each p is the difference of the two orders, so a
    capped, under-resolved layout shows in it, plus the bound
    TAIL_LENGTH * max |f rho| on the last panel on the part of the
    integral past the cut.

    Raises:
        ValueError: for a sign other than -1 and +1, or a non-finite p.
        ConvergenceError: if for any function at any p the error bound
            exceeds max(ABS_TOL, REL_TOL * |result|) or is not finite.  It
            carries the estimates, error bounds and tolerances, of shape
            batch + p.shape.
    """
    return _transform_numeric(f, p, sign, scale)[0]


def _transform_numeric(f, p, sign, scale):
    """`transform_numeric`'s value, and the end of its interval in rho and
    its panel count."""
    if sign not in (-1, 1):
        raise ValueError(f"kernel sign must be -1 (incoming) or +1 (outgoing), got {sign!r}")
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError("transform_numeric requires finite p")
    two_beta = 2.0 * scale.beta
    cut = tail_cut(lambda rho: np.asarray(f(rho / two_beta)) * rho / two_beta ** 2,
                   ABS_TOL / 4)
    b, index = np.unique(np.abs(p).ravel() / (2.0 * scale.momentum), return_inverse=True)
    needed = panels_needed(b, cut)
    panels = int(min(needed.max(initial=MIN_PANELS), PANEL_BUDGET))
    rules = [gauss_legendre_panels(0.0, cut, panels, order)
             for order in (GL_ORDER, ESTIMATE_ORDER)]
    # Node k of panel j at [k, j], so each order's values reshape to
    # (rows, order, panels) with the panel axis contiguous.
    rho = np.concatenate([(d[:, None] + c).ravel() for c, d, _ in rules])
    g = np.asarray(f(rho / two_beta)) * rho
    g /= two_beta ** 2
    batch = g.shape[:-1]
    g = g.reshape(-1, GL_ORDER + ESTIMATE_ORDER, panels)
    value, estimate = (_fourier_sums(part, c[0], cut / panels, d, w, b) for part, (c, d, w)
                       in zip(np.split(g, [GL_ORDER], axis=1), rules))
    tail = TAIL_LENGTH * np.abs(g[:, :, -1]).max(axis=1, keepdims=True)
    err = np.abs(value - estimate) + tail
    tol = np.maximum(ABS_TOL, REL_TOL * np.abs(value))
    bad = ~(err <= tol)  # a non-finite f fails, too
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
            f"{np.max(tail):.3e} past rho = {cut:g}",
            value[()], err[:, index].reshape(shape)[()], tol[:, index].reshape(shape)[()],
        )
    return value[()], cut, panels


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


def diagonalization_residual(u: Callable[[np.ndarray], np.ndarray],
                             du: Callable[[np.ndarray], np.ndarray], p_grid,
                             scale: PhysicalScale = PhysicalScale()):
    """The relative residual of H(p_r f) = p H f over a momentum grid, H
    under the incoming kernel, for f(r) = u(rho), rho = 2 beta r.

    u and its derivative du take a float64 array of rho and may return a
    stack, as `transform_numeric`'s f may; u must vanish at rho = 0 and
    decay at least as e^{-rho/2}.  p_r f = -2 i hbar beta (u' + u / rho):
    the rows (2 beta)^2 (u' + u / rho) and (2 beta)^2 u are transformed in
    one call, and the factor (2 beta)^2 makes their transforms independent
    of the scale.  Returns max |-2 i hbar beta H[row 0] - p H[row 1]| /
    max |p H[row 1]| over the grid, one residual per function (a float
    for one function).
    """

    def rows(r):
        rho = 2.0 * scale.beta * r
        value = u(rho)
        return (2.0 * scale.beta) ** 2 * np.stack([du(rho) + value / rho, value])

    p_grid = np.asarray(p_grid, dtype=float)
    h_pf, h_f = transform_numeric(rows, p_grid, -1, scale)
    p_h_f = p_grid * h_f
    error = np.abs(-2j * scale.momentum * h_pf - p_h_f)
    return (error.max(axis=-1) / np.abs(p_h_f).max(axis=-1))[()]
