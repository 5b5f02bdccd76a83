"""The spherical-wave integral transform, its numerical path and checks.

The transform maps a radial function phi on (0, inf) to
(H phi)(p) = int_0^inf phi(r) e^{s i p r / hbar} r dr, where the kernel
sign s is -1 for the incoming spherical wave (the defining choice) and
+1 for the outgoing one, under which H R_{Nl} is `psi_trig` verbatim.
For phi(r) = f(rho), rho = 2 beta r, (2 beta)^2 (H phi)(q hbar beta) is the
unit integral int_0^inf f(rho) rho e^{s i q rho / 2} d rho at any scale, which
`transform_numeric` evaluates over a grid of q by Gauss-Legendre panels in
rho, to REL_TOL, ABS_TOL and PANEL_BUDGET, up to the cut `tail_cut`.
`gram_matrices` checks unitarity on the closed form `psi_trig`: its
momentum Gram matrix, by the midpoint rule in theta = arctan(q), which is
exact for it, against the position one, which is known in closed form
because the R_{Nl} of one l and one beta are Coulomb Sturmians.
`diagonalization_residual` checks that H diagonalizes the radial momentum
operator, H(p_r f) = p H f, on functions of rho that decay as e^{-rho/2}.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .forms import _kernel_stack
from .hydrogenic import QuantumState, _groups


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


# The numerical transform holds its error bound at each q within
# max(ABS_TOL, REL_TOL |value|), a bound on the unit integral in rho, and
# cuts the integral at `tail_cut`, which searches rho up to MAX_RHO: R_{N0}
# reaches its cut at rho = 1036 for N = 200.  Its panel count stops at
# PANEL_BUDGET.
REL_TOL = 1e-9
ABS_TOL = 1e-11
MAX_RHO = 2000.0
PANEL_BUDGET = 40000
# It takes its value from GL_ORDER nodes per panel and its error bound
# from the difference to ESTIMATE_ORDER nodes on the same panels.
GL_ORDER = 16
ESTIMATE_ORDER = 10
# A panel spans at most half a period of cos/sin(b rho), where both orders
# are exact to rounding.  |q| = 1000 over a cut at rho = 250 needs 39789
# panels.
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


def _fourier_sums(parts, first: float, step: float, rules, b: np.ndarray) -> list:
    """sum_{k,j} weights_k g[s, k, j] e^{i b rho_kj}, rho_kj = offsets_k + first + j step,
    for every row s of g, of shape (rows, offsets, panels), and every b, for
    each g of `parts` with its (offsets, weights) of `rules` on shared panels.

    Evaluated as sum_j e^{i b c_j} sum_k weights_k e^{i b d_k} g[s, k, j],
    c_j = first + j step: the inner sums are one real matrix product
    [cos; sin](b d_k) w_k @ g[s] of the same shape for every (s, b) (one
    product over all b at once would round differently with the number of
    b), and the outer sum runs along the contiguous panel axis, by numpy's
    pairwise sum (a matrix product's running sum put ten times the error
    on the value at |q| = 1000); BLOCK_PRODUCTS (s, b, panel)
    products at a time.
    So the value for one row and one b does not depend on the other rows
    or the other b of the call.  Returns complex sums of shape (rows, b) per part.

    The phase b c_j reaches b times the interval.  A rounded c_j, or b c_j,
    is off by up to its ulp from one panel to the next, and those errors do
    not cancel in the sum: at |q| = 1000 they put an error of up to 4e-13
    on the unit integral of R_{43}, whose value is 1.1e-14.  So j b step
    is taken exactly, as j times b step rounded to 52 - bits(panels) bits,
    and the small rest of the phase apart.
    """
    rows, _, panels = parts[0].shape
    totals = [np.empty((rows, b.size), dtype=complex) for _ in parts]
    j = np.arange(panels)
    theta = b * step
    mantissa, exponent = np.frexp(theta)
    bits = 52 - panels.bit_length()
    theta_hi = np.ldexp(np.round(np.ldexp(mantissa, bits)), exponent - bits)
    block = max(1, BLOCK_PRODUCTS // max(1, rows * panels))
    for start in range(0, b.size, block):
        part = slice(start, start + block)
        bs = b[part, None]
        exact = j * theta_hi[part, None]
        rest = j * (theta - theta_hi)[part, None] + bs * first
        cos_e, sin_e, cos_r, sin_r = np.cos(exact), np.sin(exact), np.cos(rest), np.sin(rest)
        cos_c, sin_c = cos_e * cos_r - sin_e * sin_r, sin_e * cos_r + cos_e * sin_r
        for g, (offsets, weights), total in zip(parts, rules, totals):
            inner = np.stack([np.cos(bs * offsets), np.sin(bs * offsets)], axis=1) * weights
            re, im = np.moveaxis(inner @ g[:, None], 2, 0)  # the panel sums
            total.real[:, part] = (re * cos_c - im * sin_c).sum(axis=-1)
            total.imag[:, part] = (re * sin_c + im * cos_c).sum(axis=-1)
            del re, im  # free this part's panel sums before the next part's are made
    return totals


def transform_numeric(f: Callable[[np.ndarray], np.ndarray], q, sign: int):
    """Quadrature estimate of int_0^inf f(rho) rho e^{sign i q rho / 2} d rho, the unit
    integral of a real function f of rho or of a batch of them, under the
    incoming (sign -1) or outgoing (+1) kernel: (2 beta)^2 (H phi)(q hbar beta)
    for phi(r) = f(2 beta r), so 4 `psi_trig` for R_{Nl} at unit scale.

    f takes a float64 array of rho and returns its real values, of shape
    batch + rho.shape: batch = () for one function, or the leading axes of a
    stack of functions evaluated on the same rho.  Each function must decay
    at least as e^{-rho/2}.  q is a float or a float64 array; the value is
    complex, of shape batch + q.shape.  Negative q is allowed; for real f
    the result at -q is the conjugate of the result at q, and so is the
    result under the other sign.

    The integral is taken over [0, cut], the `tail_cut` of f rho with the
    floor ABS_TOL / 4 (one call of f): where the tail of every function of
    the batch is below ABS_TOL / 4 and the rounding of its integral, at
    MAX_RHO at the latest.  Then f is called once more, on the nodes of a
    composite Gauss-Legendre rule of GL_ORDER nodes on equal panels, and of
    ESTIMATE_ORDER nodes on the same panels; the panel count is
    `panels_needed` at the largest |b| = |q| / 2, capped at PANEL_BUDGET.
    The node layout and the e^{i b rho} factors are shared by the whole
    batch.  On a given layout, the value and error bound of one function
    at one q depend on neither the other functions nor the other q of
    the call; the cut, and so the layout, follows the batch's longest tail.

    The error bound at each q is the difference of the two orders, so a
    capped, under-resolved layout shows in it, plus the bound
    TAIL_LENGTH * max |f rho| on the last panel on the part of the
    integral past the cut.

    Raises ValueError for a sign other than -1 and +1 or a non-finite q, and
    ConvergenceError if for any function at any q the error bound exceeds
    max(ABS_TOL, REL_TOL * |result|) or is not finite; it carries the
    estimates, error bounds and tolerances, of shape batch + q.shape.
    """
    return _transform_numeric(f, q, sign)[0]


def _transform_numeric(f, q, sign):
    """`transform_numeric`'s value, and the end of its interval in rho and
    its panel count."""
    if sign not in (-1, 1):
        raise ValueError(f"kernel sign must be -1 (incoming) or +1 (outgoing), got {sign!r}")
    q = np.asarray(q, dtype=float)
    if not np.isfinite(q).all():
        raise ValueError("transform_numeric requires finite q")
    cut = tail_cut(lambda rho: np.asarray(f(rho)) * rho, ABS_TOL / 4)
    b, index = np.unique(np.abs(q).ravel() / 2.0, return_inverse=True)
    needed = panels_needed(b, cut)
    panels = int(min(needed.max(initial=MIN_PANELS), PANEL_BUDGET))
    rules = [gauss_legendre_panels(0.0, cut, panels, order)
             for order in (GL_ORDER, ESTIMATE_ORDER)]
    # Node k of panel j at [k, j], so each order's values reshape to
    # (rows, order, panels) with the panel axis contiguous.
    rho = np.concatenate([(d[:, None] + c).ravel() for c, d, _ in rules])
    g = np.asarray(f(rho)) * rho
    batch = g.shape[:-1]
    g = g.reshape(-1, GL_ORDER + ESTIMATE_ORDER, panels)
    value, estimate = _fourier_sums(np.split(g, [GL_ORDER], axis=1), rules[0][0][0],
                                    cut / panels, [(d, w) for _, d, w in rules], b)
    tail = TAIL_LENGTH * np.abs(g[:, :, -1]).max(axis=1, keepdims=True)
    err = np.abs(value - estimate) + tail
    tol = np.maximum(ABS_TOL, REL_TOL * np.abs(value))
    bad = ~(err <= tol)  # a non-finite f fails, too
    shape = batch + q.shape
    # value is the integral at |q| under the outgoing kernel.
    value = value[:, index].reshape(shape)
    value = np.where(sign * q >= 0, value, value.conjugate())
    if bad.any():
        raise ConvergenceError(
            f"oscillatory quadrature error bound up to {err[bad].max():.3e} exceeds "
            f"tolerance at {bad.sum()} of {bad.size} (function, |q|), the largest |q| "
            f"{2.0 * b[bad.any(axis=0)].max():g}; {panels} panels of "
            f"{needed.max()} needed (panel_budget {PANEL_BUDGET}); tail bound "
            f"{np.max(tail):.3e} past rho = {cut:g}",
            value[()], err[:, index].reshape(shape)[()], tol[:, index].reshape(shape)[()],
        )
    return value[()], cut, panels


def gram_matrices(states) -> tuple[np.ndarray, np.ndarray]:
    """Momentum and position Gram matrices of hydrogenic states of one l and one scale.

    momentum[i, j] is the full-line integral of psi_i conj(psi_j) dp / (2 pi hbar),
    psi = `psi_trig`, and position[i, j] is int_0^inf R_i R_j r^2 dr,
    R = `radial_wavefunction`: equal, since psi is the unitary transform of R.
    Both are the same at every scale, so the momentum side is one stack of psi
    at unit scale on one node set, exact:
    at q = p / hbar beta = tan(theta), psi_i conj(psi_j) dp / d theta is a
    trigonometric polynomial of degree N_max = max N in 2 theta (psi is one in
    w = cos(theta) e^{i theta} of powers l+2 .. N+1), taken by the midpoint
    rule with 2 N_max + 8 nodes.  The position side is in closed form: the
    R_{Nl} of one l and one beta are Coulomb Sturmians, whose Gram matrix
    (DLMF 18.9.13 with 18.3) is 1 on the diagonal,
    -1/2 sqrt((N-l)(N+l+1) / (N(N+1))) between N and N+1, and 0 elsewhere.

    Raises ValueError for states of more than one l or more than one scale.
    """
    l, scale = states[0].l, states[0].scale
    if any((s.l, s.scale) != (l, scale) for s in states):
        raise ValueError("Gram matrices need states of one l and one scale")
    return _gram_blocks(states)[l]


def _gram_blocks(states) -> dict:
    """{l: `gram_matrices` of its states} for states of one scale, from one
    `_kernel_stack` pass at unit scale on the nodes for the largest N of them all."""
    N = np.array([float(s.N) for s in states])
    count = 2 * int(N.max()) + 8
    theta = math.pi * ((np.arange(count) + 0.5) / count - 0.5)
    psi = _kernel_stack([QuantumState(s.N, s.l) for s in states], np.tan(theta)) / np.cos(theta)
    blocks = {}
    for l, rows in _groups(s.l for s in states).items():
        n, part = N[rows], psi[rows]
        low = np.minimum.outer(n, n)
        position = (n[:, None] == n) - 0.5 * (np.abs(n[:, None] - n) == 1.0) * np.sqrt(
            (low - l) * (low + l + 1.0) / (low * (low + 1.0)))
        momentum = part.real @ part.real.T + part.imag @ part.imag.T
        blocks[l] = momentum * (0.5 / count), position
    return blocks


def diagonalization_residual(u: Callable[[np.ndarray], np.ndarray],
                             du: Callable[[np.ndarray], np.ndarray], q):
    """The relative residual of H(p_r f) = p H f over a grid of q = p / hbar beta,
    H under the incoming kernel, for f(r) = u(rho), rho = 2 beta r.

    u and its derivative du take a float64 array of rho and may return a
    stack, as `transform_numeric`'s f may; u must vanish at rho = 0 and
    decay at least as e^{-rho/2}.  p_r f = -2 i hbar beta (u' + u / rho), so with
    T the unit integral of `transform_numeric` the identity reads
    -2 i T[u' + u / rho] = q T[u], with no scale in it: u' + u / rho and u
    are transformed in one call.
    Returns max |-2 i T[u' + u / rho] - q T[u]| / max |q T[u]| over the
    grid, one residual per function (a float for one function).
    """

    def rows(rho):
        value = u(rho)
        return np.stack([du(rho) + value / rho, value])

    h_pf, h_f = transform_numeric(rows, q, -1)
    q_h_f = np.asarray(q, dtype=float) * h_f
    error = np.abs(-2j * h_pf - q_h_f)
    return (error.max(axis=-1) / np.abs(q_h_f).max(axis=-1))[()]
