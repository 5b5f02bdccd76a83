"""The spherical-wave integral transform and its numerical path.

The transform maps a radial function phi on (0, inf) to
(H phi)(p) = int_0^inf phi(r) e^{s i p r / hbar} r dr, where the kernel
sign s is -1 for the incoming spherical wave (the defining choice) and
+1 for the outgoing one, under which H R_{Nl} is `psi_trig` verbatim.
For phi(r) = f(rho), rho = 2 beta r, (2 beta)^2 (H phi)(q hbar beta) is the
unit integral int_0^inf f(rho) rho e^{s i q rho / 2} d rho at any scale, which
`transform_numeric` evaluates over a grid of q, to REL_TOL, PEAK_TOL and
PANEL_BUDGET, up to the cut `tail_cut`.  It sums Gauss-Legendre nodes in rho
with Filon weights (Iserles & Norsett, Proc. R. Soc. A 461 (2005) 1383):
they integrate the polynomial through a panel's nodes times e^{i q rho / 2}
exactly, so a panel may span four periods, and the panels follow f, not the
phase.  The weights are summed in long double, from a table correctly
rounded to long double.  Where long double is double the table is correctly
rounded to double and the weights lose a few ulps (up to 7 of w_k at 11 beta
in [0, 4 pi], against under one); verify's quadrature residual reads 7.4e-16
instead of 5.6e-16 and its diagonalization residual 1.6e-15 instead of
1.7e-15, and every suite still passes.
`verification` checks H against the closed forms and checks that it
diagonalizes the radial momentum, H(p_r f) = p H f; its Hankel check takes
the Gauss-Legendre panels and j_l of this module.
The module imports nothing from the package but its numpy (`_numpy`), so the
numerical H is independent of the closed forms that `verification` checks it
against.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

from ._numpy import np


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


# The numerical transform holds its error bound at each q within max(REL_TOL
# |value|, PEAK_TOL peak), peak f's largest |f rho| on the probe of `tail_cut`,
# which searches rho up to MAX_RHO: R_{N0} reaches its cut at rho = 1036 for
# N = 200.  Its panel count stops at PANEL_BUDGET.  REL_TOL bounds what the
# transform accepts, not what verify accepts: verify's quadrature suite holds
# its residual to 1e-12.
REL_TOL = 1e-9
PEAK_TOL = 1e-11
MAX_RHO = 2000.0
PANEL_BUDGET = 40000
# It takes its value from the Filon weights of GL_ORDER Gauss-Legendre nodes
# per panel and its error bound from the difference to ESTIMATE_ORDER nodes
# on the same panels.  A Filon rule is exact for e^{i b rho} times the
# polynomial through its nodes, so it keeps only interpolation order: with 10
# nodes, verify's quadrature bound at q = 20 on 64 panels read 3.3e-10 where
# the error was 8e-17.
GL_ORDER = 16
ESTIMATE_ORDER = 12
# A panel spans at most PANEL_PERIODS periods of e^{i b rho} and the layout
# has at least MIN_PANELS panels; where the bound fails, the panel count
# doubles, up to PANEL_BUDGET.
PANEL_PERIODS = 4
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
# The Filon weights are summed in _EXTENDED and rounded to double once, so
# each is within an ulp of its exact value.  `_spherical_bessel` gives their
# j_m(beta), by regions that SERIES_BETA and MILLER_MARGIN set.  A dtype
# name, so that an import reads no numpy.
_EXTENDED = "longdouble"
SERIES_BETA = 2.0 ** -7
MILLER_MARGIN = 24
FIXED_BITS = 128
NEWTON_STEPS = 5


def gauss_legendre_panels(length: float, panels: int,
                          order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The composite Gauss-Legendre rule of `order` nodes on each of `panels`
    equal panels of [0, length]: the panel centers c, and the node offsets d
    and weights w that every panel shares, so the nodes are c[:, None] + d."""
    x, w, _ = _gauss_legendre(order)
    half = 0.5 * length / panels
    return half * (2.0 * np.arange(panels) + 1.0), half * x, half * w


def _rounded(num: int, den: int) -> tuple[float, float]:
    """num / den correctly rounded, and the rest, rounded."""
    mantissa, power = (num / den).as_integer_ratio()
    return mantissa / power, (num * power - mantissa * den) / (den * power)


@functools.lru_cache(maxsize=2)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `order` Gauss-Legendre nodes x_k on [-1, 1], ascending, their weights
    w_k = 2 (1 - x^2) / (order (x P_order - P_{order-1}))^2, and the Filon table
    (-1)^{floor(m/2)} (2m + 1) w_k P_m(x_k), m < order, as [double, rest][m, k]:
    all correctly rounded and read-only.  Newton's method on P_order by Bonnet's
    recurrence, in integers scaled by 2^FIXED_BITS, from Tricomi's estimate
    (1 - (1 - 1/n) / 8n^2) cos(pi (4k - 1) / (4n + 2)) written as a sine, so that
    an odd order's middle node is 0; the last pass keeps every P_m.  NEWTON_STEPS
    steps take the estimate's error, at most 1.2e-3, below 2^-FIXED_BITS, and
    int / int rounds correctly.  Long double does not: its order-8 node rounds
    the wrong way, an order-11 weight is 0.51 ulps off, and its table of order
    16 up to 344 ulps.  numpy's leggauss weights are up to 63 ulps off."""
    one, nodes, weights, table = 1 << FIXED_BITS, [], [], []
    for k in range(order):
        x = int(math.ldexp((1 - (1 - 1 / order) / (8 * order * order)) * math.sin(
            math.pi * (2 * k + 1 - order) / (2 * order + 1)), FIXED_BITS))
        for step in range(NEWTON_STEPS + 1):
            p = [one, x]  # P_m at x / one, times one
            for m in range(1, order):
                p.append((((2 * m + 1) * x * p[m] >> FIXED_BITS) - m * p[m - 1]) // (m + 1))
            slope = order * ((x * p[order] >> FIXED_BITS) - p[order - 1])  # (x^2 - 1) P_order'(x), times one
            if step < NEWTON_STEPS:
                x -= p[order] * ((x * x >> FIXED_BITS) - one) // slope
        nodes.append(x / one)
        weights.append(2 * (one * one - x * x) / (slope * slope))
        table.append([_rounded((-1) ** (m // 2) * (2 * m + 1) * 2 * (one * one - x * x) * p[m],
                               slope * slope * one) for m in range(order)])
    rule = np.array(nodes), np.array(weights), np.array(table).T  # table[part, m, k]
    for array in rule:
        array.flags.writeable = False
    return rule


def _spherical_bessel(beta: np.ndarray, count: int) -> np.ndarray:
    """j_0 .. j_{count-1}(beta), rows of shape (count,) + beta.shape, in the type of
    the array beta >= 0, of any shape; each element depends on its own beta alone.

    Past beta = count, where m < beta, upward from j_0 = sin(beta) / beta and
    j_1 = (j_0 - cos beta) / beta.  Below SERIES_BETA, by the power series
    j_m(beta) = beta^m / (2m+1)!! sum_k (-beta^2/2)^k / (k! (2m+3) ... (2m+2k+1))
    to k = 4.  Between, by Miller's downward recurrence j_{m-1} = (2m+1) j_m / beta
    - j_{m+1} from m = count + MILLER_MARGIN, normalized by sum_m (2m+1) j_m^2 = 1
    (DLMF 10.60), which holds at every beta, zeros of j_0 included."""
    j = np.empty((max(count, 2),) + beta.shape, beta.dtype)  # j_0 and j_1 at least
    series, upward = beta < SERIES_BETA, beta > count
    miller = ~(series | upward)
    if upward.any():
        # Over every beta, in j itself; the series and Miller overwrite it below.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            j[0] = np.sin(beta) / beta
            j[1] = (j[0] - np.cos(beta)) / beta
            for n in range(1, count - 1):
                j[n + 1] = (2 * n + 1) / beta * j[n] - j[n - 1]
    j = j[:count]
    m = np.arange(count)[:, None]
    if series.any():
        b = beta[series]
        half_square, total = b * b / 2, 1
        for k in range(4, 0, -1):
            total = 1 - half_square / (k * (2 * m + 2 * k + 1)) * total
        j[:, series] = total * b ** m / np.cumprod((2 * m + 1).astype(beta.dtype), axis=0)
    if miller.any():
        b = beta[miller]
        top = count + MILLER_MARGIN
        step = (2 * np.arange(top + 2)[:, None] + 3) / b
        y = np.zeros_like(step)
        y[top] = 1
        for n in range(top - 1, -1, -1):
            y[n] = step[n] * y[n + 1] - y[n + 2]
        del step  # freed before the copy's and the squares' temporaries are made
        # A row per beta, so that its squares, scaled to stay in range in double,
        # are summed along a contiguous last axis, alike at any b.size.
        y = y.T.copy()
        y /= np.abs(y).max(axis=-1, keepdims=True)
        square = (2 * np.arange(top + 2) + 1) * y
        square *= y
        j[:, miller] = (y[:, :count] / np.sqrt(square.sum(axis=-1))[:, None]).T
    return j


def _filon_weights(beta, half: float, orders) -> list:
    """The Filon weights of each order of `orders` on a panel of half-width
    `half`, for e^{i beta t} at each beta of the 1-d array beta >= 0:
    W_k = half int_{-1}^{1} e^{i beta t} l_k(t) dt, l_k the Lagrange basis of
    the order's Gauss-Legendre nodes x_k.  By the Rayleigh expansion
    e^{i beta t} = sum_m (2m+1) i^m j_m(beta) P_m(t) (DLMF 10.60.7), and as
    int P_m l_k dt = w_k P_m(x_k) for m < order and 0 past it,
    W_k = half w_k sum_{m < order} (2m+1) i^m j_m(beta) P_m(x_k), exactly.

    Summed in _EXTENDED from one set of j_m and each order's Filon table,
    its double plus its rest from `_gauss_legendre`, rounded to float64 once.
    As i^m = (-1)^{floor(m/2)} i^{m mod 2}, the table's even rows make the
    real part and its odd rows the imaginary part: per order an array
    (beta.size, 2, order).  The weights of each beta depend on no other:
    numpy forms a long double matrix product element by element.
    """
    j = _spherical_bessel(np.asarray(beta, dtype=_EXTENDED), max(orders)).T
    weights = []
    for order in orders:
        head, rest = _gauss_legendre(order)[2]
        table = head.astype(_EXTENDED) + rest.astype(_EXTENDED)
        parts = [j[:, parity:order:2] @ table[parity::2] for parity in (0, 1)]
        weights.append((np.stack(parts, axis=1) * half).astype(float))
    return weights


def tail_cut(integrand: Callable[[np.ndarray], np.ndarray]) -> tuple[float, np.ndarray]:
    """Where to cut int_0^inf integrand(rho) d rho, in rho, for an integrand
    that decays at least as e^{-rho/2}, or a stack of them (batch + rho.shape),
    and each function's largest finite |integrand| on the probe, in a column.

    integrand is called once, on the probe points rho = PROBE_STEP,
    2 PROBE_STEP, ... up to MAX_RHO.  The cut is one PROBE_STEP past the
    last probe point where the tail bound TAIL_LENGTH |integrand| of any
    function exceeds TAIL_FLOOR times that function's largest, and at most
    MAX_RHO; a non-finite value counts as above it.  Taking the last such
    point, not the first small one, keeps a zero between probe points from
    ending the interval early.
    """
    rho = PROBE_STEP * np.arange(1, int(MAX_RHO / PROBE_STEP) + 1)
    g = np.abs(np.asarray(integrand(rho), dtype=float)).reshape(-1, rho.size)
    top = np.where(np.isfinite(g), g, 0.0).max(axis=1, keepdims=True)
    last = np.flatnonzero((~(TAIL_LENGTH * g <= TAIL_FLOOR * top)).any(axis=0))
    return float(min(MAX_RHO, rho[last[-1]] + PROBE_STEP)) if last.size else PROBE_STEP, top


def _fourier_sums(parts, first: float, step: float, weights, b: np.ndarray) -> list:
    """sum_j e^{i b c_j} sum_k W_k(b) g[s, k, j], c_j = first + j step, for every
    row s of g, of shape (rows, nodes, panels), and every b, for each g of
    `parts` with its `weights` W of shape (b, 2, nodes) (`_filon_weights`, the
    real and imaginary parts) on shared panels centred at c_j.

    The inner sums are one real matrix product W(b) @ g[s] of the same shape
    for every (s, b) (one product over all b at once would round differently
    with the number of b), and the outer sum runs along the contiguous panel
    axis, by numpy's pairwise sum (a matrix product's running sum put ten
    times the error on the value at |q| = 1000); BLOCK_PRODUCTS (s, b, panel)
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
        exact = j * theta_hi[part, None]
        rest = j * (theta - theta_hi)[part, None] + b[part, None] * first
        cos_e, sin_e, cos_r, sin_r = np.cos(exact), np.sin(exact), np.cos(rest), np.sin(rest)
        cos_c, sin_c = cos_e * cos_r - sin_e * sin_r, sin_e * cos_r + cos_e * sin_r
        for g, w, total in zip(parts, weights, totals):
            re, im = np.moveaxis(w[part] @ g[:, None], 2, 0)  # the panel sums
            total.real[:, part] = (re * cos_c - im * sin_c).sum(axis=-1)
            total.imag[:, part] = (re * sin_c + im * cos_c).sum(axis=-1)
            del re, im  # free this part's panel sums before the next part's are made
    return totals


class Layout(NamedTuple):
    """The panel count a numerical transform settled on (the largest, where
    the count doubled for some q), and its largest error bound relative to
    its function's largest |value| over the q of the call."""

    panels: int
    relative_bound: float


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

    The integral is taken over [0, cut], the `tail_cut` of f rho (one call of
    f): where the tail of every function of the batch is below the rounding of
    its integral, at MAX_RHO at the latest.  Then f is called on the nodes of
    GL_ORDER and of ESTIMATE_ORDER Gauss-Legendre nodes on each of max(MIN_PANELS,
    ceil(b cut / (2 pi PANEL_PERIODS))) equal panels, b = |q| / 2 the largest,
    at most PANEL_BUDGET.  Each order's panel sums of f rho e^{i b rho} take
    its Filon weights (`_filon_weights`), exact for the polynomial through the nodes
    times e^{i b rho}: a panel may span PANEL_PERIODS periods, and f sets the count.
    Where the error bound fails at some q and a finer layout could meet it
    (a finite f, a tail bound within the tolerance), f is called again on
    twice the panels, at most PANEL_BUDGET, and those q are summed anew.
    The node layout and the e^{i b rho} factors are shared by the whole
    batch.  On a given layout, the value and error bound of one function
    at one q depend on neither the other functions nor the other q of
    the call; the cut, and so the layout, follows the batch's longest tail,
    and a doubling follows the q whose bound failed on the coarser layout.

    The error bound at each q is the difference of the two orders, so a
    capped, under-resolved layout shows in it, plus the bound
    TAIL_LENGTH * max |f rho| on the last panel on the part of the
    integral past the cut.

    Raises ValueError for a sign other than -1 and +1 or a non-finite q, and
    ConvergenceError if for any function at any q the error bound exceeds
    max(REL_TOL |result|, PEAK_TOL peak), peak its largest finite |f rho| on the
    probe, or is not finite, with the estimates, error bounds and tolerances, of
    shape batch + q.shape.  So 2^k f gives 2^k times f's value bit for bit, subnormals aside.
    """
    return _transform_numeric(f, q, sign)[0]


def _panel_sums(f, cut: float, panels: int, b: np.ndarray):
    """The GL_ORDER value, the ESTIMATE_ORDER estimate and the tail bound of
    the integrals of f rho e^{i b rho} over [0, cut] on `panels` equal panels,
    rows of the batch first, and the batch shape."""
    half = 0.5 * cut / panels
    orders = (GL_ORDER, ESTIMATE_ORDER)
    # Node k of panel j at [k, j], so each order's values reshape to
    # (rows, order, panels) with the panel axis contiguous.
    rules = [gauss_legendre_panels(cut, panels, order) for order in orders]
    rho = np.concatenate([(offsets[:, None] + centers).ravel() for centers, offsets, _ in rules])
    g = np.asarray(f(rho)) * rho
    batch = g.shape[:-1]
    g = g.reshape(-1, GL_ORDER + ESTIMATE_ORDER, panels)
    value, estimate = _fourier_sums(np.split(g, [GL_ORDER], axis=1), half, 2.0 * half,
                                    _filon_weights(b * half, half, orders), b)
    tail = TAIL_LENGTH * np.abs(g[:, :, -1]).max(axis=1, keepdims=True)
    return value, estimate, tail, batch


def _transform_numeric(f, q, sign):
    """`transform_numeric`'s value, the end of its interval in rho, and its
    `Layout`."""
    if sign not in (-1, 1):
        raise ValueError(f"kernel sign must be -1 (incoming) or +1 (outgoing), got {sign!r}")
    q = np.asarray(q, dtype=float)
    if not np.isfinite(q).all():
        raise ValueError("transform_numeric requires finite q")
    cut, size = tail_cut(lambda rho: np.asarray(f(rho)) * rho)
    b, index = np.unique(np.abs(q).ravel() / 2.0, return_inverse=True)
    panels = int(min(max(MIN_PANELS, math.ceil(
        b.max(initial=0.0) * cut / (2.0 * math.pi * PANEL_PERIODS))), PANEL_BUDGET))
    todo = np.arange(b.size)
    while True:
        value_part, estimate, tail, batch = _panel_sums(f, cut, panels, b[todo])
        if todo.size == b.size:  # every q is summed on this layout
            value, err = value_part, np.empty(value_part.shape)
        value[:, todo] = value_part
        err[:, todo] = np.abs(value_part - estimate) + tail
        tol = np.maximum(REL_TOL * np.abs(value), PEAK_TOL * size)
        bad = ~(err <= tol)  # a non-finite f fails, too
        # More panels do not help a tail bound past the tolerance.
        finer = (bad & (tail <= tol))[:, todo].any(axis=0)
        if not finer.any() or panels >= PANEL_BUDGET or not np.isfinite(err).all():
            break
        panels, todo = min(2 * panels, PANEL_BUDGET), todo[finer]
    peak = np.abs(value).max(axis=-1, initial=0.0, keepdims=True)
    relative = np.divide(err, peak, out=np.zeros(err.shape), where=peak > 0.0)
    layout = Layout(panels, float(relative.max(initial=0.0)))
    shape = batch + q.shape
    # value is the integral at |q| under the outgoing kernel.
    value = value[:, index].reshape(shape)
    value = np.where(sign * q >= 0, value, value.conjugate())
    if bad.any():
        raise ConvergenceError(
            f"oscillatory quadrature error bound up to {err[bad].max():.3e} exceeds "
            f"tolerance at {bad.sum()} of {bad.size} (function, |q|), the largest |q| "
            f"{2.0 * b[bad.any(axis=0)].max():g}; {panels} panels (panel_budget "
            f"{PANEL_BUDGET}); tail bound {np.max(tail):.3e} past rho = {cut:g}",
            value[()], err[:, index].reshape(shape)[()], tol[:, index].reshape(shape)[()],
        )
    return value[()], cut, layout

