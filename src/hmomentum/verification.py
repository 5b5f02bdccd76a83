"""Cross-form, transform, normalization and inequality check suites.

Each suite takes a PhysicalScale, its only input, and returns a
deterministic CheckResult with its residual and a constant tolerance, which
it passes where the residual is within the tolerance; run_all bundles them
into a VerificationReport, whose config records the scale and the numerical
transform's constants.  The stacks take unit grids in q = p / hbar beta and
rho = 2 beta r.  The form suites compare the kernel with the paper's literal
sums, summed exactly in integers at Pythagorean momenta, so cancellation
limits no N.  The Gram matrices of unitarity and
<p^2> of the uncertainty suite are sums over one midpoint rule in
theta = arctan(q), exact for their integrands (`_theta_rule`).  The Hankel
check takes its Gauss-Legendre panels and j_l from `transform`.
"""

from __future__ import annotations

import datetime
import functools
import json
import math
import os
import traceback
from dataclasses import dataclass, field, replace

from ._numpy import np
from .forms import _kernel_stack, _pp_stack, distribution_max_l
from .hydrogenic import (
    PhysicalScale,
    QuantumState,
    _normalization,
    _radial_stack,
    expectation_r2,
    sqrt_ratio,
)
from .transform import (
    GL_ORDER,
    MAX_RHO,
    MIN_PANELS,
    PANEL_BUDGET,
    PEAK_TOL,
    REL_TOL,
    ConvergenceError,
    _spherical_bessel,
    _transform_numeric,
    gauss_legendre_panels,
    tail_cut,
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification suite: it passed where its residual is within
    its tolerance, a nan tolerance (a suite that raised) never."""

    name: str
    states_covered: tuple
    grid: str
    max_residual: float
    tolerance: float
    # Not an argument: __post_init__ sets it.  Its default_factory makes __init__
    # assign it in field order, so vars() lists it before details, as the JSON does.
    passed: bool = field(init=False, default_factory=bool)
    details: str = ""

    def __post_init__(self):
        for key, kind in (("states_covered", tuple), ("max_residual", float),
                          ("tolerance", float)):
            object.__setattr__(self, key, kind(getattr(self, key)))
        object.__setattr__(self, "passed", self.max_residual <= self.tolerance)


@dataclass(frozen=True)
class VerificationReport:
    config: dict
    timestamp: str
    overall_pass: bool
    results: tuple

    def to_json(self) -> str:
        """The report's fields, each result's in its own order, as JSON."""
        return json.dumps({**vars(self), "results": [vars(r) for r in self.results]}, indent=2)


def _groups(keys) -> dict:
    """{key: the indices where it occurs}, in order of first occurrence."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _states(max_N: int, scale: PhysicalScale):
    return [QuantumState(N, l, scale) for N in range(1, max_N + 1)
            for l in range(N)]


def _worst(name, states, grid, error, q, tolerance, note=""):
    """The result of a suite whose error is given per state (rows) and
    q = p / hbar beta (columns): its largest, with its state and q, then
    `note`, in `details`."""
    row, col = np.unravel_index(np.argmax(error), error.shape)
    where = f"worst at (N={states[row].N},l={states[row].l},q={q[col]:.6g})"
    return CheckResult(name, [(s.N, s.l) for s in states], grid, error[row, col],
                       tolerance, f"{where}; {note}" if note else where)


# At q = p / hbar beta = 2mk / (m^2 - k^2), cos(gamma) = X/h and sin(gamma) = S/h,
# with X = m^2 - k^2, S = 2mk and h = m^2 + k^2, are rational, and so are C^1_n
# and sin(gamma) D^1_n.  (1, 0) is p = 0; the others spread q over [1e-3, 1e3].
PYTHAGOREAN_PAIRS = ((1, 0), (2000, 1), (632, 1), (200, 1), (63, 1), (20, 1), (13, 2),
                     (12, 5), (15, 11), (11, 10), (32, 31), (101, 100), (317, 316),
                     (1001, 1000))
PYTHAGOREAN_GRID = (f"{2 * len(PYTHAGOREAN_PAIRS) - 1} Pythagorean momenta, "
                    "|p|/(hbar beta) in [1e-3, 1e3] and 0")

# The states past N = 8 that form_equivalence checks as well.
LARGE_N_STATES = ((40, 0), (60, 10))


def pythagorean_momenta() -> np.ndarray:
    """q = p / hbar beta of PYTHAGOREAN_PAIRS, then their negatives (q = 0 once)."""
    q = np.array([2 * m * k / (m * m - k * k) for m, k in PYTHAGOREAN_PAIRS])
    return np.concatenate([q, -q[1:]])


def _gegenbauer_terms(X: int, S: int, count: int) -> list:
    """X^{n+1} h^{n+1} sin(gamma) (D^1_n + i C^1_n)(cos gamma), n < count, as
    (re, im) integers.  h^{n+1} sin(gamma) D^1_n = h^{n+1} cos((n+1) gamma) and
    h^{n+1} sin(gamma) C^1_n both follow the Chebyshev recurrence (DLMF 18.9.1)
    c_{n+1} = 2 X c_n - h^2 c_{n-1}, from (c_{-1}, c_0) = (1, X) and (0, S), so
    X^{n+1} c_n follows c_{n+1} = 2 X^2 c_n - X^2 h^2 c_{n-1}, from (1, X^2) and
    (0, X S), with no product of two large integers."""
    x2, terms = X * X, []
    two_x2, x2_h2 = 2 * x2, x2 * (x2 + S * S)
    d_prev, d, c_prev, c = 1, x2, 0, X * S
    for _ in range(count):
        terms.append((d, c))
        d_prev, d = d, two_x2 * d - x2_h2 * d_prev
        c_prev, c = c, two_x2 * c - x2_h2 * c_prev
    return terms


def _lombardi_ogilvie_terms(X: int, S: int, count: int) -> list:
    """Z^{n+1}, n < count, as (re, im) integers, where Z = -X^2 + i X S is h^2 z,
    z = i hbar beta / (p - i hbar beta)."""
    terms = [(-X * X, X * S)]
    for _ in range(count - 1):
        re, im = terms[-1]
        terms.append((-X * (X * re + S * im), X * (S * re - X * im)))
    return terms


@functools.lru_cache(maxsize=4096)
def gegenbauer_coefficients(N: int, l: int) -> tuple:
    """The integers a_t (2 beta)^2 / N_{Nl} = (-1)^t 2^{l+t+2} C(N+l, N-l-1-t)
    (l+t+1)! / t!, t = 0..N-l-1, of the paper's Gegenbauer expansion, as a
    tuple, and 1, kept per process."""
    return tuple((-1) ** t * 2 ** (l + t + 2) * math.comb(N + l, N - l - 1 - t)
                 * (math.factorial(l + t + 1) // math.factorial(t)) for t in range(N - l)), 1


@functools.lru_cache(maxsize=4096)
def lombardi_ogilvie_coefficients(N: int, l: int) -> tuple:
    """The integers (N+l)! c_k, k = 0..N-l-1, of the Lombardi-Ogilvie sum,
    c_k = 2^k (N-l-1)! (l+k+1)! / (k! (N-l-k-1)! (2l+k+1)!), as a tuple, and
    (N+l)!, kept per process."""
    return tuple(2 ** k * math.comb(N - l - 1, k) * math.factorial(l + k + 1)
                 * (math.factorial(N + l) // math.factorial(2 * l + k + 1))
                 for k in range(N - l)), math.factorial(N + l)


def _exact_sums(keys, terms, coefficients) -> np.ndarray:
    """sum_{n=l+1}^{N} C_{n-l-1} T_n / (D h^{2(n+1)}) per (N, l) of `keys`
    (rows) at `pythagorean_momenta` (columns), with C, D = coefficients(N, l)
    and the sequence T = terms(X, S, count) of each pair made once for all
    states.  One integer Horner rule in h^2 and one int / int division per
    part give the exact sum correctly rounded; at -p it is the conjugate."""
    count = max(N for N, _ in keys) + 1
    pairs = [(m * m - k * k, 2 * m * k) for m, k in PYTHAGOREAN_PAIRS]
    pairs = [(X * X + S * S, terms(X, S, count)) for X, S in pairs]
    values = np.empty((len(keys), len(pairs)), dtype=complex)
    for row, (N, l) in enumerate(keys):
        coeffs, divisor = coefficients(N, l)
        for col, (h2, sequence) in enumerate(pairs):
            re = im = 0
            for c, (a, b) in zip(coeffs, sequence[l + 1:N + 1]):
                re, im = re * h2 + c * a, im * h2 + c * b
            den = divisor * h2 ** (N + 1)
            values[row, col] = complex(re / den, im / den)
    return np.concatenate([values, values[:, 1:].conj()], axis=1)


@functools.lru_cache(maxsize=8)
def _exact_block(keys: tuple, terms, coefficients) -> np.ndarray:
    """The `_exact_sums` of the (N, l) `keys`, read-only, kept per process: they
    depend on N and l, not on the scale, and each suite asks for the same keys."""
    block = _exact_sums(keys, terms, coefficients)
    block.flags.writeable = False
    return block


@functools.lru_cache(maxsize=4096)
def _n_over_4beta2(N: int, l: int, beta: float) -> float:
    """N_{Nl} / (2 beta)^2 = sqrt(1 / (4 beta N perm(N+l, 2l+1))), beta = num / den
    exactly, correctly rounded: O(beta^{-1/2}), a normal double at any beta.
    Kept per process."""
    num, den = beta.as_integer_ratio()
    return math.ldexp(*sqrt_ratio(den, 4 * num * N * math.perm(N + l, 2 * l + 1)))


def _a0(state: QuantumState) -> float:
    """a_0 = `gegenbauer_coefficients`(N, l)[0][0] N_{Nl} / (2 beta)^2, the
    first coefficient of the paper's Gegenbauer expansion."""
    return (gegenbauer_coefficients(state.N, state.l)[0][0]
            * _n_over_4beta2(state.N, state.l, state.scale.beta))


def exact_gegenbauer(states) -> np.ndarray:
    """The paper's literal Gegenbauer sum, per state (rows) at
    `pythagorean_momenta` (columns): sum_t a_t sin(gamma) cos^{n+1}(gamma)
    (D^1_n + i C^1_n)(cos gamma), n = l+1+t, with the phase convention of
    `psi_trig`.  The exact sum is rounded, then scaled by N_{Nl} / (2 beta)^2."""
    values = _exact_block(tuple((s.N, s.l) for s in states), _gegenbauer_terms,
                          gegenbauer_coefficients)
    return values * np.array([[_n_over_4beta2(s.N, s.l, s.scale.beta)] for s in states])


def exact_lombardi_ogilvie(states) -> np.ndarray:
    """The paper's unnormalized Lombardi-Ogilvie sum
    alpha = sum_k c_k (i hbar beta / (p - i hbar beta))^{l+k+2}, exactly
    rounded, per state (rows) at `pythagorean_momenta` (columns)."""
    return _exact_block(tuple((s.N, s.l) for s in states), _lombardi_ogilvie_terms,
                        lombardi_ogilvie_coefficients)


def verify_form_equivalence(scale: PhysicalScale = PhysicalScale()) -> CheckResult:
    """psi_trig (the 2F1 recurrence) against the paper's literal Gegenbauer
    sum, in exact arithmetic (`exact_gegenbauer`).

    It covers every state with N <= 8 and LARGE_N_STATES.  A state's
    residual is its largest |psi_trig - exact| over its largest |exact|.
    """
    states = _states(8, scale) + [QuantumState(N, l, scale) for N, l in LARGE_N_STATES]
    q = pythagorean_momenta()
    exact = exact_gegenbauer(states)
    error = np.abs(_kernel_stack(states, q) - exact)
    error /= np.max(np.abs(exact), axis=1, keepdims=True)
    return _worst("form_equivalence", states, PYTHAGOREAN_GRID, error, q, 1e-11)


def verify_quadrature(scale: PhysicalScale = PhysicalScale()) -> CheckResult:
    """Numerical transform of R_{Nl} against the trigonometric closed form.

    Run under the outgoing kernel (sign +1), which reproduces the closed
    form with no extra phase factor, at unit scale, where the unit integral
    of R is 4 psi_trig, so the residual is the same at every scale.  Every
    state is transformed in one call, and `details` reports the cut in rho
    that the transform took from the states' tails, the panel count it
    settled on and its largest error bound relative to a state's peak.
    Each state's residual is relative to its largest |psi_trig| on the grid.
    R's normalization N_{Nl} at the requested scale is held to its exact value
    as well (`_normalization_error`), to 2^-52, past which the residual is infinite
    (a correctly rounded one reads at most 2^-53); `details` names its worst state.
    """
    pos = np.logspace(-2, math.log10(20.0), 13)
    grid = np.concatenate([-pos[::-1], [0.0], pos])  # q
    states = _states(4, PhysicalScale())
    grid_name = f"{grid.size}-point mirrored grid up to 20 hbar beta"
    tolerance = 1e-12
    try:
        numeric, cut, layout = _transform_numeric(
            functools.partial(_radial_stack, states), grid, 1)
    except ConvergenceError as exc:
        failed = np.any(exc.error_bound > exc.tolerance, axis=-1)
        names = ", ".join(f"(N={s.N},l={s.l})" for s, bad in zip(states, failed) if bad)
        return CheckResult(
            "quadrature_vs_closed_form", [(s.N, s.l) for s in states], grid_name,
            math.inf, tolerance, f"{names}: {exc}")
    closed = 4.0 * _kernel_stack(states, grid)
    error = np.abs(numeric - closed) / np.max(np.abs(closed), axis=1, keepdims=True)
    norm = [_normalization_error(s) for s in _states(4, scale)]
    k = int(np.argmax(norm))
    result = _worst("quadrature_vs_closed_form", states, grid_name, error, grid, tolerance,
                    f"cut rho={cut:g}, panels={layout.panels}, error bound "
                    f"{layout.relative_bound:.3e} of the peak; N_Nl worst at "
                    f"(N={states[k].N},l={states[k].l}): {norm[k]:.3e}")
    return replace(result, max_residual=max(result.max_residual, norm[k])
                   if norm[k] <= 2.0 ** -52 else math.inf)


def _normalization_error(state: QuantumState) -> float:
    """|N_{Nl} / exact - 1| of `_normalization`, to first order: half the relative
    error of its square against the exact N_{Nl}^2 = 4 beta^3 / (N perm(N+l, 2l+1)),
    from beta = num / den and m = a / b exactly.  The square over the exact one is
    a^2 4^e den^3 N perm(N+l, 2l+1) / (4 b^2 num^3), an integer ratio top / bottom,
    and |top - bottom| / bottom, int / int, is correctly rounded."""
    (m, e), (num, den) = _normalization(state), state.scale.beta.as_integer_ratio()
    a, b = m.as_integer_ratio()
    top = a * a * den ** 3 * state.N * math.perm(state.N + state.l, 2 * state.l + 1)
    bottom = b * b * num ** 3
    shift = 2 * e - 2  # 4^e / 4
    top, bottom = (top << shift, bottom) if shift >= 0 else (top, bottom << -shift)
    return abs(top - bottom) / bottom / 2


def verify_lo_proportionality(scale: PhysicalScale = PhysicalScale()) -> CheckResult:
    """psi_trig = c conj(alpha_LO), c = (-1)^l a_0 (N+l)! / c_0, and the
    Lombardi-Ogilvie kernel that `table` and `eval` serve equal to alpha_LO.

    alpha_LO is the paper's literal c_k sum in exact arithmetic
    (`exact_lombardi_ogilvie`).  It matches the incoming-kernel convention
    and psi_trig the outgoing one, hence conj(alpha).  a_0 is `_a0`, (N+l)! c_0
    is `lombardi_ogilvie_coefficients`[0][0], and (-1)^l is the sign of
    z^{l+2} = (-conj(w))^{l+2}.  The error at each state and p is the larger
    of |psi_trig / (c conj(alpha)) - 1| and |kernel - alpha| / max |alpha|.
    """
    states = _states(6, scale)
    q = pythagorean_momenta()
    exact = exact_lombardi_ogilvie(states)
    c = np.array([[(-1) ** s.l * _a0(s) * (math.factorial(s.N + s.l)
                                            / lombardi_ogilvie_coefficients(s.N, s.l)[0][0])]
                  for s in states])
    error = np.abs(_kernel_stack(states, q, lombardi_ogilvie=True) - exact)
    error /= np.max(np.abs(exact), axis=1, keepdims=True)
    error = np.maximum(np.abs(_kernel_stack(states, q) / (c * exact.conj()) - 1.0), error)
    return _worst("lombardi_ogilvie_proportionality", states, PYTHAGOREAN_GRID, error, q, 1e-11)


@functools.lru_cache(maxsize=1)
def _hankel_q() -> np.ndarray:
    """pp_vs_hankel's momenta q = p / hbar beta, read-only, made on the first
    call, so that an import makes no array."""
    q = np.linspace(0.2, 5.0, 12)
    q.flags.writeable = False
    return q


# The j_l rule's panels span at most half a period of j_l(q rho / 2), and
# there are at least MIN_PANELS of them.
PANEL_PHASE = math.pi


def panels_needed(b, length: float):
    """Panels of the composite rule for cos/sin(b rho) over `length` in rho:
    one per PANEL_PHASE of phase, and at least MIN_PANELS."""
    return np.maximum(MIN_PANELS, np.ceil(np.abs(b) * length / PANEL_PHASE)).astype(np.int64)


@functools.lru_cache(maxsize=4)
def _hankel_rule(max_l: int, cut: float, panels: int) -> tuple:
    """The nodes rho and weights of the GL_ORDER-node Gauss-Legendre panels of
    [0, cut], and j_0 .. j_{max_l}(rho q / 2) at q = `_hankel_q`, all read-only."""
    centers, offsets, weights = gauss_legendre_panels(cut, panels, GL_ORDER)
    rho = (centers[:, None] + offsets).ravel()
    rule = rho, np.tile(weights, panels), _spherical_bessel(
        np.outer(rho, _hankel_q() / 2.0), max_l + 1)
    for array in rule:
        array.flags.writeable = False
    return rule


def verify_pp_vs_hankel(scale: PhysicalScale = PhysicalScale()) -> CheckResult:
    """Closed-form Podolsky-Pauling vs the j_l Hankel-quadrature oracle.

    G_{Nl}(p) = (-1)^{N-l-1} sqrt(2/pi) hbar^{-3/2} int_0^inf j_l(p r / hbar)
    R_{Nl}(r) r^2 dr, in rho = 2 beta r and q = p / hbar beta, with both sides
    O(1): G (hbar beta)^{3/2} = (-1)^{N-l-1} / (2 sqrt(pi)) int_0^inf j_l(q rho / 2)
    R (2 beta)^{-3/2} rho^2 d rho, by Gauss-Legendre panels up to `tail_cut` of
    |R rho^2| (|j_l| <= 1), kept per process with the j_l (`_hankel_rule`); `details`
    reports the cut and panel count.  The residual is the largest |G - oracle| / |G|.
    Both sides are functions of q and rho alone, so they are taken from the
    stacks at unit scale, and the residual is the same at every scale.
    """
    states = _states(4, PhysicalScale())

    def radial(rho):  # R (2 beta)^{-3/2} at beta = 1
        return _radial_stack(states, rho) / 2.0 ** 1.5
    cut, _ = tail_cut(lambda rho: radial(rho) * rho * rho)
    q = _hankel_q()
    panels = int(panels_needed(q[-1] / 2.0, cut))
    rho, weights, bessel = _hankel_rule(max(s.l for s in states), cut, panels)
    rows = radial(rho) * (weights * rho * rho) * (0.5 / math.sqrt(math.pi))
    numeric = np.stack([(-1) ** (s.N - s.l - 1) * (row @ bessel[s.l])
                        for row, s in zip(rows, states)])
    G = _pp_stack(states, q)
    error = np.abs(G - numeric) / np.abs(G)
    return _worst("podolsky_pauling_vs_hankel", states,
                  "12-point linear grid, p/(hbar beta) in [0.2, 5]", error, q, 3e-11,
                  f"cut rho={cut:g}, panels={panels}")


def _theta_rule(count: int, half_line: bool) -> tuple[np.ndarray, np.ndarray]:
    """The midpoint rule of `count` nodes in theta over (-pi/2, pi/2), or over
    (0, pi/2) for the half line: its nodes q = tan(theta) and weights
    d theta / cos^2(theta), so that sum(weights * f(q)) is int f dq over the full
    or half line of q.  On Fock's stereographic map q = tan(chi/2), theta = chi/2."""
    x = (np.arange(count) + 0.5) / count
    step, theta = ((0.5 * math.pi / count, 0.5 * math.pi * x) if half_line
                   else (math.pi / count, math.pi * (x - 0.5)))
    return np.tan(theta), step / np.cos(theta) ** 2


def _gram_blocks(states) -> dict:
    """{l: (momentum, position)}, the Gram matrices of the states (at unit scale)
    of each l, from one `_kernel_stack` pass on the `_theta_rule` for the largest N.

    momentum[i, j] = int psi_i conj(psi_j) dq / (2 pi), psi = `psi_trig`, is exact:
    at q = tan(theta) its integrand times dq / d theta is a trigonometric polynomial
    of degree N_max in 2 theta (psi is one in w = cos(theta) e^{i theta} of powers
    l+2 .. N+1), and the rule has 2 N_max + 8 nodes.  position[i, j] = int R_i R_j r^2 dr
    is in closed form, as the R_{Nl} of one l and one beta are Coulomb Sturmians
    (DLMF 18.9.13 with 18.3): 1 on the diagonal, -1/2 sqrt((N-l)(N+l+1) / (N(N+1)))
    between N and N+1, and 0 elsewhere.  They are equal, as psi is the unitary transform of R.
    """
    N = np.array([float(s.N) for s in states])
    q, weights = _theta_rule(2 * int(N.max()) + 8, half_line=False)
    psi = _kernel_stack(states, q)
    blocks = {}
    for l, rows in _groups(s.l for s in states).items():
        n, part = N[rows], psi[rows]
        low = np.minimum.outer(n, n)
        position = (n[:, None] == n) - 0.5 * (np.abs(n[:, None] - n) == 1.0) * np.sqrt(
            (low - l) * (low + l + 1.0) / (low * (low + 1.0)))
        momentum = (part.real * weights) @ part.real.T + (part.imag * weights) @ part.imag.T
        blocks[l] = momentum / (2.0 * math.pi), position
    return blocks


def _p2_stack(states) -> np.ndarray:
    """<p^2> / (hbar beta)^2 = int_0^inf q^4 (G_{Nl} (hbar beta)^{3/2})^2 dq of each
    state at unit scale, where G (hbar beta)^{3/2} is G.  At q = tan(theta) the
    integrand times dq / d theta is a polynomial of degree 2N + 1 in cos(2 theta),
    so one `_pp_stack` on the half-line `_theta_rule` of N_max + 6 nodes is exact."""
    q, weights = _theta_rule(max(s.N for s in states) + 6, half_line=True)
    return (q * q * _pp_stack(states, q)) ** 2 @ weights


def verify_parseval_and_diagonalization(scale: PhysicalScale = PhysicalScale()) -> CheckResult:
    """Unitarity (measure dp/(2 pi hbar)) plus the diagonalization identity.

    Unitarity is checked, for each l of the states with N <= 5, as the
    momentum Gram matrix of psi_trig equal, entry by entry, to the
    closed-form Gram matrix of the R_{Nl} (`_gram_blocks`, all l in one pass).
    H(p_r f) = p H f, H under the incoming kernel, is checked on
    f(r) = u(rho), u_k = rho^k e^{-rho/2}, k = 1, 2, 3: p_r f =
    -2 i hbar beta (u' + u / rho), so with T the unit integral of
    `transform_numeric` it reads -2 i T[u' + u / rho] = q T[u], with no scale
    in it.  The pair (u' + u / rho, u) is transformed in one call on 21 q in
    [-10, 10], and a function's residual is max |-2 i T[u' + u / rho] - q T[u]|
    / max |q T[u]|; `details` reports the panel count that call settled on and
    its largest error bound relative to a function's peak.  Neither check
    depends on the scale, so both are taken at unit scale.
    """
    states = _states(5, PhysicalScale())
    error = np.zeros((len(states), len(states)))
    rows = _groups(s.l for s in states)
    for l, (momentum, position) in _gram_blocks(states).items():
        error[np.ix_(rows[l], rows[l])] = np.abs(momentum - position)
    i, j = np.unravel_index(np.argmax(error), error.shape)
    k = np.arange(1, 4)[:, None]

    def pair(rho):
        u = rho ** k * np.exp(-rho / 2.0)
        return np.stack([(k - rho / 2.0) * rho ** (k - 1) * np.exp(-rho / 2.0) + u / rho, u])

    q = np.linspace(-10.0, 10.0, 21)
    (h_pf, h_f), _, layout = _transform_numeric(pair, q, -1)
    q_h_f = q * h_f
    residuals = np.abs(-2j * h_pf - q_h_f).max(axis=-1) / np.abs(q_h_f).max(axis=-1)
    shapes = "; ".join(f"rho^{power} e^(-rho/2): {res:.3e}"
                       for power, res in zip(k[:, 0], residuals))
    return CheckResult(
        "parseval_and_diagonalization", [(s.N, s.l) for s in states],
        "Gram matrices per l, N <= 5; 21-point p grid in [-10, 10] hbar beta",
        max(error[i, j], residuals.max()), 3e-12,
        f"Gram worst at (N={states[i].N},N'={states[j].N},l={states[i].l}): {error[i, j]:.3e}; "
        f"transform on {layout.panels} panels, error bound {layout.relative_bound:.3e} "
        f"of the peak, {shapes}")


def verify_uncertainty(scale: PhysicalScale = PhysicalScale()) -> CheckResult:
    """<p^2> / (hbar beta)^2 = 1 at a common beta (the diagonal of Fock's orthogonality),
    the residual, and <r^2><p^2> / hbar^2 = <(beta r)^2> <p^2> / (hbar beta)^2 >= 9/4, D = 3:
    a state below the bound has an infinite residual.  Both are functions of N and l
    alone, so they are taken at unit scale."""
    states = _states(5, PhysicalScale())
    p2 = _p2_stack(states)
    products = p2 * [expectation_r2(s) for s in states]
    error = np.where(products >= 2.25, np.abs(p2 - 1.0), math.inf)
    row = int(np.argmax(error))
    return CheckResult(
        "uncertainty_bound", [(s.N, s.l) for s in states],
        "analytic <r^2>, quadrature <p^2>", error[row], 1e-12,
        f"worst at (N={states[row].N},l={states[row].l}); "
        f"ground-state product: {products[0]:.12g}")


def verify_so4_constancy(scale: PhysicalScale = PhysicalScale()) -> CheckResult:
    """The maximal-l density shapes of `distribution_max_l` are those of the
    states: |psi_{N,N-1} / a_0|^2 / LO and |G_{N,N-1}|^2 (hbar beta)^3 / PP,
    a_0 = `_a0`, with the shapes at unit scale in q = p / (hbar beta), so
    O(1) at any scale, are constant in q and equal to their closed forms 1
    and 32 N ((N-1)!)^2 / (pi (2N-1)!).  G (hbar beta)^{3/2}, a function of q
    alone, is G at unit scale.

    LO is taken on q = 0 and 60 log-spaced |q| in [1e-3, 1e3] of either sign, PP
    on the q > 0 half, where it is not 0/0.  A state's residual is the largest of
    its two ratios' relative spreads (std / mean) and |mean / closed form - 1|.
    """
    pos = np.logspace(-3.0, 3.0, 60)
    grid = np.concatenate([-pos[::-1], [0.0], pos])  # q
    states = [QuantumState(N, N - 1, scale) for N in range(1, 7)]
    lo = np.abs(_kernel_stack(states, grid) / [[_a0(s)] for s in states]) ** 2 / np.stack(
        [distribution_max_l("LO", s.N, grid) for s in states])
    pp = _pp_stack([QuantumState(s.N, s.l) for s in states], pos) ** 2 / np.stack(
        [distribution_max_l("PP", s.N, pos) for s in states])
    pp_constant = np.array([32.0 / math.pi * (
        s.N * math.factorial(s.N - 1) ** 2 / math.factorial(2 * s.N - 1)) for s in states])
    residual = np.max([lo.std(axis=1) / lo.mean(axis=1), pp.std(axis=1) / pp.mean(axis=1),
                       np.abs(lo.mean(axis=1) - 1.0),
                       np.abs(pp.mean(axis=1) / pp_constant - 1.0)], axis=0)
    row = int(np.argmax(residual))
    return CheckResult(
        "so4_form_constancy", [(s.N, s.l) for s in states],
        f"{grid.size}-point mirrored log grid (PP on its p > 0 half)", residual[row], 3e-12,
        f"worst at (N={states[row].N},l={states[row].l})")


SUITES = {
    "form_equivalence": lambda scale: verify_form_equivalence(scale),
    "quadrature": lambda scale: verify_quadrature(scale),
    "lo_proportionality": lambda scale: verify_lo_proportionality(scale),
    "pp_vs_hankel": lambda scale: verify_pp_vs_hankel(scale),
    "parseval_diagonalization": lambda scale: verify_parseval_and_diagonalization(scale),
    "uncertainty": lambda scale: verify_uncertainty(scale),
    "so4_constancy": lambda scale: verify_so4_constancy(scale),
}


def _run_suite(name: str, scale: PhysicalScale) -> CheckResult:
    """The suite's result; if it raises, a failed result named by its SUITES
    key, with an infinite residual and the exception and where it was raised."""
    try:
        return SUITES[name](scale)
    except Exception as exc:  # noqa: BLE001 - one suite's crash fails only that suite
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return CheckResult(
            name, (), "", math.inf, math.nan,
            f"raised {type(exc).__name__}: {exc} (in {frame.name}, "
            f"{os.path.basename(frame.filename)}:{frame.lineno})")


def run_all(scale: PhysicalScale = PhysicalScale(), suites=None) -> VerificationReport:
    """Run the requested suites (all by default) at `scale` and assemble a
    report, whose config records the scale and the quadrature constants.

    A suite that raises is reported failed (`_run_suite`); the others still run.  Each suite
    runs once, in the order first asked.  Unknown suites or none raise ValueError, a str TypeError.
    """
    if isinstance(suites, str):
        raise TypeError(f"suites is a list of suite names, not a str: {suites!r}")
    names = list(SUITES) if suites is None else list(dict.fromkeys(suites))
    unknown = [n for n in names if n not in SUITES]
    if unknown or not names:
        raise ValueError(f"unknown suites: {unknown}" if unknown else "no suite requested")
    results = tuple(_run_suite(name, scale) for name in names)
    config = {"hbar": scale.hbar, "beta": scale.beta,
              "quadrature": {"rel_tol": REL_TOL, "peak_tol": PEAK_TOL, "max_rho": MAX_RHO,
                             "panel_budget": PANEL_BUDGET}}
    return VerificationReport(config, datetime.datetime.now(datetime.timezone.utc).isoformat(),
                              all(r.passed for r in results), results)
