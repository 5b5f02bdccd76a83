"""Cross-form, transform, normalization and inequality check suites.

Each suite takes a PhysicalScale, its only input, and returns a
deterministic CheckResult with its residual and a constant tolerance;
run_all bundles them into a VerificationReport, whose config records the
scale and the numerical transform's constants.  The form suites compare
the kernel with the paper's literal sums, summed exactly in integers at
Pythagorean momenta, so cancellation limits no N.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import traceback
from dataclasses import dataclass

import numpy as np

from .forms import _kernel_stack, distribution_max_l, podolsky_pauling_G
from .hydrogenic import (
    PhysicalScale,
    QuantumState,
    _radial_stack,
    expectation_p2,
    expectation_r2,
    normalization_constant,
)
from .specfun import spherical_bessel_j_orders
from .transform import (
    ABS_TOL,
    GL_ORDER,
    MAX_RHO,
    PANEL_BUDGET,
    REL_TOL,
    ConvergenceError,
    _transform_numeric,
    diagonalization_residual,
    gauss_legendre_panels,
    gram_matrices,
    panels_needed,
    tail_cut,
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification suite."""

    name: str
    states_covered: tuple
    grid: str
    max_residual: float
    tolerance: float
    passed: bool
    details: str = ""

    @classmethod
    def from_residual(cls, name, states, grid, residual, tolerance, details=""):
        return cls(name, tuple(states), grid, float(residual), float(tolerance),
                   bool(residual <= tolerance), details)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "states_covered": [list(s) for s in self.states_covered],
            "grid": self.grid,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "details": self.details,
        }


@dataclass(frozen=True)
class VerificationReport:
    results: tuple
    config: dict
    timestamp: str
    overall_pass: bool

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "timestamp": self.timestamp,
            "overall_pass": self.overall_pass,
            "results": [r.to_dict() for r in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _states(max_N: int, scale: PhysicalScale):
    return [QuantumState(N, l, scale) for N in range(1, max_N + 1)
            for l in range(N)]


def _worst(name, states, grid, error, p, tolerance, note=""):
    """The result of a suite whose error is given per state (rows) and
    momentum p (columns): its largest, with its state and p, then `note`,
    in `details`."""
    row, col = np.unravel_index(np.argmax(error), error.shape)
    where = f"worst at (N={states[row].N},l={states[row].l},p={p[col]:.6g})"
    return CheckResult.from_residual(name, [(s.N, s.l) for s in states], grid,
                                     error[row, col], tolerance,
                                     f"{where}; {note}" if note else where)


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


def pythagorean_momenta(scale: PhysicalScale) -> np.ndarray:
    """The momenta of PYTHAGOREAN_PAIRS, then their negatives (p = 0 once)."""
    q = np.array([2 * m * k / (m * m - k * k) for m, k in PYTHAGOREAN_PAIRS])
    return np.concatenate([q, -q[1:]]) * scale.momentum


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


def gegenbauer_coefficients(N: int, l: int) -> tuple:
    """The integers a_t (2 beta)^2 / N_{Nl} = (-1)^t 2^{l+t+2} C(N+l, N-l-1-t)
    (l+t+1)! / t!, t = 0..N-l-1, of the paper's Gegenbauer expansion, and 1."""
    return [(-1) ** t * 2 ** (l + t + 2) * math.comb(N + l, N - l - 1 - t)
            * (math.factorial(l + t + 1) // math.factorial(t)) for t in range(N - l)], 1


def lombardi_ogilvie_coefficients(N: int, l: int) -> tuple:
    """The integers (N+l)! c_k, k = 0..N-l-1, of the Lombardi-Ogilvie sum,
    c_k = 2^k (N-l-1)! (l+k+1)! / (k! (N-l-k-1)! (2l+k+1)!), and (N+l)!."""
    return [2 ** k * math.comb(N - l - 1, k) * math.factorial(l + k + 1)
            * (math.factorial(N + l) // math.factorial(2 * l + k + 1))
            for k in range(N - l)], math.factorial(N + l)


def _exact_sums(states, terms, coefficients) -> np.ndarray:
    """sum_{n=l+1}^{N} C_{n-l-1} T_n / (D h^{2(n+1)}) per state (rows) at
    `pythagorean_momenta` (columns), with C, D = coefficients(N, l) and the
    sequence T = terms(X, S, count) of each pair made once for all states.
    One integer Horner rule in h^2 and one int / int division per part give
    the exact sum correctly rounded; at -p it is the conjugate."""
    count = max(s.N for s in states) + 1
    pairs = [(m * m - k * k, 2 * m * k) for m, k in PYTHAGOREAN_PAIRS]
    pairs = [(X * X + S * S, terms(X, S, count)) for X, S in pairs]
    values = np.empty((len(states), len(pairs)), dtype=complex)
    for row, state in enumerate(states):
        N, l = state.N, state.l
        coeffs, divisor = coefficients(N, l)
        for col, (h2, sequence) in enumerate(pairs):
            re = im = 0
            for c, (a, b) in zip(coeffs, sequence[l + 1:N + 1]):
                re, im = re * h2 + c * a, im * h2 + c * b
            den = divisor * h2 ** (N + 1)
            values[row, col] = complex(re / den, im / den)
    return np.concatenate([values, values[:, 1:].conj()], axis=1)


def _a0(state: QuantumState) -> float:
    """a_0 = `gegenbauer_coefficients`(N, l)[0][0] N_{Nl} / (2 beta)^2, the
    first coefficient of the paper's Gegenbauer expansion."""
    return (gegenbauer_coefficients(state.N, state.l)[0][0] * normalization_constant(state)
            / (2.0 * state.scale.beta) ** 2)


def exact_gegenbauer(states) -> np.ndarray:
    """The paper's literal Gegenbauer sum, per state (rows) at
    `pythagorean_momenta` (columns): sum_t a_t sin(gamma) cos^{n+1}(gamma)
    (D^1_n + i C^1_n)(cos gamma), n = l+1+t, with the phase convention of
    `psi_trig`.  The exact sum is rounded, then scaled by N_{Nl} / (2 beta)^2."""
    values = _exact_sums(states, _gegenbauer_terms, gegenbauer_coefficients)
    return values * np.array([[normalization_constant(s) / (2.0 * s.scale.beta) ** 2]
                              for s in states])


def exact_lombardi_ogilvie(states) -> np.ndarray:
    """The paper's unnormalized Lombardi-Ogilvie sum
    alpha = sum_k c_k (i hbar beta / (p - i hbar beta))^{l+k+2}, exactly
    rounded, per state (rows) at `pythagorean_momenta` (columns)."""
    return _exact_sums(states, _lombardi_ogilvie_terms, lombardi_ogilvie_coefficients)


def verify_form_equivalence(scale: PhysicalScale = PhysicalScale()) -> CheckResult:
    """psi_trig (the 2F1 recurrence) against the paper's literal Gegenbauer
    sum, in exact arithmetic (`exact_gegenbauer`).

    It covers every state with N <= 8 and LARGE_N_STATES.  A state's
    residual is its largest |psi_trig - exact| over its largest |exact|.
    """
    states = _states(8, scale) + [QuantumState(N, l, scale) for N, l in LARGE_N_STATES]
    p = pythagorean_momenta(scale)
    exact = exact_gegenbauer(states)
    error = np.abs(_kernel_stack(states, p) - exact)
    error /= np.max(np.abs(exact), axis=1, keepdims=True)
    return _worst("form_equivalence", states, PYTHAGOREAN_GRID, error, p, 1e-11)


def verify_quadrature(scale: PhysicalScale = PhysicalScale()) -> CheckResult:
    """Numerical transform of R_{Nl} against the trigonometric closed form.

    Run under the outgoing kernel (sign +1), which reproduces the closed
    form with no extra phase factor.  Every state is transformed in one
    call, over the same nodes, and `details` reports the cut in rho that
    the transform took from the states' tails and its panel count.
    """
    pos = np.logspace(-2, math.log10(20.0), 13) * scale.momentum
    grid = np.concatenate([-pos[::-1], [0.0], pos])
    states = _states(4, scale)
    grid_name = f"{grid.size}-point mirrored grid up to 20 hbar beta"
    tolerance = 1e-7
    try:
        numeric, cut, panels = _transform_numeric(
            lambda r: _radial_stack(states, r), grid, 1, scale)
    except ConvergenceError as exc:
        failed = np.any(exc.error_bound > exc.tolerance, axis=-1)
        names = ", ".join(f"(N={s.N},l={s.l})" for s, bad in zip(states, failed) if bad)
        return CheckResult.from_residual(
            "quadrature_vs_closed_form", [(s.N, s.l) for s in states], grid_name,
            math.inf, tolerance, f"{names}: {exc}")
    error = np.abs(numeric - _kernel_stack(states, grid))
    return _worst("quadrature_vs_closed_form", states, grid_name, error, grid, tolerance,
                  f"cut rho={cut:g}, panels={panels}")


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
    p = pythagorean_momenta(scale)
    exact = exact_lombardi_ogilvie(states)
    c = np.array([[(-1) ** s.l * _a0(s) * (math.factorial(s.N + s.l)
                                            / lombardi_ogilvie_coefficients(s.N, s.l)[0][0])]
                  for s in states])
    error = np.abs(_kernel_stack(states, p, lombardi_ogilvie=True) - exact)
    error /= np.max(np.abs(exact), axis=1, keepdims=True)
    error = np.maximum(np.abs(_kernel_stack(states, p) / (c * exact.conj()) - 1.0), error)
    return _worst("lombardi_ogilvie_proportionality", states, PYTHAGOREAN_GRID, error, p, 1e-9)


def verify_pp_vs_hankel(scale: PhysicalScale = PhysicalScale()) -> CheckResult:
    """Closed-form Podolsky-Pauling vs the j_l Hankel-quadrature oracle.

    G_{Nl}(p) against (-1)^{N-l-1} sqrt(2/pi) hbar^{-3/2}
    int_0^inf j_l(p r / hbar) R_{Nl}(r) r^2 dr, the integral over the whole
    grid at once by the numerical transform's Gauss-Legendre panels in rho,
    with every j_l from one `specfun.spherical_bessel_j_orders` recurrence.
    The interval ends at `tail_cut` of |R rho^2|, which bounds the
    integrand since |j_l| <= 1; `details` reports it and the panel count.
    The residual is the largest |G - oracle| / |G| on the grid.
    """
    two_beta = 2.0 * scale.beta
    grid = np.linspace(0.2, 5.0, 12) * scale.momentum
    states = _states(4, scale)
    # In rho = 2 beta r: j_l(p r / hbar) = j_l(b rho), b = p / (2 hbar beta).
    b = grid / (2.0 * scale.momentum)
    cut = tail_cut(lambda rho: _radial_stack(states, rho / two_beta) * rho * rho)
    panels = int(panels_needed(b[-1], cut))
    centers, offsets, weights = gauss_legendre_panels(0.0, cut, panels, GL_ORDER)
    rho = (centers[:, None] + offsets).ravel()
    r = rho / two_beta
    weights = np.tile(weights, centers.size) * r * r / two_beta
    bessel = spherical_bessel_j_orders(max(s.l for s in states), np.outer(rho, b))
    radial = _radial_stack(states, r) * weights
    numeric = np.stack([(-1) ** (s.N - s.l - 1) * (row @ bessel[s.l])
                        for row, s in zip(radial, states)])
    G = np.stack([podolsky_pauling_G(s, grid) for s in states])
    error = np.abs(G - math.sqrt(2.0 / math.pi) * scale.hbar ** -1.5 * numeric) / np.abs(G)
    return _worst("podolsky_pauling_vs_hankel", states,
                  "12-point linear grid, p/(hbar beta) in [0.2, 5]", error, grid, 1e-7,
                  f"cut rho={cut:g}, panels={panels}")


def verify_parseval_and_diagonalization(scale: PhysicalScale = PhysicalScale()) -> CheckResult:
    """Unitarity (measure dp/(2 pi hbar)) plus the diagonalization identity.

    Unitarity is checked as equal momentum and position Gram matrices
    (`gram_matrices`) of the states with N <= 5, entry by entry for
    each pair of states of one l.  H(p_r f) = p H f is checked on
    u_k(rho) = rho^k e^{-rho/2}, k = 1, 2, 3, by `diagonalization_residual`,
    whose residuals do not depend on the scale.
    """
    states = _states(5, scale)
    momentum, position = gram_matrices(states)
    l = np.array([s.l for s in states])
    error = np.where(l[:, None] == l, np.abs(momentum - position), 0.0)
    i, j = np.unravel_index(np.argmax(error), error.shape)
    details = [f"Gram worst at (N={states[i].N},N'={states[j].N},l={l[i]}): {error[i, j]:.3e}"]
    k = np.arange(1, 4)[:, None]
    residuals = diagonalization_residual(
        lambda rho: rho ** k * np.exp(-rho / 2.0),
        lambda rho: (k - rho / 2.0) * rho ** (k - 1) * np.exp(-rho / 2.0),
        np.linspace(-10.0, 10.0, 21) * scale.momentum, scale)
    details += [f"rho^{power} e^(-rho/2): {res:.3e}" for power, res in zip(k[:, 0], residuals)]
    return CheckResult.from_residual(
        "parseval_and_diagonalization", [(s.N, s.l) for s in states],
        "Gram matrices per l, N <= 5; 21-point p grid in [-10, 10] hbar beta",
        max(error[i, j], residuals.max()), 1e-7, details="; ".join(details))


def verify_uncertainty(scale: PhysicalScale = PhysicalScale()) -> CheckResult:
    """<p^2> = hbar^2 beta^2 at a common beta (the diagonal of Fock's
    orthogonality), the residual, and <r^2><p^2> >= 9 hbar^2 / 4, D = 3."""
    states = _states(5, scale)
    p2 = np.array([expectation_p2(s) for s in states])
    products = p2 * [expectation_r2(s) for s in states]
    error = np.abs(p2 / scale.momentum ** 2 - 1.0)
    row = int(np.argmax(error))
    tolerance = 1e-9
    return CheckResult(
        "uncertainty_bound", tuple((s.N, s.l) for s in states),
        "analytic <r^2>, quadrature <p^2>", float(error[row]), tolerance,
        bool(error[row] <= tolerance and np.all(products >= 2.25 * scale.hbar ** 2)),
        f"worst at (N={states[row].N},l={states[row].l}); "
        f"ground-state product: {products[0]:.12g}")


def verify_so4_constancy(scale: PhysicalScale = PhysicalScale()) -> CheckResult:
    """The maximal-l density shapes of `distribution_max_l` are those of the
    states: |psi_{N,N-1}|^2 / LO and |G_{N,N-1}|^2 / PP are constant in p,
    and equal to their closed forms a_0^2 (hbar beta)^{2(N+1)}, a_0 = `_a0`, and
    32 (hbar beta)^5 N ((N-1)!)^2 / (pi (2N-1)!).

    LO is taken on p = 0 and 60 log-spaced |p|/(hbar beta) in [1e-3, 1e3] of
    either sign, PP on the p > 0 half, where it is not 0/0.  A state's
    residual is the largest of its two ratios' relative spreads (std / mean)
    and |mean / closed form - 1|.
    """
    pos = np.logspace(-3.0, 3.0, 60) * scale.momentum
    grid = np.concatenate([-pos[::-1], [0.0], pos])
    states = [QuantumState(N, N - 1, scale) for N in range(1, 7)]
    lo = np.abs(_kernel_stack(states, grid)) ** 2 / np.stack(
        [distribution_max_l("LO", s.N, grid, scale) for s in states])
    pp = np.stack([podolsky_pauling_G(s, pos) ** 2 / distribution_max_l("PP", s.N, pos, scale)
                   for s in states])
    lo_constant = np.array([(_a0(s) * scale.momentum ** (s.N + 1)) ** 2 for s in states])
    pp_constant = np.array([32.0 * scale.momentum ** 5 / math.pi * (
        s.N * math.factorial(s.N - 1) ** 2 / math.factorial(2 * s.N - 1)) for s in states])
    residual = np.max([lo.std(axis=1) / lo.mean(axis=1), pp.std(axis=1) / pp.mean(axis=1),
                       np.abs(lo.mean(axis=1) / lo_constant - 1.0),
                       np.abs(pp.mean(axis=1) / pp_constant - 1.0)], axis=0)
    row = int(np.argmax(residual))
    return CheckResult.from_residual(
        "so4_form_constancy", [(s.N, s.l) for s in states],
        f"{grid.size}-point mirrored log grid (PP on its p > 0 half)", residual[row],
        1e-10, f"worst at (N={states[row].N},l={states[row].l})")


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
            name, (), "", math.inf, math.nan, False,
            f"raised {type(exc).__name__}: {exc} (in {frame.name}, "
            f"{os.path.basename(frame.filename)}:{frame.lineno})")


def run_all(scale: PhysicalScale = PhysicalScale(), suites=None) -> VerificationReport:
    """Run the requested suites (all by default) at `scale` and assemble a
    report, whose config records the scale and the quadrature constants.

    A suite that raises is reported as failed (see `_run_suite`); the
    others still run.
    """
    names = list(SUITES) if suites is None else list(suites)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    results = tuple(_run_suite(name, scale) for name in names)
    config = {"hbar": scale.hbar, "beta": scale.beta,
              "quadrature": {"rel_tol": REL_TOL, "abs_tol": ABS_TOL, "max_rho": MAX_RHO,
                             "panel_budget": PANEL_BUDGET}}
    return VerificationReport(results, config,
                              datetime.datetime.now(datetime.timezone.utc).isoformat(),
                              all(r.passed for r in results))
