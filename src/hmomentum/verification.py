"""Cross-form, transform, normalization and inequality check suites.

Each suite returns a CheckResult; run_all bundles them into a
VerificationReport.  Everything is deterministic for a fixed
configuration (no randomness anywhere).  The form suites compare the
kernel with the paper's literal sums, summed exactly in integers at
Pythagorean momenta, so cancellation limits no N.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import math
import os
import traceback
from dataclasses import dataclass, field

import numpy as np

from .forms import podolsky_pauling_G, psi_trig
from .hydrogenic import (
    PhysicalScale,
    QuantumState,
    expectation_p2,
    expectation_r2,
    normalization_constant,
    radial_wavefunction,
)
from .specfun import spherical_bessel_j_orders
from .transform import (
    OUTGOING_STRICT,
    DEFAULT_QUADRATURE,
    GL_ORDER,
    ConvergenceError,
    QuadratureSpec,
    diagonalization_residual,
    gauss_legendre_panels,
    gram_matrices,
    panels_needed,
    transform_numeric,
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

    @classmethod
    def from_dict(cls, d: dict) -> "CheckResult":
        return cls(d["name"], tuple(tuple(s) for s in d["states_covered"]),
                   d["grid"], d["max_residual"], d["tolerance"], d["passed"],
                   d.get("details", ""))


@dataclass(frozen=True)
class VerificationReport:
    results: tuple
    config: dict
    timestamp: str
    overall_pass: bool

    @classmethod
    def assemble(cls, results, config) -> "VerificationReport":
        return cls(
            results=tuple(results),
            config=dict(config),
            timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
            overall_pass=all(r.passed for r in results),
        )

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "timestamp": self.timestamp,
            "overall_pass": self.overall_pass,
            "results": [r.to_dict() for r in self.results],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        d = json.loads(text)
        return cls(
            results=tuple(CheckResult.from_dict(r) for r in d["results"]),
            config=d["config"],
            timestamp=d["timestamp"],
            overall_pass=d["overall_pass"],
        )


@dataclass(frozen=True)
class VerifyConfig:
    """Tunable knobs of the verification run."""

    scale: PhysicalScale = field(default_factory=PhysicalScale)
    tol_scale: float = 1.0
    quad_spec: QuadratureSpec = DEFAULT_QUADRATURE

    def describe(self) -> dict:
        return {
            "hbar": self.scale.hbar,
            "beta": self.scale.beta,
            "tol_scale": self.tol_scale,
            "quadrature": dataclasses.asdict(self.quad_spec),
        }


DEFAULT_CONFIG = VerifyConfig()


def default_grid(scale: PhysicalScale = PhysicalScale(), count: int = 60,
                 mirrored: bool = False) -> np.ndarray:
    """p = 0 plus `count` log-spaced points of p/(hbar beta) in [1e-3, 1e3]."""
    if count < 1:
        raise ValueError("grid needs at least one point")
    pos = np.logspace(-3.0, 3.0, count) * scale.momentum
    if mirrored:
        return np.concatenate([-pos[::-1], [0.0], pos])
    return np.concatenate([[0.0], pos])


def _states(max_N: int, scale: PhysicalScale):
    return [QuantumState(N, l, scale) for N in range(1, max_N + 1)
            for l in range(N)]


def _where(state: QuantumState, p: float) -> str:
    return f"(N={state.N},l={state.l},p={p:.6g})"


# At q = p / hbar beta = 2mk / (m^2 - k^2), cos(gamma) = X/h and sin(gamma) = S/h,
# with X = m^2 - k^2, S = 2mk and h = m^2 + k^2, are rational, and so are C^1_n
# and sin(gamma) D^1_n.  (1, 0) is p = 0; the others spread q over [1e-3, 1e3].
PYTHAGOREAN_PAIRS = ((1, 0), (2000, 1), (632, 1), (200, 1), (63, 1), (20, 1), (13, 2),
                     (12, 5), (15, 11), (11, 10), (32, 31), (101, 100), (317, 316),
                     (1001, 1000))

# The states past its max_N that form_equivalence checks as well.
LARGE_N_STATES = ((40, 0), (60, 10))


def pythagorean_momenta(scale: PhysicalScale) -> np.ndarray:
    """The momenta of PYTHAGOREAN_PAIRS, then their negatives (p = 0 once)."""
    q = np.array([2 * m * k / (m * m - k * k) for m, k in PYTHAGOREAN_PAIRS])
    return np.concatenate([q, -q[1:]]) * scale.momentum


def _gegenbauer_terms(X: int, S: int, count: int) -> list:
    """X^{n+1} h^{n+1} sin(gamma) (D^1_n + i C^1_n)(cos gamma), n < count, as
    (re, im) integers.  h^{n+1} sin(gamma) D^1_n = h^{n+1} cos((n+1) gamma) and
    h^{n+1} sin(gamma) C^1_n both follow the Chebyshev recurrence (DLMF 18.9.1)
    c_{n+1} = 2 X c_n - h^2 c_{n-1}, from (c_{-1}, c_0) = (1, X) and (0, S)."""
    h2, terms = X * X + S * S, []
    d_prev, d, c_prev, c, power = 1, X, 0, S, X
    for _ in range(count):
        terms.append((power * d, power * c))
        d_prev, d = d, 2 * X * d - h2 * d_prev
        c_prev, c = c, 2 * X * c - h2 * c_prev
        power *= X
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


def verify_form_equivalence(max_N: int = 8,
                            config: VerifyConfig = DEFAULT_CONFIG) -> CheckResult:
    """psi_trig (the 2F1 recurrence) against the paper's literal Gegenbauer
    sum, in exact arithmetic (`exact_gegenbauer`).

    It covers every state with N <= max_N and LARGE_N_STATES.  A state's
    residual is its largest |psi_trig - exact| over its largest |exact|.
    """
    scale = config.scale
    states = _states(max_N, scale)
    states += [QuantumState(N, l, scale) for N, l in LARGE_N_STATES if N > max_N]
    p = pythagorean_momenta(scale)
    exact = exact_gegenbauer(states)
    error = np.abs(np.stack([psi_trig(s, p) for s in states]) - exact)
    error /= np.max(np.abs(exact), axis=1, keepdims=True)
    row, col = np.unravel_index(np.argmax(error), error.shape)
    return CheckResult.from_residual(
        "form_equivalence", [(s.N, s.l) for s in states],
        f"{p.size} Pythagorean momenta, |p|/(hbar beta) in [1e-3, 1e3] and 0",
        error[row, col], 1e-11 * config.tol_scale,
        f"worst at {_where(states[row], p[col])}")


def verify_quadrature(max_N: int = 4, grid=None,
                      config: VerifyConfig = DEFAULT_CONFIG) -> CheckResult:
    """Numerical transform of R_{Nl} against the trigonometric closed form.

    Run under the outgoing strict convention, which reproduces the
    closed form with no extra phase factor.  Every state is transformed
    in one call, over the same nodes.
    """
    scale = config.scale
    if grid is None:
        pos = np.logspace(-2, math.log10(20.0), 13) * scale.momentum
        grid = np.concatenate([-pos[::-1], [0.0], pos])
    grid = np.asarray(grid, dtype=float)
    states = _states(max_N, scale)
    covered = [(s.N, s.l) for s in states]
    grid_name = f"{grid.size}-point mirrored grid up to 20 hbar beta"
    tolerance = 1e-7 * config.tol_scale
    try:
        numeric = transform_numeric(
            lambda r: np.stack([radial_wavefunction(s, r) for s in states]), grid,
            OUTGOING_STRICT, config.quad_spec, scale)
    except ConvergenceError as exc:
        failed = np.any(exc.error_bound > exc.tolerance, axis=-1)
        names = ", ".join(f"(N={s.N},l={s.l})" for s, bad in zip(states, failed) if bad)
        return CheckResult.from_residual(
            "quadrature_vs_closed_form", covered, grid_name, math.inf, tolerance,
            f"{names}: {exc}")
    error = np.abs(numeric - np.stack([psi_trig(s, grid) for s in states]))
    row, col = np.unravel_index(np.argmax(error), error.shape)
    return CheckResult.from_residual(
        "quadrature_vs_closed_form", covered, grid_name, error[row, col], tolerance,
        f"worst at {_where(states[row], grid[col])}")


def verify_lo_proportionality(max_N: int = 6,
                              config: VerifyConfig = DEFAULT_CONFIG) -> CheckResult:
    """Constancy in p of psi_trig / conj(alpha_LO), per state.

    psi_trig runs the 2F1 recurrence; alpha_LO is the paper's literal c_k
    sum in exact arithmetic (`exact_lombardi_ogilvie`).

    The Lombardi-Ogilvie closed form matches the incoming-kernel
    convention while the trigonometric expansion matches the outgoing
    one, so the convention-matched ratio pairs psi_trig(p) with
    conj(alpha(p)) (equivalently alpha(-p)).  Measured constants are
    logged per state, after the worst (N, l, p).
    """
    scale = config.scale
    states = _states(max_N, scale)
    p = pythagorean_momenta(scale)
    ratios = np.stack([psi_trig(s, p) for s in states]) / exact_lombardi_ogilvie(states).conj()
    mean = ratios.mean(axis=1, keepdims=True)
    spread = np.std(ratios, axis=1) / np.abs(mean[:, 0])
    row = int(np.argmax(spread))
    col = int(np.argmax(np.abs(ratios[row] - mean[row])))
    details = [f"worst at {_where(states[row], p[col])}"]
    details += [f"(N={s.N},l={s.l}): {c:.6g}" for s, c in zip(states, mean[:, 0])]
    return CheckResult.from_residual(
        "lombardi_ogilvie_proportionality", [(s.N, s.l) for s in states],
        f"{p.size} Pythagorean momenta, |p|/(hbar beta) in [1e-3, 1e3] and 0",
        spread[row], 1e-9 * config.tol_scale, details="; ".join(details))


def verify_pp_vs_hankel(max_N: int = 4, config: VerifyConfig = DEFAULT_CONFIG) -> CheckResult:
    """Closed-form Podolsky-Pauling vs the j_l Hankel-quadrature oracle.

    Proportionality (constancy of the ratio in p) between G_{Nl}(p) and
    int_0^inf j_l(p r / hbar) R_{Nl}(r) r^2 dr, the latter over the whole
    grid at once by the numerical transform's Gauss-Legendre panels in rho,
    with every j_l from one `specfun.spherical_bessel_j_orders` recurrence.
    """
    scale = config.scale
    grid = np.linspace(0.2, 5.0, 12) * scale.momentum
    # In rho = 2 beta r: j_l(p r / hbar) = j_l(b rho), b = p / (2 hbar beta).
    b = grid / (2.0 * scale.momentum)
    max_rho = config.quad_spec.max_rho
    centers, offsets, weights = gauss_legendre_panels(
        0.0, max_rho, int(panels_needed(b[-1], max_rho)), GL_ORDER)
    rho = (centers[:, None] + offsets).ravel()
    r = rho / (2.0 * scale.beta)
    weights = np.tile(weights, centers.size) * r * r / (2.0 * scale.beta)
    bessel = spherical_bessel_j_orders(max_N - 1, np.outer(rho, b))
    states = _states(max_N, scale)
    radial = np.stack([radial_wavefunction(s, r) for s in states]) * weights
    numeric = np.stack([row @ bessel[s.l] for row, s in zip(radial, states)])
    ratios = np.stack([podolsky_pauling_G(s, grid) for s in states]) / numeric
    mean = ratios.mean(axis=1, keepdims=True)
    spread = np.std(ratios, axis=1) / np.abs(mean[:, 0])
    row = int(np.argmax(spread))
    col = int(np.argmax(np.abs(ratios[row] - mean[row])))
    return CheckResult.from_residual(
        "podolsky_pauling_vs_hankel", [(s.N, s.l) for s in states],
        "12-point linear grid, p/(hbar beta) in [0.2, 5]", spread[row],
        1e-7 * config.tol_scale, f"worst at {_where(states[row], grid[col])}")


# Compactly supported bump tests for the diagonalization identity; each
# entry is (f, f', support).  All vanish to first order at the endpoints.
def _bump(a, b):
    def f(r):
        return np.where((a < r) & (r < b), (r - a) ** 2 * (b - r) ** 2, 0.0)

    def df(r):
        return np.where((a < r) & (r < b),
                        2.0 * (r - a) * (b - r) ** 2 - 2.0 * (r - a) ** 2 * (b - r), 0.0)

    return f, df, (a, b)


DIAGONALIZATION_TESTS = (_bump(1.0, 2.0), _bump(0.5, 2.5), _bump(2.0, 4.0))


def verify_parseval_and_diagonalization(max_N: int = 5,
                                        config: VerifyConfig = DEFAULT_CONFIG) -> CheckResult:
    """Unitarity (measure dp/(2 pi hbar)) plus Eq.-diagonal identity.

    Unitarity is checked as equal momentum and position Gram matrices
    (`gram_matrices`) of the states with N <= max_N, entry by entry for
    each pair of states of one l.
    """
    scale = config.scale
    states = _states(max_N, scale)
    momentum, position = gram_matrices(states)
    l = np.array([s.l for s in states])
    error = np.where(l[:, None] == l, np.abs(momentum - position), 0.0)
    i, j = np.unravel_index(np.argmax(error), error.shape)
    worst = error[i, j]
    details = [f"Gram worst at (N={states[i].N},N'={states[j].N},l={l[i]}): {worst:.3e}"]
    p_grid = np.linspace(-10.0, 10.0, 21) * scale.momentum
    for i, (f, df, support) in enumerate(DIAGONALIZATION_TESTS):
        res = diagonalization_residual(f, df, support, p_grid,
                                       spec=config.quad_spec, scale=scale)
        details.append(f"bump{i} on {support}: {res:.3e}")
        worst = max(worst, res)
    return CheckResult.from_residual(
        "parseval_and_diagonalization", [(s.N, s.l) for s in states],
        "Gram matrices per l, N <= %d; 21-point p grid in [-10, 10] hbar beta" % max_N,
        worst, 1e-7 * config.tol_scale, details="; ".join(details))


def verify_uncertainty(max_N: int = 5,
                       config: VerifyConfig = DEFAULT_CONFIG) -> CheckResult:
    """<r^2><p^2> >= 9 hbar^2 / 4 for every state, D = 3."""
    scale = config.scale
    bound = 2.25 * scale.hbar ** 2
    worst = -math.inf
    details = []
    states = _states(max_N, scale)
    for state in states:
        product = expectation_r2(state) * expectation_p2(state)
        shortfall = bound - product
        worst = max(worst, shortfall)
        if state.N == 1:
            details.append(f"ground-state product: {product:.12g}")
    return CheckResult.from_residual(
        "uncertainty_bound", [(s.N, s.l) for s in states],
        "analytic <r^2>, quadrature <p^2>", max(worst, 0.0),
        1e-9 * config.tol_scale, details="; ".join(details))


def verify_so4_constancy(max_N: int = 6, grid=None,
                         config: VerifyConfig = DEFAULT_CONFIG) -> CheckResult:
    """|psi_{N,N-1}|^2 (hbar^2 beta^2 + p^2)^{N+1} constant in p."""
    scale = config.scale
    if grid is None:
        grid = default_grid(scale, mirrored=True)
    grid = np.asarray(grid, dtype=float)
    pm2 = scale.momentum ** 2
    worst = 0.0
    states = [QuantumState(N, N - 1, scale) for N in range(1, max_N + 1)]
    for state in states:
        vals = np.abs(psi_trig(state, grid)) ** 2 * (pm2 + grid * grid) ** (state.N + 1)
        rel_std = float(vals.std() / vals.mean())
        worst = max(worst, rel_std)
    return CheckResult.from_residual(
        "so4_form_constancy", [(s.N, s.l) for s in states],
        f"{grid.size}-point mirrored log grid", worst,
        1e-10 * config.tol_scale)


SUITES = {
    "form_equivalence": lambda cfg: verify_form_equivalence(config=cfg),
    "quadrature": lambda cfg: verify_quadrature(config=cfg),
    "lo_proportionality": lambda cfg: verify_lo_proportionality(config=cfg),
    "pp_vs_hankel": lambda cfg: verify_pp_vs_hankel(config=cfg),
    "parseval_diagonalization": lambda cfg: verify_parseval_and_diagonalization(config=cfg),
    "uncertainty": lambda cfg: verify_uncertainty(config=cfg),
    "so4_constancy": lambda cfg: verify_so4_constancy(config=cfg),
}


def _run_suite(name: str, config: VerifyConfig) -> CheckResult:
    """The suite's result; if it raises, a failed result named by its SUITES
    key, with an infinite residual and the exception and where it was raised."""
    try:
        return SUITES[name](config)
    except Exception as exc:  # noqa: BLE001 - one suite's crash fails only that suite
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return CheckResult(
            name, (), "", math.inf, math.nan, False,
            f"raised {type(exc).__name__}: {exc} (in {frame.name}, "
            f"{os.path.basename(frame.filename)}:{frame.lineno})")


def run_all(config: VerifyConfig = DEFAULT_CONFIG,
            suites=None) -> VerificationReport:
    """Run the requested suites (all by default) and assemble a report.

    A suite that raises is reported as failed (see `_run_suite`); the
    others still run.
    """
    names = list(SUITES) if suites is None else list(suites)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    results = [_run_suite(name, config) for name in names]
    return VerificationReport.assemble(results, config.describe())
