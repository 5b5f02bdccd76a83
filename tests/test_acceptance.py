"""Acceptance gate: the ten top-level criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.  Each test states its criterion, the tolerance it is
held to, and the measured figure of merit.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from hmomentum.forms import (
    distribution_max_l,
    podolsky_pauling_G,
    psi_trig,
)
from hmomentum.hydrogenic import QuantumState, expectation_r2
from hmomentum.specfun import gegenbauer_C, laguerre
from hmomentum.verification import (
    _gram_blocks,
    _p2_stack,
    verify_form_equivalence,
    verify_lo_proportionality,
    verify_parseval_and_diagonalization,
    verify_pp_vs_hankel,
    verify_quadrature,
    verify_so4_constancy,
)
from oracles import gegenbauer_D1


def report(number, name, figure, tolerance, passed):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{name}]: "
          f"measure={figure:.3e} tolerance={tolerance:.1e} -> {status}")
    assert passed, f"acceptance criterion {number} ({name}) failed"


def test_criterion_01_form_equivalence():
    """Gegenbauer expansion == trigonometric expansion, N <= 8, 1e-11."""
    res = verify_form_equivalence()
    report(1, "form equivalence", res.max_residual, 1e-11,
           res.max_residual <= 1e-11)


def test_criterion_02_transform_consistency():
    """Quadrature transform of R_{Nl} vs closed form, N <= 4, 1e-7."""
    res = verify_quadrature()
    report(2, "transform consistency", res.max_residual, 1e-7,
           res.max_residual <= 1e-7)


def test_criterion_03_diagonalization():
    """H(p_r f) = p H(f) on p in [-10, 10] for rho^k e^{-rho/2}, k = 1, 2, 3, 1e-7."""
    res = verify_parseval_and_diagonalization()
    worst = max(float(part.split(": ")[1]) for part in res.details.split("; ")
                if part.startswith("rho^"))
    report(3, "diagonalization identity", worst, 1e-7, worst <= 1e-7)


def test_criterion_04_parseval():
    """Momentum Gram matrix (measure dp/(2 pi hbar)) equals the position one,
    with unit diagonal, for every l and N <= 12, to 1e-13."""
    worst = 0.0
    for l in range(12):
        momentum, position = _gram_blocks([QuantumState(N, l) for N in range(l + 1, 13)])[l]
        worst = max(worst, np.max(np.abs(momentum - position)),
                    np.max(np.abs(np.diag(momentum) - 1.0)))
    # Ground-state analytic oracle: int dp / (beta^2 + p^2)^2 = pi / (2 beta^3)
    # makes momentum_norm exactly 1; re-derive the worked value here.
    analytic = 2.0 * (4.0 * 2.0 ** 2 / (2.0 * math.pi)) * (math.pi / (2.0 * 2.0 ** 3))
    assert analytic == pytest.approx(1.0, rel=1e-15)
    report(4, "Parseval unitarity", worst, 1e-13, worst <= 1e-13)


def test_criterion_05_lombardi_ogilvie():
    """psi_trig / alpha_LO constant in p, rel std <= 1e-9, N <= 6."""
    res = verify_lo_proportionality()
    assert res.details  # measured constants are logged per state
    report(5, "Lombardi-Ogilvie equivalence", res.max_residual, 1e-9,
           res.max_residual <= 1e-9)


def test_criterion_06_podolsky_pauling():
    """PP closed form vs j_l Hankel quadrature, norm, and tail slope."""
    res = verify_pp_vs_hankel()
    prop_ok = res.max_residual <= 1e-7

    norm_worst = 0.0
    for N in range(1, 5):
        for l in range(N):
            state = QuantumState(N, l)
            val, _ = quad(lambda p: podolsky_pauling_G(state, p) ** 2 * p * p,
                          0.0, math.inf, limit=400)
            norm_worst = max(norm_worst, abs(val - 1.0))
    norm_ok = norm_worst <= 1e-8

    # Ground-state density ~ (1 + p^2)^{-4}: fit the log-log slope at large p.
    ground = QuantumState(1, 0)
    ps = np.logspace(1.2, 2.2, 20)
    dens = np.array([podolsky_pauling_G(ground, p) ** 2 for p in ps])
    slope = np.polyfit(np.log(1.0 + ps ** 2), np.log(dens), 1)[0]
    slope_ok = abs(slope - (-4.0)) <= 0.04

    figure = max(res.max_residual, norm_worst, abs(slope + 4.0) / 4.0)
    report(6, "Podolsky-Pauling", figure, 1e-7,
           prop_ok and norm_ok and slope_ok)


def test_criterion_07_figure_reproduction(capsys, tmp_path):
    """cmd_plot emits the PP/LO density curves; exact spot values."""
    from hmomentum.cli import main

    for N in range(1, 5):
        for form in ("PP", "LO"):
            target = tmp_path / f"{form}_{N}.csv"
            assert main(["plot", form, str(N), "--pmax", "4", "--count", "5",
                         "--output", str(target)]) == 0
            lines = target.read_text().strip().splitlines()
            assert lines[0] == "p,density"

    def density_from_cli(form, N, pmax, count, index):
        target = tmp_path / "spot.csv"
        assert main(["plot", form, str(N), "--pmax", str(pmax),
                     "--count", str(count), "--output", str(target)]) == 0
        row = target.read_text().strip().splitlines()[1 + index]
        return float(row.split(",")[1])

    errs = [
        abs(density_from_cli("PP", 1, 2, 3, 0) - 1.0),
        abs(density_from_cli("PP", 1, 2, 3, 1) - 1.0 / 16.0),
        abs(density_from_cli("LO", 1, 1, 3, 2) - 0.25),
    ]
    worst = max(errs)
    report(7, "figure reproduction", worst, 1e-15, worst <= 1e-15)


def test_criterion_08_uncertainty():
    """<r^2><p^2> >= 9/4 for N <= 5; ground-state product 3.0 +- 1e-9, with <p^2>
    the integral of G (`_p2_stack`)."""
    states = [QuantumState(N, l) for N in range(1, 6) for l in range(N)]
    products = [expectation_r2(s) * p2 for s, p2 in zip(states, _p2_stack(states))]
    worst_shortfall = max(2.25 - product for product in products)
    ground_err = abs(products[0] - 3.0)
    report(8, "uncertainty bound", max(worst_shortfall, ground_err), 1e-9,
           worst_shortfall <= 0.0 and ground_err <= 1e-9)


def test_criterion_09_special_function_identities():
    """sin/cos special values of C^1, D^1 to 1e-13; Laguerre sums to 1e-12."""
    worst_trig = 0.0
    thetas = np.linspace(0.0, math.pi, 60)[1:-1]
    for n in range(41):
        for theta in thetas:
            x = math.cos(theta)
            worst_trig = max(
                worst_trig,
                abs(gegenbauer_C([n], [1.0], x)[0] * math.sin(theta)
                    - math.sin((n + 1) * theta)),
                abs(gegenbauer_D1(n, x) * math.sin(theta)
                    - math.cos((n + 1) * theta)),
            )
    trig_ok = worst_trig <= 1e-13

    worst_lag = 0.0
    for n in range(31):
        for alpha in (0, 1, 5, 21):
            for x in (0.1, 1.0, 10.0, 50.0):
                # Exact rational sum: the naive float sum cancels
                # catastrophically at large x and cannot serve as oracle.
                acc = Fraction(0)
                xf = Fraction(x)
                for t in range(n + 1):
                    acc += ((-1) ** t * math.comb(n + alpha, n - t)
                            * xf ** t / math.factorial(t))
                total = float(acc)
                got = laguerre([n], [alpha], x)[0]
                worst_lag = max(worst_lag,
                                abs(got - total) / (1.0 + abs(total)))
    lag_ok = worst_lag <= 1e-12

    report(9, "special-function identities", max(worst_trig, worst_lag), 1e-12,
           trig_ok and lag_ok)


def test_criterion_10_so4_constancy():
    """|psi_{N,N-1}|^2 (1 + p^2)^{N+1} constant, rel std <= 1e-10, N <= 6."""
    res = verify_so4_constancy()
    report(10, "SO(4) constancy", res.max_residual, 1e-10,
           res.max_residual <= 1e-10)
