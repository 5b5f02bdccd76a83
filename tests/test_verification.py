"""Verification suites: pass/fail mechanics, determinism, serialization."""

import dataclasses
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmomentum import hydrogenic, transform, verification
from hmomentum.forms import _kernel_stack, _pp_stack, distribution_max_l
from hmomentum.hydrogenic import PhysicalScale, QuantumState, _radial_stack
from hmomentum.transform import GL_ORDER, gauss_legendre_panels
from hmomentum.verification import (
    SUITES,
    CheckResult,
    VerificationReport,
    _gram_blocks,
    _p2_stack,
    pythagorean_momenta,
    run_all,
    verify_form_equivalence,
    verify_lo_proportionality,
    verify_parseval_and_diagonalization,
    verify_pp_vs_hankel,
    verify_quadrature,
    verify_so4_constancy,
    verify_uncertainty,
)


def perturbed_rows(state, factor, **call):
    """`forms._kernel_stack` with the row of `state` (N, l) times factor(q), in
    its calls with the keyword arguments `call`."""
    def perturbed(states, q, **kwargs):
        values = _kernel_stack(states, q, **kwargs)
        for row, s in enumerate(states):
            if (s.N, s.l) == state and kwargs == call:
                values[row] *= factor(q)
        return values

    return perturbed


def perturbed_ladder(state, factor):
    """`forms._pp_stack` with the row of `state` (N, l), the function
    podolsky_pauling_G of that state, times factor."""
    def perturbed(states, q):
        values = _pp_stack(states, q)
        for row, s in enumerate(states):
            if (s.N, s.l) == state:
                values[row] *= factor
        return values

    return perturbed


class TestCheckResult:
    def test_pass_consistency(self):
        res = CheckResult("x", [(1, 0)], "g", 1e-12, 1e-11)
        assert res.passed
        res = CheckResult("x", [(1, 0)], "g", 1e-10, 1e-11)
        assert not res.passed
        assert not CheckResult("x", (), "", math.inf, math.nan).passed
        with pytest.raises(TypeError):
            CheckResult("x", (), "", 1.0, 0.5, passed=True)

    def test_dict_round_trip(self):
        res = CheckResult("x", [(2, 1)], "g", np.float64(0.5), 1.0, "note")
        [d] = json.loads(VerificationReport({}, "", True, (res,)).to_json())["results"]
        assert d == {"name": "x", "states_covered": [[2, 1]], "grid": "g",
                     "max_residual": 0.5, "tolerance": 1.0, "passed": True, "details": "note"}
        assert list(d) == [f.name for f in dataclasses.fields(CheckResult)]


class TestFastSuites:
    def test_form_equivalence_passes(self):
        assert verify_form_equivalence().passed

    def test_lo_proportionality_passes(self):
        res = verify_lo_proportionality()
        assert res.passed

    def test_so4_passes(self):
        assert verify_so4_constancy().passed

    def test_uncertainty_passes(self):
        res = verify_uncertainty()
        assert res.passed
        assert "ground-state product: 3" in res.details

    def test_covers_large_N(self):
        """Every state with N <= 8, and sampled states from N = 40 on."""
        covered = verify_form_equivalence().states_covered
        assert set(covered) >= {(N, l) for N in range(1, 9) for l in range(N)}
        assert max(N for N, _ in covered) >= 40

    def test_beta_covariance(self):
        scale = PhysicalScale(beta=0.5)
        assert verify_form_equivalence(scale).passed
        assert verify_so4_constancy(scale).passed
        assert verify_parseval_and_diagonalization(scale).passed
        assert verify_uncertainty(scale).passed
        assert verify_pp_vs_hankel(scale).passed


def mirrored(pos):
    return np.concatenate([-pos[::-1], [0.0], pos])


# The grid of q = p / hbar beta of each suite that names its worst (N, l, q), at the
# default scale.
SUITE_GRIDS = {
    verify_form_equivalence: pythagorean_momenta(),
    verify_quadrature: mirrored(np.logspace(-2, math.log10(20.0), 13)),
    verify_lo_proportionality: pythagorean_momenta(),
    verify_pp_vs_hankel: np.linspace(0.2, 5.0, 12),
}


class TestWorstPoint:
    """The form and transform suites name the state and momentum of their
    worst residual."""

    @staticmethod
    def worst_state(details):
        match = re.match(r"worst at \(N=(\d+),l=(\d+),q=([^)]+)\)(;|$)", details)
        assert match, details
        return int(match[1]), int(match[2]), float(match[3])

    @pytest.mark.parametrize("suite", SUITE_GRIDS, ids=lambda suite: suite.__name__)
    def test_names_a_covered_state_and_grid_point(self, suite):
        res = suite()
        N, l, p = self.worst_state(res.details)
        assert (N, l) in res.states_covered
        assert f"{p:.6g}" in {f"{q:.6g}" for q in SUITE_GRIDS[suite]}, res.details

    def test_form_equivalence(self):
        res = verify_form_equivalence()
        N, l, p = self.worst_state(res.details)
        assert (N, l) in res.states_covered and abs(p) <= 1e3 * 1.001

    def test_lo_proportionality(self):
        res = verify_lo_proportionality()
        N, l, p = self.worst_state(res.details)
        assert 1 <= N <= 6 and 0 <= l < N and abs(p) <= 1e3 * 1.001

    @pytest.mark.parametrize("suite", [verify_form_equivalence, verify_lo_proportionality])
    def test_perturbed_state_fails(self, monkeypatch, suite):
        """psi_trig of (5, 2) off by a factor 1 + 1e-9 (1 + |p|/(hbar beta)):
        both suites fail and name that state.  Each holds psi_trig to an
        exact value at every p, form_equivalence to the exact sum and
        lo_proportionality to c conj(alpha), so the factor's excess over 1
        is the error there."""
        perturbed = perturbed_rows((5, 2), lambda p: 1.0 + 1e-9 * (1.0 + np.abs(p)))
        monkeypatch.setattr(verification, "_kernel_stack", perturbed)
        res = suite()
        assert not res.passed
        assert self.worst_state(res.details)[:2] == (5, 2), res.details

    def test_lo_constant_fails(self, monkeypatch):
        """psi_trig of (5, 2) off by a constant 1 + 1e-8: the pointwise
        equality psi_trig = c conj(alpha), with c = (-1)^l a_0 (N+l)! / c_0
        from exact integers, is off by 1e-8 at every p."""
        monkeypatch.setattr(verification, "_kernel_stack",
                            perturbed_rows((5, 2), lambda p: 1.0 + 1e-8))
        res = verify_lo_proportionality()
        assert not res.passed and res.max_residual > 1e-9
        assert self.worst_state(res.details)[:2] == (5, 2), res.details

    def test_lo_tail_factor_fails(self, monkeypatch):
        """psi_trig of (5, 2) off by 1 + 2e-9 only at |p| >= 100 hbar beta:
        the equality is relative at each p, so a factor confined to the
        tail, where psi is small, shows in full."""
        monkeypatch.setattr(verification, "_kernel_stack",
                            perturbed_rows((5, 2), lambda p: 1.0 + 2e-9 * (np.abs(p) >= 100.0)))
        res = verify_lo_proportionality()
        assert not res.passed and res.max_residual > 1e-9
        assert self.worst_state(res.details)[:2] == (5, 2), res.details

    @pytest.mark.parametrize("hbar_beta", [1e-8, 1e-3, 1.0, 3.0, 1e4])
    def test_lo_residual_at_rounding(self, hbar_beta):
        res = verify_lo_proportionality(PhysicalScale(1.0, hbar_beta))
        assert res.passed and res.max_residual <= 2e-14

    def test_lo_kernel_perturbed_fails(self, monkeypatch):
        """The Lombardi-Ogilvie kernel that table and eval serve, off by a
        constant 1 + 1e-8 at (5, 2): its pointwise comparison with the exact
        alpha, relative to max |alpha|, is off by up to 1e-8."""
        perturbed = perturbed_rows((5, 2), lambda p: 1.0 + 1e-8, lombardi_ogilvie=True)
        monkeypatch.setattr(verification, "_kernel_stack", perturbed)
        res = verify_lo_proportionality()
        assert not res.passed and res.max_residual > 1e-9
        assert self.worst_state(res.details)[:2] == (5, 2), res.details

    def test_pp_scaled_G_fails(self, monkeypatch):
        """G of (3, 1) scaled by 1 + 1e-6: a constant factor, which a ratio's
        constancy cannot see, fails the equality and names the state."""
        monkeypatch.setattr(verification, "_pp_stack", perturbed_ladder((3, 1), 1.0 + 1e-6))
        res = verify_pp_vs_hankel()
        assert not res.passed and res.max_residual > 1e-7
        assert self.worst_state(res.details)[:2] == (3, 1), res.details

    @pytest.mark.parametrize("hbar, beta", [(1.0, 1.0), (1e-3, 7.0), (2.5, 0.4),
                                            (1.0, 1e-150), (1.0, 1e150), (1e-3, 1e153)])
    def test_pp_equality_at_hbar(self, hbar, beta):
        """The sign, sqrt(2/pi) and hbar^{-3/2} hold far from hbar = 1, and
        far from hbar beta = 1: G (hbar beta)^{3/2} and R (2 beta)^{-3/2} are
        O(1), so the residual stays within 10 times its 3.75e-14 at hbar
        beta = 1, with no numpy warning (the test session makes warnings errors)."""
        res = verify_pp_vs_hankel(PhysicalScale(hbar, beta))
        assert res.passed and res.max_residual <= 3.75e-13

    def test_quadrature(self):
        N, l, p = self.worst_state(verify_quadrature().details)
        assert 1 <= N <= 4 and 0 <= l < N and abs(p) <= 20.0

    def test_pp_vs_hankel(self):
        N, l, p = self.worst_state(verify_pp_vs_hankel().details)
        assert 1 <= N <= 4 and 0 <= l < N and 0.2 <= p <= 5.0

    def test_quadrature_names_failing_states(self, monkeypatch):
        """Cut at rho = 64, the tail of R_{1,0} is within tolerance and the
        tails of every state with N >= 2 are not.  PEAK_TOL bounds the unit
        integral relative to R rho's largest probed value, 1.08 for R_{1,0} at
        unit scale, so cut at rho = 60 R_{1,0} fails too."""
        monkeypatch.setattr(transform, "MAX_RHO", 64.0)
        res = verify_quadrature()
        assert not res.passed and res.max_residual == math.inf
        assert "(N=1,l=0)" not in res.details
        assert all(f"(N={N},l={l})" in res.details for N in range(2, 5) for l in range(N))


class TestQuadratureNormalization:
    """quadrature holds N_{Nl} at the requested scale to its exact value."""

    @pytest.mark.parametrize("beta", [5e-324, 1e-300, 0.1, 2.0, 1e300, 1.7e308])
    def test_correctly_rounded_at_every_scale(self, beta):
        """N_{Nl} is correctly rounded, so it is off by at most 2^-53 (1.1e-16),
        below the transform's residual, which it leaves as it is at unit scale."""
        res = verify_quadrature(PhysicalScale(1.0, beta))
        match = re.search(r"; N_Nl worst at \(N=(\d+),l=(\d+)\): (\S+)$", res.details)
        assert match, res.details
        assert (int(match[1]), int(match[2])) in res.states_covered
        assert float(match[3]) <= 1.12e-16
        assert res.max_residual == verify_quadrature().max_residual

    def test_skewed_normalization_fails(self, monkeypatch):
        """N_{Nl} times 1 + 1e-6 wherever beta is not 1 leaves R at unit scale,
        which the transform checks, as it is, and fails quadrature alone."""
        normalization = hydrogenic._normalization

        def skewed(state):
            m, e = normalization(state)
            return (m if state.scale.beta == 1.0 else m * (1.0 + 1e-6)), e

        for module in (hydrogenic, verification):
            monkeypatch.setattr(module, "_normalization", skewed)
        report = run_all(PhysicalScale(1.0, 2.0))
        assert [r.name for r in report.results if not r.passed] == ["quadrature_vs_closed_form"]
        quadrature = report.results[list(SUITES).index("quadrature")]
        assert quadrature.max_residual == math.inf, quadrature.details
        assert 0.9e-6 <= float(quadrature.details.rsplit(" ", 1)[1]) <= 1.1e-6, quadrature.details
        assert run_all(PhysicalScale(), ["quadrature"]).overall_pass


class TestWarmCaches:
    """After `run_all()` has filled every per-process cache (N_{Nl}, the oracle's
    coefficients and sums, the Gauss-Legendre and Filon rules, the Hankel rule),
    quadrature still evaluates R and checks N_{Nl} on each call."""

    def test_scaled_R_fails(self, monkeypatch):
        """R times 1 + 5e-8, as `verification` sees `_radial_stack`, is off the
        closed form by more than the 3e-8 tolerance."""
        run_all()
        monkeypatch.setattr(verification, "_radial_stack",
                            lambda states, rho: _radial_stack(states, rho) * (1.0 + 5e-8))
        res = verify_quadrature()
        assert not res.passed and res.max_residual >= 4e-8, res.details

    def test_scaled_normalization_named(self, monkeypatch):
        """N_{3,1} with its mantissa times 1 + 2^-40 or 1 + 2^-50, as `verification`
        sees `_normalization`, reads that 2^-40 or 2^-50 in the N_{Nl} check, where
        a correctly rounded N_{Nl} reads at most 1.12e-16: the check names the state,
        and the suite fails with an infinite residual, although the transform's own
        3e-8 would pass it; R at unit scale, which the transform checks, is untouched."""
        scale = PhysicalScale(1.0, 2.5)
        run_all(scale)
        normalization = hydrogenic._normalization
        for power in (40, 50):
            def scaled(state):
                m, e = normalization(state)
                return (m * (1.0 + 2.0 ** -power) if (state.N, state.l) == (3, 1) else m), e

            monkeypatch.setattr(verification, "_normalization", scaled)
            res = verify_quadrature(scale)
            match = re.search(r"; N_Nl worst at \(N=(\d+),l=(\d+)\): (\S+)$", res.details)
            assert match and (int(match[1]), int(match[2])) == (3, 1), res.details
            assert res.max_residual == math.inf and not res.passed
            assert float(match[3]) == pytest.approx(2.0 ** -power, rel=1e-3)


class TestNormalizationError:
    """`verification._normalization_error` in integers."""

    @staticmethod
    def in_fractions(state):
        """The error as it was taken in rationals, with fractions.Fraction."""
        (m, e), (num, den) = hydrogenic._normalization(state), state.scale.beta.as_integer_ratio()
        square = Fraction(m) ** 2 * Fraction(4) ** e * den ** 3 / (4 * num ** 3)
        return float(abs(square * state.N * math.perm(state.N + state.l, 2 * state.l + 1)
                         - 1)) / 2

    @pytest.mark.parametrize("beta", [5e-324, 1e-300, 0.1, 1.0, 2.5, 1e300,
                                      1.7976931348623157e308])
    def test_equals_the_rationals(self, beta):
        """Bit for bit, for every state with N <= 30."""
        for state in verification._states(30, PhysicalScale(1.0, beta)):
            assert verification._normalization_error(state).hex() == \
                self.in_fractions(state).hex(), state


class TestUncertainty:
    """<p^2> = (hbar beta)^2 for every state, and the 9 hbar^2 / 4 bound."""

    @staticmethod
    def worst_state(details):
        match = re.match(r"worst at \(N=(\d+),l=(\d+)\); ground-state product: ", details)
        assert match, details
        return int(match[1]), int(match[2])

    @pytest.mark.parametrize("hbar_beta", [1e-3, 1.0, 1e4])
    def test_residual_at_rounding(self, hbar_beta):
        res = verify_uncertainty(PhysicalScale(1.0, hbar_beta))
        assert res.passed and 0.0 <= res.max_residual <= 1e-14
        N, l = self.worst_state(res.details)
        assert (N, l) in res.states_covered

    @pytest.mark.parametrize("hbar_beta", [1e-8, 1e4])
    def test_G_normalization_far_from_unit_scale(self, hbar_beta):
        """G keeps its normalization to a few ulps at any scale: (hbar beta)^{-3/2}
        is not taken through the exponential of its prefactor."""
        res = verify_uncertainty(PhysicalScale(1.0, hbar_beta))
        assert res.passed and res.max_residual <= 3e-15

    @pytest.mark.parametrize("hbar_beta", [1e-200, 1.0, 1e200])
    def test_scale_free(self, hbar_beta):
        """<p^2> / (hbar beta)^2 and <(beta r)^2> <p^2> / (hbar beta)^2 are O(1)
        sums, so neither divides by beta^2 nor overflows far from unit scale."""
        res = verify_uncertainty(PhysicalScale(1.0, hbar_beta))
        assert res.passed and res.max_residual <= 1.2e-15
        assert "ground-state product: 3" in res.details

    def test_perturbed_G_fails(self, monkeypatch):
        """G of (3, 1) scaled by 1 + 1e-9 moves its <p^2> by 2e-9."""
        monkeypatch.setattr(verification, "_pp_stack", perturbed_ladder((3, 1), 1.0 + 1e-9))
        res = verify_uncertainty()
        assert not res.passed and res.max_residual > 1e-9
        assert self.worst_state(res.details) == (3, 1)

    def test_bound_is_a_condition(self, monkeypatch):
        """A product below 9 hbar^2 / 4 fails the suite with <p^2> exact: that
        state's residual is infinite, and `details` names it."""
        monkeypatch.setattr(verification, "expectation_r2", lambda state: 1.0 if (
            state.N, state.l) == (3, 1) else hydrogenic.expectation_r2(state))
        res = verify_uncertainty()
        assert not res.passed and res.max_residual == math.inf
        assert self.worst_state(res.details) == (3, 1)


class TestSO4Constancy:
    """so4_constancy holds the shapes of `distribution_max_l` to the states'
    densities and names its worst state."""

    @staticmethod
    def worst_state(details):
        match = re.fullmatch(r"worst at \(N=(\d+),l=(\d+)\)", details)
        assert match, details
        return int(match[1]), int(match[2])

    @pytest.mark.parametrize("hbar_beta", [1e-8, 1e-3, 1.0, 3.0, 1e4,
                                           1e-100, 1e-50, 1e16, 1e25, 1e50, 1e100])
    def test_residual_at_rounding(self, hbar_beta):
        """The ratios are taken in q = p / (hbar beta), with psi over a_0 and
        G times (hbar beta)^{3/2}, so no quantity leaves double precision."""
        res = verify_so4_constancy(PhysicalScale(1.0, hbar_beta))
        assert res.passed and res.max_residual <= 1e-14
        assert self.worst_state(res.details) in res.states_covered

    @pytest.mark.parametrize("form", ["LO", "PP"])
    def test_perturbed_shape_fails(self, monkeypatch, form):
        """The shape of N = 4 off by 1 + 1e-9 (1 + |p|/(hbar beta)); a constant
        factor would not show in a constancy check."""
        def perturbed(shape, N, p, scale=PhysicalScale()):
            value = distribution_max_l(shape, N, p, scale)
            if (shape, N) == (form, 4):
                value = value * (1.0 + 1e-9 * (1.0 + np.abs(p) / scale.momentum))
            return value

        monkeypatch.setattr(verification, "distribution_max_l", perturbed)
        res = verify_so4_constancy()
        assert not res.passed and res.max_residual > 1e-10
        assert self.worst_state(res.details) == (4, 3)

    @pytest.mark.parametrize("form", ["LO", "PP"])
    def test_constant_factor_in_shape_fails(self, monkeypatch, form):
        """The shape of N = 4 off by a constant 1 + 1e-9: the ratio's spread
        cannot see it, its closed-form constant does."""
        def perturbed(shape, N, p, scale=PhysicalScale()):
            value = distribution_max_l(shape, N, p, scale)
            return value * (1.0 + 1e-9) if (shape, N) == (form, 4) else value

        monkeypatch.setattr(verification, "distribution_max_l", perturbed)
        res = verify_so4_constancy()
        assert not res.passed and res.max_residual > 1e-10
        assert self.worst_state(res.details) == (4, 3)

    def test_constant_factor_in_G_fails(self, monkeypatch):
        """G of (5, 4) off by a constant 1 + 1e-9 moves |G|^2 / PP off its
        closed form by 2e-9."""
        monkeypatch.setattr(verification, "_pp_stack", perturbed_ladder((5, 4), 1.0 + 1e-9))
        res = verify_so4_constancy()
        assert not res.passed and res.max_residual > 1e-9
        assert self.worst_state(res.details) == (5, 4)


class TestGramBlocks:
    """Unitarity as equal momentum and position Gram matrices (`_gram_blocks`,
    at unit scale)."""

    @pytest.mark.parametrize("N,l", [(1, 0), (2, 0), (2, 1), (4, 2), (5, 0)])
    def test_normalized_states(self, N, l):
        momentum, position = _gram_blocks([QuantumState(N, l)])[l]
        assert momentum.shape == position.shape == (1, 1)
        assert abs(position[0, 0] - 1.0) <= 1e-13
        assert abs(momentum[0, 0] - 1.0) <= 1e-13

    def test_gram_off_diagonal(self):
        """At one beta the states are not orthogonal under r^2 dr, so the
        off-diagonal entries are a check too: with R_10 = 2 e^{-rho/2} and
        R_20 = (2 - rho) e^{-rho/2}, <R_10|R_20> = int (2 - rho) rho^2 e^{-rho} / 4 = -1/2."""
        momentum, position = _gram_blocks([QuantumState(1, 0), QuantumState(2, 0)])[0]
        assert position[0, 1] == pytest.approx(-0.5, rel=1e-14)
        assert np.max(np.abs(momentum - position)) <= 1e-14

    @pytest.mark.parametrize("l,top", [(0, 300), (50, 300), (150, 300), (0, 500)])
    def test_hundreds(self, l, top):
        """The momentum Gram of psi_trig equals the closed-form Sturmian
        Gram to a few ulps for N in the hundreds."""
        states = [QuantumState(N, l) for N in range(l + 1, top + 1)]
        momentum, position = _gram_blocks(states)[l]
        assert momentum.shape == position.shape == (len(states),) * 2
        assert np.max(np.abs(momentum - position)) <= 2e-14

    @pytest.mark.parametrize("l", [0, 1, 2, 10, 30, 60])
    def test_large_N(self, l):
        """Every state with N <= 100 of one l, within a few ulps of the closed form."""
        states = [QuantumState(N, l) for N in range(l + 1, 101)]
        momentum, position = _gram_blocks(states)[l]
        assert np.max(np.abs(momentum - position)) <= 3e-14
        assert np.max(np.abs(np.diag(position) - 1.0)) <= 1e-12


class TestUnitarity:
    """parseval_diagonalization compares the same-l Gram matrices of
    psi_trig and radial_wavefunction."""

    def test_covers_every_state_and_names_the_worst(self):
        res = verify_parseval_and_diagonalization()
        assert res.passed
        assert res.states_covered == tuple((N, l) for N in range(1, 6) for l in range(N))
        match = re.match(r"Gram worst at \(N=(\d+),N'=(\d+),l=(\d+)\): (\S+); ", res.details)
        assert match, res.details
        N, N2, l = int(match[1]), int(match[2]), int(match[3])
        assert l < N <= 5 and l < N2 <= 5
        assert float(match[4]) <= 1e-13

    def test_perturbed_momentum_row_fails(self, monkeypatch):
        """One state's psi_trig off by a factor 1 + 1e-6 shows in its row."""
        monkeypatch.setattr(verification, "_kernel_stack",
                            perturbed_rows((4, 1), lambda p: 1.0 + 1e-6))
        res = verify_parseval_and_diagonalization()
        assert not res.passed and res.max_residual > 1e-7
        assert res.details.startswith("Gram worst at (N=4,N'=4,l=1)")


class TestExactRows:
    """The exact sums are kept per (N, l) for the process; the kernel they
    check is still run on every call."""

    def test_warm_cache_still_fails_a_perturbed_kernel(self, monkeypatch):
        run_all()
        perturbed = perturbed_rows((5, 2), lambda p: 1.0 + 1e-9 * (1.0 + np.abs(p)))
        monkeypatch.setattr(verification, "_kernel_stack", perturbed)
        for suite in (verify_form_equivalence, verify_lo_proportionality):
            res = suite()
            assert not res.passed
            assert TestWorstPoint.worst_state(res.details)[:2] == (5, 2), res.details

    @pytest.mark.parametrize("kind", [
        (verification._gegenbauer_terms, verification.gegenbauer_coefficients),
        (verification._lombardi_ogilvie_terms, verification.lombardi_ogilvie_coefficients)])
    def test_kept_rows_are_fresh_and_read_only(self, kind):
        keys = ((40, 0), (60, 10), (200, 0), (3, 1), (200, 0))
        fresh = verification._exact_sums(keys, *kind)
        for _ in range(2):  # computed, then kept
            kept = verification._exact_block(keys, *kind)
            assert np.array_equal(kept, fresh)
            for row in kept:
                with pytest.raises(ValueError):
                    row[0] = 0.0

    def test_second_scale_computes_no_row(self, monkeypatch):
        run_all()
        calls = []

        def counting(keys, *kind):
            calls.append(len(keys))
            return exact_sums(keys, *kind)

        exact_sums = verification._exact_sums
        monkeypatch.setattr(verification, "_exact_sums", counting)
        report = run_all(PhysicalScale(2.5, 0.3))
        assert report.overall_pass and calls == []
        verification._exact_block.cache_clear()
        assert run_all(PhysicalScale(2.5, 0.3)).overall_pass
        assert calls == [38, 21]  # one pass for each suite's missing rows


class TestHankelMatrix:
    """pp_vs_hankel keeps its j_l matrix per process; R and G are still
    evaluated on every call."""

    def test_warm_cache_still_fails_a_scaled_G(self, monkeypatch):
        run_all()
        monkeypatch.setattr(verification, "_pp_stack", perturbed_ladder((3, 1), 1.0 + 1e-6))
        res = verify_pp_vs_hankel()
        assert not res.passed and res.max_residual > 1e-7
        assert TestWorstPoint.worst_state(res.details)[:2] == (3, 1), res.details

    def test_kept_matrix_is_fresh_and_read_only(self):
        """The kept nodes, weights and j_l equal a fresh rule, bit for bit,
        and none of them can be written."""
        cut, panels = re.findall(r"cut rho=(\S+), panels=(\d+)", verify_pp_vs_hankel().details)[0]
        cut, panels = float(cut), int(panels)
        kept = verification._hankel_rule(3, cut, panels)
        centers, offsets, weights = gauss_legendre_panels(cut, panels, GL_ORDER)
        rho = (centers[:, None] + offsets).ravel()
        fresh = (rho, np.tile(weights, panels),
                 transform._spherical_bessel(np.outer(rho, np.linspace(0.2, 5.0, 12) / 2.0), 4))
        for array, expected in zip(kept, fresh):
            assert np.array_equal(array, expected)
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0.0

    def test_second_scale_computes_no_matrix(self, monkeypatch):
        run_all()
        calls = []

        def counting(beta, count):
            calls.append(beta.shape)
            return transform._spherical_bessel(beta, count)

        monkeypatch.setattr(verification, "_spherical_bessel", counting)
        assert run_all(PhysicalScale(2.5, 0.3)).overall_pass and calls == []
        assert verify_pp_vs_hankel(PhysicalScale(1.0, 1e-150)).passed and calls == []
        verification._hankel_rule.cache_clear()
        assert run_all(PhysicalScale(2.5, 0.3)).overall_pass
        assert calls == [(1536, 12)]  # 96 panels of 16 nodes, 12 momenta


class TestReportContract:
    """bench/run.py reads these suite keys, report names and verify_* names:
    a change to any of them makes every benchmarked verify malformed."""

    CONTRACT = {
        "form_equivalence": ("form_equivalence", "verify_form_equivalence"),
        "quadrature": ("quadrature_vs_closed_form", "verify_quadrature"),
        "lo_proportionality": ("lombardi_ogilvie_proportionality", "verify_lo_proportionality"),
        "pp_vs_hankel": ("podolsky_pauling_vs_hankel", "verify_pp_vs_hankel"),
        "parseval_diagonalization": ("parseval_and_diagonalization",
                                     "verify_parseval_and_diagonalization"),
        "uncertainty": ("uncertainty_bound", "verify_uncertainty"),
        "so4_constancy": ("so4_form_constancy", "verify_so4_constancy"),
    }

    def test_keys_names_and_functions(self, monkeypatch):
        assert list(SUITES) == list(self.CONTRACT)
        for key, (name, function) in self.CONTRACT.items():
            calls = []
            original = getattr(verification, function)

            def counting(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(verification, function, counting)
            [result] = run_all(suites=[key]).results
            assert (result.name, len(calls)) == (name, 1), key


class TestRunAll:
    def test_all_suites_pass(self):
        report = run_all()
        assert report.overall_pass
        assert len(report.results) == len(SUITES)
        assert all(r.passed for r in report.results)

    def test_double_as_the_extended_type(self, monkeypatch):
        """Where long double is double, the Filon weights are summed in double,
        and every suite still passes."""
        monkeypatch.setattr(transform, "_EXTENDED", np.float64)
        seen = set()
        bessel = transform._spherical_bessel

        def recording(beta, count):
            seen.add(beta.dtype)
            return bessel(beta, count)

        monkeypatch.setattr(transform, "_spherical_bessel", recording)
        report = run_all()
        assert report.overall_pass, [(r.name, r.details) for r in report.results if not r.passed]
        assert seen == {np.dtype(np.float64)}

    def test_subset_and_order(self):
        report = run_all(suites=["so4_constancy", "form_equivalence"])
        assert [r.name for r in report.results] == [
            "so4_form_constancy", "form_equivalence"]

    def test_suites_as_str(self):
        """A str is not a list of names: it is refused whole, not read letter by letter."""
        with pytest.raises(TypeError, match="list of suite names, not a str"):
            run_all(suites="quadrature")

    def test_repeated_suite_runs_once(self):
        report = run_all(suites=["so4_constancy", "uncertainty", "so4_constancy"])
        assert [r.name for r in report.results] == ["so4_form_constancy", "uncertainty_bound"]

    def test_crash_is_isolated(self, monkeypatch):
        def crash(scale):
            raise ZeroDivisionError("boom")

        monkeypatch.setitem(SUITES, "form_equivalence", crash)
        report = run_all(suites=["form_equivalence", "so4_constancy"])
        crashed, ran = report.results
        assert not report.overall_pass
        assert (crashed.name, crashed.passed, crashed.max_residual) == (
            "form_equivalence", False, math.inf)
        assert crashed.details.startswith("raised ZeroDivisionError: boom (in crash")
        assert ran.passed

    def test_perturbed_radial_fails(self, monkeypatch):
        """R off by a factor 1 + 5e-8 fails quadrature, which holds each
        state to 1e-12 of its peak, and the Hankel check, which holds G's
        oracle, an integral of R, to 3e-11; unitarity takes the closed-form
        position Gram, not R."""
        monkeypatch.setattr(verification, "_radial_stack",
                            lambda states, rho: _radial_stack(states, rho) * (1.0 + 5e-8))
        report = run_all()
        assert not report.overall_pass
        assert [r.name for r in report.results if not r.passed] == [
            "quadrature_vs_closed_form", "podolsky_pauling_vs_hankel"]

    @pytest.mark.parametrize("stack", ["_radial_stack", "_pp_stack", "_p2_stack",
                                       "psi", "lombardi_ogilvie"])
    def test_one_part_in_1e11_fails(self, monkeypatch, stack):
        """Each family off by a factor 1 + 1e-11 fails some suite, which names
        a state: R, G, <p^2> from G, and the psi and Lombardi-Ogilvie rows of
        the kernel stack."""
        if stack in ("psi", "lombardi_ogilvie"):
            def perturbed(states, q, lombardi_ogilvie=False):
                values = _kernel_stack(states, q, lombardi_ogilvie=lombardi_ogilvie)
                return values * (1.0 + 1e-11) if lombardi_ogilvie == (stack != "psi") else values
            monkeypatch.setattr(verification, "_kernel_stack", perturbed)
        else:
            original = getattr(verification, stack)
            monkeypatch.setattr(verification, stack,
                                lambda *args: original(*args) * (1.0 + 1e-11))
        failed = [r for r in run_all().results if not r.passed]
        assert failed, stack
        assert all(re.search(r"\(N=\d+,(N'=\d+,)?l=\d+", r.details) for r in failed), stack

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_all(suites=["nope"])

    def test_empty_suite_list_rejected(self):
        """No suite is no check: it does not pass vacuously."""
        with pytest.raises(ValueError, match="no suite"):
            run_all(suites=[])

    @pytest.mark.parametrize("case", ["default", "crash", "product below 9/4"])
    def test_passed_is_the_residual_within_tolerance(self, monkeypatch, case):
        """Every result passes exactly where its residual is within its tolerance,
        whatever made it fail; the report passes where every result does."""
        if case == "crash":
            monkeypatch.setitem(SUITES, "quadrature", lambda scale: 1 / 0)
        elif case == "product below 9/4":
            monkeypatch.setattr(verification, "expectation_r2", lambda state: 1.0)
        report = run_all()
        for result in json.loads(report.to_json())["results"] + [vars(r) for r in report.results]:
            assert result["passed"] is (result["max_residual"] <= result["tolerance"]), result
        assert report.overall_pass is (case == "default")

    def test_deterministic(self):
        fast = ["form_equivalence", "lo_proportionality", "so4_constancy"]
        a = run_all(suites=fast)
        b = run_all(suites=fast)
        for ra, rb in zip(a.results, b.results):
            assert ra.max_residual == rb.max_residual
            assert ra.passed == rb.passed

    def test_json_round_trip(self):
        """The JSON is the report's fields and each result's, in their order."""
        report = run_all(suites=["so4_constancy"])
        parsed = json.loads(report.to_json())
        assert parsed["overall_pass"] is True
        assert list(parsed) == [f.name for f in dataclasses.fields(VerificationReport)]
        assert (parsed["config"], parsed["timestamp"]) == (report.config, report.timestamp)
        [result] = report.results
        assert parsed["results"] == [{**vars(result), "states_covered": [
            list(s) for s in result.states_covered]}]

    def test_config_recorded(self):
        report = run_all(PhysicalScale(beta=2.0), suites=["form_equivalence"])
        assert set(report.config) == {"hbar", "beta", "quadrature"}
        assert report.config["beta"] == 2.0
        assert report.results[0].tolerance == 1e-11


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


class TestScales:
    """The finite rules of the Gram matrices, <p^2> and the Hankel check are
    exact, and take numbers of order 1, so the suites pass far from hbar beta = 1."""

    def test_exact_rules(self):
        """Every state with N <= 12: the Gram blocks of each l and <p^2> / (hbar beta)^2."""
        states = [QuantumState(N, l) for N in range(1, 13) for l in range(N)]
        for l, (momentum, position) in _gram_blocks(states).items():
            assert np.max(np.abs(momentum - position)) <= 1e-13, l
            assert np.max(np.abs(np.diag(position) - 1.0)) <= 1e-13, l
        assert np.max(np.abs(_p2_stack(states) - 1.0)) <= 1e-13

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(log_uniform(1e-8, 1e4), log_uniform(1e-3, 1e3))
    def test_exact_rule_suites(self, hbar_beta, hbar):
        scale = PhysicalScale(hbar, hbar_beta / hbar)
        assert verify_uncertainty(scale).passed
        assert verify_pp_vs_hankel(scale).passed

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(log_uniform(1e-8, 1e4))
    def test_run_all(self, hbar_beta):
        report = run_all(PhysicalScale(1.0, hbar_beta))
        assert report.overall_pass, [r.name for r in report.results if not r.passed]

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(log_uniform(1e-100, 1e100), log_uniform(1e-3, 1e3))
    def test_run_all_far_from_unit_scale(self, hbar_beta, hbar):
        report = run_all(PhysicalScale(hbar, hbar_beta / hbar))
        assert report.overall_pass, [r.name for r in report.results if not r.passed]

    @pytest.mark.parametrize("hbar,beta", [(1.0, 1e-150), (1.0, 1e150), (1e-3, 1e153)],
                             ids=["1e-150", "1e+150", "1e-3-1e+153"])
    def test_run_all_at_1e150(self, hbar, beta):
        """The --hbar-beta range of `hmomentum verify` that pp_vs_hankel's
        O(1) numbers open (it failed from about 1e+-125 on), and at
        beta = 1e153, where the diagonalization's (2 beta)^2 overflowed
        before it was taken at unit scale."""
        report = run_all(PhysicalScale(hbar, beta))
        assert report.overall_pass, [r.name for r in report.results if not r.passed]

    @pytest.mark.parametrize("hbar_beta", [1e-16, 1e-20])
    def test_run_all_at_small_scale(self, hbar_beta):
        """quadrature's residual is relative to each state's peak, which
        grows as (hbar beta)^{-1/2}, so it passes where psi is large."""
        report = run_all(PhysicalScale(1.0, hbar_beta))
        assert report.overall_pass, [r.name for r in report.results if not r.passed]

    @pytest.mark.parametrize("hbar_beta", [5e-324, 1e-300, 1e-200, 1e200, 1e300, 1.7e308])
    def test_unit_scale_suites_over_the_double_range(self, hbar_beta):
        """so4_constancy, pp_vs_hankel and uncertainty take G (hbar beta)^{3/2}
        and R (2 beta)^{-3/2} from the stacks at unit scale, so they pass at
        either end of the double range with no numpy warning (pyproject.toml makes
        warnings errors), and pp_vs_hankel and uncertainty read their
        residuals at hbar beta = 1 bit for bit."""
        names = ["pp_vs_hankel", "uncertainty", "so4_constancy"]
        report = run_all(PhysicalScale(1.0, hbar_beta), names)
        assert report.overall_pass, [(r.name, r.details) for r in report.results]
        unit = run_all(PhysicalScale(), names[:2])
        assert [r.max_residual for r in report.results[:2]] == [
            r.max_residual for r in unit.results]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(log_uniform(1e-300, 1e300), log_uniform(1e-3, 1e3))
    @example(5e-324, 1.0)
    @example(1e-310, 1.0)
    @example(1.7e308, 1.0)
    def test_run_all_over_the_double_range(self, hbar_beta, hbar):
        """Every suite takes its grid in q and rho at unit scale, and the
        transform reads no scale, so run_all passes at any hbar beta that is a
        double, with no numpy warning (pyproject.toml makes warnings errors),
        and quadrature and parseval_diagonalization read their hbar beta = 1
        residuals bit for bit."""
        report = run_all(PhysicalScale(hbar, hbar_beta / hbar))
        assert report.overall_pass, [(r.name, r.details) for r in report.results if not r.passed]
        names = ["quadrature", "parseval_diagonalization"]
        unit = run_all(PhysicalScale(), names).results
        assert [r.max_residual for r in report.results if r.name in {u.name for u in unit}] == [
            r.max_residual for r in unit]

    def test_diagonalization_at_large_beta(self):
        assert verify_parseval_and_diagonalization(PhysicalScale(1e-3, 1e7)).passed

    @pytest.mark.parametrize("hbar", [1e-3, 1e3])
    @pytest.mark.parametrize("hbar_beta", [1e-8, 1e4])
    def test_diagonalization_at_the_corners(self, hbar, hbar_beta):
        """The identity's test functions are functions of rho, so their
        panel count and residuals do not depend on the scale."""
        res = verify_parseval_and_diagonalization(PhysicalScale(hbar, hbar_beta / hbar))
        assert res.passed
        residuals = [float(part.split(": ")[1]) for part in res.details.split("; ")[1:]]
        assert len(residuals) == 3 and max(residuals) <= 1e-13

    @pytest.mark.parametrize("hbar_beta", [5e-324, 1e-300, 1e-200, 1e-175,
                                           1e175, 1e200, 1e300, 1.7e308])
    @pytest.mark.parametrize("suite", [verify_form_equivalence, verify_lo_proportionality],
                             ids=lambda suite: suite.__name__)
    def test_form_suites_over_the_double_range(self, suite, hbar_beta):
        """N_{Nl} / (2 beta)^2 is one correctly rounded sqrt_ratio, O(beta^{-1/2}),
        and the kernel takes q, so the form suites pass at every hbar beta,
        with no numpy warning (the test session makes warnings errors)."""
        assert suite(PhysicalScale(1.0, hbar_beta)).passed

    def test_diagonalization_residual_is_scale_free(self, monkeypatch):
        """The diagonalization pair is transformed on the unit grid q at unit
        scale, so at 20 seeded scales, hbar beta log-uniform in [1e-300, 1e300]
        and hbar in [1e-3, 1e3], its transform is its hbar beta = 1 value
        bit for bit."""
        seen = []

        def recording(*args, **kwargs):
            result = transform_numeric(*args, **kwargs)
            seen.append(result[0])  # the pair's transform
            return result

        transform_numeric = verification._transform_numeric
        monkeypatch.setattr(verification, "_transform_numeric", recording)
        verify_parseval_and_diagonalization()
        assert len(seen) == 1 and seen[0].shape == (2, 3, 21)
        rng = np.random.default_rng(26)
        for hbar_beta, hbar in zip(10.0 ** rng.uniform(-300, 300, 20),
                                   10.0 ** rng.uniform(-3, 3, 20)):
            verify_parseval_and_diagonalization(PhysicalScale(hbar, hbar_beta / hbar))
            assert np.array_equal(seen[-1], seen[0]), (hbar, hbar_beta, seen[-1])
