"""Verification suites: pass/fail mechanics, determinism, serialization."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmomentum import forms, transform, verification
from hmomentum.forms import _kernel_stack, distribution_max_l, podolsky_pauling_G
from hmomentum.hydrogenic import PhysicalScale, QuantumState, expectation_p2
from hmomentum.transform import gram_matrices
from hmomentum.verification import (
    SUITES,
    CheckResult,
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
    """`forms._kernel_stack` with the row of `state` (N, l) times factor(p), in
    its calls with the keyword arguments `call`."""
    def perturbed(states, p, **kwargs):
        values = _kernel_stack(states, p, **kwargs)
        for row, s in enumerate(states):
            if (s.N, s.l) == state and kwargs == call:
                values[row] *= factor(p)
        return values

    return perturbed


def perturbed_G(state, factor):
    """podolsky_pauling_G with the function of `state` (N, l) times factor."""
    def perturbed(s, p):
        value = podolsky_pauling_G(s, p)
        return value * factor if (s.N, s.l) == state else value

    return perturbed


class TestCheckResult:
    def test_pass_consistency(self):
        res = CheckResult.from_residual("x", [(1, 0)], "g", 1e-12, 1e-11)
        assert res.passed
        res = CheckResult.from_residual("x", [(1, 0)], "g", 1e-10, 1e-11)
        assert not res.passed

    def test_dict_round_trip(self):
        res = CheckResult.from_residual("x", [(2, 1)], "g", 0.5, 1.0, "note")
        d = res.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["states_covered"] == [[2, 1]] and d["details"] == "note"


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


# The momentum grid of each suite that names its worst (N, l, p), at the
# default scale.
SUITE_GRIDS = {
    verify_form_equivalence: pythagorean_momenta(PhysicalScale()),
    verify_quadrature: mirrored(np.logspace(-2, math.log10(20.0), 13)),
    verify_lo_proportionality: pythagorean_momenta(PhysicalScale()),
    verify_pp_vs_hankel: np.linspace(0.2, 5.0, 12),
}


class TestWorstPoint:
    """The form and transform suites name the state and momentum of their
    worst residual."""

    @staticmethod
    def worst_state(details):
        match = re.match(r"worst at \(N=(\d+),l=(\d+),p=([^)]+)\)(;|$)", details)
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
        perturbed = perturbed_G((3, 1), 1.0 + 1e-6)
        monkeypatch.setattr(verification, "podolsky_pauling_G", perturbed)
        res = verify_pp_vs_hankel()
        assert not res.passed and res.max_residual > 1e-7
        assert self.worst_state(res.details)[:2] == (3, 1), res.details

    @pytest.mark.parametrize("hbar, beta", [(1.0, 1.0), (1e-3, 7.0), (2.5, 0.4)])
    def test_pp_equality_at_hbar(self, hbar, beta):
        """The sign, sqrt(2/pi) and hbar^{-3/2} hold far from hbar = 1."""
        res = verify_pp_vs_hankel(PhysicalScale(hbar, beta))
        assert res.passed and res.max_residual <= 1e-12

    def test_quadrature(self):
        N, l, p = self.worst_state(verify_quadrature().details)
        assert 1 <= N <= 4 and 0 <= l < N and abs(p) <= 20.0

    def test_pp_vs_hankel(self):
        N, l, p = self.worst_state(verify_pp_vs_hankel().details)
        assert 1 <= N <= 4 and 0 <= l < N and 0.2 <= p <= 5.0

    def test_quadrature_names_failing_states(self, monkeypatch):
        """Cut at rho = 60, the tail of R_{1,0} is within tolerance and the
        tails of every state with N >= 2 are not."""
        monkeypatch.setattr(transform, "MAX_RHO", 60.0)
        res = verify_quadrature()
        assert not res.passed and res.max_residual == math.inf
        assert "(N=1,l=0)" not in res.details
        assert all(f"(N={N},l={l})" in res.details for N in range(2, 5) for l in range(N))


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

    def test_perturbed_G_fails(self, monkeypatch):
        """G of (3, 1) scaled by 1 + 1e-9 moves its <p^2> by 2e-9."""
        monkeypatch.setattr(forms, "podolsky_pauling_G", perturbed_G((3, 1), 1.0 + 1e-9))
        res = verify_uncertainty()
        assert not res.passed and res.max_residual > 1e-9
        assert self.worst_state(res.details) == (3, 1)

    def test_bound_is_a_condition(self, monkeypatch):
        """A product below 9 hbar^2 / 4 fails the suite with <p^2> exact."""
        monkeypatch.setattr(verification, "expectation_r2", lambda state: 1.0)
        res = verify_uncertainty()
        assert not res.passed and res.max_residual <= 1e-14


class TestSO4Constancy:
    """so4_constancy holds the shapes of `distribution_max_l` to the states'
    densities and names its worst state."""

    @staticmethod
    def worst_state(details):
        match = re.fullmatch(r"worst at \(N=(\d+),l=(\d+)\)", details)
        assert match, details
        return int(match[1]), int(match[2])

    @pytest.mark.parametrize("hbar_beta", [1e-8, 1e-3, 1.0, 3.0, 1e4])
    def test_residual_at_rounding(self, hbar_beta):
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
        monkeypatch.setattr(verification, "podolsky_pauling_G", perturbed_G((5, 4), 1.0 + 1e-9))
        res = verify_so4_constancy()
        assert not res.passed and res.max_residual > 1e-9
        assert self.worst_state(res.details) == (5, 4)


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
        monkeypatch.setattr(transform, "_kernel_stack",
                            perturbed_rows((4, 1), lambda p: 1.0 + 1e-6))
        res = verify_parseval_and_diagonalization()
        assert not res.passed and res.max_residual > 1e-7
        assert res.details.startswith("Gram worst at (N=4,N'=4,l=1)")


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

    def test_subset_and_order(self):
        report = run_all(suites=["so4_constancy", "form_equivalence"])
        assert [r.name for r in report.results] == [
            "so4_form_constancy", "form_equivalence"]

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

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_all(suites=["nope"])

    def test_deterministic(self):
        fast = ["form_equivalence", "lo_proportionality", "so4_constancy"]
        a = run_all(suites=fast)
        b = run_all(suites=fast)
        for ra, rb in zip(a.results, b.results):
            assert ra.max_residual == rb.max_residual
            assert ra.passed == rb.passed

    def test_json_round_trip(self):
        report = run_all(suites=["so4_constancy"])
        text = report.to_json()
        parsed = json.loads(text)
        assert parsed["overall_pass"] is True
        assert parsed == report.to_dict()

    def test_config_recorded(self):
        report = run_all(PhysicalScale(beta=2.0), suites=["form_equivalence"])
        assert set(report.config) == {"hbar", "beta", "quadrature"}
        assert report.config["beta"] == 2.0
        assert report.results[0].tolerance == 1e-11


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


class TestScales:
    """The finite rules of the Gram matrices, <p^2> and the Hankel check are
    exact at every scale, so the suites pass far from hbar beta = 1."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(log_uniform(1e-8, 1e4), log_uniform(1e-3, 1e3))
    def test_exact_rules(self, hbar_beta, hbar):
        scale = PhysicalScale(hbar, hbar_beta / hbar)
        for l in range(12):
            momentum, position = gram_matrices(
                [QuantumState(N, l, scale) for N in range(l + 1, 13)])
            assert np.max(np.abs(momentum - position)) <= 1e-13, l
            assert np.max(np.abs(np.diag(position) - 1.0)) <= 1e-13, l
        for N in range(1, 13):
            for l in range(N):
                p2 = expectation_p2(QuantumState(N, l, scale))
                assert abs(p2 / scale.momentum ** 2 - 1.0) <= 1e-13, (N, l, p2)
        assert verify_uncertainty(scale).passed
        assert verify_pp_vs_hankel(scale).passed

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(log_uniform(1e-8, 1e4))
    def test_run_all(self, hbar_beta):
        report = run_all(PhysicalScale(1.0, hbar_beta))
        assert report.overall_pass, [r.name for r in report.results if not r.passed]

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
