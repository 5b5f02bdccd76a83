"""Spherical-wave transform: kernel signs, closed forms, unitarity, diagonal."""

import cmath
import math

import numpy as np
import pytest

from hmomentum import transform
from hmomentum.forms import psi_trig
from hmomentum.hydrogenic import PhysicalScale, QuantumState, radial_wavefunction
from hmomentum.transform import (
    ABS_TOL,
    LAGUERRE_MAX_COUNT,
    MAX_RHO,
    MIN_PANELS,
    PANEL_BUDGET,
    PANEL_PHASE,
    REL_TOL,
    ConvergenceError,
    _gauss_laguerre,
    diagonalization_residual,
    gram_matrices,
    transform_numeric,
)
from oracles import (
    SlaterExpansion,
    slater_expansion,
    transform_slater_closed,
    transform_slater_expansion,
)


class TestConvention:
    """The kernel sign is the transform's only convention."""

    def test_defaults(self):
        """Sign -1 is the defining incoming kernel e^{-ipr/hbar}:
        int_0^inf e^{-r} e^{-ipr} r dr = 1 / (1 + ip)^2."""
        for p in (0.0, 0.9, -2.5):
            assert transform_numeric(lambda r: np.exp(-r), p, -1) == pytest.approx(
                1.0 / (1.0 + 1j * p) ** 2, abs=1e-12)

    def test_strict_prefactors(self):
        """Sign +1 is the outgoing kernel, with no factor besides it:
        int_0^inf e^{-r} e^{ipr} r dr = 1 / (1 - ip)^2."""
        for p in (0.0, 0.9, -2.5):
            assert transform_numeric(lambda r: np.exp(-r), p, 1) == pytest.approx(
                1.0 / (1.0 - 1j * p) ** 2, abs=1e-12)

    def test_invalid(self):
        for sign in (0, 2, -2):
            with pytest.raises(ValueError, match="sign"):
                transform_numeric(lambda r: np.exp(-r), 1.0, sign)


class TestQuadratureSpec:
    def test_defaults(self):
        assert (REL_TOL, ABS_TOL, MAX_RHO, PANEL_BUDGET) == (1e-9, 1e-11, 250.0, 40000)


class TestClosedForm:
    """The exact Slater-term transform of tests/oracles.py."""

    def test_static_values(self):
        # n=1, b=0: Gamma(2)/ (1/4) = 4, real
        assert transform_slater_closed(0, 0.0) == pytest.approx(4.0 + 0.0j)
        # p = 2 hbar beta gives b = 1, theta = atan(2)
        val = transform_slater_closed(0, 2.0)
        assert abs(val) == pytest.approx(1.0 / 1.25)
        assert cmath.phase(val) == pytest.approx(2.0 * math.atan(2.0))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_p_zero_gamma_values(self, n):
        # At p = 0 the integral is int rho^n e^{-rho/2} = 2^{n+1} n!
        expect = 2.0 ** (n + 1) * math.factorial(n)
        got = transform_slater_closed(n - 1, 0.0)
        assert got.imag == 0.0
        assert got.real == pytest.approx(expect, rel=1e-14)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            transform_slater_closed(-1, 1.0)

    @pytest.mark.parametrize("power", [0, 1, 2, 5, 10])
    @pytest.mark.parametrize("p", [0.0, 0.1, 1.0, 5.0, 20.0])
    def test_against_numeric(self, monkeypatch, power, p):
        scale = PhysicalScale()
        f = lambda r: (2.0 * r) ** power * np.exp(-r)  # rho^m e^{-rho/2}, beta=1
        # The un-cancelled integrand reaches ~2^power Gamma(power+2), which
        # sets the achievable absolute accuracy; budget the tolerances accordingly.
        abs_tol = max(1e-11, 1e-13 * 2.0 ** power * math.gamma(power + 2))
        monkeypatch.setattr(transform, "REL_TOL", 1e-10)
        monkeypatch.setattr(transform, "ABS_TOL", abs_tol)
        monkeypatch.setattr(transform, "PANEL_BUDGET", 500)
        numeric = transform_numeric(f, p, 1)
        closed = transform_slater_closed(power, p, scale) / (2.0 * scale.beta) ** 2
        assert numeric == pytest.approx(closed, abs=1e-9 + 2.0 * abs_tol)


class TestTransformNumeric:
    def test_ground_state_at_zero(self):
        # int_0^inf e^{-r} r dr = 1
        val = transform_numeric(lambda r: np.exp(-r), 0.0, -1)
        assert val == pytest.approx(1.0 + 0.0j, abs=1e-11)

    def test_kernel_sign_conjugation(self):
        f = lambda r: r * np.exp(-r)
        p = 1.7
        out = transform_numeric(f, p, 1)
        inc = transform_numeric(f, p, -1)
        assert inc == pytest.approx(out.conjugate(), abs=1e-12)

    def test_conjugate_symmetry_in_p(self):
        f = lambda r: r * np.exp(-r / 2)
        for p in (0.4, 1.0, 3.3):
            plus = transform_numeric(f, p, -1)
            minus = transform_numeric(f, -p, -1)
            assert minus == pytest.approx(plus.conjugate(), abs=1e-12)

    def test_compact_support(self):
        f = lambda r: np.where((1.0 < r) & (r < 2.0), (r - 1.0) * (2.0 - r), 0.0)
        val = transform_numeric(f, 0.0, -1, support=(1.0, 2.0))
        # int_1^2 (r-1)(2-r) r dr = 1/4 by expansion
        assert val.real == pytest.approx(0.25, abs=1e-11)

    def test_bad_support_rejected(self):
        with pytest.raises(ValueError):
            transform_numeric(lambda r: 0.0, 1.0, -1, support=(-1.0, 2.0))
        with pytest.raises(ValueError):
            transform_numeric(lambda r: 0.0, 1.0, -1, support=(2.0, 2.0))

    def test_convergence_error(self, monkeypatch):
        monkeypatch.setattr(transform, "REL_TOL", 1e-14)
        monkeypatch.setattr(transform, "ABS_TOL", 1e-16)
        monkeypatch.setattr(transform, "PANEL_BUDGET", 1)
        f = lambda r: np.exp(-r) * np.cos(7.0 * r)
        with pytest.raises(ConvergenceError) as err:
            transform_numeric(f, 5.0, -1)
        assert err.value.error_bound > 0
        assert isinstance(err.value.estimate, complex)


class TestArrayTransform:
    """transform_numeric over an array of p, in one call of f."""

    @pytest.mark.parametrize("sign", [1, -1], ids=["conv0", "conv1"])
    @pytest.mark.parametrize("hbar_beta", [1e-3, 1.0, 1e3])
    def test_equals_point_by_point(self, sign, hbar_beta):
        """Both calls lay out the MIN_PANELS floor here (|b| max_rho <= 64 pi),
        so they sum the same nodes; across layouts the values agree to the
        rounding of the integrand at the nodes, which test_matches_psi_trig
        bounds."""
        scale = PhysicalScale(1.0, hbar_beta)
        q = np.array([[-1.5, -0.7, -1e-3, 0.0], [0.0, 1e-3, 0.7, 0.7]])
        assert 0.5 * 1.5 * MAX_RHO <= MIN_PANELS * PANEL_PHASE
        for N, l in [(1, 0), (3, 1), (6, 5), (8, 2)]:
            state = QuantumState(N, l, scale)
            f = lambda r: radial_wavefunction(state, r)
            values = transform_numeric(f, q * hbar_beta, sign, scale=scale)
            assert values.shape == q.shape
            for p, value in zip((q * hbar_beta).ravel(), values.ravel()):
                assert abs(value - transform_numeric(f, p, sign, scale=scale)) <= 1e-15

    @pytest.mark.parametrize("hbar_beta", [1e-3, 1.0, 1e3])
    def test_matches_psi_trig(self, hbar_beta):
        scale = PhysicalScale(1.0, hbar_beta)
        q = np.array([0.0, 1e-3, 1.0, 20.0, 1000.0])
        p = np.concatenate([-q[:0:-1], q]) * hbar_beta
        for N, l in [(1, 0), (2, 1), (3, 0), (4, 3), (5, 2), (8, 2), (8, 7)]:
            state = QuantumState(N, l, scale)
            numeric = transform_numeric(lambda r: radial_wavefunction(state, r), p, 1, scale)
            assert np.max(np.abs(numeric - psi_trig(state, p))) <= 1e-12, (N, l)

    def test_shapes(self):
        value = transform_numeric(lambda r: np.exp(-r), 0.5, -1)
        assert isinstance(value, complex) and np.ndim(value) == 0
        assert transform_numeric(lambda r: np.exp(-r), np.array([]), -1).shape == (0,)

    def test_panel_budget_exceeded(self, monkeypatch):
        """|p| = 1000 hbar beta needs about 40000 panels; 400 do not resolve it."""
        f = lambda r: radial_wavefunction(QuantumState(2, 1), r)
        p = np.array([0.5, 1000.0])
        transform_numeric(f, p, 1)
        monkeypatch.setattr(transform, "PANEL_BUDGET", 400)
        with pytest.raises(ConvergenceError) as err:
            transform_numeric(f, p, 1)
        assert "panel_budget 400" in str(err.value)
        assert err.value.estimate.shape == p.shape
        assert err.value.error_bound[1] > ABS_TOL

    @pytest.mark.parametrize("hbar_beta", [1e-3, 1.0, 1e3])
    def test_batch_rows_equal_single_calls(self, hbar_beta):
        """A stack of functions shares the nodes and the e^{i b rho} factors;
        each row equals its own call, and the batch axes lead the result."""
        scale = PhysicalScale(1.0, hbar_beta)
        states = [QuantumState(N, l, scale) for N, l in [(1, 0), (3, 1), (6, 5), (8, 2)]]
        q = np.array([[-20.0, -0.7, -1e-3, 0.0], [0.0, 1e-3, 3.3, 20.0]])
        batch = transform_numeric(
            lambda r: np.stack([radial_wavefunction(s, r) for s in states]).reshape(2, 2, -1),
            q * hbar_beta, 1, scale)
        assert batch.shape == (2, 2) + q.shape
        for state, rows in zip(states, batch.reshape(len(states), *q.shape)):
            single = transform_numeric(lambda r: radial_wavefunction(state, r), q * hbar_beta,
                                       1, scale)
            assert np.max(np.abs(rows - single)) <= 1e-15, (state.N, state.l)

    def test_batch_convergence_error_per_row(self):
        states = [QuantumState(1, 0), QuantumState(60, 0)]
        p = np.array([0.0, 0.3, 1.0])
        with pytest.raises(ConvergenceError) as err:
            transform_numeric(lambda r: np.stack([radial_wavefunction(s, r) for s in states]),
                              p, 1)
        exc = err.value
        assert exc.estimate.shape == exc.error_bound.shape == exc.tolerance.shape == (2, 3)
        assert np.all(exc.error_bound[0] <= exc.tolerance[0])
        assert np.all(exc.error_bound[1] > exc.tolerance[1])
        assert "past rho = 250" in str(exc)

    @pytest.mark.parametrize("N", [60, 80])
    def test_truncation_raises_or_is_correct(self, N):
        """R_{N0} reaches past max_rho = 250 for large N; the tail bound of the
        last panel must show it rather than return a truncated value."""
        state = QuantumState(N, 0)
        p = np.array([0.0, 0.3, 1.0, 30.0])
        try:
            numeric = transform_numeric(lambda r: radial_wavefunction(state, r), p, 1)
        except ConvergenceError as err:
            assert np.any(err.error_bound > err.tolerance)
        else:
            exact = psi_trig(state, p)
            assert np.max(np.abs(numeric - exact)) <= 1e-9 * np.max(np.abs(exact))

    def test_non_finite_p_rejected(self):
        for bad in (math.inf, math.nan, np.array([0.0, -math.inf])):
            with pytest.raises(ValueError):
                transform_numeric(lambda r: np.exp(-r), bad, -1)


class TestExpansionTransform:
    def test_ground_state_closed(self):
        state = QuantumState(1, 0)
        expansion = slater_expansion(state)
        # 2 / (1 - i p)^2 under the outgoing kernel
        for p in (0.0, 0.5, 2.0):
            expect = 2.0 / (1.0 - 1j * p) ** 2
            got = transform_slater_expansion(expansion, p)
            assert got == pytest.approx(expect, rel=1e-13)

    def test_incoming_is_conjugate(self):
        expansion = slater_expansion(QuantumState(3, 1))
        p = 1.3
        out = transform_slater_expansion(expansion, p, 1)
        inc = transform_slater_expansion(expansion, p, -1)
        assert inc == pytest.approx(out.conjugate(), rel=1e-14)

    def test_inverse_power_rejected(self):
        bad = SlaterExpansion(((-1, 1.0 + 0j),))
        with pytest.raises(ValueError):
            transform_slater_expansion(bad, 1.0)


class TestParseval:
    """Unitarity as equal momentum and position Gram matrices."""

    @pytest.mark.parametrize("N,l", [(1, 0), (2, 0), (2, 1), (4, 2), (5, 0)])
    def test_normalized_states(self, N, l):
        momentum, position = gram_matrices([QuantumState(N, l)])
        assert momentum.shape == position.shape == (1, 1)
        assert abs(position[0, 0] - 1.0) <= 1e-13
        assert abs(momentum[0, 0] - 1.0) <= 1e-13

    def test_laguerre_rule_cached_read_only(self):
        x, w = _gauss_laguerre(7)
        assert _gauss_laguerre(7)[0] is x
        assert not x.flags.writeable and not w.flags.writeable

    def test_laguerre_count_limit(self):
        """numpy's weights are finite and positive up to LAGUERRE_MAX_COUNT
        nodes and not past it; the rule refuses larger counts."""
        from numpy.polynomial.laguerre import laggauss

        w = laggauss(LAGUERRE_MAX_COUNT)[1]
        assert np.all(np.isfinite(w) & (w > 0))
        with np.errstate(all="ignore"):
            w = laggauss(LAGUERRE_MAX_COUNT + 1)[1]
        assert not np.all(np.isfinite(w) & (w > 0))
        w = _gauss_laguerre(LAGUERRE_MAX_COUNT)[1]
        assert np.all(np.isfinite(w) & (w > 0))
        with pytest.raises(ValueError, match="186"):
            _gauss_laguerre(LAGUERRE_MAX_COUNT + 1)

    def test_gram_raises_past_laguerre_limit(self):
        """N_max + 4 nodes past the limit: a ValueError, not NaN."""
        top = LAGUERRE_MAX_COUNT - 3
        with pytest.raises(ValueError):
            gram_matrices([QuantumState(top, 0), QuantumState(top - 1, 0)])
        with pytest.raises(ValueError):
            gram_matrices([QuantumState(184, 0)])

    def test_gram_off_diagonal(self):
        """At one beta the states are not orthogonal under r^2 dr, so the
        off-diagonal entries are a check too: with R_10 = 2 e^{-rho/2} and
        R_20 = (2 - rho) e^{-rho/2}, <R_10|R_20> = int (2 - rho) rho^2 e^{-rho} / 4 = -1/2."""
        momentum, position = gram_matrices([QuantumState(1, 0), QuantumState(2, 0)])
        assert position[0, 1] == pytest.approx(-0.5, rel=1e-14)
        assert np.max(np.abs(momentum - position)) <= 1e-14

    def test_mixed_scales_rejected(self):
        with pytest.raises(ValueError):
            gram_matrices([QuantumState(1, 0), QuantumState(2, 0, PhysicalScale(beta=2.0))])

    @pytest.mark.parametrize("hbar_beta", [1e-6, 1.0, 1e4])
    @pytest.mark.parametrize("l", [0, 10])
    def test_large_N(self, l, hbar_beta):
        """Every state with N <= 100 of one l, at scales far from 1."""
        states = [QuantumState(N, l, PhysicalScale(1.0, hbar_beta)) for N in range(l + 1, 101)]
        momentum, position = gram_matrices(states)
        assert np.max(np.abs(momentum - position)) <= 1e-12
        assert np.max(np.abs(np.diag(position) - 1.0)) <= 1e-12


class TestDiagonalization:
    @staticmethod
    def _bump():
        f = lambda r: np.where((1.0 < r) & (r < 2.0), (r - 1.0) ** 2 * (2.0 - r) ** 2, 0.0)
        df = lambda r: np.where((1.0 < r) & (r < 2.0),
                                2.0 * (r - 1.0) * (2.0 - r) ** 2
                                - 2.0 * (r - 1.0) ** 2 * (2.0 - r), 0.0)
        return f, df

    def test_incoming_eigenvalue(self):
        f, df = self._bump()
        grid = np.linspace(-8.0, 8.0, 9)
        res = diagonalization_residual(f, df, (1.0, 2.0), grid)
        assert res <= 1e-8

    def test_support_must_avoid_origin(self):
        f, df = self._bump()
        with pytest.raises(ValueError):
            diagonalization_residual(f, df, (0.0, 2.0), [1.0])

    def test_nonvanishing_endpoint_rejected(self):
        with pytest.raises(ValueError):
            diagonalization_residual(lambda r: 1.0, lambda r: 0.0, (1.0, 2.0), [1.0])
