"""Spherical-wave transform: conventions, closed forms, Parseval, diagonal."""

import cmath
import math

import numpy as np
import pytest

from hmomentum.forms import psi_trig
from hmomentum.hydrogenic import (
    PhysicalScale,
    QuantumState,
    radial_wavefunction,
    slater_expansion,
)
from hmomentum.transform import (
    DEFAULT_CONVENTION,
    INCOMING_STRICT,
    MIN_PANELS,
    OUTGOING_STRICT,
    PANEL_PHASE,
    ConvergenceError,
    QuadratureSpec,
    TransformConvention,
    _gauss_laguerre,
    diagonalization_residual,
    parseval_check,
    transform_numeric,
    transform_slater_closed,
    transform_slater_expansion,
)


class TestConvention:
    def test_defaults(self):
        assert DEFAULT_CONVENTION.kernel_sign == "incoming"
        assert DEFAULT_CONVENTION.sign == -1
        assert DEFAULT_CONVENTION.prefactor == 1j

    def test_strict_prefactors(self):
        assert OUTGOING_STRICT.sign == 1
        assert OUTGOING_STRICT.prefactor == 1.0
        assert INCOMING_STRICT.prefactor == 1.0

    def test_outgoing_paper_prefactor(self):
        conv = TransformConvention("outgoing", "paper_section4")
        assert conv.prefactor == -1j

    def test_invalid(self):
        with pytest.raises(ValueError):
            TransformConvention("sideways", "strict_theorem1")
        with pytest.raises(ValueError):
            TransformConvention("incoming", "bogus")


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.rel_tol == 1e-9 and spec.max_rho == 250.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(panel_budget=0)


class TestClosedForm:
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
    def test_against_numeric(self, power, p):
        scale = PhysicalScale()
        f = lambda r: (2.0 * r) ** power * np.exp(-r)  # rho^m e^{-rho/2}, beta=1
        # The un-cancelled integrand reaches ~2^power Gamma(power+2), which
        # sets the achievable absolute accuracy; budget the spec accordingly.
        floor = 1e-13 * 2.0 ** power * math.gamma(power + 2)
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=max(1e-11, floor),
                              panel_budget=500)
        numeric = transform_numeric(f, p, OUTGOING_STRICT, spec)
        closed = transform_slater_closed(power, p, scale) / (2.0 * scale.beta) ** 2
        assert numeric == pytest.approx(closed, abs=1e-9 + 2.0 * spec.abs_tol)


class TestTransformNumeric:
    def test_ground_state_at_zero(self):
        # int_0^inf e^{-r} r dr = 1; times prefactor 1 under strict
        val = transform_numeric(lambda r: np.exp(-r), 0.0, INCOMING_STRICT)
        assert val == pytest.approx(1.0 + 0.0j, abs=1e-11)

    def test_kernel_sign_conjugation(self):
        f = lambda r: r * np.exp(-r)
        p = 1.7
        out = transform_numeric(f, p, OUTGOING_STRICT)
        inc = transform_numeric(f, p, INCOMING_STRICT)
        assert inc == pytest.approx(out.conjugate(), abs=1e-12)

    def test_conjugate_symmetry_in_p(self):
        f = lambda r: r * np.exp(-r / 2)
        for p in (0.4, 1.0, 3.3):
            plus = transform_numeric(f, p, INCOMING_STRICT)
            minus = transform_numeric(f, -p, INCOMING_STRICT)
            assert minus == pytest.approx(plus.conjugate(), abs=1e-12)

    def test_paper_prefactor_is_overall_i(self):
        f = lambda r: np.exp(-r)
        strict = transform_numeric(f, 0.9, INCOMING_STRICT)
        paper = transform_numeric(f, 0.9, DEFAULT_CONVENTION)
        assert paper == pytest.approx(1j * strict, abs=1e-12)

    def test_compact_support(self):
        f = lambda r: np.where((1.0 < r) & (r < 2.0), (r - 1.0) * (2.0 - r), 0.0)
        val = transform_numeric(f, 0.0, INCOMING_STRICT, support=(1.0, 2.0))
        # int_1^2 (r-1)(2-r) r dr = 1/4 by expansion
        assert val.real == pytest.approx(0.25, abs=1e-11)

    def test_bad_support_rejected(self):
        with pytest.raises(ValueError):
            transform_numeric(lambda r: 0.0, 1.0, support=(-1.0, 2.0))
        with pytest.raises(ValueError):
            transform_numeric(lambda r: 0.0, 1.0, support=(2.0, 2.0))

    def test_convergence_error(self):
        spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-16, panel_budget=1)
        f = lambda r: np.exp(-r) * np.cos(7.0 * r)
        with pytest.raises(ConvergenceError) as err:
            transform_numeric(f, 5.0, INCOMING_STRICT, spec)
        assert err.value.error_bound > 0
        assert isinstance(err.value.estimate, complex)


class TestArrayTransform:
    """transform_numeric over an array of p, in one call of f."""

    @pytest.mark.parametrize("conv", [OUTGOING_STRICT, INCOMING_STRICT, DEFAULT_CONVENTION])
    @pytest.mark.parametrize("hbar_beta", [1e-3, 1.0, 1e3])
    def test_equals_point_by_point(self, conv, hbar_beta):
        """Both calls lay out the MIN_PANELS floor here (|b| max_rho <= 64 pi),
        so they sum the same nodes; across layouts the values agree to the
        rounding of the integrand at the nodes, which test_matches_psi_trig
        bounds."""
        scale = PhysicalScale(1.0, hbar_beta)
        q = np.array([[-1.5, -0.7, -1e-3, 0.0], [0.0, 1e-3, 0.7, 0.7]])
        assert 0.5 * 1.5 * QuadratureSpec().max_rho <= MIN_PANELS * PANEL_PHASE
        for N, l in [(1, 0), (3, 1), (6, 5), (8, 2)]:
            state = QuantumState(N, l, scale)
            f = lambda r: radial_wavefunction(state, r)
            values = transform_numeric(f, q * hbar_beta, conv, scale=scale)
            assert values.shape == q.shape
            for p, value in zip((q * hbar_beta).ravel(), values.ravel()):
                assert abs(value - transform_numeric(f, p, conv, scale=scale)) <= 1e-15

    @pytest.mark.parametrize("hbar_beta", [1e-3, 1.0, 1e3])
    def test_matches_psi_trig(self, hbar_beta):
        scale = PhysicalScale(1.0, hbar_beta)
        q = np.array([0.0, 1e-3, 1.0, 20.0, 1000.0])
        p = np.concatenate([-q[:0:-1], q]) * hbar_beta
        for N, l in [(1, 0), (2, 1), (3, 0), (4, 3), (5, 2), (8, 2), (8, 7)]:
            state = QuantumState(N, l, scale)
            numeric = transform_numeric(lambda r: radial_wavefunction(state, r), p,
                                        OUTGOING_STRICT, scale=scale)
            assert np.max(np.abs(numeric - psi_trig(state, p))) <= 1e-12, (N, l)

    def test_shapes(self):
        value = transform_numeric(lambda r: np.exp(-r), 0.5, INCOMING_STRICT)
        assert isinstance(value, complex) and np.ndim(value) == 0
        assert transform_numeric(lambda r: np.exp(-r), np.array([])).shape == (0,)

    def test_panel_budget_exceeded(self):
        """|p| = 1000 hbar beta needs about 40000 panels; 400 do not resolve it."""
        f = lambda r: radial_wavefunction(QuantumState(2, 1), r)
        p = np.array([0.5, 1000.0])
        transform_numeric(f, p, OUTGOING_STRICT)
        with pytest.raises(ConvergenceError) as err:
            transform_numeric(f, p, OUTGOING_STRICT, QuadratureSpec(panel_budget=400))
        assert "panel_budget 400" in str(err.value)
        assert err.value.estimate.shape == p.shape
        assert err.value.error_bound[1] > QuadratureSpec().abs_tol

    @pytest.mark.parametrize("hbar_beta", [1e-3, 1.0, 1e3])
    def test_batch_rows_equal_single_calls(self, hbar_beta):
        """A stack of functions shares the nodes and the e^{i b rho} factors;
        each row equals its own call, and the batch axes lead the result."""
        scale = PhysicalScale(1.0, hbar_beta)
        states = [QuantumState(N, l, scale) for N, l in [(1, 0), (3, 1), (6, 5), (8, 2)]]
        q = np.array([[-20.0, -0.7, -1e-3, 0.0], [0.0, 1e-3, 3.3, 20.0]])
        batch = transform_numeric(
            lambda r: np.stack([radial_wavefunction(s, r) for s in states]).reshape(2, 2, -1),
            q * hbar_beta, OUTGOING_STRICT, scale=scale)
        assert batch.shape == (2, 2) + q.shape
        for state, rows in zip(states, batch.reshape(len(states), *q.shape)):
            single = transform_numeric(lambda r: radial_wavefunction(state, r), q * hbar_beta,
                                       OUTGOING_STRICT, scale=scale)
            assert np.max(np.abs(rows - single)) <= 1e-15, (state.N, state.l)

    def test_batch_convergence_error_per_row(self):
        states = [QuantumState(1, 0), QuantumState(60, 0)]
        p = np.array([0.0, 0.3, 1.0])
        with pytest.raises(ConvergenceError) as err:
            transform_numeric(lambda r: np.stack([radial_wavefunction(s, r) for s in states]),
                              p, OUTGOING_STRICT)
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
            numeric = transform_numeric(lambda r: radial_wavefunction(state, r), p,
                                        OUTGOING_STRICT)
        except ConvergenceError as err:
            assert np.any(err.error_bound > err.tolerance)
        else:
            exact = psi_trig(state, p)
            assert np.max(np.abs(numeric - exact)) <= 1e-9 * np.max(np.abs(exact))

    def test_non_finite_p_rejected(self):
        for bad in (math.inf, math.nan, np.array([0.0, -math.inf])):
            with pytest.raises(ValueError):
                transform_numeric(lambda r: np.exp(-r), bad)


class TestExpansionTransform:
    def test_ground_state_closed(self):
        state = QuantumState(1, 0)
        expansion = slater_expansion(state, normalized=True)
        # 2 / (1 - i p)^2 under the outgoing strict convention
        for p in (0.0, 0.5, 2.0):
            expect = 2.0 / (1.0 - 1j * p) ** 2
            got = transform_slater_expansion(expansion, p)
            assert got == pytest.approx(expect, rel=1e-13)

    def test_incoming_is_conjugate(self):
        expansion = slater_expansion(QuantumState(3, 1), normalized=True)
        p = 1.3
        out = transform_slater_expansion(expansion, p, OUTGOING_STRICT)
        inc = transform_slater_expansion(expansion, p, INCOMING_STRICT)
        assert inc == pytest.approx(out.conjugate(), rel=1e-14)

    def test_inverse_power_rejected(self):
        from hmomentum.hydrogenic import SlaterExpansion

        bad = SlaterExpansion(0, ((-1, 1.0 + 0j),))
        with pytest.raises(ValueError):
            transform_slater_expansion(bad, 1.0)


class TestParseval:
    @pytest.mark.parametrize("N,l", [(1, 0), (2, 0), (2, 1), (4, 2), (5, 0)])
    def test_normalized_states(self, N, l):
        expansion = slater_expansion(QuantumState(N, l), normalized=True)
        pos, mom = parseval_check(expansion)
        assert pos == pytest.approx(1.0, abs=1e-8)
        assert mom == pytest.approx(1.0, abs=1e-7)

    def test_laguerre_rule_cached_read_only(self):
        x, w = _gauss_laguerre(7)
        assert _gauss_laguerre(7)[0] is x
        assert not x.flags.writeable and not w.flags.writeable

    def test_scaling_quadratic(self):
        expansion = slater_expansion(QuantumState(1, 0), normalized=True)
        pos, mom = parseval_check(expansion.scaled(3.0))
        assert pos == pytest.approx(9.0, abs=1e-7)
        assert mom == pytest.approx(9.0, abs=1e-6)


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

    def test_outgoing_eigenvalue_flips(self):
        f, df = self._bump()
        grid = np.linspace(-5.0, 5.0, 5)
        res = diagonalization_residual(f, df, (1.0, 2.0), grid, conv=OUTGOING_STRICT)
        assert res <= 1e-8

    def test_support_must_avoid_origin(self):
        f, df = self._bump()
        with pytest.raises(ValueError):
            diagonalization_residual(f, df, (0.0, 2.0), [1.0])

    def test_nonvanishing_endpoint_rejected(self):
        with pytest.raises(ValueError):
            diagonalization_residual(lambda r: 1.0, lambda r: 0.0, (1.0, 2.0), [1.0])
