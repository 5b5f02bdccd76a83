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
    PROBE_STEP,
    REL_TOL,
    ConvergenceError,
    _gauss_laguerre,
    diagonalization_residual,
    gram_matrices,
    tail_cut,
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
        assert (REL_TOL, ABS_TOL, MAX_RHO, PANEL_BUDGET) == (1e-9, 1e-11, 2000.0, 40000)


class TestTailCut:
    """The cut in rho comes from a probe of the integrand's tail."""

    @staticmethod
    def slater(rho):
        return rho ** 4 * np.exp(-rho / 2.0)

    def test_cut_follows_the_tail(self):
        """rho^4 e^{-rho/2} peaks at 75 (rho = 8) and falls below 1e-17 of
        that, over TAIL_LENGTH, between rho = 108 and 112."""
        assert tail_cut(self.slater) == 112.0

    def test_zero_between_probes_does_not_end_it(self):
        """(rho - 8) rho^3 e^{-rho/2} is 0 at the probe point rho = 8 and
        has the tail of rho^4 e^{-rho/2}."""
        assert tail_cut(lambda rho: (rho - 8.0) * self.slater(rho) / rho) == 112.0

    def test_stack_takes_the_longest_tail(self):
        assert tail_cut(lambda rho: np.stack([np.exp(-rho / 2.0), self.slater(rho)])) == 112.0
        assert tail_cut(lambda rho: np.exp(-rho / 2.0)) < 112.0

    def test_floor(self):
        """A tail below the relative floor may still be above an absolute one."""
        large = lambda rho: 1e12 * self.slater(rho)
        assert tail_cut(large) == 112.0
        assert tail_cut(large, 1e-12) > 112.0

    def test_limit(self, monkeypatch):
        assert tail_cut(lambda rho: np.exp(-rho / 1000.0)) == MAX_RHO
        monkeypatch.setattr(transform, "MAX_RHO", 250.0)
        assert tail_cut(lambda rho: np.exp(-rho / 1000.0)) == 250.0

    def test_zero_integrand(self):
        assert tail_cut(lambda rho: 0.0 * rho) == PROBE_STEP


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
        """Both calls take the same cut from f and lay out the MIN_PANELS
        floor here (|b| cut <= 64 pi), so they sum the same nodes; across
        layouts the values agree to the rounding of the integrand at the
        nodes, which test_matches_psi_trig bounds."""
        scale = PhysicalScale(1.0, hbar_beta)
        q = np.array([[-1.5, -0.7, -1e-3, 0.0], [0.0, 1e-3, 0.7, 0.7]])
        for N, l in [(1, 0), (3, 1), (6, 5), (8, 2)]:
            state = QuantumState(N, l, scale)
            f = lambda r: radial_wavefunction(state, r)
            values, cut, _ = transform._transform_numeric(f, q * hbar_beta, sign, scale)
            assert 0.5 * 1.5 * cut <= MIN_PANELS * PANEL_PHASE
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

    @pytest.mark.parametrize("cut", [100.0, 112.0, 116.0, 120.0, 250.0])
    def test_phase_at_large_p(self, monkeypatch, cut):
        """At |p| = 1000 hbar beta the phase b rho of the outer sums reaches
        b times the cut; taken from rounded panel centers, it was off by
        their ulp from panel to panel, and the value by up to 1e-13
        depending on the layout.  Over fixed intervals in rho the value of
        R_{43} is right to 1e-15, below the value itself (2.7e-15)."""
        monkeypatch.setattr(transform, "tail_cut", lambda integrand, floor: cut)
        state = QuantumState(4, 3)
        p = np.array([-1000.0, 1000.0])
        numeric, used, _ = transform._transform_numeric(
            lambda r: radial_wavefunction(state, r), p, 1, PhysicalScale())
        assert used == cut
        assert np.max(np.abs(numeric - psi_trig(state, p))) <= 1e-15

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
        on one layout each row equals its own call, and the batch axes lead
        the result.  The batch takes its cut from the longest tail, that of
        (8, 2), so each row's own call stacks it with (8, 2) to keep that
        layout."""
        scale = PhysicalScale(1.0, hbar_beta)
        states = [QuantumState(N, l, scale) for N, l in [(1, 0), (3, 1), (6, 5), (8, 2)]]
        q = np.array([[-20.0, -0.7, -1e-3, 0.0], [0.0, 1e-3, 3.3, 20.0]])
        batch = transform_numeric(
            lambda r: np.stack([radial_wavefunction(s, r) for s in states]).reshape(2, 2, -1),
            q * hbar_beta, 1, scale)
        assert batch.shape == (2, 2) + q.shape
        for state, rows in zip(states, batch.reshape(len(states), *q.shape)):
            single = transform_numeric(
                lambda r: np.stack([radial_wavefunction(s, r) for s in (state, states[-1])]),
                q * hbar_beta, 1, scale)[0]
            assert np.max(np.abs(rows - single)) <= 1e-15, (state.N, state.l)

    @pytest.mark.parametrize("hbar_beta", [1e-3, 1.0, 1e3])
    def test_batch_rows_across_layouts(self, hbar_beta):
        """A row's own call takes its own, shorter cut, and so other nodes
        and panels than the batch; the two agree to the rounding of the
        integral, 1e-13 of the row's peak."""
        scale = PhysicalScale(1.0, hbar_beta)
        states = [QuantumState(N, l, scale) for N, l in [(1, 0), (3, 1), (6, 5), (8, 2)]]
        p = np.array([-20.0, -0.7, -1e-3, 0.0, 1e-3, 3.3, 20.0, 1000.0]) * hbar_beta
        f = lambda r: np.stack([radial_wavefunction(s, r) for s in states])
        batch, batch_cut, _ = transform._transform_numeric(f, p, 1, scale)
        for state, row in zip(states[:-1], batch):
            single, cut, _ = transform._transform_numeric(
                lambda r: radial_wavefunction(state, r), p, 1, scale)
            assert cut < batch_cut, (state.N, state.l)
            assert np.max(np.abs(row - single)) <= 1e-13 * np.max(np.abs(single))

    def test_batch_convergence_error_per_row(self, monkeypatch):
        """With the cut's limit at rho = 250, the tail of R_{60,0} is too long."""
        monkeypatch.setattr(transform, "MAX_RHO", 250.0)
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

    @pytest.mark.parametrize("N", [40, 60, 80, 100, 200])
    def test_truncation_raises_or_is_correct(self, N):
        """R_{N0} reaches past rho = 250 from N = 40 on; the cut follows its
        tail (to rho = 1036 at N = 200), so the value is right, not truncated
        (test_batch_convergence_error_per_row has the raise at a short limit)."""
        state = QuantumState(N, 0)
        p = np.array([0.0, 0.3, 1.0, 30.0])
        numeric = transform_numeric(lambda r: radial_wavefunction(state, r), p, 1)
        exact = psi_trig(state, p)
        assert np.max(np.abs(numeric - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_non_finite_f_raises(self):
        """A NaN of f fails the error check instead of passing as the value."""
        f = lambda r: np.where(r > 10.0, np.nan, np.exp(-r))
        with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError) as err:
            transform_numeric(f, np.array([0.0, 1.0]), -1)
        assert "past rho = 2000" in str(err.value)

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

    @pytest.mark.parametrize("hbar_beta", [1e-6, 1.0, 1e4])
    def test_laguerre_weights_from_nodes(self, hbar_beta):
        """The Gauss-Laguerre weights computed from the nodes keep l = 10,
        N <= 100 to a few ulps; numpy's own weights give 3e-13."""
        states = [QuantumState(N, 10, PhysicalScale(1.0, hbar_beta)) for N in range(11, 101)]
        momentum, position = gram_matrices(states)
        assert np.max(np.abs(momentum - position)) <= 3e-14


SLATER_POWERS = np.arange(1, 4)[:, None]


def slater_shapes(rho):
    """u_k(rho) = rho^k e^{-rho/2}, k = 1, 2, 3, stacked."""
    return rho ** SLATER_POWERS * np.exp(-rho / 2.0)


class TestDiagonalization:
    @staticmethod
    def _derivative(rho):
        return (SLATER_POWERS - rho / 2.0) * rho ** (SLATER_POWERS - 1) * np.exp(-rho / 2.0)

    def test_incoming_eigenvalue(self):
        grid = np.linspace(-8.0, 8.0, 9)
        res = diagonalization_residual(slater_shapes, self._derivative, grid)
        assert res.shape == (3,)
        assert np.all(res <= 1e-8)

    def test_one_function_gives_a_float(self):
        res = diagonalization_residual(lambda rho: rho * np.exp(-rho / 2.0),
                                       lambda rho: (1.0 - rho / 2.0) * np.exp(-rho / 2.0),
                                       np.linspace(-8.0, 8.0, 9))
        assert isinstance(res, float) and res <= 1e-13


class TestSlaterShapes:
    @pytest.mark.parametrize("hbar_beta", [1e-3, 1.0, 1e3])
    def test_against_closed_form(self, hbar_beta):
        """transform_numeric of u_k(2 beta r) against the exact Slater-term
        transform, under both kernels, relative to the largest value."""
        scale = PhysicalScale(1.0, hbar_beta)
        p = np.linspace(-20.0, 20.0, 41) * hbar_beta
        for sign in (1, -1):
            numeric = transform_numeric(lambda r: slater_shapes(2.0 * scale.beta * r), p,
                                        sign, scale)
            closed = np.stack([transform_slater_closed(k, sign * p, scale)
                               for k in SLATER_POWERS[:, 0]]) / (2.0 * scale.beta) ** 2
            assert np.max(np.abs(numeric - closed)) <= 1e-14 * np.max(np.abs(closed))
