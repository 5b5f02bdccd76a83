"""Spherical-wave transform: kernel signs, closed forms, the diagonal.

`transform_numeric(f, q, sign)` takes f as a function of rho = 2 beta r and
returns the unit integral int_0^inf f(rho) rho e^{sign i q rho / 2} d rho.  For
phi(r) = f(2 beta r) that is (2 beta)^2 (H phi)(q hbar beta).  The tests of a
state at scale beta transform R (2 beta)^{-3/2}, of order 1 at any scale
(`radial_in_rho`), whose unit integral is (2 beta)^{1/2} H R, and hold H R
to the bounds it had when the transform took p and a scale.
"""

import cmath
import math

import numpy as np
import pytest

from hmomentum import transform
from hmomentum.forms import psi_trig
from hmomentum.hydrogenic import PhysicalScale, QuantumState, radial_wavefunction
from hmomentum.transform import (
    ABS_TOL,
    MAX_RHO,
    MIN_PANELS,
    PANEL_BUDGET,
    PANEL_PHASE,
    PROBE_STEP,
    REL_TOL,
    ConvergenceError,
    diagonalization_residual,
    tail_cut,
    transform_numeric,
)
from oracles import (
    SlaterExpansion,
    slater_expansion,
    transform_slater_closed,
    transform_slater_expansion,
)


def decay(rho):
    return np.exp(-rho / 2.0)


def radial_in_rho(state):
    """R_{Nl} (2 beta)^{-3/2} of `state` at its scale, as a function of rho = 2 beta r."""
    two_beta = 2.0 * state.scale.beta
    return lambda rho: radial_wavefunction(state, rho / two_beta) * two_beta ** -1.5


class TestConvention:
    """The kernel sign is the transform's only convention."""

    def test_defaults(self):
        """Sign -1 is the defining incoming kernel e^{-ipr/hbar}:
        int_0^inf e^{-rho/2} e^{-iq rho/2} rho d rho = 4 / (1 + iq)^2."""
        for q in (0.0, 0.9, -2.5):
            assert transform_numeric(decay, q, -1) == pytest.approx(
                4.0 / (1.0 + 1j * q) ** 2, abs=1e-12)

    def test_strict_prefactors(self):
        """Sign +1 is the outgoing kernel, with no factor besides it:
        int_0^inf e^{-rho/2} e^{iq rho/2} rho d rho = 4 / (1 - iq)^2."""
        for q in (0.0, 0.9, -2.5):
            assert transform_numeric(decay, q, 1) == pytest.approx(
                4.0 / (1.0 - 1j * q) ** 2, abs=1e-12)

    def test_invalid(self):
        for sign in (0, 2, -2):
            with pytest.raises(ValueError, match="sign"):
                transform_numeric(decay, 1.0, sign)


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
        """rho^m e^{-rho/2} at q = p (unit scale)."""
        f = lambda rho: rho ** power * np.exp(-rho / 2.0)
        # The un-cancelled integrand reaches ~2^power Gamma(power+2), which
        # sets the achievable absolute accuracy; budget the tolerances accordingly.
        abs_tol = max(1e-11, 1e-13 * 2.0 ** power * math.gamma(power + 2))
        monkeypatch.setattr(transform, "REL_TOL", 1e-10)
        monkeypatch.setattr(transform, "ABS_TOL", abs_tol)
        monkeypatch.setattr(transform, "PANEL_BUDGET", 500)
        numeric = transform_numeric(f, p, 1)
        assert numeric == pytest.approx(transform_slater_closed(power, p),
                                        abs=1e-9 + 2.0 * abs_tol)


class TestTransformNumeric:
    def test_ground_state_at_zero(self):
        # int_0^inf e^{-rho} rho d rho = 1
        val = transform_numeric(lambda rho: np.exp(-rho), 0.0, -1)
        assert val == pytest.approx(1.0 + 0.0j, abs=1e-11)

    def test_kernel_sign_conjugation(self):
        f = lambda rho: rho * np.exp(-rho)
        q = 1.7
        out = transform_numeric(f, q, 1)
        inc = transform_numeric(f, q, -1)
        assert inc == pytest.approx(out.conjugate(), abs=1e-12)

    def test_conjugate_symmetry_in_p(self):
        f = lambda rho: rho * np.exp(-rho / 2)
        for q in (0.4, 1.0, 3.3):
            plus = transform_numeric(f, q, -1)
            minus = transform_numeric(f, -q, -1)
            assert minus == pytest.approx(plus.conjugate(), abs=1e-12)

    def test_convergence_error(self, monkeypatch):
        monkeypatch.setattr(transform, "REL_TOL", 1e-14)
        monkeypatch.setattr(transform, "ABS_TOL", 1e-16)
        monkeypatch.setattr(transform, "PANEL_BUDGET", 1)
        f = lambda rho: np.exp(-rho) * np.cos(7.0 * rho)
        with pytest.raises(ConvergenceError) as err:
            transform_numeric(f, 5.0, -1)
        assert err.value.error_bound > 0
        assert isinstance(err.value.estimate, complex)


class TestArrayTransform:
    """transform_numeric over an array of q, in one call of f."""

    @pytest.mark.parametrize("sign", [1, -1], ids=["conv0", "conv1"])
    @pytest.mark.parametrize("hbar_beta", [1e-3, 1.0, 1e3])
    def test_equals_point_by_point(self, sign, hbar_beta):
        """Both calls take the same cut from f and lay out the MIN_PANELS
        floor here (|b| cut <= 64 pi), so they sum the same nodes; across
        layouts the values agree to the rounding of the integrand at the
        nodes, which test_matches_psi_trig bounds.  H R is held to 1e-15."""
        scale = PhysicalScale(1.0, hbar_beta)
        q = np.array([[-1.5, -0.7, -1e-3, 0.0], [0.0, 1e-3, 0.7, 0.7]])
        for N, l in [(1, 0), (3, 1), (6, 5), (8, 2)]:
            f = radial_in_rho(QuantumState(N, l, scale))
            values, cut, _ = transform._transform_numeric(f, q, sign)
            assert 0.5 * 1.5 * cut <= MIN_PANELS * PANEL_PHASE
            assert values.shape == q.shape
            for x, value in zip(q.ravel(), values.ravel()):
                assert abs(value - transform_numeric(f, x, sign)) <= 1e-15 * (2.0 * hbar_beta) ** 0.5

    @pytest.mark.parametrize("hbar_beta", [1e-3, 1.0, 1e3])
    def test_matches_psi_trig(self, hbar_beta):
        """H R_{Nl} is psi_trig at p = q hbar beta, to 1e-12, and the term-wise
        transform of the Slater expansion of tests/oracles.py, which shares no
        code with the package, to 1e-13 of its peak (the alternating Slater
        sum of (8, 2) cancels to 8e-14 near q = 0)."""
        scale = PhysicalScale(1.0, hbar_beta)
        q = np.array([0.0, 1e-3, 1.0, 20.0, 1000.0])
        q = np.concatenate([-q[:0:-1], q])
        for N, l in [(1, 0), (2, 1), (3, 0), (4, 3), (5, 2), (8, 2), (8, 7)]:
            state = QuantumState(N, l, scale)
            numeric = transform_numeric(radial_in_rho(state), q, 1) / (2.0 * hbar_beta) ** 0.5
            assert np.max(np.abs(numeric - psi_trig(state, q * hbar_beta))) <= 1e-12, (N, l)
            oracle = transform_slater_expansion(slater_expansion(state), q * hbar_beta)
            assert np.max(np.abs(numeric - oracle)) <= 1e-13 * np.max(np.abs(oracle)), (N, l)

    @pytest.mark.parametrize("cut", [100.0, 112.0, 116.0, 120.0, 250.0])
    def test_phase_at_large_p(self, monkeypatch, cut):
        """At |q| = 1000 the phase b rho of the outer sums reaches b times
        the cut; taken from rounded panel centers, it was off by their ulp
        from panel to panel, and H R_{43} by up to 1e-13 depending on the
        layout.  Over fixed intervals in rho H R_{43} is right to 1e-15,
        below the value itself (2.7e-15)."""
        monkeypatch.setattr(transform, "tail_cut", lambda integrand, floor: cut)
        state = QuantumState(4, 3)
        q = np.array([-1000.0, 1000.0])
        numeric, used, _ = transform._transform_numeric(radial_in_rho(state), q, 1)
        assert used == cut
        assert np.max(np.abs(numeric / 2.0 ** 0.5 - psi_trig(state, q))) <= 1e-15

    def test_shapes(self):
        value = transform_numeric(decay, 0.5, -1)
        assert isinstance(value, complex) and np.ndim(value) == 0
        assert transform_numeric(decay, np.array([]), -1).shape == (0,)

    def test_panel_budget_exceeded(self, monkeypatch):
        """|q| = 1000 needs about 40000 panels; 400 do not resolve it."""
        f = radial_in_rho(QuantumState(2, 1))
        q = np.array([0.5, 1000.0])
        transform_numeric(f, q, 1)
        monkeypatch.setattr(transform, "PANEL_BUDGET", 400)
        with pytest.raises(ConvergenceError) as err:
            transform_numeric(f, q, 1)
        assert "panel_budget 400" in str(err.value)
        assert err.value.estimate.shape == q.shape
        assert err.value.error_bound[1] > ABS_TOL

    @pytest.mark.parametrize("hbar_beta", [1e-3, 1.0, 1e3])
    def test_batch_rows_equal_single_calls(self, hbar_beta):
        """A stack of functions shares the nodes and the e^{i b rho} factors;
        on one layout each row equals its own call, and the batch axes lead
        the result.  The batch takes its cut from the longest tail, that of
        (8, 2), so each row's own call stacks it with (8, 2) to keep that
        layout.  H R is held to 1e-15."""
        scale = PhysicalScale(1.0, hbar_beta)
        states = [QuantumState(N, l, scale) for N, l in [(1, 0), (3, 1), (6, 5), (8, 2)]]
        q = np.array([[-20.0, -0.7, -1e-3, 0.0], [0.0, 1e-3, 3.3, 20.0]])
        batch = transform_numeric(
            lambda rho: np.stack([radial_in_rho(s)(rho) for s in states]).reshape(2, 2, -1),
            q, 1)
        assert batch.shape == (2, 2) + q.shape
        for state, rows in zip(states, batch.reshape(len(states), *q.shape)):
            single = transform_numeric(
                lambda rho: np.stack([radial_in_rho(s)(rho) for s in (state, states[-1])]),
                q, 1)[0]
            assert np.max(np.abs(rows - single)) <= 1e-15 * (2.0 * hbar_beta) ** 0.5, (
                state.N, state.l)

    @pytest.mark.parametrize("hbar_beta", [1e-3, 1.0, 1e3])
    def test_batch_rows_across_layouts(self, hbar_beta):
        """A row's own call takes its own, shorter cut, and so other nodes
        and panels than the batch; the two agree to the rounding of the
        integral, 1e-13 of the row's peak."""
        scale = PhysicalScale(1.0, hbar_beta)
        states = [QuantumState(N, l, scale) for N, l in [(1, 0), (3, 1), (6, 5), (8, 2)]]
        q = np.array([-20.0, -0.7, -1e-3, 0.0, 1e-3, 3.3, 20.0, 1000.0])
        f = lambda rho: np.stack([radial_in_rho(s)(rho) for s in states])
        batch, batch_cut, _ = transform._transform_numeric(f, q, 1)
        for state, row in zip(states[:-1], batch):
            single, cut, _ = transform._transform_numeric(radial_in_rho(state), q, 1)
            assert cut < batch_cut, (state.N, state.l)
            assert np.max(np.abs(row - single)) <= 1e-13 * np.max(np.abs(single))

    def test_batch_convergence_error_per_row(self, monkeypatch):
        """With the cut's limit at rho = 250, the tail of R_{60,0} is too long."""
        monkeypatch.setattr(transform, "MAX_RHO", 250.0)
        states = [QuantumState(1, 0), QuantumState(60, 0)]
        q = np.array([0.0, 0.3, 1.0])
        with pytest.raises(ConvergenceError) as err:
            transform_numeric(lambda rho: np.stack([radial_in_rho(s)(rho) for s in states]),
                              q, 1)
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
        q = np.array([0.0, 0.3, 1.0, 30.0])
        numeric = transform_numeric(radial_in_rho(state), q, 1)
        exact = 2.0 ** 0.5 * psi_trig(state, q)
        assert np.max(np.abs(numeric - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_non_finite_f_raises(self):
        """A NaN of f fails the error check instead of passing as the value."""
        f = lambda rho: np.where(rho > 20.0, np.nan, np.exp(-rho / 2.0))
        with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError) as err:
            transform_numeric(f, np.array([0.0, 1.0]), -1)
        assert "past rho = 2000" in str(err.value)

    def test_non_finite_p_rejected(self):
        for bad in (math.inf, math.nan, np.array([0.0, -math.inf])):
            with pytest.raises(ValueError, match="finite q"):
                transform_numeric(decay, bad, -1)


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
        """transform_numeric of u_k(rho) at q against the exact Slater-term
        transform in rho at p = q hbar beta and scale hbar beta, under both
        kernels, relative to the largest value."""
        scale = PhysicalScale(1.0, hbar_beta)
        q = np.linspace(-20.0, 20.0, 41)
        for sign in (1, -1):
            numeric = transform_numeric(slater_shapes, q, sign)
            closed = np.stack([transform_slater_closed(k, sign * q * hbar_beta, scale)
                               for k in SLATER_POWERS[:, 0]])
            assert np.max(np.abs(numeric - closed)) <= 1e-14 * np.max(np.abs(closed))
