"""Spherical-wave transform: kernel signs, closed forms, the Filon rules.

`transform_numeric(f, q, sign)` takes f as a function of rho = 2 beta r and
returns the unit integral int_0^inf f(rho) rho e^{sign i q rho / 2} d rho.  For
phi(r) = f(2 beta r) that is (2 beta)^2 (H phi)(q hbar beta).  The tests of a
state at scale beta transform R (2 beta)^{-3/2}, of order 1 at any scale
(`radial_in_rho`), whose unit integral is (2 beta)^{1/2} H R, and hold H R
to the bounds it had when the transform took p and a scale.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from hmomentum import transform
from hmomentum.forms import psi_trig
from hmomentum.hydrogenic import PhysicalScale, QuantumState, radial_wavefunction
from hmomentum.transform import (
    ESTIMATE_ORDER,
    GL_ORDER,
    MAX_RHO,
    MIN_PANELS,
    PANEL_BUDGET,
    PEAK_TOL,
    PROBE_STEP,
    REL_TOL,
    ConvergenceError,
    tail_cut,
    transform_numeric,
)
from oracles import (
    SlaterExpansion,
    _gauss_legendre_mp,
    filon_weights,
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
        assert (REL_TOL, PEAK_TOL, MAX_RHO, PANEL_BUDGET) == (1e-9, 1e-11, 2000.0, 40000)


class TestTailCut:
    """The cut in rho comes from a probe of the integrand's tail."""

    @staticmethod
    def slater(rho):
        return rho ** 4 * np.exp(-rho / 2.0)

    def test_cut_follows_the_tail(self):
        """rho^4 e^{-rho/2} peaks at 75 (rho = 8) and falls below 1e-17 of
        that, over TAIL_LENGTH, between rho = 108 and 112."""
        cut, peak = tail_cut(self.slater)
        assert cut == 112.0 and peak == pytest.approx(self.slater(8.0), rel=1e-15)

    def test_zero_between_probes_does_not_end_it(self):
        """(rho - 8) rho^3 e^{-rho/2} is 0 at the probe point rho = 8 and
        has the tail of rho^4 e^{-rho/2}."""
        assert tail_cut(lambda rho: (rho - 8.0) * self.slater(rho) / rho)[0] == 112.0

    def test_stack_takes_the_longest_tail(self):
        """The cut of the stack is that of its longest tail, and each row keeps
        its own largest value."""
        cut, peak = tail_cut(lambda rho: np.stack([np.exp(-rho / 2.0), self.slater(rho)]))
        assert cut == 112.0
        assert peak.ravel() == pytest.approx([math.exp(-2.0), self.slater(8.0)], rel=1e-15)
        assert tail_cut(lambda rho: np.exp(-rho / 2.0))[0] < 112.0

    def test_floor(self):
        """The floor is relative only: a large function cuts where a small one does."""
        large = lambda rho: 1e12 * self.slater(rho)
        assert tail_cut(large)[0] == 112.0

    def test_limit(self, monkeypatch):
        assert tail_cut(lambda rho: np.exp(-rho / 1000.0))[0] == MAX_RHO
        monkeypatch.setattr(transform, "MAX_RHO", 250.0)
        assert tail_cut(lambda rho: np.exp(-rho / 1000.0))[0] == 250.0

    def test_zero_integrand(self):
        cut, peak = tail_cut(lambda rho: 0.0 * rho)
        assert cut == PROBE_STEP and not peak.any()


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
        """rho^m e^{-rho/2} at q = p (unit scale), to 1e-14 of its peak, the
        value at q = 0: the transform's floor follows the function's size, so
        a large rho^m needs no tolerance of its own."""
        f = lambda rho: rho ** power * np.exp(-rho / 2.0)
        monkeypatch.setattr(transform, "REL_TOL", 1e-10)
        monkeypatch.setattr(transform, "PANEL_BUDGET", 500)
        numeric = transform_numeric(f, p, 1)
        assert numeric == pytest.approx(transform_slater_closed(power, p),
                                        abs=1e-14 * abs(transform_slater_closed(power, 0.0)))


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
        monkeypatch.setattr(transform, "PEAK_TOL", 1e-16)
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
        floor here (|b| cut <= 64 times 8 pi), where the bound holds at every
        q, so they sum the same nodes; across layouts the values agree to the
        rounding of the integrand at the nodes, which test_matches_psi_trig
        bounds.  H R is held to 1e-15."""
        scale = PhysicalScale(1.0, hbar_beta)
        q = np.array([[-1.5, -0.7, -1e-3, 0.0], [0.0, 1e-3, 0.7, 0.7]])
        for N, l in [(1, 0), (3, 1), (6, 5), (8, 2)]:
            f = radial_in_rho(QuantumState(N, l, scale))
            values, _, layout = transform._transform_numeric(f, q, sign)
            assert layout.panels == MIN_PANELS
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
        probe = transform.tail_cut
        monkeypatch.setattr(transform, "tail_cut", lambda integrand: (cut, probe(integrand)[1]))
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
        """|q| = 1000 over the cut at rho = 100 takes 1990 panels of four
        periods; as the Filon weights follow R, not the phase, 32 would do.
        8 panels, 12.5 wide in rho, do not resolve it."""
        f = radial_in_rho(QuantumState(2, 1))
        q = np.array([0.5, 1000.0])
        transform_numeric(f, q, 1)
        monkeypatch.setattr(transform, "PANEL_BUDGET", 8)
        with pytest.raises(ConvergenceError) as err:
            transform_numeric(f, q, 1)
        assert "panel_budget 8" in str(err.value)
        assert err.value.estimate.shape == q.shape
        assert err.value.error_bound[1] > err.value.tolerance[1]

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

    @pytest.mark.parametrize("N", [29, 40, 100, 200])
    def test_s_state_at_zero_alone(self, N):
        """At q = 0 alone the layout starts at MIN_PANELS, which do not resolve
        the N - 1 nodes of R_{N0}; the panel count doubles until the bound
        holds (1024 panels at N = 200), so the value is right where a layout
        that followed the phase alone raised from N = 29.  |H R_{N0}| peaks
        at q = 0."""
        state = QuantumState(N, 0)
        numeric = transform_numeric(radial_in_rho(state), 0.0, 1)
        exact = 2.0 ** 0.5 * psi_trig(state, 0.0)
        assert abs(numeric - exact) <= 1e-13 * abs(exact)

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


def _radial_rows(states):
    """R_{Nl} of each state at its scale, stacked, as a function of rho = 2 beta r."""
    return lambda rho: np.stack([radial_wavefunction(s, rho / (2.0 * s.scale.beta))
                                 for s in states])


def _slater_pair(rho):
    """The pair (u' + u / rho, u), u = rho^k e^{-rho/2}, k = 1, 2, 3, that
    `verify_parseval_and_diagonalization` transforms."""
    k = np.arange(1, 4)[:, None]
    u = rho ** k * np.exp(-rho / 2.0)
    return np.stack([(k - rho / 2.0) * rho ** (k - 1) * np.exp(-rho / 2.0) + u / rho, u])


STACK = [(1, 0), (3, 1), (6, 5), (8, 2)]
Q_STACK = np.array([[-20.0, -0.7, -1e-3, 0.0], [0.0, 1e-3, 3.3, 20.0]])


class TestScaleFree:
    """The cut and both tolerances follow f, so no caller has to scale f."""

    CASES = {
        "R_200_0": (_radial_rows([QuantumState(200, 0)]), np.array([0.0, 0.5]), 1),
        "R_stack": (_radial_rows([QuantumState(N, l) for N, l in STACK]), Q_STACK, 1),
        "slater_pair": (_slater_pair, np.linspace(-10.0, 10.0, 21), -1),
    }

    @pytest.mark.parametrize("k", [-600, -40, 40, 600])
    @pytest.mark.parametrize("case", list(CASES))
    def test_power_of_two_scales_bit_for_bit(self, case, k):
        """T[2^k f] = 2^k T[f], on the same cut and layout.  An absolute floor
        took 64 panels for R_{200,0} at k = -40, off by 2e-2, and raised for
        the R stack and the Slater pair at k = 40."""
        f, q, sign = self.CASES[case]
        value, cut, layout = transform._transform_numeric(f, q, sign)
        scaled = transform._transform_numeric(lambda rho: np.ldexp(f(rho), k), q, sign)
        assert scaled[1:] == (cut, layout)
        assert np.array_equal(scaled[0].real, np.ldexp(value.real, k))
        assert np.array_equal(scaled[0].imag, np.ldexp(value.imag, k))

    def test_small_function_is_right(self):
        """R_{200,0} times 2^-40 at q in {0, 0.5} is 2^-40 times 4 psi_trig,
        to 1e-13 of its peak."""
        state, q = QuantumState(200, 0), np.array([0.0, 0.5])
        numeric = transform_numeric(lambda rho: 2.0 ** -40 * radial_wavefunction(state, rho / 2.0),
                                    q, 1)
        exact = 2.0 ** -40 * 4.0 * psi_trig(state, q)
        assert np.max(np.abs(numeric - exact)) <= 1e-13 * np.max(np.abs(exact))

    def test_large_function_converges(self):
        """The R stack at beta = 1e6 as a function of rho, whose values reach
        1e9, converges well within PANEL_BUDGET (an absolute floor took all
        40000 panels and raised), and its unit integral is (2 beta)^2 psi_trig
        at p = q hbar beta, to 1e-13 of each row's peak."""
        scale = PhysicalScale(1.0, 1e6)
        states = [QuantumState(N, l, scale) for N, l in STACK]
        numeric, _, layout = transform._transform_numeric(_radial_rows(states), Q_STACK, 1)
        assert layout.panels < PANEL_BUDGET
        for state, row in zip(states, numeric):
            exact = (2.0 * scale.beta) ** 2 * psi_trig(state, Q_STACK * scale.momentum)
            assert np.max(np.abs(row - exact)) <= 1e-13 * np.max(np.abs(exact)), (state.N, state.l)


class TestGaussLegendre:
    """The Gauss-Legendre rules of `transform`, from Newton's method in integers."""

    @pytest.mark.parametrize("order", range(2, 21))
    def test_correctly_rounded(self, order):
        """Each node and weight is within half the gap to its neighbour double
        toward the 40-digit value (`oracles._gauss_legendre_mp`)."""
        x, w, _ = transform._gauss_legendre(order)
        with mpmath.workdps(40):
            nodes, weights = _gauss_legendre_mp(order)
            for got, exact in zip(np.concatenate([x, w]), nodes + weights):
                gap = abs(np.nextafter(got, math.inf if exact > got else -math.inf) - got)
                assert abs(mpmath.mpf(float(got)) - exact) <= gap / 2, (order, got)

    @staticmethod
    def exactly(value):
        """A long double as an mpf, exactly: its double and the rest."""
        head = float(value)
        return mpmath.mpf(head) + float(value - np.longdouble(head))

    @pytest.mark.parametrize("order", range(2, 21))
    def test_filon_table_correctly_rounded(self, order):
        """Each entry (-1)^{floor(m/2)} (2m + 1) w_k P_m(x_k) of the Filon table in
        long double, its double plus its rest, is within half the gap to its
        neighbour long double toward the 40-digit value."""
        head, rest = transform._gauss_legendre(order)[2]
        table = head.astype(np.longdouble) + rest.astype(np.longdouble)
        with mpmath.workdps(40):
            nodes, weights = _gauss_legendre_mp(order)
            for m in range(order):
                for got, x, w in zip(table[m], nodes, weights):
                    exact = (-1) ** (m // 2) * (2 * m + 1) * w * mpmath.legendre(m, x)
                    toward = np.longdouble(math.inf if exact > self.exactly(got) else -math.inf)
                    gap = abs(self.exactly(np.nextafter(got, toward)) - self.exactly(got))
                    assert abs(self.exactly(got) - exact) <= gap / 2, (order, m, got)

    # The nodes x >= 0 of the Filon rules as numpy's leggauss nodes refined in
    # long double gave them.
    FILON_NODES = {
        ESTIMATE_ORDER: ["0x1.007a5f8f630e4p-3", "0x1.78a8d20a8b19dp-2", "0x1.2cb4f05c077f9p-1",
                         "0x1.8a30aeed88f36p-1", "0x1.cee874ffb88b4p-1", "0x1.f68f1d8e42e81p-1"],
        GL_ORDER: ["0x1.852bd6676a9f9p-4", "0x1.205cae642337cp-2", "0x1.d50259a43a772p-2",
                   "0x1.3c5a466d5e8b8p-1", "0x1.82c45dda4726bp-1", "0x1.bb3403514e483p-1",
                   "0x1.e39f56616f9b0p-1", "0x1.fa92c264d787ep-1"],
    }

    @pytest.mark.parametrize("order", [ESTIMATE_ORDER, GL_ORDER])
    def test_filon_nodes_unchanged(self, order):
        nodes = transform._gauss_legendre(order)[0]
        assert [float(v).hex() for v in nodes[order // 2:]] == self.FILON_NODES[order]
        assert np.array_equal(nodes[:order // 2], -nodes[:order // 2 - 1:-1])


class TestFilonWeights:
    """The panel weights W_k(beta) = int_{-1}^{1} e^{i beta t} l_k(t) dt, summed
    in long double from the Rayleigh expansion, against tests/oracles.py."""

    BETAS = [0.0, 1e-12, 1e-3, 0.5, math.pi, 4.0 * math.pi]

    def assert_within(self, order, ulps):
        """Each weight is within `ulps` ulps of the 40-digit integral, relative
        to the Gauss-Legendre weight w_k of its node."""
        weights = transform._filon_weights(np.array(self.BETAS), 1.0, (order,))[0]
        reference, w = filon_weights(order, self.BETAS)
        for got, expected in zip(weights, reference):
            for k in range(order):
                error = abs(mpmath.mpc(got[0, k], got[1, k]) - expected[k])
                assert error <= ulps * np.spacing(float(w[k])), (order, k)

    @pytest.mark.parametrize("order", [ESTIMATE_ORDER, GL_ORDER])
    def test_against_mpmath(self, order):
        self.assert_within(order, 2.0)

    @pytest.mark.parametrize("order", [ESTIMATE_ORDER, GL_ORDER])
    def test_double_as_the_extended_type(self, order, monkeypatch):
        """Where long double is double, the table's entries are its correctly
        rounded doubles, and each weight is within 8 ulps."""
        monkeypatch.setattr(transform, "_EXTENDED", np.float64)
        self.assert_within(order, 8.0)

    def test_each_beta_alone(self):
        """The weights of one beta are the same, bit for bit, alone or in a
        batch with other beta, those past the order included."""
        betas = np.array(self.BETAS[::-1] + [7.0, 16.0, 17.0, 1562.5])
        orders = (GL_ORDER, ESTIMATE_ORDER)
        batch = transform._filon_weights(betas, 0.3, orders)
        for i, beta in enumerate(betas):
            for alone, rows in zip(transform._filon_weights(betas[i:i + 1], 0.3, orders), batch):
                assert np.array_equal(alone[0], rows[i]), beta


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
