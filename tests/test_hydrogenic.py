"""Position-space machinery: normalization, Slater terms, p_r, moments."""

import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss
from scipy.integrate import quad

from hmomentum.hydrogenic import (
    PhysicalScale,
    QuantumState,
    _radial_stack,
    expectation_p2,
    expectation_r2,
    normalization_constant,
    radial_wavefunction,
    sqrt_ratio,
)
from hmomentum.verification import _gram_blocks, _p2_stack
from oracles import SlaterExpansion, apply_radial_momentum, slater_expansion


class TestPhysicalScale:
    def test_defaults(self):
        scale = PhysicalScale()
        assert scale.hbar == 1.0 and scale.beta == 1.0
        assert scale.momentum == 1.0

    def test_positivity(self):
        with pytest.raises(ValueError):
            PhysicalScale(hbar=0.0)
        with pytest.raises(ValueError):
            PhysicalScale(beta=-1.0)


class TestQuantumState:
    def test_valid_range(self):
        QuantumState(3, 2)
        QuantumState(3, 0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            QuantumState(0, 0)
        with pytest.raises(ValueError):
            QuantumState(2, 2)
        with pytest.raises(ValueError):
            QuantumState(2, -1)


class TestRadialArrays:
    def test_array_equals_point_by_point(self):
        r = np.array([[0.0, 1e-3, 0.5], [2.0, 17.0, 60.0]])
        for N, l in [(1, 0), (4, 0), (5, 2), (9, 8)]:
            state = QuantumState(N, l, PhysicalScale(beta=0.7))
            values = radial_wavefunction(state, r)
            assert values.shape == r.shape
            for x, value in zip(r.ravel(), values.ravel()):
                assert value == radial_wavefunction(state, float(x))

    def test_float_in_float_out(self):
        assert isinstance(radial_wavefunction(QuantumState(2, 0), 1.5), float)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            radial_wavefunction(QuantumState(2, 0), np.array([1.0, -0.5]))

    def test_zero_at_huge_r(self):
        """e^{-rho/2} is 0 where L_{N-l-1}(rho) overflows: R is 0 there, with
        no NaN and no warning."""
        r = np.array([0.5, 1e200, 3.0, math.inf, 40.0])
        for N, l in [(1, 0), (3, 0), (5, 2), (150, 10)]:
            state = QuantumState(N, l)
            assert radial_wavefunction(state, 1e200) == 0.0
            assert radial_wavefunction(state, math.inf) == 0.0
            values = radial_wavefunction(state, r)
            assert list(values[[1, 3]]) == [0.0, 0.0]
            assert [float(v) for v in values[[0, 2, 4]]] == [
                radial_wavefunction(state, float(x)) for x in r[[0, 2, 4]]]


class TestSqrtRatio:
    """sqrt(num / den) as (m, e), m in [1/2, 1) correctly rounded."""

    @staticmethod
    def ulps(num, den):
        """|m 2^e - sqrt(num / den)| in ulps of m, against 60-digit mpmath."""
        m, e = sqrt_ratio(num, den)
        assert 0.5 <= m < 1.0
        with mpmath.workdps(60):
            exact = mpmath.sqrt(mpmath.mpf(num) / den)
            return float(abs(mpmath.ldexp(exact, 53 - e) - math.ldexp(m, 53)))

    def test_perfect_square_exact(self):
        assert sqrt_ratio(1, 1) == (0.5, 1)
        assert sqrt_ratio(49, 4) == (0.875, 2)
        odd = 2 ** 53 - 1  # 53 bits, the most a double holds
        assert sqrt_ratio(odd ** 2 << 10000, 1) == (math.ldexp(odd, -53), 5053)
        assert sqrt_ratio(odd ** 2, 1 << 10000) == (math.ldexp(odd, -53), -4947)

    def test_ties_and_the_sticky_bit(self):
        """(2^53 + 1) / 2 is halfway between two doubles and rounds to even.
        r = 2^56 + 8 is halfway too: sqrt(r^2 + 1) and sqrt(r^2 + 1/3) are
        past it, by the remainder of the root and of the division alone."""
        assert sqrt_ratio((2 ** 53 + 1) ** 2, 4) == (0.5, 53)
        assert sqrt_ratio((2 ** 53 + 3) ** 2, 4) == (math.ldexp(2 ** 52 + 2, -53), 53)
        r = 2 ** 56 + 8
        assert sqrt_ratio(r * r, 1) == (0.5, 57)
        assert sqrt_ratio(r * r + 1, 1) == (0.5 + 2.0 ** -53, 57)
        assert sqrt_ratio(3 * r * r + 1, 3) == (0.5 + 2.0 ** -53, 57)

    def test_num_below_den(self):
        for num, den in [(1, 3), (2, 3), (1, 2), (1, 10 ** 40), (10 ** 40 - 1, 10 ** 40)]:
            assert self.ulps(num, den) <= 0.5, (num, den)

    @pytest.mark.parametrize("power", [5000, -5000, 10000, -10000])
    def test_far_past_the_double_range(self, power):
        """num / den about 2^power, far past the double range either way:
        m and e stay apart."""
        for k in range(1, 40):
            num, den = 3 ** k * 7 ** 100 + k, 5 ** k * 11 ** 90
            num, den = (num << power, den) if power > 0 else (num, den << -power)
            assert self.ulps(num, den) <= 0.5, k
        assert sqrt_ratio(*((1 << power, 1) if power > 0 else (1, 1 << -power))) == (
            0.5, power // 2 + 1)


class TestNormalization:
    def test_ground_state(self):
        # (2 beta)^{3/2} sqrt(0!/(2*1*1!)) = 2^{3/2}/sqrt(2) = 2 at beta=1
        assert normalization_constant(QuantumState(1, 0)) == pytest.approx(2.0)

    def test_2p(self):
        # (2)^{3/2} sqrt(1/(4*6)) = 2 sqrt(2) / (2 sqrt(6)) = 1/sqrt(3)... check:
        # 2^{3/2} sqrt(0!/(2*2*3!)) = 2.8284 * sqrt(1/24)
        expect = 2.0 ** 1.5 * math.sqrt(1.0 / 24.0)
        assert normalization_constant(QuantumState(2, 1)) == pytest.approx(expect)
        assert expect == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)

    def test_beta_scaling(self):
        a = normalization_constant(QuantumState(3, 1, PhysicalScale(beta=0.5)))
        b = normalization_constant(QuantumState(3, 1))
        assert a == pytest.approx(b * 0.5 ** 1.5)

    @staticmethod
    def mp_radial(N, l, r, digits=40):
        """R_{Nl}(r) at beta = 1 in `digits`-digit mpmath."""
        with mpmath.workdps(digits):
            rho = 2 * mpmath.mpf(r)
            norm = mpmath.mpf(2) ** 1.5 * mpmath.sqrt(
                mpmath.factorial(N - l - 1) / (2 * N * mpmath.factorial(N + l)))
            return norm * mpmath.exp(-rho / 2) * rho ** l * mpmath.laguerre(N - l - 1, 2 * l + 1, rho)

    @pytest.mark.parametrize("N,l", [(171, 0), (200, 3), (150, 149)])
    def test_large_N_plus_l(self, N, l):
        """(N+l)! past the double range: the factorial ratio stays exact."""
        state = QuantumState(N, l)
        with mpmath.workdps(40):
            exact = mpmath.mpf(2) ** 1.5 * mpmath.sqrt(
                mpmath.factorial(N - l - 1) / (2 * N * mpmath.factorial(N + l)))
        assert normalization_constant(state) == pytest.approx(float(exact), rel=1e-15)
        for r in (0.5, 1.0, 7.3, 50.0, 150.0):
            exact = float(self.mp_radial(N, l, r))
            assert radial_wavefunction(state, r) == pytest.approx(exact, rel=1e-13), r

    def test_correct_or_value_error(self):
        """N_{100,80} is about 1.6e-157, a normal double: either the value
        is right or the state is refused by name."""
        state = QuantumState(100, 80)
        try:
            values = [radial_wavefunction(state, r) for r in (1.0, 50.0)]
        except ValueError as exc:
            assert "(N=100, l=80)" in str(exc)
        else:
            for r, value in zip((1.0, 50.0), values):
                assert value == pytest.approx(float(self.mp_radial(100, 80, r)), rel=1e-13)

    # The peak of |R|: at r = l for l = N-1, where rho^l e^{-rho/2} is largest,
    # and found on a grid of step 0.05 for (300, 200).
    @pytest.mark.parametrize("N,l,peak", [(151, 150, 150.0), (200, 199, 199.0),
                                          (300, 200, 79.25)])
    def test_radial_past_normal_norm(self, N, l, peak):
        """R where N_{Nl} is below the normal doubles (5e-310 at (151, 150)):
        within 1e-13 of the peak of a 60-digit R, at 9 points around it."""
        r = peak * np.linspace(0.8, 1.2, 9)
        exact = np.array([float(self.mp_radial(N, l, x, digits=60)) for x in r])
        error = np.max(np.abs(radial_wavefunction(QuantumState(N, l), r) - exact))
        assert error <= 1e-13 * np.max(np.abs(exact)), error / np.max(np.abs(exact))

    def test_radial_stack_finite(self):
        """R is finite at every l < N <= 300 at beta = 1."""
        r = np.array([0.5, 1.0, 7.3, 50.0, 150.0, 400.0])
        for l in range(300):
            values = _radial_stack([QuantumState(N, l) for N in range(l + 1, 301)], 2.0 * r)
            assert np.isfinite(values).all(), l

    @pytest.mark.parametrize("N,l,beta", [(151, 150, 1.0), (300, 200, 1.0), (3, 1, 1e250),
                                          (3, 1, 1e-250)])
    def test_not_normal_raises(self, N, l, beta):
        with pytest.raises(ValueError, match=rf"\(N={N}, l={l}\)"):
            normalization_constant(QuantumState(N, l, PhysicalScale(beta=beta)))

    @pytest.mark.parametrize("N,l", [(1, 0), (2, 0), (2, 1), (3, 1), (5, 3)])
    def test_unit_norm_by_quadrature(self, N, l):
        state = QuantumState(N, l)
        val, _ = quad(lambda r: radial_wavefunction(state, r) ** 2 * r * r,
                      0.0, 150.0, limit=300)
        assert val == pytest.approx(1.0, abs=1e-10)


class TestSlaterExpansion:
    """The Slater-term oracle of tests/oracles.py."""

    def test_ground_state_single_term(self):
        # R_10 = N_10 e^{-rho/2}, N_10 = 2
        exp10 = slater_expansion(QuantumState(1, 0))
        assert exp10.terms == ((0, normalization_constant(QuantumState(1, 0)) + 0j),)

    def test_2s_coefficients(self):
        # R_20 / N_20 = (2 - rho) e^{-rho/2}: powers {0: 2, 1: -1}
        norm = normalization_constant(QuantumState(2, 0))
        exp20 = slater_expansion(QuantumState(2, 0))
        assert dict(exp20.terms) == {0: 2 * norm + 0j, 1: -norm + 0j}

    def test_2p_single_term(self):
        exp21 = slater_expansion(QuantumState(2, 1))
        assert exp21.terms == ((1, normalization_constant(QuantumState(2, 1)) + 0j),)

    def test_sign_alternation(self):
        for N, l in [(4, 0), (5, 1), (6, 2)]:
            coeffs = [c.real for _, c in slater_expansion(QuantumState(N, l)).terms]
            for t, c in enumerate(coeffs):
                assert c * (-1) ** t > 0

    @pytest.mark.parametrize("N", range(1, 9))
    def test_matches_wavefunction(self, N):
        for l in range(N):
            state = QuantumState(N, l)
            expansion = slater_expansion(state)
            for r in (0.05, 0.7, 2.0, 6.0, 15.0):
                ref = radial_wavefunction(state, r)
                got = expansion(r)
                assert got.imag == 0.0
                assert got.real == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestOrthonormality:
    def test_fixed_beta_same_l(self):
        """At fixed beta, equal-l states are orthogonal under the weight r dr.

        This is associated-Laguerre orthogonality (weight rho^{2l+1} e^{-rho});
        the familiar r^2 dr orthogonality holds only with N-dependent beta.
        """
        for l in range(3):
            for N in range(l + 1, 6):
                diag_n = quad(
                    lambda r: radial_wavefunction(QuantumState(N, l), r) ** 2 * r,
                    0.0, 200.0, limit=400)[0]
                for M in range(N + 1, 6):
                    sn = QuantumState(N, l)
                    sm = QuantumState(M, l)
                    off = quad(
                        lambda r: radial_wavefunction(sn, r)
                        * radial_wavefunction(sm, r) * r,
                        0.0, 200.0, limit=400)[0]
                    assert abs(off) <= 1e-9 * diag_n

    @pytest.mark.parametrize("hbar_beta", [1e-6, 1.0, 1e4])
    @pytest.mark.parametrize("l", [0, 10])
    def test_sturmian_gram(self, l, hbar_beta):
        """int R_{Nl} R_{N'l} r^2 dr, N, N' <= 100, by Gauss-Laguerre (exact
        for e^{-rho} times a polynomial of degree 2 N_max with N_max + 4
        nodes), against the closed-form Gram of `_gram_blocks`."""
        scale = PhysicalScale(1.0, hbar_beta)
        states = [QuantumState(N, l, scale) for N in range(l + 1, 101)]
        rho, weights = gauss_laguerre_rule(104)
        r = rho / (2.0 * scale.beta)
        radial = _radial_stack(states, rho) * r
        position = (radial * weights) @ radial.T / (2.0 * scale.beta)
        closed = _gram_blocks([QuantumState(N, l) for N in range(l + 1, 101)])[l][1]
        assert np.max(np.abs(position - closed)) <= 1e-12


def gauss_laguerre_rule(count):
    """numpy's Gauss-Laguerre nodes x, and the weights times e^x recomputed
    from them as x / ((count + 1) L_{count+1}(x) e^{-x/2})^2 by the
    recurrence on L_k(x) e^{-x/2}.  numpy's own weights lose digits as the
    count grows: 1e-12 relative on <r^2> at N = 150, against 1e-14 here."""
    x = laggauss(count)[0]
    prev = np.exp(-x / 2.0)
    cur = (1.0 - x) * prev
    for k in range(1, count + 1):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return x, x / ((count + 1) * cur) ** 2


def _fd_derivative(func, r, h=1e-4):
    """Five-point central difference."""
    return (-func(r + 2 * h) + 8 * func(r + h)
            - 8 * func(r - h) + func(r - 2 * h)) / (12 * h)


class TestRadialMomentum:
    def test_ground_state_image(self):
        # p_r e^{-rho/2} = -i hbar 2 beta [rho^{-1} - 1/2] e^{-rho/2}, times N_10 = 2
        out = apply_radial_momentum(slater_expansion(QuantumState(1, 0)))
        assert dict(out.terms) == pytest.approx({-1: -4j, 0: 2j}, rel=1e-15)

    def test_finite_difference_oracle(self):
        for N, l in [(1, 0), (2, 0), (3, 2), (4, 1)]:
            state = QuantumState(N, l)
            expansion = slater_expansion(state)
            image = apply_radial_momentum(expansion)
            for r in (0.3, 1.0, 2.7, 6.0):
                deriv = _fd_derivative(lambda s: expansion(s).real, r)
                expect = -1j * (deriv + expansion(r) / r)
                assert image(r) == pytest.approx(expect, abs=1e-8)

    def test_linearity(self):
        def scaled(expansion, factor):
            return SlaterExpansion(tuple((m, factor * c) for m, c in expansion.terms),
                                   expansion.scale)

        base = slater_expansion(QuantumState(3, 0))
        scaled_then_applied = apply_radial_momentum(scaled(base, 2.5j))
        applied_then_scaled = scaled(apply_radial_momentum(base), 2.5j)
        assert dict(scaled_then_applied.terms) == pytest.approx(
            dict(applied_then_scaled.terms))

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_schroedinger_residual(self, N):
        """p_r^2/2 + l(l+1)/(2 r^2) - N beta / r reproduces E = -beta^2/2.

        Scaled units: hbar = beta = mu = 1 and coupling Z e^2 = N beta,
        the value that makes R_{Nl} at fixed beta an eigenfunction.
        """
        for l in range(N):
            state = QuantumState(N, l)
            expansion = slater_expansion(state)
            p2_image = apply_radial_momentum(apply_radial_momentum(expansion))
            grid = np.linspace(0.1, 20.0, 80)
            scale_ref = max(abs(expansion(r)) for r in grid)
            for r in grid:
                R = expansion(r)
                ham = (p2_image(r) / 2.0
                       + l * (l + 1) / (2.0 * r * r) * R
                       - N / r * R)
                assert abs(ham - (-0.5) * R) <= 1e-9 * scale_ref


class TestMoments:
    def test_r2_ground_state(self):
        assert expectation_r2(QuantumState(1, 0)) == pytest.approx(3.0, rel=1e-13)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 12, 30, 90, 150])
    def test_r2_closed_formula(self, N):
        """The closed form against int R^2 r^4 dr by Gauss-Laguerre, exact for
        the polynomial of degree 2N + 2 times e^{-rho} with N + 4 nodes."""
        rho, weights = gauss_laguerre_rule(N + 4)
        for beta in (0.5, 1.0):
            r = rho / (2.0 * beta)
            for l in range(N):
                state = QuantumState(N, l, PhysicalScale(beta=beta))
                integral = weights @ (radial_wavefunction(state, r) ** 2 * r ** 4) / (2.0 * beta)
                assert expectation_r2(state) == pytest.approx(integral, rel=1e-12, abs=0.0)

    def test_r2_beta_scaling(self):
        a = expectation_r2(QuantumState(2, 1, PhysicalScale(beta=2.0)))
        b = expectation_r2(QuantumState(2, 1))
        assert a == pytest.approx(b / 4.0, rel=1e-12)

    def test_p2_ground_state(self):
        assert expectation_p2(QuantumState(1, 0)) == 1.0
        assert _p2_stack([QuantumState(1, 0)])[0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("N", range(1, 6))
    def test_p2_virial_identity(self, N):
        # At fixed beta every R_{Nl} has energy -beta^2/2, so the virial
        # theorem gives <p^2> = -2 E = (hbar beta)^2 independent of (N, l):
        # the closed form, and the integral of G (`_p2_stack`) meets it.
        states = [QuantumState(N, l) for l in range(N)]
        assert [expectation_p2(s) for s in states] == [1.0] * N
        assert np.max(np.abs(_p2_stack(states) - 1.0)) <= 1e-9

    @pytest.mark.parametrize("hbar,beta", [(1.0, 1e-3), (1.0, 7.0), (1e-3, 0.3)])
    def test_p2_is_the_closed_form(self, hbar, beta):
        """<p^2> is (hbar beta)^2, correctly rounded, for every state."""
        scale = PhysicalScale(hbar, beta)
        for N, l in [(1, 0), (3, 1), (8, 7), (40, 0), (120, 3)]:
            assert expectation_p2(QuantumState(N, l, scale)) == scale.momentum * scale.momentum

    def test_p2_scale_covariance(self):
        a = expectation_p2(QuantumState(2, 0, PhysicalScale(beta=0.5)))
        b = expectation_p2(QuantumState(2, 0))
        assert a == pytest.approx(b * 0.25, rel=1e-9)

    def test_uncertainty_product_ground_state(self):
        product = expectation_r2(QuantumState(1, 0)) * expectation_p2(QuantumState(1, 0))
        assert product == pytest.approx(3.0, abs=1e-9)
        assert product >= 2.25

    def test_p2_past_the_largest_double_names_the_state(self):
        """At hbar beta = 1e200, <p^2> = 1e400 is past the largest double: the
        error names the state and the scale."""
        with pytest.raises(OverflowError, match=r"\(N=2, l=1\) at hbar beta = 1e\+200 "):
            expectation_p2(QuantumState(2, 1, PhysicalScale(1.0, 1e200)))

    def test_p2_below_the_smallest_double_is_zero(self):
        """At hbar beta = 1e-200, <p^2> = 1e-400 rounds to 0.0, the nearest double."""
        assert expectation_p2(QuantumState(2, 1, PhysicalScale(1.0, 1e-200))) == 0.0
