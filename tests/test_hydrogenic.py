"""Position-space machinery: normalization, Slater terms, p_r, moments."""

import copy
import math
import pickle
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss
from scipy.integrate import quad

from hmomentum.forms import podolsky_pauling_G, psi_trig
from hmomentum.hydrogenic import (
    PhysicalScale,
    QuantumState,
    _normalization,
    _radial_stack,
    expectation_p2,
    expectation_r2,
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

    @pytest.mark.parametrize("scale", [2.5, None, (1.0, 1.0)])
    def test_scale_must_be_a_physical_scale(self, scale):
        """A scale that is not a PhysicalScale is refused where the state is
        made, not deep in the forms."""
        with pytest.raises(TypeError, match=f"got {type(scale).__name__}$"):
            QuantumState(2, 1, scale)


class TestValueTypes:
    """The public contract of PhysicalScale and QuantumState: that of a frozen
    dataclass's repr, equality, hash, immutability, copies and matching."""

    STATE = QuantumState(2, 1, PhysicalScale(hbar=2, beta=np.float32(0.5)))

    def test_repr(self):
        assert repr(QuantumState(2, 1)) == (
            "QuantumState(N=2, l=1, scale=PhysicalScale(hbar=1.0, beta=1.0))")
        assert repr(self.STATE.scale) == "PhysicalScale(hbar=2.0, beta=0.5)"

    def test_equality_and_hash_are_the_field_tuple(self):
        scale = PhysicalScale(2.0, 0.5)
        assert self.STATE == QuantumState(N=2, l=1, scale=scale)
        assert self.STATE != QuantumState(2, 0, scale) and self.STATE != QuantumState(2, 1)
        assert hash(self.STATE) == hash((2, 1, scale)) and hash(scale) == hash((2.0, 0.5))
        assert self.STATE != (2, 1, scale) and scale != (2.0, 0.5)
        assert self.STATE.__eq__((2, 1, scale)) is NotImplemented
        assert len({QuantumState(1, 0), QuantumState(1, 0, PhysicalScale())}) == 1

    @pytest.mark.parametrize("value", [STATE, STATE.scale], ids=["state", "scale"])
    def test_frozen(self, value):
        name = value.__match_args__[0]
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 3)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
        with pytest.raises(AttributeError, match="^cannot assign to field 'other'$"):
            value.other = 3

    @pytest.mark.parametrize("value", [STATE, STATE.scale], ids=["state", "scale"])
    def test_pickle_and_copy_round_trips(self, value):
        copies = [pickle.loads(pickle.dumps(value, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies + [copy.copy(value), copy.deepcopy(value)]:
            assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)

    def test_keywords_and_match_args(self):
        assert QuantumState.__match_args__ == ("N", "l", "scale")
        assert PhysicalScale.__match_args__ == ("hbar", "beta")
        match QuantumState(l=1, N=3, scale=PhysicalScale(beta=2.0)):
            case QuantumState(N, l, PhysicalScale(hbar, beta)):
                assert (N, l, hbar, beta) == (3, 1, 1.0, 2.0)
            case _:
                raise AssertionError("no match")

    @pytest.mark.parametrize("make,error,message", [
        (lambda: QuantumState(0, 0), ValueError,
         "principal quantum number must be >= 1, got 0"),
        (lambda: QuantumState(2, 2), ValueError,
         "orbital quantum number must satisfy 0 <= l <= N-1, got l=2, N=2"),
        (lambda: QuantumState(2.0, 1), TypeError,
         "'float' object cannot be interpreted as an integer"),
        (lambda: PhysicalScale(0, 1), ValueError,
         "hbar and beta must be positive and finite as floats, got hbar=0, beta=1"),
        (lambda: PhysicalScale(beta=math.inf), ValueError,
         "hbar and beta must be positive and finite as floats, got hbar=1.0, beta=inf"),
        (lambda: PhysicalScale(None), TypeError,
         "float() argument must be a string or a real number, not 'NoneType'"),
    ])
    def test_messages(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message


class TestNumpyScalars:
    """A numpy scalar N, l, hbar or beta is taken as the equal Python value, so
    numpy's promotion rules do not reach the forms."""

    PYTHON = (3, 1, 2.5, 0.1)
    NUMPY = (np.int64(3), np.int32(1), np.float32(2.5), np.float32(0.1))

    @staticmethod
    def state(N, l, hbar, beta):
        return QuantumState(N, l, PhysicalScale(hbar, beta))

    @pytest.mark.parametrize("which", range(4))
    def test_same_values_bit_for_bit(self, which):
        """psi, G and R, on the float path and the array path, and <r^2>, equal
        those of the Python values (float(np.float32(0.1)) for beta), with no
        warning."""
        python = list(self.PYTHON)
        numpy_ = list(python)
        numpy_[which] = self.NUMPY[which]
        python[which] = float(self.NUMPY[which]) if which >= 2 else python[which]
        reference, state = self.state(*python), self.state(*numpy_)
        grid = np.array([0.0, 0.3, 1.7, 25.0])
        for function in (psi_trig, podolsky_pauling_G, radial_wavefunction):
            for x in (0.3, 1.7, grid):
                got, expected = function(state, x), function(reference, x)
                assert np.array_equal(got, expected), (function.__name__, x)
        assert expectation_r2(state) == expectation_r2(reference)
        assert (type(state.N), type(state.l), type(state.scale.hbar),
                type(state.scale.beta)) == (int, int, float, float)

    @pytest.mark.parametrize("N,l", [(3.0, 1), (3, 1.0)])
    def test_float_quantum_numbers_rejected(self, N, l):
        with pytest.raises(TypeError):
            QuantumState(N, l)

    @pytest.mark.parametrize("value", [
        Fraction(1, 10**400), Decimal("1e400"), np.longdouble("1e400"),
        np.longdouble("1e-400")])
    def test_scale_zero_or_inf_as_float_rejected(self, value):
        """A real finite and positive in its own type whose float is 0 or inf
        raises the ValueError, for hbar and for beta."""
        with pytest.raises(ValueError, match="positive and finite"):
            PhysicalScale(hbar=value)
        with pytest.raises(ValueError, match="positive and finite"):
            PhysicalScale(beta=value)


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


def normalization(state):
    """N_{Nl} of the package, `_normalization`'s (m, e) as one float."""
    return math.ldexp(*_normalization(state))


class TestNormalization:
    def test_ground_state(self):
        # (2 beta)^{3/2} sqrt(0!/(2*1*1!)) = 2^{3/2}/sqrt(2) = 2 at beta=1
        assert normalization(QuantumState(1, 0)) == pytest.approx(2.0)

    def test_2p(self):
        # (2)^{3/2} sqrt(1/(4*6)) = 2 sqrt(2) / (2 sqrt(6)) = 1/sqrt(3)... check:
        # 2^{3/2} sqrt(0!/(2*2*3!)) = 2.8284 * sqrt(1/24)
        expect = 2.0 ** 1.5 * math.sqrt(1.0 / 24.0)
        assert normalization(QuantumState(2, 1)) == pytest.approx(expect)
        assert expect == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)

    def test_beta_scaling(self):
        a = normalization(QuantumState(3, 1, PhysicalScale(beta=0.5)))
        b = normalization(QuantumState(3, 1))
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
        assert normalization(state) == pytest.approx(float(exact), rel=1e-15)
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
        assert exp10.terms == ((0, normalization(QuantumState(1, 0)) + 0j),)

    def test_2s_coefficients(self):
        # R_20 / N_20 = (2 - rho) e^{-rho/2}: powers {0: 2, 1: -1}
        norm = normalization(QuantumState(2, 0))
        exp20 = slater_expansion(QuantumState(2, 0))
        assert dict(exp20.terms) == {0: 2 * norm + 0j, 1: -norm + 0j}

    def test_2p_single_term(self):
        exp21 = slater_expansion(QuantumState(2, 1))
        assert exp21.terms == ((1, normalization(QuantumState(2, 1)) + 0j),)

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

    @pytest.mark.parametrize("beta", [1e-160, 1e-200, 5e-324])
    def test_r2_past_the_largest_double_names_the_state(self, beta):
        """<r^2> is past the largest double below beta = 1.3e-154 at N = 1, and beta^2
        is 0.0 from 1.57e-162 down: either way the error names the state and beta."""
        with pytest.raises(OverflowError, match=rf"\(N=2, l=1\) at beta = {beta:g} "):
            expectation_r2(QuantumState(2, 1, PhysicalScale(1.0, beta)))

    @pytest.mark.parametrize("N,l,beta", [(2, 1, 1e200), (2, 1, 1.7e308), (1, 0, 1.35e154),
                                          (10 ** 9, 3, 1e160), (10 ** 9, 3, 1e300)])
    def test_r2_past_beta_squared_is_correctly_rounded(self, N, l, beta):
        """From beta = 2^512 on, where beta^2 is past the largest double, <r^2> is the
        exact quotient correctly rounded: 0.0 where it underflows (1e-400 at 1e200)."""
        exact = Fraction(5 * N * N + 1 - 3 * l * (l + 1)) / (2 * Fraction(beta) ** 2)
        assert expectation_r2(QuantumState(N, l, PhysicalScale(1.0, beta))) == float(exact)

    @pytest.mark.parametrize("N,l,beta", [(1, 0, 1.2e154), (3, 0, 1.08e154),
                                          (10 ** 6, 829, 1.17e154)])
    def test_r2_where_two_beta_squared_overflows(self, N, l, beta):
        """Between beta = 9.5e153 and 2^512, 2 beta^2 is past the largest double but
        beta^2 is not: <r^2> is still the exact quotient correctly rounded."""
        exact = Fraction(5 * N * N + 1 - 3 * l * (l + 1)) / (2 * Fraction(beta) ** 2)
        assert expectation_r2(QuantumState(N, l, PhysicalScale(1.0, beta))) == float(exact)

    def test_r2_is_correctly_rounded(self):
        """<r^2> is the exact quotient correctly rounded at 2000 log-uniform beta; with
        beta ** 2 rounded first, a quarter of them read one ulp off."""
        rng = np.random.default_rng(3)
        for beta in 10.0 ** rng.uniform(-150.0, 153.9, 2000):
            beta, N = float(beta), int(rng.integers(1, 1000))
            l = int(rng.integers(0, N))
            exact = Fraction(5 * N * N + 1 - 3 * l * (l + 1)) / (2 * Fraction(beta) ** 2)
            assert expectation_r2(QuantumState(N, l, PhysicalScale(1.0, beta))) == float(exact)

    def test_p2_past_the_largest_double_names_the_state(self):
        """At hbar beta = 1e200, <p^2> = 1e400 is past the largest double: the
        error names the state and the scale."""
        with pytest.raises(OverflowError, match=r"\(N=2, l=1\) at hbar beta = 1e\+200 "):
            expectation_p2(QuantumState(2, 1, PhysicalScale(1.0, 1e200)))

    def test_p2_below_the_smallest_double_is_zero(self):
        """At hbar beta = 1e-200, <p^2> = 1e-400 rounds to 0.0, the nearest double."""
        assert expectation_p2(QuantumState(2, 1, PhysicalScale(1.0, 1e-200))) == 0.0

    def test_p2_rounds_to_zero_below_two_to_the_minus_537_5(self):
        """(hbar beta)^2 is below half the least subnormal, and rounds to 0.0,
        where hbar beta < 2^-537.5 = 1.5717e-162; from the double next above
        that root on, 1.6e-162 and 2.1e-162 included, it is 5e-324."""
        root = 2.0 ** -537.5
        assert Fraction(root) > Fraction(2) ** -1075 / Fraction(root)
        for momentum, p2 in [(math.nextafter(root, 0.0), 0.0), (1e-162, 0.0),
                             (root, 5e-324), (1.6e-162, 5e-324), (2.1e-162, 5e-324)]:
            state = QuantumState(2, 1, PhysicalScale(1.0, momentum))
            assert expectation_p2(state) == p2, momentum
