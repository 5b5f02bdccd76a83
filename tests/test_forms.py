"""Momentum-space families: expansions, LO, PP, distributions, cross-checks."""

import cmath
import itertools
import math
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_gegenbauer

from hmomentum.forms import (
    FORM_EVALUATORS,
    _b0,
    _c0,
    _kernel_stack,
    _pp_prefactor,
    distribution_max_l,
    podolsky_pauling_G,
    psi_trig,
)
from hmomentum.hydrogenic import (
    PhysicalScale,
    QuantumState,
    _normalization,
)
from hmomentum.specfun import gegenbauer_C
from hmomentum.verification import (
    PYTHAGOREAN_PAIRS,
    _gegenbauer_terms,
    exact_gegenbauer,
    exact_lombardi_ogilvie,
    gegenbauer_coefficients,
    lombardi_ogilvie_coefficients,
    pythagorean_momenta,
)
from oracles import (
    ferrers_P_mhalf,
    ferrers_Q_mhalf,
    gegenbauer_D1,
    normalization,
    slater_expansion,
    transform_slater_expansion,
)

# The momenta of the exact literal sums at hbar beta = 1, as q = p / hbar beta.
Q = pythagorean_momenta()


def coeff_a(state, t):
    """Gegenbauer-expansion coefficient a_t, from the integers of the exact sum."""
    integers, _ = gegenbauer_coefficients(state.N, state.l)
    return integers[t] * normalization(state) / (2.0 * state.scale.beta) ** 2


class TestCoefficients:
    def test_ground_state(self):
        # N_{10} 2^2 binom(1,0) Gamma(2) / 4 = 2
        assert gegenbauer_coefficients(1, 0) == ((4,), 1)
        assert coeff_a(QuantumState(1, 0), 0) == pytest.approx(2.0)

    def test_2p(self):
        expect = 4.0 * normalization(QuantumState(2, 1))
        assert coeff_a(QuantumState(2, 1), 0) == pytest.approx(expect)

    def test_b_equals_a(self):
        """The kernel is the literal trigonometric sum with b_t = a_t."""
        for N in range(1, 7):
            for l in range(N):
                state = QuantumState(N, l)
                for p in (0.0, 0.4, -1.3, 6.0):
                    theta = math.atan(p)
                    literal = sum(
                        coeff_a(state, t) * cmath.exp(1j * (l + t + 2) * theta)
                        * math.cos(theta) ** (l + t + 2) for t in range(N - l))
                    assert psi_trig(state, p) == pytest.approx(
                        literal, rel=1e-13, abs=1e-14)

    def test_sign_alternation(self):
        state = QuantumState(5, 1)
        for t in range(4):
            assert coeff_a(state, t) * (-1) ** t > 0

    def test_out_of_range(self):
        """The sum runs over t = 0..N-l-1 only."""
        assert len(gegenbauer_coefficients(2, 1)[0]) == 1
        assert len(gegenbauer_coefficients(3, 0)[0]) == 3


PREFACTOR_MAX_N = 400


def ulps(value: tuple[float, int], exact) -> float:
    """|m 2^e - exact| in ulps of m 2^e, m in [1/2, 1), for (m, e) = value
    and an mpf exact."""
    m, e = value
    return float(abs(mpmath.ldexp(exact, 53 - e) - math.ldexp(m, 53)))


class TestPrefactors:
    """b_0 sqrt(2 beta), c_0, the Podolsky-Pauling prefactor and
    N_{Nl} / (2 beta)^{3/2}, each the square root of a ratio of factorials,
    against mpmath: correctly rounded, within 0.5 ulp, at every
    l < N <= 400.  (The uncached functions, at beta = 1/2, where 2 beta = 1,
    so that every pair is computed.)"""

    HALF = PhysicalScale(beta=0.5)

    @pytest.fixture(scope="class")
    def exact(self):
        """The factorials f and, per (N, l), s = sqrt((N+l)! / ((N-l-1)! N)), in
        30-digit mpmath, that every prefactor of the sweep is built from."""
        with mpmath.workdps(30):
            f = [mpmath.mpf(1), *itertools.accumulate(
                map(mpmath.mpf, range(1, 2 * PREFACTOR_MAX_N + 1)), lambda a, b: a * b)]
            s = {(N, l): mpmath.sqrt(f[N + l] / (f[N - l - 1] * N))
                 for N in range(1, PREFACTOR_MAX_N + 1) for l in range(N)}
        return f, s

    @staticmethod
    def worst(exact, code, value) -> float:
        """The largest ulps(code(N, l), value(N, l, s, f)) over l < N <= 400."""
        f, s = exact
        with mpmath.workdps(30):
            return max(ulps(code(N, l), value(N, l, s_Nl, f)) for (N, l), s_Nl in s.items())

    def test_b0(self, exact):
        """b_0^2 2 beta = (N+l)! 4^{l+2} (l+1)!^2 / ((N-l-1)! 2N (2l+1)!^2)."""
        worst = self.worst(exact, lambda N, l: _b0.__wrapped__(N, l, 0.5),
                           lambda N, l, s, f: mpmath.sqrt(mpmath.ldexp(1, 2 * l + 3))
                           * s * f[l + 1] / f[2 * l + 1])
        assert worst <= 0.5, worst

    def test_pp_prefactor(self, exact):
        """2^{5/2} 2^l l! sqrt((N-l-1)! N / (pi (N+l)!)) (hbar beta)^{-3/2}, at
        hbar beta = 1/4, where (hbar beta)^{-3/2} = 8."""
        worst = self.worst(exact, lambda N, l: _pp_prefactor.__wrapped__(N, l, 0.25),
                           lambda N, l, s, f: mpmath.sqrt(mpmath.ldexp(2, 2 * l + 10) / mpmath.pi)
                           * f[l] / s)
        assert worst <= 0.5, worst

    def test_normalization(self, exact):
        """N_{Nl} / (2 beta)^{3/2} = sqrt((N-l-1)! / (2N (N+l)!)), at every l,
        l = N-1 past N = 150 included, where N_{Nl} is not a normal double
        at beta = 1."""
        worst = self.worst(exact, lambda N, l: _normalization(QuantumState(N, l, self.HALF)),
                           lambda N, l, s, f: 1 / (mpmath.sqrt(2) * N * s))
        assert worst <= 0.5, worst

    def test_c0(self):
        """c_0 = (l+1)! / (2l+1)!, exactly 1 at l = 0."""
        with mpmath.workdps(30):
            worst = max(ulps(_c0.__wrapped__(l), mpmath.factorial(l + 1) / mpmath.factorial(2 * l + 1))
                        for l in range(PREFACTOR_MAX_N))
        assert worst <= 0.5, worst
        assert math.ldexp(*_c0.__wrapped__(0)) == 1.0

    @pytest.mark.parametrize("beta", [1.0, 3.7, 1e-300, 1e300, 5e-324, sys.float_info.max])
    def test_beta_exact(self, beta):
        """b_0 and N_{Nl} take the float beta as the exact rational it is: still
        within 0.5 ulp where (2 beta)^{1/2} or (2 beta)^{3/2} is past the
        double range."""
        worst = 0.0
        with mpmath.workdps(30):
            two_beta = 2 * mpmath.mpf(beta)
            for N in range(1, 31):
                for l in range(N):
                    state = QuantumState(N, l, PhysicalScale(beta=beta))
                    ratio = mpmath.factorial(N + l) / (mpmath.factorial(N - l - 1) * 2 * N)
                    b0 = mpmath.sqrt(ratio * 4 ** (l + 2) / two_beta) * (
                        mpmath.factorial(l + 1) / mpmath.factorial(2 * l + 1))
                    norm = mpmath.sqrt(two_beta ** 3 / ratio) / (2 * N)
                    worst = max(worst, ulps(_b0.__wrapped__(N, l, beta), b0),
                                ulps(_normalization(state), norm))
        assert worst <= 0.5, worst


class TestPsiTrig:
    def test_ground_state_values(self):
        state = QuantumState(1, 0)
        assert psi_trig(state, 0.0) == pytest.approx(2.0 + 0.0j)
        # theta = pi/4: 2 e^{i pi/2} cos^2 = i at p = hbar beta
        assert psi_trig(state, 1.0) == pytest.approx(1.0j, abs=1e-15)

    def test_ground_state_closed_density(self):
        state = QuantumState(1, 0)
        for p in (0.0, 0.3, 1.0, 4.0):
            expect = 4.0 / (1.0 + p * p) ** 2
            assert abs(psi_trig(state, p)) ** 2 == pytest.approx(expect, rel=1e-13)

    def test_conjugate_symmetry(self):
        state = QuantumState(4, 2)
        for p in (0.2, 1.0, 7.0):
            assert psi_trig(state, -p) == pytest.approx(
                psi_trig(state, p).conjugate(), rel=1e-14)

    def test_decay_at_large_p(self):
        state = QuantumState(3, 0)
        tail = [abs(psi_trig(state, p)) for p in (30.0, 100.0, 300.0)]
        assert tail[0] > tail[1] > tail[2]
        assert tail[2] < 1e-4

    def test_equals_strict_transform(self):
        """psi_trig is the outgoing transform of R_{Nl}, verbatim."""
        for N, l in [(1, 0), (2, 0), (3, 1), (5, 2)]:
            expansion = slater_expansion(QuantumState(N, l))
            for p in (0.0, 0.6, 2.5, -1.2):
                closed = transform_slater_expansion(expansion, p, 1)
                assert psi_trig(QuantumState(N, l), p) == pytest.approx(
                    closed, rel=1e-12, abs=1e-13)


class TestPsiGegenbauer:
    """psi_trig against the paper's literal Gegenbauer sum, summed exactly
    at the Pythagorean momenta (`verification.exact_gegenbauer`)."""

    @pytest.mark.parametrize("N", range(1, 9))
    def test_matches_trig(self, N):
        for hbar_beta in (1e-3, 1.0, 1e3):
            scale = PhysicalScale(1.0, hbar_beta)
            states = [QuantumState(N, l, scale) for l in range(N)]
            p = pythagorean_momenta() * hbar_beta
            for state, exact in zip(states, exact_gegenbauer(states)):
                peak = np.max(np.abs(exact))
                assert np.max(np.abs(psi_trig(state, p) - exact)) <= 1e-13 * peak

    def test_p_zero_is_analytic_limit(self):
        """At p = 0 (the pair (1, 0)) the sum is sum_t a_t, and psi_trig
        near 0 tends to it."""
        state = QuantumState(3, 1)
        assert PYTHAGOREAN_PAIRS[0] == (1, 0) and Q[0] == 0.0
        at_zero = exact_gegenbauer([state])[0, 0]
        assert at_zero == pytest.approx(sum(coeff_a(state, t) for t in range(2)), rel=1e-15)
        assert psi_trig(state, 1e-8) == pytest.approx(at_zero, abs=1e-6)

    def test_term_phase_identity(self):
        """sin(gamma) [D^1 + i C^1](cos gamma) = e^{i (n+1) gamma}.

        The per-term content of the expansion: the real part comes from
        the D-function, the imaginary part from the C-polynomial.  The
        exact sums take X^{n+1} h^{n+1} times it, in integers, at
        cos(gamma) = X/h.
        """
        for n in range(6):
            for gamma in (0.2, 0.8, 1.4):
                x = math.cos(gamma)
                combo = math.sin(gamma) * complex(
                    gegenbauer_D1(n, x), gegenbauer_C([n], [1.0], x)[0])
                assert combo == pytest.approx(
                    cmath.exp(1j * (n + 1) * gamma), abs=1e-13)
        for m, k in PYTHAGOREAN_PAIRS[1:]:
            X, S, h = m * m - k * k, 2 * m * k, m * m + k * k
            gamma = math.atan2(S, X)
            for n, (re, im) in enumerate(_gegenbauer_terms(X, S, 12)):
                combo = complex(Fraction(re, (X * h) ** (n + 1)), Fraction(im, (X * h) ** (n + 1)))
                assert combo.real == pytest.approx(math.cos((n + 1) * gamma), abs=1e-13)
                assert combo.imag == pytest.approx(
                    math.sin(gamma) * gegenbauer_C([n], [1.0], X / h)[0], abs=1e-13)

    def test_script_D_identical(self):
        """The CLI's Gegenbauer and script-D routes against the literal sum.

        Script-D is (D^1 + i C^1)/2 under the package's phase convention.
        """
        states = [QuantumState(N, l) for N, l in [(1, 0), (2, 0), (4, 3), (6, 1)]]
        for state, exact in zip(states, exact_gegenbauer(states)):
            for form in ("gegenbauer", "script_D"):
                np.testing.assert_allclose(FORM_EVALUATORS[form](state, Q), exact,
                                           rtol=1e-12, atol=1e-13)


class TestLombardiOgilvie:
    """psi_trig against the literal Lombardi-Ogilvie sum, summed exactly at
    the Pythagorean momenta (`verification.exact_lombardi_ogilvie`)."""

    def test_c_ground_state(self):
        assert lombardi_ogilvie_coefficients(1, 0) == ((1,), 1)

    def test_c_out_of_range(self):
        """The sum runs over k = 0..N-l-1 only."""
        assert len(lombardi_ogilvie_coefficients(2, 1)[0]) == 1
        assert len(lombardi_ogilvie_coefficients(4, 1)[0]) == 3

    def test_c_2s(self):
        # (N+l)! c_k = 2! (1, 2): c_1 = 2^1 1! 2! / (1! 0! 2!) = 2
        assert lombardi_ogilvie_coefficients(2, 0) == ((2, 4), 2)

    def test_ground_state_value(self):
        """alpha_{10} = z^2, z = i / (q - i); at p = 0, z = -1."""
        alpha = exact_lombardi_ogilvie([QuantumState(1, 0)])[0]
        np.testing.assert_allclose(alpha, (1j / (Q - 1j)) ** 2, rtol=1e-15)
        assert alpha[0] == 1.0

    def test_ground_state_density(self):
        alpha = exact_lombardi_ogilvie([QuantumState(1, 0)])[0]
        np.testing.assert_allclose(np.abs(alpha) ** 2, 1.0 / (1.0 + Q * Q) ** 2, rtol=1e-13)

    @pytest.mark.parametrize("N,l", [(1, 0), (2, 0), (3, 1), (4, 3), (6, 2)])
    def test_proportional_to_trig_conjugate(self, N, l):
        """psi_trig(p) / conj(alpha(p)) is a p-independent constant."""
        state = QuantumState(N, l)
        ratios = psi_trig(state, Q) / exact_lombardi_ogilvie([state])[0].conjugate()
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-11)

    def test_unconjugated_ratio_not_constant(self):
        state = QuantumState(2, 0)
        ratios = psi_trig(state, Q) / exact_lombardi_ogilvie([state])[0]
        assert np.max(np.abs(ratios - ratios[0])) > 1e-3


class TestPodolskyPauling:
    def test_ground_state_at_zero(self):
        # 2^{5/2} / sqrt(pi)
        expect = 2.0 ** 2.5 / math.sqrt(math.pi)
        assert podolsky_pauling_G(QuantumState(1, 0), 0.0) == pytest.approx(expect)
        assert expect == pytest.approx(3.19153824, abs=2e-8)

    def test_negative_p_rejected(self):
        with pytest.raises(ValueError):
            podolsky_pauling_G(QuantumState(1, 0), -0.5)

    def test_node_of_2p_at_origin(self):
        assert podolsky_pauling_G(QuantumState(2, 1), 0.0) == 0.0

    @pytest.mark.parametrize("N", range(1, 6))
    def test_unit_momentum_norm(self, N):
        for l in range(N):
            state = QuantumState(N, l)
            val, _ = quad(lambda p: podolsky_pauling_G(state, p) ** 2 * p * p,
                          0.0, math.inf, limit=400)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_zero_at_infinity(self):
        """G tends to 0; inf * 0 and q * q past 1e154 must not show."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for N, l in [(1, 0), (3, 1), (6, 4)]:
                state = QuantumState(N, l)
                assert podolsky_pauling_G(state, math.inf) == 0.0
                values = podolsky_pauling_G(state, np.array([0.3, 2e154, 1e300, math.inf]))
                assert values[0] != 0.0 and list(values[1:]) == [0.0, 0.0, 0.0]

    def test_chi_route_equals_p_route(self):
        """At p = hbar beta tan(chi/2), G is
        pref cos^4(chi/2) sin^l(chi) C^{l+1}_{N-l-1}(cos chi), with
        pref = (2 hbar beta)^{5/2} (hbar beta)^{-4} 2^l l! sqrt((N-l-1)! N / (pi (N+l)!))."""
        for hbar_beta in (0.5, 1.0, 3.0):
            for N, l in [(1, 0), (2, 1), (3, 0), (4, 2)]:
                state = QuantumState(N, l, PhysicalScale(beta=hbar_beta))
                pref = ((2.0 * hbar_beta) ** 2.5 / hbar_beta ** 4 * 2 ** l * math.factorial(l)
                        * math.sqrt(math.factorial(N - l - 1) * N
                                    / (math.pi * math.factorial(N + l))))
                for chi in (0.3, 1.0, math.pi / 2.0, 2.4):
                    chi_route = (pref * math.cos(chi / 2.0) ** 4 * math.sin(chi) ** l
                                 * eval_gegenbauer(N - l - 1, l + 1, math.cos(chi)))
                    assert podolsky_pauling_G(state, hbar_beta * math.tan(chi / 2.0)) == \
                        pytest.approx(chi_route, rel=1e-11)

    def test_chi_endpoint(self):
        # cos^4(chi/2) kills the value at chi = pi (p = inf) for the nodeless 1s
        assert podolsky_pauling_G(QuantumState(1, 0), math.tan(math.pi / 2.0)) == pytest.approx(
            0.0, abs=1e-12)


@pytest.mark.parametrize("hbar_beta", [1e-310, 1e-320])
def test_subnormal_scale(hbar_beta):
    """At a subnormal hbar beta, q = p / hbar beta overflows to inf with no
    numpy warning (an error under this suite's settings): the kernel forms
    are finite at p = 0 and 0 past it, as are their stacks at that q.  G's
    prefactor (hbar beta)^{-3/2} is past the largest double, but G of (2, 1)
    is 0 at p = 0 and past it, and G_{1,0}(0), past it too, raises OverflowError."""
    state = QuantumState(2, 1, PhysicalScale(beta=hbar_beta))
    p = np.array([0.0, 0.5, 1.0])
    q = np.array([0.0, math.inf, math.inf])
    for values in (psi_trig(state, p), FORM_EVALUATORS["lombardi_ogilvie"](state, p),
                   *_kernel_stack([state], q), *_kernel_stack([state], q, lombardi_ogilvie=True)):
        assert np.isfinite(values[0]) and np.all(values[1:] == 0)
    assert podolsky_pauling_G(state, p).tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(OverflowError):
        podolsky_pauling_G(QuantumState(1, 0, state.scale), 0.0)


class TestDistributions:
    def test_pp_ground_state_shape(self):
        # (p^0) / (1 + p^2)^4
        assert distribution_max_l("PP", 1, 0.0) == pytest.approx(1.0)
        assert distribution_max_l("PP", 1, 1.0) == pytest.approx(1.0 / 16.0)

    def test_lo_ground_state_shape(self):
        assert distribution_max_l("LO", 1, 0.0) == pytest.approx(1.0)
        assert distribution_max_l("LO", 1, 1.0) == pytest.approx(0.25)
        assert distribution_max_l("LO", 1, -1.0) == pytest.approx(0.25)

    def test_pp_node_at_origin(self):
        assert distribution_max_l("PP", 3, 0.0) == 0.0

    def test_pp_negative_p_rejected(self):
        with pytest.raises(ValueError):
            distribution_max_l("PP", 2, -1.0)

    def test_pp_zero_at_large_p(self):
        """(4 p)^{2(N-1)} and (1 + p^2)^{2(N+1)} both overflow at p = 1e77."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert distribution_max_l("PP", 3, 1e77) == 0.0
            assert list(distribution_max_l("PP", 3, np.array([1e77, 1e200, math.inf]))) \
                == [0.0, 0.0, 0.0]

    def test_pp_matches_literal_formula(self):
        """Against (4 pm p)^{2(N-1)} / (pm^2 + p^2)^{2(N+1)} wherever its
        numerator, denominator and value are finite normal numbers."""
        tiny = np.finfo(float).tiny
        for pm in (1e-3, 1.0, 1e3):
            p = np.concatenate([[0.0], np.logspace(-8, 80, 2000)]) * pm
            for N in (1, 2, 3, 8, 20):
                with np.errstate(all="ignore"):
                    num = (4.0 * pm * p) ** (2 * (N - 1))
                    den = (pm * pm + p * p) ** (2 * (N + 1))
                    ref = num / den
                normal = ((num >= tiny) | (num == 1.0)) & (den >= tiny) & (ref >= tiny) \
                    & np.isfinite(num) & np.isfinite(den)
                got = distribution_max_l("PP", N, p, PhysicalScale(1.0, pm))
                assert np.all(np.abs(got[normal] - ref[normal]) <= 1e-13 * ref[normal])
                assert np.all(np.isfinite(got))

    @pytest.mark.parametrize("hbar_beta", [1e-300, 1e-40, 1.0, 1e300])
    def test_far_from_unit_scale(self, hbar_beta):
        """Against the exact rational value of each shape at each float p: within
        1e-13 where it is a normal double, 0 or subnormal where it is below, and
        ValueError where it is above, with no warning; PP is exactly 0 at p = 0
        for N >= 2."""
        scale = PhysicalScale(1.0, hbar_beta)
        pm = Fraction(hbar_beta)
        for q in (0.0, 1e-30, 1e-10, 1e-3, 1.0, 1e3, 1e10, 1e30):
            if hbar_beta * q == math.inf:
                continue
            p = Fraction(hbar_beta * q)
            for N in (1, 2, 3, 8):
                for form, exact in (
                        ("PP", (4 * pm * p) ** (2 * (N - 1)) / (pm * pm + p * p) ** (2 * (N + 1))),
                        ("LO", 1 / (pm * pm + p * p) ** (N + 1))):
                    if exact > Fraction(np.finfo(float).max):
                        with pytest.raises(ValueError, match="overflows"):
                            distribution_max_l(form, N, float(p), scale)
                        continue
                    got = distribution_max_l(form, N, float(p), scale)
                    if exact < Fraction(np.finfo(float).tiny):
                        assert 0.0 <= got <= np.finfo(float).tiny, (form, N, q)
                    else:
                        assert abs(Fraction(got) / exact - 1) <= 1e-13, (form, N, q)
                    if form == "PP" and N >= 2 and p == 0:
                        assert got == 0.0

    @pytest.mark.parametrize("N", [300, 10 ** 4, 10 ** 6])
    def test_large_N_against_mpmath(self, N):
        """At p = k / 2^16 <= 1 and hbar beta = 1 the bases 4 hbar beta p and
        hbar^2 beta^2 + p^2 are exact, so what the shapes lose is `_power`'s own
        rounding: within 2^-52 (4 + n / 256) of the exact value, n the outer power,
        at p near the peak of LO and where PP is near 1, in the normal range."""
        x0 = round((2.0 - math.sqrt(3.0)) * 2 ** 16)  # 4p / (1 + p^2) = 1 there
        lo = np.linspace(0.0, 2 ** 16 * math.sqrt(600.0 / N), 21).round()
        pp = x0 + np.linspace(-1.0, 1.0, 21) * (2 ** 16 * min(90.0 / N, 0.1))
        for form, k, n in (("LO", lo, N + 1), ("PP", pp.round(), 2 * N + 2)):
            got = distribution_max_l(form, N, k / 2 ** 16)
            for value, p in zip(got, k / 2 ** 16):
                p = mpmath.mpf(p)
                exact = ((4 * p) ** (2 * N - 2) / (1 + p * p) ** (2 * N + 2) if form == "PP"
                         else 1 / (1 + p * p) ** (N + 1))
                assert np.finfo(float).tiny < exact < np.finfo(float).max, (form, p)
                assert abs(value / exact - 1) <= 2.0 ** -52 * (4 + n / 256), (form, N, p)

    def test_pp_origin_in_an_overflowing_grid(self):
        """p = 0 is 0, but the value at p = 1e-45 overflows, so the grid raises."""
        tiny = PhysicalScale(1.0, 1e-40)
        assert distribution_max_l("PP", 2, np.array([0.0]), tiny).tolist() == [0.0]
        with pytest.raises(ValueError, match="overflows"):
            distribution_max_l("PP", 2, np.array([0.0, 1e-45]), tiny)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            distribution_max_l("XX", 1, 0.0)
        with pytest.raises(ValueError):
            distribution_max_l("LO", 0, 0.0)

    def test_N_is_read_as_quantum_state_reads_it(self):
        """A float N is refused, by Python, and a numpy integer taken."""
        for N in (3.5, 3.0):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                distribution_max_l("LO", N, 1.0)
        assert distribution_max_l("PP", np.int64(3), 1.0) == distribution_max_l("PP", 3, 1.0)

    def test_lo_matches_alpha_density(self):
        for N in (2, 4):
            density = np.abs(exact_lombardi_ogilvie([QuantumState(N, N - 1)])[0]) ** 2
            shape = distribution_max_l("LO", N, Q)
            np.testing.assert_allclose(density / shape, density[0] / shape[0], rtol=1e-11)

    def test_pp_matches_G_density(self):
        for N in (2, 3):
            state = QuantumState(N, N - 1)
            ref_p = 0.8
            norm = (podolsky_pauling_G(state, ref_p) ** 2
                    / distribution_max_l("PP", N, ref_p))
            for p in (0.4, 1.5, 4.0):
                assert podolsky_pauling_G(state, p) ** 2 == pytest.approx(
                    norm * distribution_max_l("PP", N, p), rel=1e-11)


def psi_ferrers(state, p):
    """Term-wise Ferrers-function assembly of the momentum wave function.

    Builds each Slater term's transform from the half-odd-degree Ferrers
    pair (P, Q)^{-1/2} instead of the Gegenbauer/trigonometric closed
    forms; an algebraically independent third route.
    """
    N, l = state.N, state.l
    pm = state.scale.momentum
    beta = state.scale.beta
    b = p / (2.0 * pm)
    x = 0.5 / math.sqrt(0.25 + b * b)
    norm = normalization(state)
    pref = (p / state.scale.hbar) * math.sqrt(math.pi * pm / p) * norm
    total = 0.0 + 0.0j
    for t in range(N - l):
        coeff = (-1) ** t * math.comb(N + l, N - l - 1 - t) / math.factorial(t)
        nu = l + 1.5 + t
        radial = (2.0 * x) ** (l + 2.5 + t) * math.gamma(l + 3 + t)
        pair = complex(ferrers_P_mhalf(nu, x),
                       (2.0 / math.pi) * ferrers_Q_mhalf(nu, x))
        total += coeff / (2.0 * beta) ** 3 * radial * pair
    return pref * total


class TestFerrersRoute:
    @pytest.mark.parametrize("N,l", [(1, 0), (2, 0), (3, 1)])
    def test_is_i_times_conjugate_trig(self, N, l):
        """The Ferrers route equals i * conj(psi_trig) identically in p."""
        state = QuantumState(N, l)
        for p in (0.4, 1.0, 3.0):
            via_ferrers = psi_ferrers(state, p)
            expect = 1j * psi_trig(state, p).conjugate()
            assert via_ferrers == pytest.approx(expect, rel=1e-12)
