"""Momentum-space families: expansions, LO, PP, distributions, cross-checks."""

import cmath
import itertools
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_gegenbauer

from hmomentum.forms import (
    FORM_EVALUATORS,
    _log_b0,
    _log_c0,
    _pp_log_prefactor,
    distribution_max_l,
    podolsky_pauling_G,
    psi_trig,
)
from hmomentum.hydrogenic import (
    PhysicalScale,
    QuantumState,
    normalization_constant,
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
    slater_expansion,
    transform_slater_expansion,
)

# The momenta of the exact literal sums at hbar beta = 1, as q = p / hbar beta.
Q = pythagorean_momenta(PhysicalScale())


def coeff_a(state, t):
    """Gegenbauer-expansion coefficient a_t, from the integers of the exact sum."""
    integers, _ = gegenbauer_coefficients(state.N, state.l)
    return integers[t] * normalization_constant(state) / (2.0 * state.scale.beta) ** 2


class TestCoefficients:
    def test_ground_state(self):
        # N_{10} 2^2 binom(1,0) Gamma(2) / 4 = 2
        assert gegenbauer_coefficients(1, 0) == ([4], 1)
        assert coeff_a(QuantumState(1, 0), 0) == pytest.approx(2.0)

    def test_2p(self):
        expect = 4.0 * normalization_constant(QuantumState(2, 1))
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


# Logs in fixed point, as integers in units of 2^-FIXED_BITS (about 72
# digits), from mpmath at 80 digits: the exact prefactors below are then sums
# of integers.
FIXED_BITS = 240
PREFACTOR_MAX_N = 400


def fixed(x) -> int:
    """An mpf x, rounded to units of 2^-FIXED_BITS."""
    return int(mpmath.nint(mpmath.ldexp(x, FIXED_BITS)))


def ulps(value: float, exact: int) -> float:
    """|value - exact| in ulps of exact, a number in units of 2^-FIXED_BITS."""
    # Exact: a float of magnitude above 2^-188 has no bits below 2^-240.
    error = (int(math.ldexp(value, FIXED_BITS)) - exact) / (1 << FIXED_BITS)
    return abs(error) / math.ulp(exact / (1 << FIXED_BITS))


class TestPrefactors:
    """log b_0, log c_0 and the Podolsky-Pauling prefactor, each a ratio of
    factorials, against sums of mpmath logs: within 2 ulp at every
    l < N <= 400.  (The uncached functions, so that every pair is computed.)"""

    @pytest.fixture(scope="class")
    def log_factorials(self):
        with mpmath.workdps(80):
            logs = [fixed(mpmath.log(n)) for n in range(1, 2 * PREFACTOR_MAX_N + 1)]
            log2, log_pi = fixed(mpmath.log(2)), fixed(mpmath.log(mpmath.pi))
        return [0, *itertools.accumulate(logs)], log2, log_pi

    def test_log_b0_and_pp(self, log_factorials):
        """b_0^2 2 beta = (N+l)! 4^{l+2} (l+1)!^2 / ((N-l-1)! 2N (2l+1)!^2), and
        the prefactor is 2^{5/2} 2^l l! sqrt((N-l-1)! N / (pi (N+l)!))."""
        lf, log2, log_pi = log_factorials
        worst_b0 = worst_pp = 0.0
        for N in range(1, PREFACTOR_MAX_N + 1):
            log_N = lf[N] - lf[N - 1]
            for l in range(N):
                ratio = lf[N + l] - lf[N - l - 1] - log_N
                b0 = (ratio + (2 * l + 3) * log2 + 2 * lf[l + 1] - 2 * lf[2 * l + 1]) // 2
                pp = ((2 * l + 5) * log2 + 2 * lf[l] - ratio - log_pi) // 2
                worst_b0 = max(worst_b0, ulps(_log_b0.__wrapped__(N, l), b0))
                worst_pp = max(worst_pp, ulps(_pp_log_prefactor.__wrapped__(N, l), pp))
        assert worst_b0 <= 2.0 and worst_pp <= 2.0, (worst_b0, worst_pp)

    def test_log_c0(self, log_factorials):
        """c_0 = (l+1)! / (2l+1)!; log c_0 is exactly 0 at l = 0."""
        lf = log_factorials[0]
        worst = max(ulps(_log_c0.__wrapped__(l), lf[l + 1] - lf[2 * l + 1])
                    for l in range(PREFACTOR_MAX_N))
        assert worst <= 2.0
        assert _log_c0.__wrapped__(0) == 0.0

    def test_pp_prefactor_near_zero_present(self):
        """The range above holds prefactors near 0, where a log pi subtracted
        from the ratio's log would cancel digits."""
        assert abs(_pp_log_prefactor.__wrapped__(23, 21)) < 0.01
        assert abs(_pp_log_prefactor.__wrapped__(24, 22)) < 0.01


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
            p = pythagorean_momenta(scale)
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
                    gegenbauer_D1(n, x), gegenbauer_C(n, 1.0, x))
                assert combo == pytest.approx(
                    cmath.exp(1j * (n + 1) * gamma), abs=1e-13)
        for m, k in PYTHAGOREAN_PAIRS[1:]:
            X, S, h = m * m - k * k, 2 * m * k, m * m + k * k
            gamma = math.atan2(S, X)
            for n, (re, im) in enumerate(_gegenbauer_terms(X, S, 12)):
                combo = complex(Fraction(re, (X * h) ** (n + 1)), Fraction(im, (X * h) ** (n + 1)))
                assert combo.real == pytest.approx(math.cos((n + 1) * gamma), abs=1e-13)
                assert combo.imag == pytest.approx(
                    math.sin(gamma) * gegenbauer_C(n, 1.0, X / h), abs=1e-13)

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
        assert lombardi_ogilvie_coefficients(1, 0) == ([1], 1)

    def test_c_out_of_range(self):
        """The sum runs over k = 0..N-l-1 only."""
        assert len(lombardi_ogilvie_coefficients(2, 1)[0]) == 1
        assert len(lombardi_ogilvie_coefficients(4, 1)[0]) == 3

    def test_c_2s(self):
        # (N+l)! c_k = 2! (1, 2): c_1 = 2^1 1! 2! / (1! 0! 2!) = 2
        assert lombardi_ogilvie_coefficients(2, 0) == ([2, 4], 2)

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
    norm = normalization_constant(state)
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
