"""The CLI's forms at large N and extreme scales, against mpmath oracles.

The oracle of the complex forms sums the paper's literal series with
exact integer or rational coefficients in mpmath at 2N+40 digits, so the
cancellation between its alternating terms costs nothing.  It shares no
algebra with the kernel's hypergeometric recurrence.  Podolsky-Pauling
is checked against `mpmath.gegenbauer` in the paper's closed form.  The
same oracles check the exact integer sums of `verification`.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hmomentum.forms import FORM_EVALUATORS, psi_trig
from hmomentum.hydrogenic import PhysicalScale, QuantumState
from hmomentum.verification import (
    PYTHAGOREAN_PAIRS,
    exact_gegenbauer,
    exact_lombardi_ogilvie,
    pythagorean_momenta,
)

REL_TOL = 1e-11
# (N, l, hbar beta)
STATES = [(1, 0, 1.0), (2, 1, 1e-3), (3, 0, 1e3), (8, 3, 0.1), (20, 0, 1.0),
          (20, 19, 10.0), (45, 12, 1e-3), (90, 0, 1e3), (150, 75, 1.0),
          (200, 0, 1e-3), (200, 60, 1.0), (200, 199, 1e3)]


def _exact_sum(coeffs, x, lowest, digits):
    """x^lowest sum_t coeffs[t] x^t by Horner's rule, with mpmath at `digits` digits."""
    with mpmath.workdps(digits):
        total = mpmath.mpc(0)
        for c in reversed(coeffs):
            total = total * x + mpmath.mpf(c.numerator) / c.denominator
        return total * x ** lowest


def _mpf(x):
    """x, a float or a Fraction, as an mpf at the working precision."""
    return mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mpmath.mpf(x)


def trig_oracle(N, l, hbar_beta, p):
    """sum_t b_t w^{l+t+2}, w = hbar beta / (hbar beta - i p), exactly."""
    n = N - l - 1
    coeffs = [Fraction((-1) ** t * 2 ** (l + t + 2) * math.comb(N + l, n - t)
                       * math.factorial(l + t + 1), math.factorial(t))
              for t in range(n + 1)]
    with mpmath.workdps(2 * N + 40):
        w = 1 / (1 - 1j * (_mpf(p) / hbar_beta))
        pref = mpmath.sqrt(mpmath.mpf(math.factorial(n))
                           / (2 * N * math.factorial(N + l)) / (2 * mpmath.mpf(hbar_beta)))
        return complex(pref * _exact_sum(coeffs, w, l + 2, 2 * N + 40))


def lo_oracle(N, l, hbar_beta, p):
    """sum_k c_k z^{l+k+2}, z = i hbar beta / (p - i hbar beta), exactly."""
    n = N - l - 1
    coeffs = [Fraction(2 ** k * math.factorial(n) * math.factorial(l + k + 1),
                       math.factorial(k) * math.factorial(n - k)
                       * math.factorial(2 * l + k + 1))
              for k in range(n + 1)]
    with mpmath.workdps(2 * N + 40):
        z = 1j / (_mpf(p) / hbar_beta - 1j)
        return complex(_exact_sum(coeffs, z, l + 2, 2 * N + 40))


def pp_oracle(N, l, hbar_beta, p):
    """The closed form of G_{Nl}(p), in mpmath at 2N+40 digits."""
    with mpmath.workdps(2 * N + 40):
        pm, pp = mpmath.mpf(hbar_beta), mpmath.mpf(p)
        den = pm * pm + pp * pp
        return complex(
            (2 * pm) ** mpmath.mpf(2.5) * math.factorial(l)
            * mpmath.sqrt(mpmath.mpf(math.factorial(N - l - 1) * N)
                          / (mpmath.pi * math.factorial(N + l)))
            * (4 * pm * pp) ** l / den ** (l + 2)
            * mpmath.gegenbauer(N - l - 1, l + 1, (pm * pm - pp * pp) / den))


def momenta(hbar_beta, count=12):
    """p = hbar beta tan(theta) at midpoints spanning theta in (-pi/2, pi/2)."""
    return [hbar_beta * math.tan(math.pi * ((j + 0.5) / count - 0.5))
            for j in range(count)]


@pytest.mark.parametrize("form,oracle", [("trig", trig_oracle),
                                         ("lombardi_ogilvie", lo_oracle),
                                         ("podolsky_pauling", pp_oracle)])
@pytest.mark.parametrize("N,l,hbar_beta", STATES)
def test_matches_exact_sum(form, oracle, N, l, hbar_beta):
    """Error within REL_TOL of the largest |oracle| over the checked momenta.

    The Lombardi-Ogilvie function of (200, 199) lies wholly below the
    double range (c_0 = 200!/399!), so there the values must be exact zeros.
    """
    state = QuantumState(N, l, PhysicalScale(1.0, hbar_beta))
    ps = momenta(hbar_beta)
    if form == "podolsky_pauling":
        ps = [abs(p) for p in ps]
    exact = [oracle(N, l, hbar_beta, p) for p in ps]
    peak = max(abs(v) for v in exact)
    for p, ref in zip(ps, exact):
        value = FORM_EVALUATORS[form](state, p)
        assert abs(value - ref) <= REL_TOL * peak, (p, value, ref)


@pytest.mark.parametrize("hbar_beta", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("N", [1, 2, 5, 13, 40, 100, 200])
def test_unit_norm(N, hbar_beta):
    """int |psi|^2 dp / (2 pi hbar) = 1 on the full line.

    With p = hbar beta tan(theta), |psi|^2 dp / d theta is a trigonometric
    polynomial of degree 2N in theta, so the midpoint rule with 4N+16
    points is exact up to rounding.
    """
    count = 4 * N + 16
    for l in sorted({0, N // 2, N - 1}):
        state = QuantumState(N, l, PhysicalScale(1.0, hbar_beta))
        total = 0.0
        for j in range(count):
            theta = math.pi * ((j + 0.5) / count - 0.5)
            total += abs(psi_trig(state, hbar_beta * math.tan(theta))) ** 2 \
                / math.cos(theta) ** 2
        norm = total * (math.pi / count) * hbar_beta / (2.0 * math.pi)
        assert abs(norm - 1.0) <= 1e-12, (l, norm)


@pytest.mark.parametrize("exact,oracle", [(exact_gegenbauer, trig_oracle),
                                          (exact_lombardi_ogilvie, lo_oracle)])
@pytest.mark.parametrize("N,l", [(8, 3), (40, 0), (60, 10), (100, 0)])
def test_exact_sums(exact, oracle, N, l):
    """The integer sums of `verification` at its Pythagorean momenta, within
    1e-15 of the peak of the oracle at the same rational q (and -q)."""
    state = QuantumState(N, l)
    q = [Fraction(2 * m * k, m * m - k * k) for m, k in PYTHAGOREAN_PAIRS]
    q += [-x for x in q[1:]]
    assert np.array_equal(pythagorean_momenta(state.scale), [float(x) for x in q])
    reference = [oracle(N, l, 1.0, x) for x in q]
    peak = max(abs(v) for v in reference)
    for x, value, ref in zip(q, exact([state])[0], reference):
        assert abs(value - ref) <= 1e-15 * peak, (x, value, ref)
