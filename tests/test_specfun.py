"""Special-function unit tests with independent oracles."""

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_gegenbauer, jv, spherical_jn, yv

from hmomentum.forms import _polynomial_steps
from hmomentum.specfun import gegenbauer_C, ladder, laguerre
from hmomentum.transform import GL_ORDER, SERIES_BETA, _spherical_bessel, gauss_legendre_panels
from hmomentum.verification import panels_needed
from oracles import (
    ferrers_P_mhalf,
    ferrers_Q_mhalf,
    gegenbauer_D1,
    spherical_bessel_j,
    spherical_neumann_n0,
)


def laguerre_sum_exact(n, alpha, x):
    """Explicit alternating-sum oracle, exact rational arithmetic."""
    xf = Fraction(x)
    total = Fraction(0)
    for t in range(n + 1):
        total += (-1) ** t * math.comb(n + alpha, n - t) * xf ** t / math.factorial(t)
    return float(total)


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre([0], [7], 3.3)[0] == 1.0

    def test_degree_one(self):
        # 1 + alpha - x
        assert laguerre([1], [2], 1.0)[0] == pytest.approx(2.0, abs=1e-15)

    def test_value_at_zero(self):
        # L_2^1(0) = binom(3, 2) = 3
        assert laguerre([2], [1], 0.0)[0] == pytest.approx(3.0, abs=1e-14)

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 50.0])
    def test_recurrence_vs_explicit_sum(self, x):
        for n in range(31):
            for alpha in (0, 1, 3, 9, 21):
                exact = laguerre_sum_exact(n, alpha, x)
                got = laguerre([n], [alpha], x)[0]
                assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_array_equals_point_by_point(self):
        x = np.array([[0.0, 0.1, 1.0], [10.0, 50.0, 200.0]])
        for n in (0, 1, 2, 7, 30):
            values = laguerre([n], [3], x)[0]
            assert values.shape == x.shape
            assert [float(v) for v in values.ravel()] == [laguerre([n], [3], float(v))[0]
                                                         for v in x.ravel()]

    def test_degree_list_is_the_single_degrees(self):
        """Lists of degrees and of orders, mixed and in any order, with repeats,
        give each pair's own value bit for bit, stacked, for both families."""
        degrees = [30, 0, 7, 1, 7, 2, 12, 7, 0, 3]
        orders = [5, 5, 0, 3, 5, 0, 3, 0, 9, 9]
        for x in (np.array([[0.0, 0.1, 1.0], [10.0, 50.0, 1e6]]), 3.5, 0.3):
            for family, shift in ((laguerre, 0), (gegenbauer_C, 1)):
                lams = [a + shift for a in orders]
                values = family(degrees, lams, x)
                assert values.shape == (len(degrees),) + np.shape(x)
                for row, n, a in zip(values, degrees, lams):
                    assert np.array_equal(row, family([n], [a], x)[0]), (family, n, a)
        with pytest.raises(ValueError):
            laguerre([3, -1], [0, 0], 1.0)
        with pytest.raises(ValueError):
            gegenbauer_C([3, -1], [1, 1], 0.5)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            laguerre([-1], [0], 1.0)
        with pytest.raises(ValueError):
            laguerre([2], [-1], 1.0)


class TestGegenbauerC:
    def test_degree_zero(self):
        assert gegenbauer_C([0], [3.0], 0.7)[0] == 1.0

    def test_degree_one_is_2_lambda_x(self):
        assert gegenbauer_C([1], [2.0], 0.25)[0] == pytest.approx(1.0, abs=1e-15)

    def test_sine_ratio_zero(self):
        # C_2^1(cos(pi/3)) = sin(pi)/sin(pi/3) = 0
        assert gegenbauer_C([2], [1.0], 0.5)[0] == pytest.approx(0.0, abs=1e-14)

    def test_against_scipy(self):
        for n in range(12):
            for lam in (1.0, 1.5, 2.0, 4.0):
                for x in (-0.9, -0.3, 0.0, 0.4, 0.99):
                    ref = float(eval_gegenbauer(n, lam, x))
                    assert gegenbauer_C([n], [lam], x)[0] == pytest.approx(
                        ref, rel=1e-12, abs=1e-12)

    def test_lambda1_trig_identity(self):
        thetas = np.linspace(0.0, math.pi, 102)[1:-1]
        for n in range(41):
            for theta in thetas:
                lhs = gegenbauer_C([n], [1.0], math.cos(theta))[0] * math.sin(theta)
                assert abs(lhs - math.sin((n + 1) * theta)) <= 1e-13


FAMILIES = {
    "laguerre": laguerre,
    "gegenbauer_C": gegenbauer_C,
    "hypergeometric": lambda degrees, orders, x: ladder(
        degrees, orders, functools.partial(_polynomial_steps, x, 1.0 - x), ()),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("degrees,orders", [([2, 1], [1]), ([1, 2], [1]), ([1], [1, 2])])
def test_unequal_lists_rejected(family, degrees, orders):
    """Every family runs on `ladder`, which takes one order per degree: lists of
    two lengths raise ValueError, rather than giving the rows of what zip pairs."""
    with pytest.raises(ValueError, match="one order per degree"):
        FAMILIES[family](degrees, orders, 0.5)


class TestGegenbauerD1:
    """The D^1 oracle that the Ferrers functions of tests/oracles.py take."""

    def test_values_at_zero(self):
        assert gegenbauer_D1(0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert gegenbauer_D1(1, 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_trig_identity(self):
        thetas = np.linspace(0.0, math.pi, 102)[1:-1]
        for n in range(41):
            for theta in thetas:
                lhs = gegenbauer_D1(n, math.cos(theta)) * math.sin(theta)
                assert abs(lhs - math.cos((n + 1) * theta)) <= 1e-13

    def test_endpoint_divergence(self):
        assert abs(gegenbauer_D1(2, 1.0 - 1e-12)) > 1e5

    def test_endpoints_rejected(self):
        for x in (1.0, -1.0, 1.5, np.array([0.0, 0.5, 1.0])):
            with pytest.raises(ValueError):
                gegenbauer_D1(2, x)

    def test_array_equals_point_by_point(self):
        x = np.cos(np.linspace(0.0, math.pi, 41)[1:-1]).reshape(3, 13)
        for n in range(12):
            values = gegenbauer_D1(n, x)
            assert values.shape == x.shape
            np.testing.assert_allclose(values, [[gegenbauer_D1(n, float(v)) for v in row]
                                                for row in x], rtol=1e-15, atol=1e-15)


class TestFerrers:
    def test_P_zero_of_C1(self):
        # nu = 3/2 maps to C_1^1(x) = 2x, which vanishes at x = 0
        assert ferrers_P_mhalf(1.5, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_P_vanishes_at_endpoint(self):
        assert ferrers_P_mhalf(2.5, 1.0) == 0.0

    def test_Q_sign_from_D(self):
        # D_1^1(0) = -1, so Q_{3/2}^{-1/2}(0) < 0
        assert ferrers_Q_mhalf(1.5, 0.0) < 0

    def test_Q_endpoint_rejected(self):
        with pytest.raises(ValueError):
            ferrers_Q_mhalf(1.5, 1.0)

    def test_non_half_integer_degree_rejected(self):
        with pytest.raises(ValueError):
            ferrers_P_mhalf(1.3, 0.5)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("lt,b", [(0, 0.3), (1, 1.0), (3, 2.5)])
    def test_hankel_integral_route(self, lt, b):
        """G&R 6.621/6.622: Bessel-kernel integrals against the closed forms."""
        x = 0.5 / math.sqrt(0.25 + b * b)
        nu = lt + 1.5
        kw = dict(limit=800, epsabs=1e-13, epsrel=1e-13)
        i1 = quad(lambda r: jv(0.5, b * r) * math.exp(-r / 2) * r ** (lt + 1.5),
                  0, 400, **kw)[0]
        i2 = quad(lambda r: yv(0.5, b * r) * math.exp(-r / 2) * r ** (lt + 1.5),
                  0, 400, **kw)[0]
        pref = (2 * x) ** (lt + 2.5) * math.gamma(lt + 3)
        assert i1 == pytest.approx(pref * ferrers_P_mhalf(nu, x), rel=1e-9)
        assert i2 == pytest.approx(-(2 / math.pi) * pref * ferrers_Q_mhalf(nu, x),
                                   rel=1e-9)


def mpmath_spherical_j(l, x):
    """j_l(x) = sqrt(pi / 2x) J_{l+1/2}(x) at 40 digits, for x > 0."""
    with mpmath.workdps(40):
        return float(mpmath.sqrt(mpmath.pi / (2 * mpmath.mpf(x))) * mpmath.besselj(l + 0.5, x))


class TestSphericalBessel:
    def test_limit_at_origin(self):
        assert spherical_bessel_j(0, 0.0) == 1.0
        assert spherical_bessel_j(3, 0.0) == 0.0

    def test_j0_at_pi(self):
        assert spherical_bessel_j(0, math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_j1_explicit(self):
        expect = math.sin(2.0) / 4.0 - math.cos(2.0) / 2.0
        assert spherical_bessel_j(1, 2.0) == pytest.approx(expect, abs=1e-15)
        assert expect == pytest.approx(0.4354, abs=5e-5)

    def test_against_scipy(self):
        for l in range(11):
            for x in (0.05, 0.5, 1.0, 3.0, 8.0, 30.0):
                ref = float(spherical_jn(l, x))
                assert spherical_bessel_j(l, x) == pytest.approx(
                    ref, rel=1e-10, abs=1e-14)

    def test_against_mpmath(self):
        """The oracle near the zeros of j_0 (Miller normalization) and at
        small x (where sin x / x^2 - cos x / x cancels)."""
        for l in range(13):
            for x in [1e-3, 0.05, 0.5] + list(np.linspace(0.0, l + 4.0, 121)[1:]):
                assert abs(spherical_bessel_j(l, x) - mpmath_spherical_j(l, x)) <= 1e-15, (l, x)

    def test_three_term_recurrence(self):
        for l in range(1, 10):
            for x in np.linspace(l, l + 30.0, 7):
                lhs = spherical_bessel_j(l - 1, x) + spherical_bessel_j(l + 1, x)
                rhs = (2 * l + 1) * spherical_bessel_j(l, x) / x
                assert abs(lhs - rhs) <= 1e-11


class TestSphericalBesselArray:
    """The package's j_l, `transform._spherical_bessel`: the power series below
    SERIES_BETA, Miller's normalized downward recurrence up to beta = count,
    the upward recurrence past it."""

    ABS_TOL = 2e-15

    @staticmethod
    def hankel_suite_arguments():
        """The node-by-momentum array of the pp_vs_hankel suite."""
        b = np.linspace(0.2, 5.0, 12) / 2.0
        centers, offsets, _ = gauss_legendre_panels(
            250.0, int(panels_needed(b[-1], 250.0)), GL_ORDER)
        return np.outer((centers[:, None] + offsets).ravel(), b)

    def test_against_scipy(self):
        suite = self.hankel_suite_arguments()
        for l in range(11):
            for x in (np.linspace(0.0, l + 3.0, 301), suite):
                values = _spherical_bessel(x, l + 1)[l]
                assert values.shape == x.shape
                assert np.max(np.abs(values - spherical_jn(l, x))) <= self.ABS_TOL, l

    def test_against_recurrence_oracle(self):
        for l in range(11):
            for x in [0.0] + [f * l for f in (0.25, 0.5, 0.75, 0.95)] + [l + 1.0, 30.0]:
                assert abs(_spherical_bessel(np.array(x), l + 1)[l]
                           - spherical_bessel_j(l, x)) <= self.ABS_TOL, (l, x)

    def test_against_mpmath(self):
        for l in range(11):
            for x in np.linspace(0.0, l + 4.0, 61)[1:]:
                error = abs(_spherical_bessel(np.array(x), l + 1)[l] - mpmath_spherical_j(l, x))
                assert error <= 1e-15, (l, x)

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_fewest_orders(self, count):
        """No rows for count 0; for counts 1 and 2, the series at 1e-3, Miller
        at 0.5, upward at 3 and 30."""
        x = np.array([1e-3, 0.5, 3.0, 30.0])
        orders = _spherical_bessel(x, count)
        assert orders.shape == (count, x.size)
        for l in range(count):
            for got, point in zip(orders[l], x):
                assert abs(got - mpmath_spherical_j(l, point)) <= 1e-15, (count, l, point)

    def test_columns_are_the_single_points(self):
        """Each x of an array gives what the call on that x alone gives, at
        every order, on both sides of each region's edge: SERIES_BETA and
        beta = count."""
        edges = np.concatenate([[SERIES_BETA], np.arange(1.0, 42.0)])
        x = np.concatenate([[0.0, 1e-300, 1e-8, 1e5, np.nan], edges,
                            np.nextafter(edges, -1.0), np.linspace(0.0, 60.0, 97)])
        for count in (1, 2, 4, 13, 41):
            orders = _spherical_bessel(x, count)
            for column, point in zip(orders.T, x):
                assert np.array_equal(column, _spherical_bessel(np.array([point]), count)[:, 0],
                                      equal_nan=True), (count, point)


class TestSphericalNeumann:
    def test_zero_of_cos(self):
        assert spherical_neumann_n0(math.pi / 2) == pytest.approx(0.0, abs=1e-16)

    def test_at_pi(self):
        assert spherical_neumann_n0(math.pi) == pytest.approx(1.0 / math.pi)

    def test_pole_at_origin(self):
        assert spherical_neumann_n0(1e-12) < -1e11

    def test_domain(self):
        with pytest.raises(ValueError):
            spherical_neumann_n0(0.0)
        with pytest.raises(ValueError):
            spherical_neumann_n0(-1.0)
