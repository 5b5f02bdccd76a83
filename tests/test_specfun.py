"""Special-function unit tests with independent oracles."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_gegenbauer, jv, spherical_jn, yv

from hmomentum import specfun
from hmomentum.specfun import gegenbauer_C, laguerre
from hmomentum.transform import GL_ORDER, gauss_legendre_panels, panels_needed
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
        assert laguerre(0, 7, 3.3) == 1.0

    def test_degree_one(self):
        # 1 + alpha - x
        assert laguerre(1, 2, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_value_at_zero(self):
        # L_2^1(0) = binom(3, 2) = 3
        assert laguerre(2, 1, 0.0) == pytest.approx(3.0, abs=1e-14)

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 50.0])
    def test_recurrence_vs_explicit_sum(self, x):
        for n in range(31):
            for alpha in (0, 1, 3, 9, 21):
                exact = laguerre_sum_exact(n, alpha, x)
                got = laguerre(n, alpha, x)
                assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_array_equals_point_by_point(self):
        x = np.array([[0.0, 0.1, 1.0], [10.0, 50.0, 200.0]])
        for n in (0, 1, 2, 7, 30):
            values = laguerre(n, 3, x)
            assert values.shape == x.shape
            assert [float(v) for v in values.ravel()] == [laguerre(n, 3, float(v))
                                                         for v in x.ravel()]

    def test_degree_list_is_the_single_degrees(self):
        """A list of degrees, in any order and with repeats, gives each
        degree's own value bit for bit, stacked."""
        degrees = [30, 0, 7, 1, 7, 2]
        for x in (np.array([[0.0, 0.1, 1.0], [10.0, 50.0, 1e6]]), 3.5):
            values = laguerre(degrees, 5, x)
            assert values.shape == (len(degrees),) + np.shape(x)
            for row, n in zip(values, degrees):
                assert np.array_equal(row, laguerre(n, 5, x)), n
        with pytest.raises(ValueError):
            laguerre([3, -1], 0, 1.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0, 1.0)
        with pytest.raises(ValueError):
            laguerre(2, -1, 1.0)


class TestGegenbauerC:
    def test_degree_zero(self):
        assert gegenbauer_C(0, 3.0, 0.7) == 1.0

    def test_degree_one_is_2_lambda_x(self):
        assert gegenbauer_C(1, 2.0, 0.25) == pytest.approx(1.0, abs=1e-15)

    def test_sine_ratio_zero(self):
        # C_2^1(cos(pi/3)) = sin(pi)/sin(pi/3) = 0
        assert gegenbauer_C(2, 1.0, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_against_scipy(self):
        for n in range(12):
            for lam in (1.0, 1.5, 2.0, 4.0):
                for x in (-0.9, -0.3, 0.0, 0.4, 0.99):
                    ref = float(eval_gegenbauer(n, lam, x))
                    assert gegenbauer_C(n, lam, x) == pytest.approx(
                        ref, rel=1e-12, abs=1e-12)

    def test_lambda1_trig_identity(self):
        thetas = np.linspace(0.0, math.pi, 102)[1:-1]
        for n in range(41):
            for theta in thetas:
                lhs = gegenbauer_C(n, 1.0, math.cos(theta)) * math.sin(theta)
                assert abs(lhs - math.sin((n + 1) * theta)) <= 1e-13


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
    """specfun's j_l: upward recurrence from x = l + 1, power series below."""

    ABS_TOL = 2e-15

    @staticmethod
    def hankel_suite_arguments():
        """The node-by-momentum array of the pp_vs_hankel suite."""
        b = np.linspace(0.2, 5.0, 12) / 2.0
        centers, offsets, _ = gauss_legendre_panels(
            0.0, 250.0, int(panels_needed(b[-1], 250.0)), GL_ORDER)
        return np.outer((centers[:, None] + offsets).ravel(), b)

    def test_against_scipy(self):
        suite = self.hankel_suite_arguments()
        for l in range(11):
            for x in (np.linspace(0.0, l + 3.0, 301), suite):
                values = specfun.spherical_bessel_j_orders(l, x)[l]
                assert values.shape == x.shape
                assert np.max(np.abs(values - spherical_jn(l, x))) <= self.ABS_TOL, l

    def test_against_recurrence_oracle(self):
        for l in range(11):
            for x in [0.0] + [f * l for f in (0.25, 0.5, 0.75, 0.95)] + [l + 1.0, 30.0]:
                assert abs(specfun.spherical_bessel_j_orders(l, x)[l]
                           - spherical_bessel_j(l, x)) <= self.ABS_TOL, (l, x)

    def test_against_mpmath(self):
        for l in range(11):
            for x in np.linspace(0.0, l + 4.0, 61)[1:]:
                error = abs(specfun.spherical_bessel_j_orders(l, x)[l]
                            - mpmath_spherical_j(l, x))
                assert error <= 1e-15, (l, x)

    def test_orders_are_the_single_orders(self):
        """One recurrence for j_0 ... j_L gives each order bit for bit."""
        for x in (self.hankel_suite_arguments(), np.linspace(0.0, 14.0, 281), 0.5, 7.0):
            orders = specfun.spherical_bessel_j_orders(10, x)
            assert orders.shape == (11,) + np.shape(x)
            for l in range(11):
                assert np.array_equal(orders[l], specfun.spherical_bessel_j_orders(l, x)[l]), l
        with pytest.raises(ValueError):
            specfun.spherical_bessel_j_orders(-1, 1.0)

    def test_columns_are_the_single_points(self):
        """Each x of an array gives what the call on that x alone gives, at
        every order, on both sides of each series region x < l + 1."""
        edges = np.arange(0.0, 42.0)
        x = np.concatenate([[0.0, 1e-300, 1e-8, 1e5, np.nan], edges,
                            np.nextafter(edges, -1.0)[1:], np.linspace(0.0, 60.0, 97)])
        for max_l in (0, 1, 3, 12, 40):
            orders = specfun.spherical_bessel_j_orders(max_l, x)
            for column, point in zip(orders.T, x):
                assert np.array_equal(column, specfun.spherical_bessel_j_orders(max_l, point),
                                      equal_nan=True), (max_l, point)

    def test_float_in_float_out(self):
        assert specfun.spherical_bessel_j_orders(0, 0.0)[0] == 1.0
        assert specfun.spherical_bessel_j_orders(3, 0.0)[3] == 0.0
        assert np.ndim(specfun.spherical_bessel_j_orders(2, 5.0)[2]) == 0

    def test_negative_order(self):
        with pytest.raises(ValueError):
            specfun.spherical_bessel_j_orders(-1, 1.0)


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
