"""Position-space machinery: normalization, Slater terms, p_r, moments."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hmomentum.hydrogenic import (
    PhysicalScale,
    QuantumState,
    SlaterExpansion,
    expectation_p2,
    expectation_r2,
    normalization_constant,
    radial_wavefunction,
    slater_expansion,
)
from oracles import apply_radial_momentum


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

    def test_from_physical(self):
        scale = PhysicalScale.from_physical(Z=2, mu=3.0, alpha_fs=0.5, N=4)
        assert scale.beta == pytest.approx(2 * 3.0 * 0.5 / 4)

    def test_from_physical_invalid_N(self):
        with pytest.raises(ValueError):
            PhysicalScale.from_physical(1, 1.0, 0.01, 0)


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

    @pytest.mark.parametrize("N,l", [(1, 0), (2, 0), (2, 1), (3, 1), (5, 3)])
    def test_unit_norm_by_quadrature(self, N, l):
        state = QuantumState(N, l)
        val, _ = quad(lambda r: radial_wavefunction(state, r) ** 2 * r * r,
                      0.0, 150.0, limit=300)
        assert val == pytest.approx(1.0, abs=1e-10)


class TestSlaterExpansion:
    def test_ground_state_single_term(self):
        exp10 = slater_expansion(QuantumState(1, 0))
        assert exp10.terms == ((0, (1 + 0j)),)
        assert not exp10.has_inverse_power

    def test_2s_coefficients(self):
        # R_20 / N_20 = (2 - rho) e^{-rho/2}: powers {0: 2, 1: -1}
        exp20 = slater_expansion(QuantumState(2, 0))
        assert dict(exp20.terms) == {0: 2 + 0j, 1: -1 + 0j}

    def test_2p_single_term(self):
        exp21 = slater_expansion(QuantumState(2, 1))
        assert exp21.terms == ((1, (1 + 0j)),)

    def test_sign_alternation(self):
        for N, l in [(4, 0), (5, 1), (6, 2)]:
            coeffs = [c.real for _, c in slater_expansion(QuantumState(N, l)).terms]
            for t, c in enumerate(coeffs):
                assert c * (-1) ** t > 0

    @pytest.mark.parametrize("N", range(1, 9))
    def test_matches_wavefunction(self, N):
        for l in range(N):
            state = QuantumState(N, l)
            expansion = slater_expansion(state, normalized=True)
            for r in (0.05, 0.7, 2.0, 6.0, 15.0):
                ref = radial_wavefunction(state, r)
                got = expansion(r)
                assert got.imag == 0.0
                assert got.real == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_scaled_is_linear(self):
        expansion = slater_expansion(QuantumState(3, 1))
        doubled = expansion.scaled(2.0)
        assert doubled(1.3) == pytest.approx(2.0 * expansion(1.3))


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


def _fd_derivative(func, r, h=1e-4):
    """Five-point central difference."""
    return (-func(r + 2 * h) + 8 * func(r + h)
            - 8 * func(r - h) + func(r - 2 * h)) / (12 * h)


class TestRadialMomentum:
    def test_ground_state_image(self):
        # p_r e^{-rho/2} = -i hbar 2 beta [rho^{-1} - 1/2] e^{-rho/2}
        out = apply_radial_momentum(slater_expansion(QuantumState(1, 0)))
        assert dict(out.terms) == {-1: -2j, 0: 1j}
        assert out.has_inverse_power

    def test_finite_difference_oracle(self):
        for N, l in [(1, 0), (2, 0), (3, 2), (4, 1)]:
            state = QuantumState(N, l)
            expansion = slater_expansion(state, normalized=True)
            image = apply_radial_momentum(expansion)
            for r in (0.3, 1.0, 2.7, 6.0):
                deriv = _fd_derivative(lambda s: expansion(s).real, r)
                expect = -1j * (deriv + expansion(r) / r)
                assert image(r) == pytest.approx(expect, abs=1e-8)

    def test_linearity(self):
        base = slater_expansion(QuantumState(3, 0))
        scaled_then_applied = apply_radial_momentum(base.scaled(2.5j))
        applied_then_scaled = apply_radial_momentum(base).scaled(2.5j)
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
            expansion = slater_expansion(state, normalized=True)
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

    @pytest.mark.parametrize("N", range(1, 6))
    def test_r2_closed_formula(self, N):
        # <r^2> = (5 N^2 + 1 - 3 l (l+1)) / (2 beta^2) at fixed beta
        for l in range(N):
            expect = (5 * N * N + 1 - 3 * l * (l + 1)) / 2.0
            assert expectation_r2(QuantumState(N, l)) == pytest.approx(
                expect, rel=1e-12)

    def test_r2_beta_scaling(self):
        a = expectation_r2(QuantumState(2, 1, PhysicalScale(beta=2.0)))
        b = expectation_r2(QuantumState(2, 1))
        assert a == pytest.approx(b / 4.0, rel=1e-12)

    def test_p2_ground_state(self):
        assert expectation_p2(QuantumState(1, 0)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("N", range(1, 6))
    def test_p2_virial_identity(self, N):
        # At fixed beta every R_{Nl} has energy -beta^2/2, so the virial
        # theorem gives <p^2> = -2 E = (hbar beta)^2 independent of (N, l).
        for l in range(N):
            assert expectation_p2(QuantumState(N, l)) == pytest.approx(
                1.0, abs=1e-9)

    def test_p2_scale_covariance(self):
        a = expectation_p2(QuantumState(2, 0, PhysicalScale(beta=0.5)))
        b = expectation_p2(QuantumState(2, 0))
        assert a == pytest.approx(b * 0.25, rel=1e-9)

    def test_uncertainty_product_ground_state(self):
        product = expectation_r2(QuantumState(1, 0)) * expectation_p2(QuantumState(1, 0))
        assert product == pytest.approx(3.0, abs=1e-9)
        assert product >= 2.25
