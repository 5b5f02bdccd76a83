"""Position-space hydrogenic radial states and their analytic machinery.

Radial wave functions R_{Nl}, their Slater-term expansions, and the
exact <r^2>, <p^2> expectation values used by the uncertainty check.

Scaled units (hbar = 1, beta = 1) are the default; a physical-mode scale
can be built from Z, the reduced mass and the fine-structure constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import binomial, factorial, laguerre


@dataclass(frozen=True)
class PhysicalScale:
    """Physical scale of a hydrogenic state: action unit and inverse length.

    The momentum scale of the state is hbar * beta.  In physical mode
    beta = Z mu c alpha / (N hbar), which makes beta depend on N; the
    default scaled mode fixes hbar = beta = 1 for every state.
    """

    hbar: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if not (0 < self.hbar < math.inf and 0 < self.beta < math.inf):
            raise ValueError(f"hbar and beta must be positive and finite, "
                             f"got hbar={self.hbar}, beta={self.beta}")

    @classmethod
    def from_physical(cls, Z: int, mu: float, alpha_fs: float, N: int,
                      hbar: float = 1.0, c: float = 1.0) -> "PhysicalScale":
        """Build the N-dependent scale beta = Z mu c alpha / (N hbar)."""
        if N < 1:
            raise ValueError("N must be >= 1")
        return cls(hbar=hbar, beta=Z * mu * c * alpha_fs / (N * hbar))

    @property
    def momentum(self) -> float:
        """The momentum scale hbar * beta."""
        return self.hbar * self.beta


@dataclass(frozen=True)
class QuantumState:
    """Bound hydrogenic state (N, l) with its physical scale."""

    N: int
    l: int
    scale: PhysicalScale = field(default_factory=PhysicalScale)

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"principal quantum number must be >= 1, got {self.N}")
        if not 0 <= self.l <= self.N - 1:
            raise ValueError(
                f"orbital quantum number must satisfy 0 <= l <= N-1, "
                f"got l={self.l}, N={self.N}"
            )


@dataclass(frozen=True)
class SlaterExpansion:
    """Finite sum of Slater-type terms c * rho^m * exp(-rho/2), rho = 2 beta r.

    Powers may drop to -1 (the radial momentum operator applied to an
    m = 0 term gives one); such terms remain integrable against r^2 dr and
    are flagged by `has_inverse_power`.
    """

    l: int
    terms: tuple  # of (power: int, coefficient: complex)
    scale: PhysicalScale = field(default_factory=PhysicalScale)

    @property
    def has_inverse_power(self) -> bool:
        return any(m < 0 for m, _ in self.terms)

    def polynomial(self, rho):
        """Sum of c rho^m, without e^{-rho/2}, at a float or an array of rho."""
        return sum(c * rho ** m for m, c in self.terms)

    def __call__(self, r: float) -> complex:
        rho = 2.0 * self.scale.beta * r
        return self.polynomial(rho) * math.exp(-rho / 2.0)

    def scaled(self, factor: complex) -> "SlaterExpansion":
        return SlaterExpansion(
            self.l, tuple((m, factor * c) for m, c in self.terms), self.scale
        )


def normalization_constant(state: QuantumState) -> float:
    """Normalization N_{Nl} = (2 beta)^{3/2} sqrt((N-l-1)! / (2N (N+l)!))."""
    N, l = state.N, state.l
    beta = state.scale.beta
    return (2.0 * beta) ** 1.5 * math.sqrt(
        factorial(N - l - 1) / (2.0 * N * factorial(N + l))
    )


def slater_expansion(state: QuantumState, normalized: bool = False) -> SlaterExpansion:
    """Slater-term expansion of R_{Nl} / N_{Nl} (or of R_{Nl} if normalized).

    Term t in 0..N-l-1 carries power l+t and coefficient
    (-1)^t binom(N+l, N-l-1-t) / t!, i.e. the Laguerre sum written out.
    """
    N, l = state.N, state.l
    terms = []
    for t in range(N - l):
        coeff = (-1) ** t * binomial(N + l, N - l - 1 - t) / factorial(t)
        terms.append((l + t, complex(coeff)))
    expansion = SlaterExpansion(l, tuple(terms), state.scale)
    if normalized:
        expansion = expansion.scaled(normalization_constant(state))
    return expansion


def radial_wavefunction(state: QuantumState, r):
    """R_{Nl}(r) = N_{Nl} e^{-rho/2} rho^l L_{N-l-1}^{2l+1}(rho), rho = 2 beta r.

    Normalized so that the integral of R^2 r^2 dr over (0, inf) is 1.
    r is a float or a float64 array; the value is real, of r's shape.
    """
    if np.min(r) < 0:
        raise ValueError(f"r must be >= 0, got {np.min(r)}")
    N, l = state.N, state.l
    rho = 2.0 * state.scale.beta * r
    return (
        normalization_constant(state)
        * np.exp(-rho / 2.0)
        * rho ** l
        * laguerre(N - l - 1, 2 * l + 1, rho)
    )


def expectation_r2(state: QuantumState) -> float:
    """<r^2> from the Slater expansion via Gamma integrals (exact)."""
    expansion = slater_expansion(state)
    norm = normalization_constant(state)
    beta = state.scale.beta
    total = 0.0
    for m, cm in expansion.terms:
        for s, cs in expansion.terms:
            total += (cm * cs).real * math.gamma(m + s + 5)
    return norm ** 2 / (2.0 * beta) ** 5 * total


def expectation_p2(state: QuantumState) -> float:
    """<p^2> = int_0^inf p^4 G_{Nl}(p)^2 dp, exact at any scale.

    G is the closed-form Podolsky-Pauling function, the family conjugate to
    |p| that the r^2/p^2 uncertainty product tests.  At p = hbar beta tan(chi/2)
    (Fock's stereographic map) the integrand times dp/dchi is a polynomial of
    degree 2N + 1 in cos(chi), so the chi-midpoint rule with N + 6 nodes is exact.
    """
    from .forms import podolsky_pauling_G

    count = state.N + 6
    half_chi = 0.5 * math.pi * (np.arange(count) + 0.5) / count
    p = state.scale.momentum * np.tan(half_chi)
    dp = 0.5 * state.scale.momentum / np.cos(half_chi) ** 2
    return float(np.sum((p * p * podolsky_pauling_G(state, p)) ** 2 * dp)) * math.pi / count
