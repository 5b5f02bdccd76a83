"""Position-space hydrogenic radial states and their analytic machinery.

Radial wave functions R_{Nl} and the exact <r^2>, <p^2> expectation
values used by the uncertainty check.

Scaled units (hbar = 1, beta = 1) are the default.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .specfun import laguerre


@dataclass(frozen=True)
class PhysicalScale:
    """Physical scale of a hydrogenic state: action unit and inverse length.

    The momentum scale of the state is hbar * beta; for hydrogen it is
    Z mu c alpha / N.  The default fixes hbar = beta = 1.
    """

    hbar: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if not (0 < self.hbar < math.inf and 0 < self.beta < math.inf):
            raise ValueError(f"hbar and beta must be positive and finite, "
                             f"got hbar={self.hbar}, beta={self.beta}")

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


def normalization_constant(state: QuantumState) -> float:
    """Normalization N_{Nl} = (2 beta)^{3/2} sqrt((N-l-1)! / (2N (N+l)!)).

    Raises ValueError where N_{Nl} is not a normal double (at beta = 1,
    for l = N - 1 from N = 151 on) or (2 beta)^{3/2} overflows.
    """
    N, l = state.N, state.l
    num, den = math.factorial(N - l - 1), 2 * N * math.factorial(N + l)
    # int / int is correctly rounded; scaled by 4^k it lies in [1/4, 4),
    # and 2^-k applies in one last step.
    k = (den.bit_length() - num.bit_length()) // 2
    try:
        value = math.ldexp((2.0 * state.scale.beta) ** 1.5 * math.sqrt((num << 2 * k) / den), -k)
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        raise ValueError(f"N_{{Nl}} of (N={N}, l={l}) at beta={state.scale.beta:g} "
                         f"is not a normal double")
    return value


def radial_wavefunction(state: QuantumState, r):
    """R_{Nl}(r) = N_{Nl} e^{-rho/2} rho^l L_{N-l-1}^{2l+1}(rho), rho = 2 beta r.

    Normalized so that the integral of R^2 r^2 dr over (0, inf) is 1.
    r is a float or a float64 array; the value is real, of r's shape.
    N_{Nl} and rho^l leave the double range at large l where R does not
    (N_{150,149} is 1.6e-307, and rho^149 overflows from rho = 117), so
    the powers of 2 of both apply in one last step.  R is 0 wherever
    e^{-rho/2} is, r = inf included, although L may overflow there.
    """
    return _radial_stack([state], r)[0]


def _radial_stack(states, r) -> np.ndarray:
    """np.stack([radial_wavefunction(s, r) for s in states]), bit for bit: one
    Laguerre recurrence per (l, scale) up to its largest N, all its rows scaled
    at once, and the functions of rho shared by every l of a scale."""
    if np.min(r) < 0:
        raise ValueError(f"r must be >= 0, got {np.min(r)}")
    values = np.empty((len(states),) + np.shape(r))
    for scale in {s.scale for s in states}:
        rho = 2.0 * scale.beta * r
        rho_mantissa, rho_exponent = np.frexp(rho)
        decay = np.exp(-rho / 2.0)
        for l in {s.l for s in states if s.scale == scale}:
            ladder = [i for i, s in enumerate(states) if (s.l, s.scale) == (l, scale)]
            norm = [normalization_constant(states[i]) for i in ladder]
            norm, norm_exponent = np.frexp(np.reshape(norm, (-1,) + (1,) * np.ndim(r)))
            with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf where decay is 0
                value = np.ldexp(
                    norm * rho_mantissa ** l * decay
                    * laguerre([states[i].N - l - 1 for i in ladder], 2 * l + 1, rho),
                    norm_exponent + l * rho_exponent)
            values[ladder] = np.where(decay == 0.0, 0.0, value)
    return values


def expectation_r2(state: QuantumState) -> float:
    """<r^2> = (5 N^2 + 1 - 3 l (l+1)) / (2 beta^2), in closed form."""
    N, l = state.N, state.l
    return (5 * N * N + 1 - 3 * l * (l + 1)) / (2.0 * state.scale.beta ** 2)


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
