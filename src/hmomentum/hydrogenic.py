"""Position-space hydrogenic radial states and their analytic machinery.

Radial wave functions R_{Nl}, `sqrt_ratio` for every normalization, and
the closed-form <r^2>, <p^2> expectation values.  It imports only `specfun`
from the package: the check of G against <p^2> lives in `verification`.

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


def sqrt_ratio(num: int, den: int) -> tuple[float, int]:
    """(m, e) with m 2^e = sqrt(num / den), m in [1/2, 1) correctly rounded,
    for positive integers of any size: the integer root r of the quotient
    scaled by 4^k to at least 2^111 has 56 bits or more, and with its last
    bit set where a step dropped a remainder (a sticky bit) it rounds as the
    exact root does."""
    k = (113 - num.bit_length() + den.bit_length()) // 2
    q, rem = divmod(num << 2 * k, den) if k >= 0 else divmod(num, den << -2 * k)
    r = math.isqrt(q)
    m, e = math.frexp(float(r | (rem > 0 or r * r < q)))
    return m, e - k


def _groups(keys) -> dict:
    """{key: the indices where it occurs}, in order of first occurrence."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _normalization(state: QuantumState) -> tuple[float, int]:
    """N_{Nl} as (m, e): N_{Nl}^2 = 4 beta^3 / (N perm(N+l, 2l+1)), beta = num / den exactly."""
    N, l = state.N, state.l
    num, den = state.scale.beta.as_integer_ratio()
    return sqrt_ratio(4 * num ** 3, N * math.perm(N + l, 2 * l + 1) * den ** 3)


def normalization_constant(state: QuantumState) -> float:
    """Normalization N_{Nl} = (2 beta)^{3/2} sqrt((N-l-1)! / (2N (N+l)!)), correctly rounded.

    Raises ValueError where N_{Nl} is not a normal double (at beta = 1,
    for l = N - 1 from N = 151 on, or at beta far from 1).
    """
    m, e = _normalization(state)
    if not sys.float_info.min_exp <= e <= sys.float_info.max_exp:
        raise ValueError(f"N_{{Nl}} of (N={state.N}, l={state.l}) at beta={state.scale.beta:g} "
                         f"is not a normal double")
    return math.ldexp(m, e)


def radial_wavefunction(state: QuantumState, r):
    """R_{Nl}(r) = N_{Nl} e^{-rho/2} rho^l L_{N-l-1}^{2l+1}(rho), rho = 2 beta r.

    Normalized so that the integral of R^2 r^2 dr over (0, inf) is 1.
    r is a float or a float64 array; the value is real, of r's shape.
    N_{Nl} and rho^l leave the double range at large l where R does not
    (N_{151,150} is 5e-310, and rho^149 overflows from rho = 117), so
    the powers of 2 of both apply in one last step.  R is 0 wherever
    e^{-rho/2} is, r = inf included, although L may overflow there, and
    at r = nan it is the nan of e^{-rho/2}, whose sign no other row moves.
    """
    return _radial_stack([state], 2.0 * state.scale.beta * r)[0]


def _radial_stack(states, rho) -> np.ndarray:
    """np.stack([radial_wavefunction(s, rho / 2 beta) for s in states]) at rho >= 0,
    bit for bit: one Laguerre recurrence per l up to its largest N, all its rows
    scaled at once by their own N_{Nl}, and the functions of rho shared by every l."""
    if np.min(rho) < 0:
        raise ValueError(f"rho = 2 beta r must be >= 0, got {np.min(rho)}")
    values = np.empty((len(states),) + np.shape(rho))
    rho_mantissa, rho_exponent = np.frexp(rho)
    decay = np.exp(-rho / 2.0)
    for l, ladder in _groups(s.l for s in states).items():
        norm, norm_exponent = (np.reshape(x, (-1,) + (1,) * np.ndim(rho)) for x in
                               zip(*[_normalization(states[i]) for i in ladder]))
        with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf where decay is 0
            value = np.ldexp(
                norm * rho_mantissa ** l * decay
                * laguerre([states[i].N - l - 1 for i in ladder], 2 * l + 1, rho),
                norm_exponent.astype(np.int32) + l * rho_exponent)  # int32: ldexp's fast loop
        values[ladder] = np.where(decay > 0.0, value, decay)
    return values


def expectation_r2(state: QuantumState) -> float:
    """<r^2> = (5 N^2 + 1 - 3 l (l+1)) / (2 beta^2), in closed form."""
    N, l = state.N, state.l
    return (5 * N * N + 1 - 3 * l * (l + 1)) / (2.0 * state.scale.beta ** 2)


def expectation_p2(state: QuantumState) -> float:
    """<p^2> = (hbar beta)^2, in closed form: at a common beta every R_{Nl} has
    the energy -hbar^2 beta^2 / 2m, and the virial theorem gives <p^2> = -2m E.
    0.0, the nearest double, below hbar beta = 2.2e-162.  Raises OverflowError
    naming the state and hbar beta where it is past the largest double, from
    1.35e154 on."""
    value = state.scale.momentum * state.scale.momentum
    if value == math.inf:
        raise OverflowError(f"<p^2> of (N={state.N}, l={state.l}) at hbar beta = "
                            f"{state.scale.momentum:g} is past the largest double")
    return value
