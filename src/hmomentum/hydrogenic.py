"""Position-space hydrogenic radial states and their analytic machinery.

Radial wave functions R_{Nl}, `sqrt_ratio` for every normalization, and
the closed-form <r^2>, <p^2> expectation values.  It imports only `specfun`
from the package, and numpy from `_numpy`: the check of G against <p^2>
lives in `verification`.

Scaled units (hbar = 1, beta = 1) are the default.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

from ._numpy import np
from .specfun import laguerre


@dataclass(frozen=True)
class PhysicalScale:
    """Physical scale of a hydrogenic state: action unit and inverse length.

    The momentum scale of the state is hbar * beta; for hydrogen it is
    Z mu c alpha / N.  The default fixes hbar = beta = 1.  Any other real
    (a numpy scalar, an int) is kept as its float, so that no lower precision
    or promotion follows it into the forms; one whose float is 0 or inf
    raises ValueError.
    """

    hbar: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        hbar, beta = float(self.hbar), float(self.beta)
        if not (0 < hbar < math.inf and 0 < beta < math.inf):
            raise ValueError(f"hbar and beta must be positive and finite "
                             f"as floats, got hbar={self.hbar}, beta={self.beta}")
        object.__setattr__(self, "hbar", hbar)
        object.__setattr__(self, "beta", beta)

    @property
    def momentum(self) -> float:
        """The momentum scale hbar * beta."""
        return self.hbar * self.beta


@dataclass(frozen=True)
class QuantumState:
    """Bound hydrogenic state (N, l) with its physical scale.  N and l are kept
    as Python ints (`operator.index`: a numpy integer is taken, a float raises
    TypeError)."""

    N: int
    l: int
    scale: PhysicalScale = field(default_factory=PhysicalScale)

    def __post_init__(self):
        object.__setattr__(self, "N", operator.index(self.N))
        object.__setattr__(self, "l", operator.index(self.l))
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


def _normalization(state: QuantumState) -> tuple[float, int]:
    """N_{Nl} as (m, e): N_{Nl}^2 = 4 beta^3 / (N perm(N+l, 2l+1)), beta = num / den
    exactly, kept per process (`_normalization_of`)."""
    return _normalization_of(state.N, state.l, state.scale.beta)


@functools.lru_cache(maxsize=4096)
def _normalization_of(N: int, l: int, beta: float) -> tuple[float, int]:
    """`_normalization` of the state (N, l) at beta."""
    num, den = beta.as_integer_ratio()
    return sqrt_ratio(4 * num ** 3, N * math.perm(N + l, 2 * l + 1) * den ** 3)


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
    bit for bit: one `laguerre` pass with a row per l, stopped at its largest N,
    rho^l once per l, each state's own N_{Nl}, and the functions of rho, and the
    rho where e^{-rho/2} is 0 or nan, shared by every state."""
    if np.any(rho < 0):
        raise ValueError(f"rho = 2 beta r must be >= 0, got {np.min(rho)}")
    ls = [s.l for s in states]
    rho_mantissa, rho_exponent = np.frexp(rho)
    decay = np.exp(-rho / 2.0)
    power = {l: rho_mantissa ** l for l in set(ls)}  # numpy rounds an array of l otherwise
    norm, norm_exponent, l_column = (np.reshape(x, (-1,) + (1,) * np.ndim(rho)) for x in
                                     (*zip(*map(_normalization, states)), ls))
    # norm rho^l decay L in place (a double product commutes): all-row temporaries fault pages
    values = np.array([power[l] for l in ls])
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf where decay is 0
        values *= norm
        values *= decay
        values *= laguerre([s.N - s.l - 1 for s in states], [2 * l + 1 for l in ls], rho)
        np.ldexp(values, norm_exponent.astype(np.int32) + l_column.astype(np.int32) * rho_exponent,
                 out=values)  # int32: ldexp's fast loop
    np.copyto(values, decay, where=~(decay > 0.0))
    return values


def expectation_r2(state: QuantumState) -> float:
    """<r^2> = (5 N^2 + 1 - 3 l (l+1)) / (2 beta^2) as a quotient of integers, beta =
    num / den exactly, correctly rounded: 0.0 where it underflows, and OverflowError
    naming the state and beta past the largest double (beta < 1.3e-154 at N = 1)."""
    N, l = state.N, state.l
    num, den = state.scale.beta.as_integer_ratio()
    try:
        return (5 * N * N + 1 - 3 * l * (l + 1)) * den * den / (2 * num * num)
    except OverflowError:
        raise OverflowError(f"<r^2> of (N={N}, l={l}) at beta = {state.scale.beta:g} "
                            f"is past the largest double") from None


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
