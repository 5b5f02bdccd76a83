"""Position-space hydrogenic radial states and their analytic machinery.

Radial wave functions R_{Nl}, `sqrt_ratio` for every normalization, and
the closed-form <r^2>, <p^2> expectation values.  It imports only `specfun`
from the package, and numpy from `_numpy`: the check of G against <p^2>
lives in `verification`.  `PhysicalScale` and `QuantumState` are frozen
`__slots__` values (`_Frozen`), printed and compared as dataclasses are.

Scaled units (hbar = 1, beta = 1) are the default.
"""

from __future__ import annotations

import functools
import math
import operator

from ._numpy import np
from .specfun import laguerre


class _Frozen:
    """The fields of a subclass's `__slots__`, set once by its `__init__`: equal
    and hashed as their tuple, printed and refused assignment as in a frozen
    dataclass, and pickled and copied through `__init__`."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = map("{}={!r}".format, self.__slots__, self._values())
        return f"{self.__class__.__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return self.__class__, self._values()


class PhysicalScale(_Frozen):
    """Physical scale of a hydrogenic state: action unit and inverse length.

    The momentum scale of the state is hbar * beta; for hydrogen it is
    Z mu c alpha / N.  The default fixes hbar = beta = 1.  Any other real
    (a numpy scalar, an int) is kept as its float, so that no lower precision
    or promotion follows it into the forms; one whose float is 0 or inf
    raises ValueError.
    """

    __slots__ = __match_args__ = ("hbar", "beta")

    def __init__(self, hbar: float = 1.0, beta: float = 1.0):
        object.__setattr__(self, "hbar", float(hbar))
        object.__setattr__(self, "beta", float(beta))
        if not (0 < self.hbar < math.inf and 0 < self.beta < math.inf):
            raise ValueError(f"hbar and beta must be positive and finite "
                             f"as floats, got hbar={hbar}, beta={beta}")

    @property
    def momentum(self) -> float:
        """The momentum scale hbar * beta."""
        return self.hbar * self.beta


class QuantumState(_Frozen):
    """Bound hydrogenic state (N, l) with its physical scale.  N and l are kept
    as Python ints (`operator.index`: a numpy integer is taken, a float raises
    TypeError); a scale that is not a PhysicalScale raises TypeError."""

    __slots__ = __match_args__ = ("N", "l", "scale")

    def __init__(self, N: int, l: int, scale: PhysicalScale = PhysicalScale()):
        object.__setattr__(self, "N", operator.index(N))
        object.__setattr__(self, "l", operator.index(l))
        object.__setattr__(self, "scale", scale)
        if self.N < 1:
            raise ValueError(f"principal quantum number must be >= 1, got {self.N}")
        if not 0 <= self.l <= self.N - 1:
            raise ValueError(f"orbital quantum number must satisfy 0 <= l <= N-1, "
                             f"got l={self.l}, N={self.N}")
        if not isinstance(scale, PhysicalScale):
            raise TypeError(f"scale must be a PhysicalScale, got {type(scale).__name__}")


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
    0.0, the nearest double, below hbar beta = 2^-537.5 = 1.5717e-162, and
    5e-324 just above it (at 1.6e-162 and 2.1e-162, say).  Raises OverflowError
    naming the state and hbar beta where it is past the largest double, from
    1.35e154 on."""
    value = state.scale.momentum * state.scale.momentum
    if value == math.inf:
        raise OverflowError(f"<p^2> of (N={state.N}, l={state.l}) at hbar beta = "
                            f"{state.scale.momentum:g} is past the largest double")
    return value
