"""Closed-form momentum-space families and their changes of variables.

The trigonometric, Gegenbauer and script-D expansions and the
Lombardi-Ogilvie family are one polynomial in w = hbar beta /
(hbar beta - i p), evaluated by one recurrence kernel (`psi_trig`,
`_lombardi_ogilvie_kernel`; `_kernel_stack` takes many states, one pass
per l).  The verification suites compare the kernel against the paper's
literal sums, evaluated exactly in integers (`verification.exact_gegenbauer`,
`verification.exact_lombardi_ogilvie`).
Also here: the Podolsky-Pauling family and the maximal-l distribution
shapes.

Phase convention: the Gegenbauer route takes sin(gamma) (D^1 + i C^1) =
e^{i (n+1) gamma}, regular at gamma = 0, so that it equals the trigonometric
route term by term (sin(gamma) (C^1 + i D^1) is i times its conjugate).
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .hydrogenic import PhysicalScale, QuantumState
from .specfun import gegenbauer_C


_LOG2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)


def _log_ratio(num: int, den: int) -> float:
    """log(num / den) for positive integers of any size, to about an ulp.

    Unlike a difference of two lgamma values of order N log N, it does
    not lose the digits that the difference cancels.  The quotient, scaled
    by 2^-shift into [1/sqrt 2, sqrt 2), is correctly rounded.  At shift 0
    the log is log1p of (num - den) / den, also correctly rounded, so that
    a ratio near 1 keeps its digits; otherwise |shift log 2| is more than
    twice |log mantissa|, and their sum cancels at most one bit.
    """
    shift = num.bit_length() - den.bit_length()
    # int / int is correctly rounded; the shift keeps the quotient in (1/2, 2).
    mantissa = num / (den << shift) if shift >= 0 else (num << -shift) / den
    if mantissa >= _SQRT2:
        mantissa, shift = 0.5 * mantissa, shift + 1
    elif mantissa * _SQRT2 < 1.0:
        mantissa, shift = 2.0 * mantissa, shift - 1
    if shift == 0:
        return math.log1p((num - den) / den)
    return math.log(mantissa) + shift * _LOG2


# The prefactors below are ratios of factorials.  (N+l)!/(N-l-1)! =
# perm(N+l, 2l+1) and (2l+1)!/(l+1)! = perm(2l+1, l) multiply out only the
# factors that do not cancel, and the powers of 2 are shifts.


@functools.lru_cache(maxsize=4096)
def _log_b0(N: int, l: int) -> float:
    """log(b_0 sqrt(2 beta)), b_0 = a_0 the first expansion coefficient:
    b_0^2 2 beta = (N+l)! 4^{l+2} (l+1)!^2 / ((N-l-1)! 2N (2l+1)!^2)."""
    return 0.5 * _log_ratio(math.perm(N + l, 2 * l + 1) << (2 * l + 3),
                            N * math.perm(2 * l + 1, l) ** 2)


@functools.lru_cache(maxsize=4096)
def _log_c0(l: int) -> float:
    """log c_0 = log((l+1)! / (2l+1)!), the first Lombardi-Ogilvie coefficient."""
    return _log_ratio(1, math.perm(2 * l + 1, l))


def _polynomials(degrees, l: int, q) -> dict:
    """{n: 2F1(-n, l+2; 2l+2; 2w)} for each n in `degrees`, from one forward
    pass of the recurrence (see `_hypergeometric_kernel`)."""
    b, c = l + 2, 2 * l + 2
    d = 1.0 + q * q
    z = 2.0 / d + 1j * (2.0 * q / d)
    prev, cur, kept, start = 0.0, 1.0, {}, 0
    for n in sorted(set(degrees)):
        for m in range(start, n):
            prev, cur = cur, ((2 * m + c - (b + m) * z) * cur - m * (1.0 - z) * prev) / (c + m)
        kept[n], start = cur, n
    return kept


def _hypergeometric_kernel(N, l: int, q, log_scale):
    """e^{log_scale} w^{l+2} 2F1(-n, l+2; 2l+2; 2w), w = 1/(1 - i q), n = N-l-1.

    q is a float or a float64 array; the result is a complex scalar or an
    array of q's shape.  The polynomial runs Gauss's contiguous relation
    in the degree (DLMF 15.5.11 with a = -m), forward from F_0 = 1:
    (c+m) F_{m+1} = (2m + c - (b+m) z) F_m - m (1-z) F_{m-1}, with
    b = l+2, c = 2l+2, z = 2w.  Unlike the explicit alternating sum it
    does not cancel at large n.  The recurrence uses only operators, so
    a float q stays a Python scalar through it, and the tail of one point
    is `math` and `cmath`.  The scale and w^{l+2} = cos^{l+2}(theta)
    e^{i (l+2) theta}, theta = arctan q, share one exponential, so that
    neither under- or overflows on its own; the value is scaled by 2^shift
    last, in one correctly rounded step, so that values in the subnormal
    range are still the nearest doubles.  For a list N (log_scale one per N,
    or one for all), one pass gives them all, stacked.
    """
    b = l + 2
    if type(q) is float and not isinstance(N, list):
        cur = _polynomials([N - l - 1], l, q)[N - l - 1]
        log_abs = log_scale - 0.5 * b * math.log1p(q * q)
        if not log_abs > -math.inf:  # NaN q, or |q| > 1e154 where w^{l+2} is 0
            return complex(math.exp(log_abs))
        shift = math.floor(log_abs / _LOG2)
        value = cmath.exp((log_abs - shift * _LOG2) + 1j * (b * math.atan(q))) * cur
        # math.ldexp raises OverflowError past the double range, which the
        # value cannot reach: |alpha| <= 1, and |psi| <= M (2 beta)^{-1/2},
        # where M, the peak at l = N-1, grows as N^{1/4} (12 at N = 400, 21 at
        # N = 4000), so |psi| < 1e163 at any beta >= 5e-324.
        return math.ldexp(value.real, shift) + 1j * math.ldexp(value.imag, shift)
    degrees = [n - l - 1 for n in N] if isinstance(N, list) else [N - l - 1]
    with np.errstate(over="ignore", invalid="ignore"):  # |q| > 1e154 and inf q
        kept = _polynomials(degrees, l, q)
        cur = kept[degrees[0]]
        if isinstance(N, list):  # the rung 1.0 fills its whole row
            cur = np.empty((len(N),) + np.shape(q), dtype=complex)
            for row, n in enumerate(degrees):
                cur[row] = kept[n]
            log_scale = np.reshape(log_scale, (-1,) + (1,) * np.ndim(q))
        log_abs = log_scale - 0.5 * b * np.log1p(q * q)
        regular = log_abs > -np.inf  # as above
        shift = np.floor(np.where(regular, log_abs, 0.0) / _LOG2).astype(np.int64)
        value = np.exp((log_abs - shift * _LOG2) + 1j * (b * np.arctan(q))) * cur
        value = np.ldexp(value.real, shift) + 1j * np.ldexp(value.imag, shift)
        return np.where(regular, value, np.exp(log_abs))[()]


def psi_trig(state: QuantumState, p):
    """Momentum wave function of the trigonometric expansion.

    p is a float or a float64 array; the value is complex, of p's shape.

    psi = sum_t b_t e^{i k theta} cos^k(theta), k = l+t+2,
    theta = arctan(p / hbar beta), with b_t = a_t the Gegenbauer-expansion
    coefficients (`verification.gegenbauer_coefficients`).  Since
    e^{i theta} cos(theta) = w, the sum is b_0 w^{l+2} 2F1(-n, l+2; 2l+2; 2w)
    and is evaluated so, with log b_0 from exact integers.  The Gegenbauer and
    script-D expansions are the same function, term by term, because
    sin(gamma) (D^1 + i C^1)(cos gamma) = e^{i (n+1) gamma}.  Defined
    for any real p; psi(-p) = conj(psi(p)).  Only the kernel's last rung is
    scaled; `_kernel_stack` gives many states from one pass per l.
    """
    N, l = state.N, state.l
    log_b0 = _log_b0(N, l) - 0.5 * math.log(2.0 * state.scale.beta)
    return _hypergeometric_kernel(N, l, p / state.scale.momentum, log_b0)


def _lombardi_ogilvie_kernel(state: QuantumState, p):
    """Lombardi-Ogilvie alpha as (-1)^l c_0 conj(w)^{l+2} 2F1(-n, l+2; 2l+2; 2 conj(w)).

    Its z = i hbar beta / (p - i hbar beta) is -conj(w), and
    c_k = (-1)^k c_0 (-n)_k (l+2)_k 2^k / ((2l+2)_k k!) with
    c_0 = (l+1)!/(2l+1)!.  conj(w) is w at -p.  p is a float or an array.
    """
    N, l = state.N, state.l
    value = _hypergeometric_kernel(N, l, -p / state.scale.momentum, _log_c0(l))
    return -value if l % 2 else value


def _kernel_stack(states, p, lombardi_ogilvie: bool = False) -> np.ndarray:
    """np.stack([psi_trig(s, p) for s in states]), or of `_lombardi_ogilvie_kernel`,
    bit for bit at a float64 array p: one kernel pass per (l, scale) up to its
    largest N, and one scaling of all its rows.  (At a float p, psi_trig
    runs on Python complex numbers and `cmath`, which round differently.)"""
    values = np.empty((len(states),) + np.shape(p), dtype=complex)
    for l, scale in {(s.l, s.scale) for s in states}:
        ladder = [i for i, s in enumerate(states) if (s.l, s.scale) == (l, scale)]
        N = [states[i].N for i in ladder]
        if lombardi_ogilvie:
            rows = _hypergeometric_kernel(N, l, -p / scale.momentum, _log_c0(l))
            values[ladder] = -rows if l % 2 else rows
        else:
            half_log = 0.5 * math.log(2.0 * scale.beta)
            log_b0 = [_log_b0(n, l) - half_log for n in N]
            values[ladder] = _hypergeometric_kernel(N, l, p / scale.momentum, log_b0)
    return values


# pi to 36 digits, as num / den: inside the ratio, log pi cancels no digits
# where the prefactor is near 0, as at (N, l) = (23, 21) and (24, 22).
_PI = (314159265358979323846264338327950288, 10 ** 35)


@functools.lru_cache(maxsize=4096)
def _pp_log_prefactor(N: int, l: int) -> float:
    """log of 2^{5/2} 2^l l! sqrt((N-l-1)! N / (pi (N+l)!)), the prefactor of the
    Podolsky-Pauling function but for its (hbar beta)^{-3/2}."""
    return 0.5 * _log_ratio((N * math.factorial(l) ** 2 << (2 * l + 5)) * _PI[1],
                            math.perm(N + l, 2 * l + 1) * _PI[0])


# At q = p / hbar beta >= Q_CAP the Podolsky-Pauling function is 0 in
# double precision (given a finite prefactor), and below it 1 + q*q
# is still finite; `_capped` lowers larger q, inf included, to Q_CAP.
Q_CAP = 1e154


def _capped(q):
    """q with every value above Q_CAP lowered to Q_CAP, NaN kept; cheap on floats."""
    return np.minimum(q, Q_CAP) if isinstance(q, np.ndarray) else min(q, Q_CAP)


def _any_negative(p) -> bool:
    """Whether a float, or any entry of an array, is below 0; cheap on floats."""
    negative = p < 0
    return bool(negative.any() if isinstance(negative, np.ndarray) else negative)


def podolsky_pauling_G(state: QuantumState, p):
    """Podolsky-Pauling radial momentum function G_{Nl}(p), p >= 0.

    G = (2 hbar beta)^{5/2} Gamma(l+1) sqrt((N-l-1)! N / (pi (N+l)!))
        (4 hbar beta p)^l / (hbar^2 beta^2 + p^2)^{l+2}
        C^{l+1}_{N-l-1}((hbar^2 beta^2 - p^2) / (hbar^2 beta^2 + p^2)),
    evaluated in q = p / hbar beta as
    e^{log pref} (hbar beta)^{-3/2} (1+q^2)^{-2} (2q/(1+q^2))^l
    C^{l+1}_{N-l-1}((1-q^2)/(1+q^2)).

    Normalized so that int_0^inf G^2 p^2 dp = 1.  p is a float or a
    float64 array; G is 0 from q = Q_CAP on, p = inf included.
    """
    if _any_negative(p):
        raise ValueError(f"Podolsky-Pauling G requires p >= 0, got {np.min(p)}")
    N, l = state.N, state.l
    q = _capped(p / state.scale.momentum)
    c2 = 1.0 / (1.0 + q * q)
    # (hbar beta)^{-3/2} stays out of the exponential, whose rounding grows
    # with the size of its argument.
    return (
        math.exp(_pp_log_prefactor(N, l)) * state.scale.momentum ** -1.5
        * c2 * c2
        * (2.0 * q * c2) ** l
        * gegenbauer_C(N - l - 1, l + 1, 2.0 * c2 - 1.0)
    )


def _power(x: np.ndarray, n: int):
    """(m, e) with x ** n = m 2^e, m in [1/2, 1] or 0, for x >= 0 and an
    integer n: the powers of 2 of x are summed apart, and the rest is
    renormalized every 256 factors, so that no part under- or overflows."""
    base, e = np.frexp(x)
    m, e = 1.0, n * e.astype(np.int64)
    while n:
        k = max(-256, min(256, n))
        m, shift = np.frexp(m * base ** k)
        e, n = e + shift, n - k
    return m, e


def distribution_max_l(form: str, N: int, p,
                       scale: PhysicalScale = PhysicalScale()):
    """Unnormalized maximal-l (l = N-1) momentum density shapes.

    "PP": (4 hbar beta p)^{2(N-1)} / (hbar^2 beta^2 + p^2)^{2(N+1)},
    defined for p >= 0.  "LO": 1 / (hbar^2 beta^2 + p^2)^{N+1}, for any
    real p.  p is a float or a float64 array.  hbar beta and p are scaled
    into [0, 1] by one power of 2, kept apart with the powers of 2 that
    `_power` takes out, so only the value itself can leave the double
    range: it is 0 where it underflows (PP at p = 0 for N >= 2, and at
    p = inf), and raises ValueError where it overflows.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if form == "PP":
        if _any_negative(p):
            raise ValueError("PP density is defined for p >= 0")
        power, inverse = 2 * (N - 1), 2 * (N + 1)
    elif form == "LO":
        power, inverse = 0, N + 1
    else:
        raise ValueError(f"unknown distribution form {form!r}")
    p = np.abs(np.asarray(p, dtype=float))
    pm = scale.momentum
    with np.errstate(over="ignore", invalid="ignore"):  # the value past double range, inf p
        scale_exp = np.frexp(np.maximum(pm, p))[1].astype(np.int64)
        a, b = np.ldexp(pm, -scale_exp), np.ldexp(p, -scale_exp)
        num, num_exp = _power(4.0 * a * b, power)
        den, den_exp = _power(a * a + b * b, -inverse)
        value = np.ldexp(num * den, num_exp + den_exp + 2 * (power - inverse) * scale_exp)
    value = np.where(p == np.inf, 0.0, value)
    if np.isinf(value).any():
        raise ValueError(f"{form} density of N={N} overflows double precision "
                         f"at hbar beta {pm:g}")
    return value[()]


# trig, gegenbauer and script_D are one function (see `psi_trig`).  Every
# entry takes a float or a float64 array of p.
FORM_EVALUATORS = {
    "trig": psi_trig,
    "gegenbauer": psi_trig,
    "script_D": psi_trig,
    "lombardi_ogilvie": _lombardi_ogilvie_kernel,
    "podolsky_pauling": lambda state, p: np.complex128(podolsky_pauling_G(state, p)),
}
