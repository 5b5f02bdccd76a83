"""Closed-form momentum-space families and their changes of variables.

The trigonometric, Gegenbauer and script-D expansions and the
Lombardi-Ogilvie family are one polynomial in w = 1 / (1 - i q), q = p / hbar
beta, and the Podolsky-Pauling family is one Gegenbauer ladder in q.  Each
family has one array evaluator, its stack (`_kernel_stack`, `_pp_stack`: many
states of any scales at q, one pass with a row per l, in blocks of BLOCK_POINTS).
One state at an array p is its stack of one at q = p / hbar beta, and at a
float p it takes Python scalars (`_hypergeometric_kernel`).  The verification
suites compare the kernel against the paper's literal sums, evaluated exactly
in integers (`verification.exact_gegenbauer`, `verification.exact_lombardi_ogilvie`).
Also here: the maximal-l shapes.

Phase convention: the Gegenbauer route takes sin(gamma) (D^1 + i C^1) =
e^{i (n+1) gamma}, regular at gamma = 0, so that it equals the trigonometric
route term by term (sin(gamma) (C^1 + i D^1) is i times its conjugate).
"""

from __future__ import annotations

import cmath
import functools
import math
import operator

from ._numpy import np
from .hydrogenic import PhysicalScale, QuantumState, sqrt_ratio
from .specfun import _gegenbauer_steps, gegenbauer_C, ladder


_LOG2, _BELOW_1 = math.log(2.0), 1.0 - 2.0 ** -53  # log 2, the largest double below 1
_Q_CAP = 1e300  # G is 0 from q = _Q_CAP on at any scale; q is lowered to it, so q is finite
# ldexp of any double by n is 0 or +-inf, as at +-_LDEXP_CAP, past |n| = _LDEXP_CAP.
_LDEXP_CAP = 2200


def _ldexp_exponent(n):
    """The int64 exponents n as int32, for ldexp's fast loop, clipped first to
    +-_LDEXP_CAP, so that no n wraps and ldexp's value is the same."""
    return np.clip(n, -_LDEXP_CAP, _LDEXP_CAP).astype(np.int32)


# The prefactors below are ratios of factorials.  (N+l)!/(N-l-1)! =
# perm(N+l, 2l+1) and (2l+1)!/(l+1)! = perm(2l+1, l) multiply out only the
# factors that do not cancel, and the powers of 2 are shifts.


@functools.lru_cache(maxsize=4096)
def _b0(N: int, l: int, beta: float) -> tuple[float, int]:
    """b_0 = a_0, the first expansion coefficient, as (m, e), beta = num / den exactly:
    b_0^2 2 beta = (N+l)! 4^{l+2} (l+1)!^2 / ((N-l-1)! 2N (2l+1)!^2)."""
    num, den = beta.as_integer_ratio()
    return sqrt_ratio(math.perm(N + l, 2 * l + 1) * den << (2 * l + 2),
                      N * math.perm(2 * l + 1, l) ** 2 * num)


@functools.lru_cache(maxsize=4096)
def _c0(l: int) -> tuple[float, int]:
    """c_0 = (l+1)! / (2l+1)!, the first Lombardi-Ogilvie coefficient, as (m, e)."""
    return sqrt_ratio(1, math.perm(2 * l + 1, l) ** 2)


# Points per block of the stacks: each recurrence step runs over one
# block at a time, so that its temporaries stay small for a large grid.
BLOCK_POINTS = 8192


def _polynomial_steps(z, one_minus_z, l, prev, cur, start, stop):
    """(F_{stop-1}, F_stop) from (F_{start-1}, F_start), F_n = 2F1(-n, l+2; 2l+2; z)."""
    b, c = l + 2, 2 * l + 2
    for m in range(start, stop):
        prev, cur = cur, ((2 * m + c - (b + m) * z) * cur - m * one_minus_z * prev) / (c + m)
    return prev, cur


def _z(q):
    """z = 2w = 2 / (1 - i q) of the 2F1 of `_polynomial_steps`, at q."""
    d = 1.0 + q * q
    return 2.0 / d + 1j * (2.0 * q / d)


def _in_blocks(q, rows, count, dtype) -> np.ndarray:
    """rows(block) of `count` states on q flattened, BLOCK_POINTS at a time,
    stacked as (count,) + q.shape."""
    flat = q.reshape(-1)
    values = np.empty((count, flat.size), dtype=dtype)
    for start in range(0, flat.size, BLOCK_POINTS):
        values[:, start:start + BLOCK_POINTS] = rows(flat[start:start + BLOCK_POINTS])
    return values.reshape((count,) + q.shape)


def _q(state: QuantumState, p) -> np.ndarray:
    """q = p / hbar beta of an array p, +-inf where it overflows, which every form takes."""
    with np.errstate(over="ignore"):
        return np.asarray(p, dtype=float) / state.scale.momentum


def _hypergeometric_kernel(N: int, l: int, q: float, m, e) -> complex:
    """m 2^e w^{l+2} 2F1(-n, l+2; 2l+2; 2w), w = 1/(1 - i q), n = N-l-1, at a float q.

    The polynomial runs Gauss's contiguous relation in the degree
    (DLMF 15.5.11 with a = -m), forward from F_0 = 1:
    (c+m) F_{m+1} = (2m + c - (b+m) z) F_m - m (1-z) F_{m-1}, with
    b = l+2, c = 2l+2, z = 2w.  Unlike the explicit alternating sum it
    does not cancel at large n.  The recurrence uses only operators, so
    q stays a Python scalar through it, and the tail is `math` and `cmath`.
    w^{l+2} = cos^{l+2}(theta) e^{i (l+2) theta}, theta = arctan q, is one
    exponential, log(1 + q^2) = 2 log|q| where q^2 overflows; its powers of 2 and
    e scale the value last, in one correctly rounded step, so that no factor under-
    or overflows on its own and subnormal values are still the nearest doubles.
    `_kernel_stack` runs the same steps on arrays, for many states.
    """
    b, z = l + 2, _z(q)
    cur = _polynomial_steps(z, 1.0 - z, l, 0.0, 1.0, 0, N - l - 1)[1]
    log_abs = -0.5 * b * (math.log1p(q * q) if q * q < math.inf else 2.0 * math.log(abs(q)))
    if not log_abs > -math.inf:  # NaN q, or inf q where w^{l+2} is 0
        return complex(math.exp(log_abs))
    shift = math.floor(log_abs / _LOG2)
    value = cmath.exp((log_abs - shift * _LOG2) + 1j * (b * math.atan(q))) * cur * m
    # math.ldexp raises OverflowError past the double range, which the
    # value cannot reach: |alpha| <= 1, and |psi| <= M (2 beta)^{-1/2},
    # where M, the peak at l = N-1, grows as N^{1/4} (12 at N = 400, 21 at
    # N = 4000), so |psi| < 1e163 at any beta >= 5e-324.
    return math.ldexp(value.real, shift + e) + 1j * math.ldexp(value.imag, shift + e)


def psi_trig(state: QuantumState, p):
    """Momentum wave function of the trigonometric expansion.

    p is a float or a float64 array; the value is complex, of p's shape.

    psi = sum_t b_t e^{i k theta} cos^k(theta), k = l+t+2,
    theta = arctan(p / hbar beta), with b_t = a_t the Gegenbauer-expansion
    coefficients (`verification.gegenbauer_coefficients`).  Since
    e^{i theta} cos(theta) = w, the sum is b_0 w^{l+2} 2F1(-n, l+2; 2l+2; 2w)
    and is evaluated so, with b_0 correctly rounded (`_b0`).  The Gegenbauer and
    script-D expansions are the same function, term by term, because
    sin(gamma) (D^1 + i C^1)(cos gamma) = e^{i (n+1) gamma}.  Defined
    for any real p; psi(-p) = conj(psi(p)).  A float p takes the Python-scalar
    `_hypergeometric_kernel`, which rounds differently from an array p, the
    stack of one state `_kernel_stack([state], p / hbar beta)[0]`.
    """
    if type(p) is not float:
        return _kernel_stack([state], _q(state, p))[0]
    N, l = state.N, state.l
    return _hypergeometric_kernel(N, l, p / state.scale.momentum, *_b0(N, l, state.scale.beta))


def _lombardi_ogilvie_kernel(state: QuantumState, p):
    """Lombardi-Ogilvie alpha as (-1)^l c_0 conj(w)^{l+2} 2F1(-n, l+2; 2l+2; 2 conj(w)).

    Its z = i hbar beta / (p - i hbar beta) is -conj(w), and
    c_k = (-1)^k c_0 (-n)_k (l+2)_k 2^k / ((2l+2)_k k!) with
    c_0 = (l+1)!/(2l+1)!.  conj(w) is w at -p.  p is a float or an array,
    as for `psi_trig`.
    """
    if type(p) is not float:
        return _kernel_stack([state], _q(state, p), lombardi_ogilvie=True)[0]
    N, l = state.N, state.l
    value = _hypergeometric_kernel(N, l, -p / state.scale.momentum, *_c0(l))
    return -value if l % 2 else value


def _kernel_stack(states, q, lombardi_ogilvie: bool = False) -> np.ndarray:
    """psi_trig, or `_lombardi_ogilvie_kernel`, of each state at q = p / hbar beta,
    stacked along a new first axis (`_in_blocks`): one kernel pass with a row per
    distinct l, each row stopped at its largest degree N-l-1, the rung of each state
    kept at its degree, and one scaling m 2^e w^{l+2} of all the rows with each state's (m, e),
    as in `_hypergeometric_kernel`.  Each value depends on its own state and q alone."""
    degrees, ls = [s.N - s.l - 1 for s in states], [s.l for s in states]
    m, e = zip(*[_c0(s.l) if lombardi_ogilvie else _b0(s.N, s.l, s.scale.beta)
                 for s in states])
    l, m, e = (np.reshape(x, (-1, 1)) for x in (ls, m, e))

    def rows(q):
        q = -q if lombardi_ogilvie else q
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # q^2 overflows, inf q
            # q as a row, so that (1 - z) F broadcasts over no missing axis: numpy then takes
            # the same complex product for any block, one point included.
            z = _z(q.reshape(1, -1))
            cur = ladder(degrees, ls, functools.partial(_polynomial_steps, z, 1.0 - z), q.shape)
            log_abs = -0.5 * (l + 2) * np.where(q * q < np.inf, np.log1p(q * q), 2 * np.log(abs(q)))
            regular = log_abs > -np.inf  # NaN q, or inf q where w^{l+2} is 0
            shift = np.floor(np.where(regular, log_abs, 0.0) / _LOG2).astype(np.int64)
            value = np.exp((log_abs - shift * _LOG2) + 1j * ((l + 2) * np.arctan(q))) * cur * m
            n = _ldexp_exponent(shift + e)
            value = np.ldexp(value.real, n) + 1j * np.ldexp(value.imag, n)
            value = np.where(regular, value, np.exp(log_abs))
        return np.where(l % 2 == 1, -value, value) if lombardi_ogilvie else value

    return _in_blocks(np.asarray(q, dtype=float), rows, len(states), complex)


# pi to 36 digits, as num / den: within 1e-36 of pi, far inside the prefactor's rounding.
_PI = (314159265358979323846264338327950288, 10 ** 35)


@functools.lru_cache(maxsize=4096)
def _pp_prefactor(N: int, l: int, momentum: float) -> tuple[float, int]:
    """2^{5/2} 2^l l! sqrt((N-l-1)! N / (pi (N+l)!)) (hbar beta)^{-3/2}, hbar beta = num / den,
    as (m, e), m correctly rounded (`sqrt_ratio`)."""
    num, den = momentum.as_integer_ratio()
    return sqrt_ratio((N * math.factorial(l) ** 2 << (2 * l + 5)) * _PI[1] * den ** 3,
                      math.perm(N + l, 2 * l + 1) * _PI[0] * num ** 3)


def _pp_factors(q, xp):
    """(x, c, b, i, k) at a finite q >= 0 in `xp` (math or numpy): x = (1-q^2)/(1+q^2), and
    (1+q^2)^{-2} (2q/(1+q^2))^l = c^2 b^l 2^{i + l k}.  q >= 1 is r 2^s: 2^{2s}/(1+q^2) =
    1/(2^{-2s} + r^2) is in range.  b is in (1/2, 1], so b^l >= (2q/(1+q^2))^l, at any l."""
    s = xp.frexp(q)[1] * (q >= 1)
    r = xp.ldexp(q, -s)
    c2 = 1.0 / (xp.ldexp(1.0, -2 * s) + r * r)
    (c, j), v = xp.frexp(c2), 2.0 * r * c2
    k = xp.frexp(v * _BELOW_1)[1]  # v = b 2^k, b in (1/2, 1]: 1, not 1/2, at a power of 2
    return 2.0 * xp.ldexp(c2, -2 * s) - 1.0, c, xp.ldexp(v, -k), 2 * (j - 2 * s), k - s


def podolsky_pauling_G(state: QuantumState, p):
    """Podolsky-Pauling radial momentum function G_{Nl}(p), p >= 0.

    G = (2 hbar beta)^{5/2} Gamma(l+1) sqrt((N-l-1)! N / (pi (N+l)!))
        (4 hbar beta p)^l / (hbar^2 beta^2 + p^2)^{l+2}
        C^{l+1}_{N-l-1}((hbar^2 beta^2 - p^2) / (hbar^2 beta^2 + p^2)),
    evaluated in q = p / hbar beta as
    `_pp_prefactor` (1+q^2)^{-2} (2q/(1+q^2))^l C^{l+1}_{N-l-1}((1-q^2)/(1+q^2)).

    Normalized so that int_0^inf G^2 p^2 dp = 1.  p is a float, taken in Python floats, or a
    float64 array (`_pp_stack`).  As in R, each factor is a mantissa and a power of 2, applied
    last (`_pp_factors`); past the largest double a float p raises OverflowError, an array inf.
    """
    if p < 0 if type(p) is float else (np.asarray(p) < 0).any():
        raise ValueError(f"Podolsky-Pauling G requires p >= 0, "
                         f"got {p if type(p) is float else np.min(p)}")
    if type(p) is not float:
        return _pp_stack([state], _q(state, p))[0]
    N, l, q = state.N, state.l, min(p / state.scale.momentum, _Q_CAP)
    (m, e), (x, c, b, i, k) = _pp_prefactor(N, l, state.scale.momentum), _pp_factors(q, math)
    C = _gegenbauer_steps(x, l + 1, 0.0, 1.0, 0, N - l - 1)[1]
    return math.ldexp(m * c * c * b ** l * C, e + i + l * k)


def _pp_stack(states, q) -> np.ndarray:
    """`podolsky_pauling_G` of each state at q = p / hbar beta >= 0, stacked along a new first
    axis (`_in_blocks`), with one Gegenbauer pass, a row per lambda = l+1, and b^l per l."""
    degrees, orders = [s.N - s.l - 1 for s in states], [s.l + 1 for s in states]
    m, e, l = (np.reshape(v, (-1, 1)) for v in zip(
        *[(*_pp_prefactor(s.N, s.l, s.scale.momentum), s.l) for s in states]))

    def rows(q):
        x, c, b, i, k = _pp_factors(q, np)
        power = {n: b ** n for n in {s.l for s in states}}
        with np.errstate(over="ignore", invalid="ignore"):  # C, or G (then inf), past the range
            C = gegenbauer_C(degrees, orders, x)
            return np.ldexp(m * c * c * np.array([power[s.l] for s in states]) * C,
                            _ldexp_exponent(e + i + l * k))

    q = np.minimum(np.asarray(q, dtype=float), _Q_CAP)
    if (q < 0).any():
        raise ValueError(f"Podolsky-Pauling G requires q >= 0, got {np.min(q)}")
    return _in_blocks(q, rows, len(states), float)


def _power(x: np.ndarray, n: int):
    """(m, e) with x ** n = m 2^e, m in [1/2, 1] or 0, for x >= 0 and an integer
    n, |n| <= 2^51 + 2: the powers of 2 of x are summed apart in int64, and the
    rest is base ** n in one step for |n| <= 256, past that (base^{+-256})^{|n| // 256}
    by squaring, then times base^{rest}, each product renormalized: O(log n) steps."""
    base, e = np.frexp(x)
    step = 256 if n > 0 else -256
    chunks = n // step if abs(n) > 256 else 0
    m, k = 1.0, np.int64(0)
    for bit in f"{chunks:b}":  # binary digits, the highest first
        m, shift = np.frexp(m * m * (base ** step if bit == "1" else 1.0))
        k = 2 * k + shift
    m, shift = np.frexp(m * base ** (n - chunks * step))
    return m, n * e.astype(np.int64) + k + shift


# The largest N of the maximal-l shapes: past it `_power`'s n e could leave int64.
MAX_SHAPE_N = 2 ** 50


def distribution_max_l(form: str, N: int, p,
                       scale: PhysicalScale = PhysicalScale()):
    """Unnormalized maximal-l (l = N-1) momentum density shapes.

    "PP": (4 hbar beta p)^{2(N-1)} / (hbar^2 beta^2 + p^2)^{2(N+1)},
    defined for p >= 0.  "LO": 1 / (hbar^2 beta^2 + p^2)^{N+1}, for any real p.  p is a
    float or a float64 array, and N is read as `QuantumState` reads it (`operator.index`).
    hbar beta and p are scaled into [0, 1] by one power of 2, kept apart with the powers of 2
    that `_power` takes out, so only the value itself can leave the double range: it is 0
    where it underflows (PP at p = 0 for N >= 2, and at p = inf), and raises ValueError where
    it overflows, or for N past MAX_SHAPE_N.
    """
    if not 1 <= (N := operator.index(N)) <= MAX_SHAPE_N:
        raise ValueError(f"N must be in [1, 2^50], got {N}")
    p = np.asarray(p, dtype=float)
    if form == "PP":
        if (p < 0).any():
            raise ValueError("PP density is defined for p >= 0")
        power, inverse = 2 * (N - 1), 2 * (N + 1)
    elif form == "LO":
        power, inverse = 0, N + 1
    else:
        raise ValueError(f"unknown distribution form {form!r}")
    p = np.abs(p)
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
# entry takes a float or a float64 array of p and returns complex values: at a
# float p a Python complex, which keeps the sign of a zero G, as complex128 does.
FORM_EVALUATORS = {
    "trig": psi_trig,
    "gegenbauer": psi_trig,
    "script_D": psi_trig,
    "lombardi_ogilvie": _lombardi_ogilvie_kernel,
    "podolsky_pauling": lambda state, p: (complex if type(p) is float else np.complex128)(
        podolsky_pauling_G(state, p)),
}
