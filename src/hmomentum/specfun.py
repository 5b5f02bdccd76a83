"""Special functions evaluated by stable recurrences.

Factorials and binomials, generalized Laguerre polynomials, Gegenbauer
polynomials, the order-1 Gegenbauer function of the second kind, and the
spherical Bessel functions j_0, ..., j_L.

Polynomials are evaluated with three-term recurrences rather than their
explicit alternating sums, which become unstable at high degree.  All
functions here are pure and thread-safe.
"""

from __future__ import annotations

import math

import numpy as np

def factorial(n: int) -> int:
    """n! as an exact integer.

    Raises:
        ValueError: if n is negative or not integral.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"factorial requires a nonnegative integer, got {n!r}")
    return math.factorial(int(n))


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b); zero for b < 0 or b > a."""
    if a != int(a) or a < 0:
        raise ValueError(f"binomial requires a >= 0, got a={a!r}")
    if b != int(b):
        raise ValueError(f"binomial requires integer b, got b={b!r}")
    a, b = int(a), int(b)
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def laguerre(n: int, alpha: int, x):
    """Generalized Laguerre polynomial L_n^alpha(x) by three-term recurrence.

    The recurrence (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}
    is stable in the direction of increasing degree.  x is a float or a
    float64 array; the value has x's shape.
    """
    if n < 0:
        raise ValueError(f"laguerre degree must be >= 0, got {n}")
    if alpha < 0:
        raise ValueError(f"laguerre index must be >= 0, got {alpha}")
    if n == 0:
        return np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    prev = 1.0
    cur = 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def gegenbauer_C(n: int, lam: float, x: float) -> float:
    """Gegenbauer polynomial C_n^lambda(x) by the standard recurrence.

    n C_n = 2(n+lambda-1) x C_{n-1} - (n+2 lambda-2) C_{n-2}.
    """
    if n < 0:
        raise ValueError(f"gegenbauer degree must be >= 0, got {n}")
    if lam < 1:
        raise ValueError(f"gegenbauer order must be >= 1, got {lam}")
    if n == 0:
        return 1.0
    prev = 1.0
    cur = 2.0 * lam * x
    for k in range(2, n + 1):
        prev, cur = cur, (2.0 * (k + lam - 1) * x * cur - (k + 2 * lam - 2) * prev) / k
    return cur


def gegenbauer_D1(n: int, x):
    """Order-1 Gegenbauer function of the second kind, D_n^1(x).

    Evaluated through the trigonometric identity
    D_n^1(cos theta) = cos((n+1) theta) / sin(theta) with theta = arccos(x).
    Singular at the interval endpoints, hence |x| < 1 strictly.  x is a
    float or a float64 array; the value has x's shape.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if not np.all((-1.0 < x) & (x < 1.0)):
        raise ValueError(f"D_n^1 requires |x| < 1, got x={x}")
    theta = np.arccos(x)
    return np.cos((n + 1) * theta) / np.sin(theta)


def spherical_bessel_j_orders(max_l: int, x) -> np.ndarray:
    """j_0(x), ..., j_{max_l}(x) for x >= 0, a float or a float64 array,
    stacked along a new first axis.

    One upward recurrence from j_0 and j_1, on one sin and one cos of x,
    gives order l where x >= l + 1; below that, where it loses digits,
    order l takes the power series of DLMF 10.53.1, which has no zero there.
    """
    if max_l < 0:
        raise ValueError(f"order must be >= 0, got {max_l}")
    x = np.asarray(x, dtype=float)
    values = np.empty((max_l + 1,) + x.shape)
    flat, xf = values.reshape(max_l + 1, -1), x.ravel()
    for l in range(max_l + 1):
        series = xf < l + 1
        xs = xf[series]
        term, total, k = np.ones_like(xs), np.ones_like(xs), 0
        while np.any(np.abs(term) > 1e-17 * total):
            k += 1
            term = term * -0.5 * xs * xs / (k * (2 * l + 2 * k + 1))
            total = total + term
        flat[l, series] = total * np.prod([xs / (2 * k + 1) for k in range(1, l + 1)], axis=0)
    upward = ~(xf < 1)
    xu = xf[upward]
    prev = np.sin(xu)
    cur = prev / (xu * xu) - np.cos(xu) / xu
    prev /= xu
    flat[0, upward] = prev
    for l in range(1, max_l + 1):
        if l > 1:
            prev, cur = cur, (2 * l - 1) / xu * cur - prev
        # Each order needs only the x at or above its series region.
        keep = ~(xu < l + 1)
        upward[upward] = keep
        xu, prev, cur = xu[keep], prev[keep], cur[keep]
        flat[l, upward] = cur
    return values
