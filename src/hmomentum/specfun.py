"""Special functions evaluated by stable recurrences.

Generalized Laguerre polynomials, Gegenbauer polynomials and the
spherical Bessel functions j_0, ..., j_L.

Polynomials are evaluated with three-term recurrences rather than their
explicit alternating sums, which become unstable at high degree.  All
functions here are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np


def laguerre(n, alpha: int, x):
    """Generalized Laguerre polynomial L_n^alpha(x) by three-term recurrence.

    The recurrence (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}
    is stable in the direction of increasing degree.  x is a float or a
    float64 array; the value has x's shape.  For a list n, the values of
    one pass come stacked along a new first axis.
    """
    degrees = n if isinstance(n, list) else [n]
    if min(degrees) < 0:
        raise ValueError(f"laguerre degree must be >= 0, got {min(degrees)}")
    if alpha < 0:
        raise ValueError(f"laguerre index must be >= 0, got {alpha}")
    kept = {0: np.ones_like(x) if isinstance(x, np.ndarray) else 1.0, 1: 1.0 + alpha - x}
    prev, cur = 1.0, kept[1]
    for k in range(1, max(degrees)):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
        if k + 1 in degrees:
            kept[k + 1] = cur
    return np.array([kept[k] for k in n]) if isinstance(n, list) else kept[n]


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


def spherical_bessel_j_orders(max_l: int, x) -> np.ndarray:
    """j_0(x), ..., j_{max_l}(x) for x >= 0, a float or a float64 array,
    stacked along a new first axis.

    One upward recurrence from j_0 and j_1, on one sin and one cos of x,
    runs over all x; below x = l + 1, where it loses digits, order l is then
    overwritten by the power series of DLMF 10.53.1, which has no zero
    there.  Those regions are prefixes of one sorted index array.
    """
    if max_l < 0:
        raise ValueError(f"order must be >= 0, got {max_l}")
    x = np.asarray(x, dtype=float)
    values = np.empty((max_l + 1,) + x.shape)
    flat, xf = values.reshape(max_l + 1, -1), x.ravel()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        prev = np.sin(xf)
        cur = prev / (xf * xf) - np.cos(xf) / xf
        prev /= xf
        flat[0] = prev
        for l in range(1, max_l + 1):
            if l > 1:
                prev, cur = cur, (2 * l - 1) / xf * cur - prev
            flat[l] = cur
    small = np.flatnonzero(xf < max_l + 1)
    small = small[np.argsort(xf[small])]
    ends = np.searchsorted(xf[small], np.arange(1, max_l + 2))
    for l in range(max_l + 1):
        series = small[:ends[l]]
        xs = xf[series]
        term, total, k = np.ones_like(xs), np.ones_like(xs), 0
        while np.any(np.abs(term) > 1e-17 * total):
            k += 1
            term = term * -0.5 * xs * xs / (k * (2 * l + 2 * k + 1))
            total = total + term
        flat[l, series] = total * np.prod([xs / (2 * k + 1) for k in range(1, l + 1)], axis=0)
    return values
