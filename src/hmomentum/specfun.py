"""Orthogonal polynomials evaluated by stable recurrences.

Generalized Laguerre polynomials, Gegenbauer polynomials, and the
`ladder` that runs a three-term recurrence of many orders in one pass.
The spherical Bessel functions are `transform._spherical_bessel`.

Polynomials are evaluated with three-term recurrences rather than their
explicit alternating sums, which become unstable at high degree.  All
functions here are pure and thread-safe.
"""

from __future__ import annotations

import functools

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


def ladder(degrees, orders, steps, shape) -> np.ndarray:
    """The values of a three-term recurrence in the degree at each pair
    (degrees[i], orders[i]), stacked along a new first axis, from one pass
    over a block with a row of `shape` per distinct order.  Each row starts
    from 0 and 1 at degrees -1 and 0, and steps(column, prev, cur, k, stop)
    takes the rows of the orders `column` from degree k (cur, and prev at
    k - 1) to stop, returning (prev, cur) there.  The rows are sorted by the
    largest degree asked of them, and each stretch of steps takes only the
    rows not yet at theirs, so that every row stops at its own degree, and
    every value is that of its order's pass alone."""
    tops = {}
    for n, order in zip(degrees, orders):
        tops[order] = max(n, tops.get(order, 0))
    rows = sorted(tops, key=tops.get, reverse=True)
    column = np.array(rows).reshape((-1,) + (1,) * len(shape))
    prev, cur = np.zeros((len(rows),) + shape), np.ones((len(rows),) + shape)
    kept, k, active = {0: cur}, 0, len(rows)
    for stop in sorted(set(degrees) - {0}):
        while tops[rows[active - 1]] < stop:
            active -= 1
        prev, cur = steps(column[:active], prev[:active], cur[:active], k, stop)
        kept[stop], k = cur, stop
    row = {order: i for i, order in enumerate(rows)}
    return np.array([kept[n][row[order]] for n, order in zip(degrees, orders)])


def _gegenbauer_steps(x, lam, prev, cur, start, stop):
    """(C_{stop-1}, C_stop) from (C_{start-1}, C_start), both of order lam, at x."""
    for k in range(start + 1, stop + 1):
        prev, cur = cur, (2.0 * (k + lam - 1) * x * cur - (k + 2 * lam - 2) * prev) / k
    return prev, cur


def gegenbauer_C(n, lam, x):
    """Gegenbauer polynomial C_n^lambda(x) by the standard recurrence
    k C_k = 2(k+lambda-1) x C_{k-1} - (k+2 lambda-2) C_{k-2}, C_0 = 1, C_1 = 2 lambda x,
    at a float or array x, for lam >= 1; for a list n and a list lam of
    integers, of the same length, the C_{n_i}^{lam_i}(x) of one `ladder`."""
    degrees, orders = (n, lam) if isinstance(n, list) else ((n,), (lam,))
    if min(degrees) < 0:
        raise ValueError(f"gegenbauer degree must be >= 0, got {min(degrees)}")
    if min(orders) < 1:
        raise ValueError(f"gegenbauer order must be >= 1, got {min(orders)}")
    if isinstance(n, list):
        return ladder(n, lam, functools.partial(_gegenbauer_steps, x), np.shape(x))
    return _gegenbauer_steps(x, lam, 1.0, 2.0 * lam * x, 1, n)[1] if n else 1.0
