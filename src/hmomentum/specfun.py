"""Orthogonal polynomials evaluated by stable recurrences.

Generalized Laguerre and Gegenbauer polynomials, each one steps function, and
`ladder`, the one loop that keeps recurrence rungs, running a family's steps for
many orders in one pass.  Spherical Bessel functions: `transform._spherical_bessel`.

Polynomials are evaluated with three-term recurrences rather than their
explicit alternating sums, which become unstable at high degree.  All
functions here are pure and thread-safe.
"""

from __future__ import annotations

import functools

from ._numpy import np


def _laguerre_steps(x, alpha, prev, cur, start, stop):
    """(L_{stop-1}, L_stop) from (L_{start-1}, L_start), both of index alpha, at x."""
    for k in range(start, stop):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return prev, cur


def laguerre(degrees, orders, x):
    """Generalized Laguerre polynomials L_{n_i}^{alpha_i}(x) of equal-length lists
    n and alpha >= 0, stacked, from one `ladder` at a float or float64 array x.
    (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1} is stable upward."""
    if min(degrees) < 0:
        raise ValueError(f"laguerre degree must be >= 0, got {min(degrees)}")
    if min(orders) < 0:
        raise ValueError(f"laguerre index must be >= 0, got {min(orders)}")
    return ladder(degrees, orders, functools.partial(_laguerre_steps, x), np.shape(x))


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
    if len(degrees) != len(orders):
        raise ValueError(f"one order per degree, got {len(degrees)} and {len(orders)}")
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


def gegenbauer_C(degrees, orders, x):
    """Gegenbauer polynomials C_{n_i}^{lambda_i}(x) of equal-length lists n and
    lambda >= 1, stacked, from one `ladder` at a float or float64 array x, by
    k C_k = 2(k+lambda-1) x C_{k-1} - (k+2 lambda-2) C_{k-2}."""
    if min(degrees) < 0:
        raise ValueError(f"gegenbauer degree must be >= 0, got {min(degrees)}")
    if min(orders) < 1:
        raise ValueError(f"gegenbauer order must be >= 1, got {min(orders)}")
    return ladder(degrees, orders, functools.partial(_gegenbauer_steps, x), np.shape(x))
