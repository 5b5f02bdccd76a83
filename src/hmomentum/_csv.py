"""The CSV digits of `table` and `plot`, byte for byte as '%.17g' formats
them (`_format_block`), from |x| 10^(16-E) as a double-double (`_decimal`),
so neither the bytes nor the speed depend on the platform's long double.
`cli` binds this module lazily (`_numpy.lazy`): only a CSV runs it, and with
it `transform`, its one import from the package besides `_numpy`.
"""

import functools
import math

from ._numpy import np
from .transform import _rounded

# The near-tie margin of `_decimal`, absolute, in units of the last digit.
_MARGIN = 2.0 ** -46
# Decimal exponents of doubles, subnormals included.
_MIN_EXP, _MAX_EXP = -324, 308
# Veltkamp's splitter 2^27 + 1: c x - (c x - x) is x rounded to 26 bits.
_SPLITTER = 134217729.0


@functools.lru_cache(maxsize=1)
def _format_tables():
    """The tables of `_decimal` and `_format_block`, built on the first
    call so that an import does not pay for them.  At index E - _MIN_EXP + 1
    (E one past either end included): the int32 shift a_E = -floor(E log2 10),
    so that 2^a_E 10^E is in [1, 2), and P_E = 10^(16-E) 2^-a_E, in
    (5e15, 1e16], as head, the head's Veltkamp halves of 26 bits each, and
    rest: head is P_E correctly rounded and rest is P_E - head correctly
    rounded (`transform._rounded`), so |head + rest - P_E| <= 2^-106 P_E.
    Then the 4 ASCII digits of 0..9999 in one uint32 each; the suffixes
    'e-324'..'e+308', NUL-padded in one uint64 each, and last 0."""
    exponents = np.arange(_MIN_EXP - 1, _MAX_EXP + 2)
    shifts = (-np.floor(exponents * math.log2(10))).astype(np.int32)
    # P_E = 5^(16-E) 2^(16-E-a_E): 5^(16-E) correctly rounded, and its rest, scaled.
    fives = [1]  # 5^0 .. 5^(17 - _MIN_EXP)
    while len(fives) < 18 - _MIN_EXP:
        fives.append(5 * fives[-1])
    head, rest = np.ldexp(np.array([_rounded(fives[16 - e], 1) if e <= 16 else
                                    _rounded(1, fives[e - 16])
                                    for e in exponents.tolist()]).T,
                          16 - exponents - shifts)
    split = _SPLITTER * head
    high = split - (split - head)
    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)  # digits[a, b, c, d] = "abcd"
    for place in range(4):
        digits[..., place] = np.arange(ord("0"), ord("9") + 1).reshape((10,) + (1,) * (3 - place))
    quads = digits.view(np.uint32).ravel()
    suffixes = [b"e%+03d" % e for e in range(_MIN_EXP, _MAX_EXP + 1)] + [b""]
    suffixes = np.array(suffixes, dtype="S8").view(np.uint64)
    powers = shifts, head, high, head - high, rest
    return powers, quads, suffixes


def _product(magnitude: np.ndarray, i: np.ndarray):
    """(yh, yl), yh + yl = y = magnitude 10^(16-E), with E = i + _MIN_EXP - 1:
    xs = magnitude 2^a_E is exact, subnormals included, and Dekker's
    TwoProduct splits xs head into yh = fl(xs head) and its exact error, to
    which xs rest is added (`_decimal` bounds the error of yl)."""
    shift, head, high, low, rest = (column.take(i) for column in _format_tables()[0])
    xs = np.ldexp(magnitude, shift)  # int32: ldexp's fast loop
    yh = xs * head
    xh = xs * _SPLITTER
    xl = xh - xs
    xh -= xl  # the high 26 bits of xs
    np.subtract(xs, xh, out=xl)
    xs *= rest
    yl = xh * high
    yl -= yh
    xh *= low
    yl += xh
    high *= xl
    yl += high
    xl *= low
    yl += xl
    yl += xs
    return yh, yl


def _decimal(x: np.ndarray):
    """(D, E, near) for the finite float64 array x: |x| = D 10^(E-16)
    rounded to 17 digits, 10^16 <= D < 10^17 (D = E = 0 at 0), and where
    D may be off, so that '%' must format x.

    y = |x| 10^(16-E) is (yh, yl) (`_product`), yh an integer-valued double,
    as is every double past 2^53, and D = yh + floor(yl + 1/2).  With
    y < 1.01e17 and each rounding within 2^-53 of its result, yh + yl is
    within 2^-106 y of the exact y from rest's rounding, 2^-106 y from that
    of xs rest, and 2^-105 y from the sum yl (|yl| <= 2^-52 y); yl + 1/2 adds
    2^-105 y + 2^-54, and its fraction, exact where yl + 1/2 >= 0, 2^-54.  In
    all, 1.5 2^-104 y + 2^-53 < 7.6e-15, so D is right unless the fraction of
    yl + 1/2 lies within that of 0, the rounding boundary m + 1/2 of y;
    _MARGIN, 1.4e-14, flags such values, exact ties included.
    """
    magnitude = np.abs(x)
    zero = magnitude == 0
    magnitude[zero] = 1.0  # D = E = 0 below
    i = np.floor(np.log10(magnitude)).astype(np.intp) - (_MIN_EXP - 1)
    yh, yl = _product(magnitude, i)
    # log10 of a double next to a power of 10 may round to the wrong side:
    # the sign of y - bound is that of (yh - bound) + yl, where yh - bound is
    # exact or far from 0.
    for bound, step in ((1e16, -1), (1e17, 1)):
        off = yh - bound + yl
        wrong = np.flatnonzero(off < 0 if step < 0 else off >= 0)
        if wrong.size:
            i[wrong] += step
            yh[wrong], yl[wrong] = _product(magnitude[wrong], i[wrong])
    yl += 0.5
    d = np.floor(yl)
    yl -= d  # the fraction of yl + 1/2
    d = yh.astype(np.int64) + d.astype(np.int64)
    near = np.abs(yl - 0.5) > 0.5 - _MARGIN
    e = i + (_MIN_EXP - 1)
    top = d == 10 ** 17  # y rounded up to the next decade
    d[top] = 10 ** 16
    e += top
    d[zero] = e[zero] = 0
    return d, e, near


def _format_block(block: np.ndarray) -> str:
    """The rows of the finite float64 array `block` as CSV lines, every
    value byte for byte as '%.17g' formats it.

    '%' formats the values `_decimal` finds near a rounding boundary, in
    one call for the block.  The %g rules lay out the others in a slot of
    bytes: the sign; "0000" and the 17 digits, with the point after digit
    E (fixed notation, for -4 <= E < 17) or after the first (scientific);
    the exponent suffix; the separator.  Every byte that %g drops (a
    leading or trailing zero, the point of a whole number) is NUL, and one
    pass over the text removes them.  The slots are held one row per byte
    position, so that every numpy call runs over the whole block.
    """
    quads, suffixes = _format_tables()[1:]
    x = block.reshape(-1)
    n = len(x)
    d, e, near = _decimal(x)

    # "0000" and the 17 digits of d, from 4-digit groups, between NUL rows.
    groups = np.empty((5, n), dtype=np.intp)  # d0, d1-d4, ..., d13-d16
    for row, unit in enumerate((10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4)):
        np.floor_divide(d, unit, out=groups[row])
        d = d - groups[row] * unit
    groups[4] = d
    padded = np.zeros((23, n), dtype=np.uint8)
    padded[1] = ord("0")
    padded[2:22].reshape(5, 4, n)[:] = (
        quads[groups].view(np.uint8).reshape(5, n, 4).transpose(0, 2, 1))
    text = padded[1:22]  # text[4 + j] is digit j

    # The body is the text with the point after text[point]; the bytes
    # body[first:last + 1] are kept: from the units digit to the last
    # nonzero digit, or to the units digit where no such digit follows it.
    fixed = (-4 <= e) & (e < 17)
    shift = np.where(fixed, e, 0).astype(np.int8)
    point, first = shift + np.int8(4), np.minimum(shift, 0) + np.int8(4)
    nonzero = (text[4:] != ord("0")).view(np.uint8)
    last = np.max(nonzero * np.arange(17, dtype=np.uint8)[:, None], axis=0).astype(np.int8)
    last += np.int8(4)  # in the text; digit 0 where d = 0
    last = np.where(last > point, last + np.int8(1), point)

    slots = np.empty((29, n), dtype=np.uint8)
    slots[0] = np.signbit(x) * np.uint8(ord("-"))
    body = slots[1:23]
    before, after = padded[1:], padded[:-1]  # text[i], and text[i - 1]
    position = np.arange(22, dtype=np.int8)[:, None]
    np.subtract(before, after, out=body)
    body *= (position <= point).view(np.uint8)
    body += after
    body.reshape(-1)[(point + 1).astype(np.intp) * n + np.arange(n)] = ord(".")
    body *= ((position >= first) & (position <= last)).view(np.uint8)
    suffix = suffixes[np.where(fixed, -1, e - _MIN_EXP)]
    slots[23:28] = suffix.view(np.uint8).reshape(n, 8)[:, :5].T
    slots[28].reshape(block.shape)[:] = [ord(",")] * (block.shape[1] - 1) + [ord("\n")]

    redo = np.flatnonzero(near)
    if redo.size:
        exact = ("%.17g " * redo.size % tuple(x[redo].tolist())).split()
        slots[:28, redo] = np.array(exact, dtype="S28").view(np.uint8).reshape(-1, 28).T
    return slots.T.tobytes().translate(None, b"\0").decode("ascii")
