"""The CSV formatter of `table` and `plot` against '%.17g', byte for byte."""

import math
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hmomentum import cli


def percent(block: np.ndarray) -> str:
    """The rows of `block` as the % operator formats them."""
    row = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return row * block.shape[0] % tuple(block.ravel().tolist())


def assert_formats(values, columns: int = 1) -> None:
    rows = -(-len(values) // columns)
    block = np.array((list(values) * columns)[:rows * columns]).reshape(rows, columns)
    assert cli._format_block(block) == percent(block)


def ties() -> list:
    """Doubles m / 2^k, m odd, whose exact decimal value m 5^k / 10^k has
    18 significant digits, the last a 5: ties at 17 digits, rounded to the
    even 17th digit, up or down.  Their scaled values take no rounding,
    so only the margin sends them to '%'."""
    found = [123456789012345.125]
    for k in range(2, 26):
        low, high = -(-10 ** 17 // 5 ** k), (10 ** 18 - 1) // 5 ** k
        for m in {low, low + 2, low + 4, (low + high) // 2, high - 2, high}:
            if m % 2 and low <= m <= high and m < 2 ** 53:
                found.append(m / 2 ** k)
    return found


def edges() -> list:
    """Zeros, subnormals, the largest double, every power of 10 and its
    neighbours, and the %g switches at 1e-5/1e-4 and 1e16/1e17."""
    tiny = [5e-324, 1.5e-323, 1e-320, 1e-310, 2.2250738585072009e-308,
            2.2250738585072014e-308, 1.7976931348623157e308]
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    switches = [1e-5, 1e-4, 9.99999999999999955e-5, 1e16, 1e17, 99999999999999990.0,
                1e16 - 2, 1e16 + 2, 123456789012345678.0, 0.5, 1.0, 0.1]
    around = [math.nextafter(x, direction) for x in powers + switches + tiny
              for direction in (0.0, math.inf)]
    values = [0.0] + tiny + powers + switches + [x for x in around if x < math.inf]
    return values + [-x for x in values]


# Raw 64-bit patterns of finite doubles, and hypothesis' own floats, which
# favour zeros, subnormals and the ends of the range.
finite_doubles = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]).filter(math.isfinite),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(finite_doubles, min_size=1, max_size=40), st.integers(1, 4))
def test_bit_patterns(values, columns):
    assert_formats(values, columns)


def test_edges():
    assert_formats(edges(), 4)


def test_ties():
    found = ties()
    assert len(found) >= 20
    assert_formats(found, 2)


def test_ties_need_the_margin(monkeypatch):
    """With no margin the fast path rounds each tie half up, so the ties
    whose 17th digit is even come out one too high."""
    block = np.array(ties())[:, None]
    monkeypatch.setattr(cli, "_MARGIN", 0.0)
    wrong = cli._format_block(block)
    assert wrong != percent(block)
    assert wrong.startswith("123456789012345.13\n")


def near_ties() -> list:
    """Doubles x = M 2^k, none a tie, whose exact y = x 10^j, j = 16 - E,
    lies within 1e-12 of a rounding boundary m + 1/2.  With 10^j 2^k = a / b
    in lowest terms, M = R a^-1 mod b puts the fraction of y at R / b, next to
    1/2.  Where b is below the range of the 53-bit M, R is taken at distances
    from 1e-12 down to 1e-16, so that `_decimal` takes some of them and flags
    the others; past it M is unique, and R is tried next to b/2."""
    found = []
    for j in range(-30, 30):
        k = math.floor(math.log2(1e16 / 10.0 ** j)) - 52  # y spans [1e16, 2e16)
        c = Fraction(10) ** j * Fraction(2) ** k
        a, b = c.numerator, c.denominator
        low = max(2 ** 52, math.ceil(10 ** 16 / c))
        if b < 10 ** 12 or low >= 2 ** 53:
            continue  # no y within 1e-12 of m + 1/2 but the ties
        free = b < 2 ** 53 - low
        offsets = ([round(sign * distance * b) for sign in (1, -1)
                    for distance in (1e-12, 1e-13, 2e-14, 1e-14, 5e-15, 1e-16)]
                   if free else range(-300, 300))
        inverse = pow(a, -1, b)
        for offset in offsets:
            m = (b // 2 + offset) * inverse % b
            if free:
                m += (low - m + b - 1) // b * b  # the least such M >= low
            y = m * c
            distance = abs(y - math.floor(y) - Fraction(1, 2))
            if low <= m < 2 ** 53 and 0 < distance <= Fraction(1, 10 ** 12):
                found.append(math.ldexp(m, k))
    return found


def test_near_ties():
    """Values that are not ties but lie within 1e-12 of one format as '%'
    does, on the fast path, past the margin, and through '%', inside it."""
    found = near_ties()
    assert len(found) >= 100
    near = cli._decimal(np.array(found))[2]
    assert near.any() and not near.all()
    assert_formats(found + [-x for x in found], 3)


def test_powers_correctly_rounded():
    """The error bound of `_decimal` rests on its table: for every E,
    2^a_E 10^E is in [1, 2); head is P_E = 10^(16-E) 2^-a_E correctly
    rounded and rest is P_E - head correctly rounded, so that head + rest is
    within 2^-106 P_E of P_E; the Veltkamp halves of head have 26 bits each
    and sum to it."""
    shifts, heads, highs, lows, rests = cli._format_tables()[0]
    assert shifts.dtype == np.int32
    for e, a, head, high, low, rest in zip(range(cli._MIN_EXP - 1, cli._MAX_EXP + 2),
                                           shifts.tolist(), heads, highs, lows, rests):
        assert 1 <= Fraction(2) ** a * Fraction(10) ** e < 2, e
        power = Fraction(10) ** (16 - e) / Fraction(2) ** a
        assert abs(Fraction(head) - power) <= Fraction(np.spacing(head)) / 2, e
        rest_error = abs(Fraction(rest) - (power - Fraction(head)))
        assert rest_error <= Fraction(np.spacing(abs(rest))) / 2, e
        assert abs(Fraction(head) + Fraction(rest) - power) <= power / 2 ** 106, e
        assert high + low == head, e
        assert all(math.ldexp(math.frexp(half)[0], 26).is_integer() for half in (high, low)), e
