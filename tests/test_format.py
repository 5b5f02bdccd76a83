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


def test_powers_correctly_rounded():
    """The margin assumes 10^(16-E) is the nearest value of the extended type."""
    powers = cli._format_tables()[0]
    for e, power in zip(range(cli._MIN_EXP - 1, cli._MAX_EXP + 2), powers):
        error = abs(Fraction(*power.as_integer_ratio()) - Fraction(10) ** (16 - e))
        assert error <= Fraction(*np.spacing(power).as_integer_ratio()) / 2, e

