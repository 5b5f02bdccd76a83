"""The forms on float64 arrays of p, and the CSV that `table` writes from them.

Every `FORM_EVALUATORS` entry takes an array of p as well as a float.
The array must give what the same entry gives point by point, including
at p = +-0, +-1e-300, +-inf, NaN, |p / hbar beta| = 1e154 (`Q_CAP`) and
above, and where the values are subnormal.  `table` evaluates its grid in
one such call and writes it in blocks; its records must keep the format of
one record per point.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmomentum.cli import CSV_BLOCK_ROWS, EXIT_OK, main
from hmomentum.forms import FORM_EVALUATORS, Q_CAP, podolsky_pauling_G
from hmomentum.hydrogenic import PhysicalScale, QuantumState

REL_TOL = 1e-14
SMALLEST_NORMAL = 2.2250738585072014e-308


def assert_array_matches_points(form, state, p):
    evaluator = FORM_EVALUATORS[form]
    values = evaluator(state, p)
    points = np.array([evaluator(state, float(x)) for x in p])
    assert values.shape == p.shape
    assert values.dtype == np.complex128
    nan = np.isnan(points)
    np.testing.assert_array_equal(np.isnan(values), nan)
    peak = np.max(np.abs(points[~nan]), initial=0.0)
    assert np.all(np.abs(values[~nan] - points[~nan]) <= REL_TOL * peak)
    return values


@st.composite
def cases(draw):
    N = draw(st.integers(1, 200))
    l = draw(st.integers(0, N - 1))
    hbar_beta = 10.0 ** draw(st.floats(-3.0, 3.0))
    q = draw(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=12))
    special = [0.0, math.inf, -math.inf, math.nan, 3e154 * hbar_beta, -1e300,
               -0.0, 1e-300, -1e-300, Q_CAP * hbar_beta]
    p = np.array(special + [x * hbar_beta for x in q])
    return QuantumState(N, l, PhysicalScale(1.0, hbar_beta)), p


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases(), st.sampled_from(sorted(FORM_EVALUATORS)))
def test_array_equals_point_by_point(case, form):
    state, p = case
    if form == "podolsky_pauling":  # defined for p >= 0 only
        p = p[~(p < 0)]
    values = assert_array_matches_points(form, state, p)
    assert np.all(np.isnan(values[np.isnan(p)]))  # NaN in, NaN out


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(140, 193), st.data())
def test_lombardi_ogilvie_subnormal(N, data):
    """|alpha| is subnormal here; the last scaling step must round once."""
    l = data.draw(st.integers(124, N - 1))
    state = QuantumState(N, l)
    p = np.linspace(-3.0, 3.0, 61)
    assert_array_matches_points("lombardi_ogilvie", state, p)


def test_lombardi_ogilvie_subnormal_values_present():
    """The range of the test above does reach subnormal |alpha|."""
    values = FORM_EVALUATORS["lombardi_ogilvie"](QuantumState(160, 130),
                                                np.linspace(-3.0, 3.0, 61))
    assert 0 < np.max(np.abs(values)) < SMALLEST_NORMAL


def test_scalar_in_scalar_out():
    state = QuantumState(3, 1)
    for form, evaluator in FORM_EVALUATORS.items():
        value = evaluator(state, 0.7)
        assert isinstance(value, complex) and np.ndim(value) == 0, form


def test_podolsky_pauling_rejects_negative_entry():
    with pytest.raises(ValueError):
        podolsky_pauling_G(QuantumState(3, 1), np.array([0.0, 1.0, -1e-300]))


def read_table(capsys, *argv):
    assert main(["table", *argv]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.endswith("\n")
    lines = text.split("\n")[:-1]
    assert lines[0] == "p,re,im,abs2"
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


@pytest.mark.parametrize("argv,min_subnormal", [
    (("lombardi_ogilvie", "60", "59", "--pmin", "0", "--pmax", "10", "--count", "2001"), 300),
    (("trig", "120", "100", "--pmin", "0", "--pmax", "100", "--count", "2001"), 150),
])
def test_table_records(capsys, argv, min_subnormal):
    """One row per grid point; abs2 is exactly the square of |re + i im|."""
    rows = read_table(capsys, *argv)
    assert rows.shape == (2001, 4)
    np.testing.assert_array_equal(rows[:, 0], np.linspace(float(argv[4]), float(argv[6]), 2001))
    for p, re, im, abs2 in rows.tolist():
        modulus = abs(complex(re, im))
        assert abs2 == modulus * modulus, p
    subnormal = (rows[:, 3] > 0) & (rows[:, 3] < SMALLEST_NORMAL)
    assert subnormal.sum() >= min_subnormal


def test_table_spans_several_blocks(capsys):
    count = 2 * CSV_BLOCK_ROWS + 3
    rows = read_table(capsys, "trig", "3", "1", "--pmin", "-7", "--pmax", "5",
                      "--count", str(count))
    assert rows.shape == (count, 4)
    np.testing.assert_array_equal(rows[:, 0], np.linspace(-7.0, 5.0, count))
    expect = FORM_EVALUATORS["trig"](QuantumState(3, 1), rows[:, 0])
    np.testing.assert_array_equal(rows[:, 1], expect.real)
    np.testing.assert_array_equal(rows[:, 2], expect.imag)
