"""The stack evaluators that `verify` calls: many states at once, each row
bit for bit its state's own call.  `_kernel_stack` runs one recurrence
pass per scale, with a row per distinct l; `_radial_stack` one pass per
(l, scale)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmomentum.forms import _kernel_stack, _lombardi_ogilvie_kernel, psi_trig
from hmomentum.hydrogenic import (
    PhysicalScale,
    QuantumState,
    _radial_stack,
    radial_wavefunction,
)

Q_SPECIAL = [0.0, 1e-300, -1e-300, 1e154, -1e154, math.inf, -math.inf, math.nan]
RHO_SPECIAL = [0.0, 1e-300, 1e200, math.inf]


def lombardi_ogilvie_stack(states, p):
    return _kernel_stack(states, p, lombardi_ogilvie=True)


def assert_rows_equal(stack, single, states, x):
    values = stack(states, x)
    assert values.shape == (len(states),) + x.shape
    for row, state in zip(values, states):
        assert np.array_equal(row, single(state, x), equal_nan=True), (state.N, state.l)


def radial_rows_equal(states, r):
    """As assert_rows_equal, for the states whose N_{Nl} is a normal double;
    the stack of any other state raises as its own call does."""
    good = []
    for state in states:
        try:
            radial_wavefunction(state, r)
            good.append(state)
        except ValueError:
            with pytest.raises(ValueError):
                _radial_stack([state], r)
    if good:
        assert_rows_equal(_radial_stack, radial_wavefunction, good, r)


@st.composite
def stacks(draw):
    """One to six ladders (l, scale), each of a few N up to its N_max <= 200,
    repeats allowed, rows shuffled; hbar beta log-uniform in [1e-3, 1e3].  A
    ladder may take an earlier ladder's scale, so that ladders of several l,
    with different top degrees, share one kernel pass."""
    states, scales = [], []
    for _ in range(draw(st.integers(1, 6))):
        reuse = draw(st.integers(0, len(scales)))
        if reuse == len(scales):
            scales.append(PhysicalScale(1.0, 10.0 ** draw(st.floats(-3.0, 3.0))))
        scale = scales[reuse]
        N_max = draw(st.integers(1, 200))
        l = draw(st.integers(0, N_max - 1))
        Ns = draw(st.lists(st.integers(l + 1, N_max), max_size=5)) + [N_max]
        states += [QuantumState(N, l, scale) for N in Ns]
    q = draw(st.lists(st.floats(-1e3, 1e3), max_size=10))
    return draw(st.permutations(states)), np.array(Q_SPECIAL + q)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(stacks())
def test_rows_are_the_single_calls(case):
    states, q = case
    momentum = states[0].scale.momentum
    p = q * momentum
    assert_rows_equal(_kernel_stack, psi_trig, states, p)
    assert_rows_equal(lombardi_ogilvie_stack, _lombardi_ogilvie_kernel, states, p)
    radial_rows_equal(states, np.abs(np.array(RHO_SPECIAL + list(q))) / (2.0 * momentum))


@pytest.mark.parametrize("beta", [1e-3, 1.0, 7.0])
def test_large_states(beta):
    """The top of the ladders and of N_{Nl}: (150, 149), (200, 3), (171, 0)."""
    scale = PhysicalScale(1.0, beta)
    states = [QuantumState(N, l, scale) for N, l in
              [(150, 149), (200, 3), (149, 149 - 1), (171, 0), (3, 3 - 1), (120, 3), (1, 0)]]
    p = np.array(Q_SPECIAL + [3.2e-3, 0.3, 1.0, 40.0]) * scale.momentum
    assert_rows_equal(_kernel_stack, psi_trig, states, p)
    assert_rows_equal(lombardi_ogilvie_stack, _lombardi_ogilvie_kernel, states, p)
    rho = np.array(RHO_SPECIAL + [1e-3, 0.5, 3.0, 117.0, 400.0, 1400.0])
    radial_rows_equal(states, rho / (2.0 * beta))


def test_negative_r_rejected():
    with pytest.raises(ValueError):
        _radial_stack([QuantumState(2, 0)], np.array([1.0, -1e-3]))
