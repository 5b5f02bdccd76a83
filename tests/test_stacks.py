"""The stack evaluators: many states at once, and each family's one array
implementation.  `_kernel_stack` and `_pp_stack` take q = p / hbar beta and
`_radial_stack` takes rho = 2 beta r, so a state's scale enters only through
its prefactor: a stack over states of several scales is, row by row and bit
for bit, each state's stack of one at the same q or rho.  `psi_trig`,
`_lombardi_ogilvie_kernel`, `podolsky_pauling_G` and `radial_wavefunction`
on an array are the stack of their one state at q = p / hbar beta or
rho = 2 beta r.  The kernel stacks run one recurrence pass with a row per
distinct l, each row stopped at its own largest degree, over q in blocks of
BLOCK_POINTS, and each value is the one the stack gives at its point alone;
`_radial_stack` runs one pass per l.  Every row, NaN included, is compared on
its int64 view.
`verification._gram_blocks` gives the Gram matrices of every l from one kernel
pass, and `verification._p2_stack` <p^2> of every state from one ladder, both
at unit scale on one rule in theta = arctan(q)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmomentum.forms import (
    BLOCK_POINTS,
    Q_CAP,
    _kernel_stack,
    _lombardi_ogilvie_kernel,
    _pp_stack,
    podolsky_pauling_G,
    psi_trig,
)
from hmomentum.hydrogenic import PhysicalScale, QuantumState, _radial_stack, radial_wavefunction
from hmomentum.verification import _gram_blocks, _p2_stack

Q_SPECIAL = [0.0, 1e-300, -1e-300, 1e154, -1e154, math.inf, -math.inf, math.nan]
RHO_SPECIAL = [0.0, 1e-300, 1e200, math.inf]


def bits(values):
    """The int64 view of float or complex values, so that signed zeros and NaN payloads count."""
    return np.ascontiguousarray(values).view(np.int64)


def lombardi_ogilvie_stack(states, q):
    return _kernel_stack(states, q, lombardi_ogilvie=True)


KERNEL_STACKS = [(_kernel_stack, psi_trig), (lombardi_ogilvie_stack, _lombardi_ogilvie_kernel)]


def assert_rows_equal(stack, states, x):
    """Each row of `stack` over `states` at x is the stack of its state alone
    at the same x, on the int64 view."""
    values = stack(states, x)
    assert values.shape == (len(states),) + x.shape
    for row, state in zip(values, states):
        assert np.array_equal(bits(row), bits(stack([state], x)[0])), (state.N, state.l)


def assert_public_calls(states, p, r):
    """On the int64 view, each public single-state call on the array p (|p|
    for G) or r is its stack of one at q = p / hbar beta (+-inf where that
    overflows) or rho = 2 beta r."""
    for state in states:
        with np.errstate(over="ignore"):
            q = p / state.scale.momentum
        for stack, single in KERNEL_STACKS:
            assert np.array_equal(bits(single(state, p)), bits(stack([state], q)[0])), (
                state.N, state.l)
        assert np.array_equal(bits(podolsky_pauling_G(state, np.abs(p))),
                              bits(_pp_stack([state], np.abs(q))[0])), (state.N, state.l)
        assert np.array_equal(bits(radial_wavefunction(state, r)),
                              bits(_radial_stack([state], 2.0 * state.scale.beta * r)[0])), (
            state.N, state.l)


@st.composite
def stacks(draw):
    """One to six ladders (l, scale), each of a few N up to its N_max <= 200,
    repeats allowed, rows shuffled; hbar beta log-uniform in [1e-3, 1e3].  A
    ladder may take an earlier ladder's scale, so that ladders of several l
    and scales, with different top degrees, share one kernel pass."""
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
    """Kernel and radial rows are each state's stack of one, and the public
    calls at p = q hbar beta and r = rho / 2 beta of the first state's scale
    are their stacks of one."""
    states, q = case
    for stack, _ in KERNEL_STACKS:
        assert_rows_equal(stack, states, q)
    rho = np.abs(np.array(RHO_SPECIAL + list(q)))
    assert_rows_equal(_radial_stack, states, rho)
    scale = states[0].scale
    assert_public_calls(states, q * scale.momentum, rho / (2.0 * scale.beta))


def ladders(draw, scales):
    """One to five ladders (l, scale) on up to two of `scales`, each of a few
    N up to its N_max <= 200, repeats allowed, rows shuffled."""
    states = []
    for _ in range(draw(st.integers(1, 5))):
        scale = scales[draw(st.integers(0, len(scales) - 1))]
        N_max = draw(st.integers(1, 200))
        l = draw(st.integers(0, N_max - 1))
        Ns = draw(st.lists(st.integers(l + 1, N_max), max_size=4)) + [N_max]
        states += [QuantumState(N, l, scale) for N in Ns]
    return draw(st.permutations(states))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_pp_rows_are_the_single_calls(data):
    """`_pp_stack` rows on their int64 view, so signed zeros count, at q = 0,
    1e-300, Q_CAP (where G is 0), inf and random q >= 0, each the state's
    stack of one."""
    scales = [PhysicalScale(1.0, 10.0 ** data.draw(st.floats(-3.0, 3.0))) for _ in range(2)]
    states = ladders(data.draw, scales[:data.draw(st.integers(1, 2))])
    q = data.draw(st.lists(st.floats(0.0, 1e3), max_size=10))
    assert_rows_equal(_pp_stack, states, np.array([0.0, 1e-300, Q_CAP, math.inf] + q))


def test_blocks_are_the_points_alone():
    """On 2 BLOCK_POINTS + 3 points, so that the last block is short, each
    stack on states of two scales equals, on the int64 view, that stack on
    the points shifted by 3 (every point elsewhere in its block) and, at
    every point within 8 of a block edge and every 64th point, that stack on
    the point's own one-element array (on all 16387 points that loop takes
    about 50 s on one core of a 2-vCPU VM).  The public single-state calls
    on p = q hbar beta of either scale are their stacks of one."""
    scales = [PhysicalScale(1.0, 7.0), PhysicalScale(1e-3, 2.0)]
    states = [QuantumState(N, l, scale) for scale in scales
              for N, l in [(1, 0), (3, 1), (7, 2), (7, 6), (12, 0)]]
    size = 2 * BLOCK_POINTS + 3
    q = np.concatenate([Q_SPECIAL, np.random.default_rng(7).uniform(-1e3, 1e3, size - 8)])
    edges = np.arange(0, size + 1, BLOCK_POINTS)[:, None] + np.arange(-8, 8)
    alone = np.union1d(edges[(edges >= 0) & (edges < size)], np.arange(0, size, 64))
    for stack, x in [(_kernel_stack, q), (lombardi_ogilvie_stack, q), (_pp_stack, np.abs(q))]:
        values = stack(states, x)
        shifted = np.roll(stack(states, np.roll(x, 3)), -3, axis=1)
        assert np.array_equal(bits(values), bits(shifted))
        for i in alone:
            assert np.array_equal(bits(values[:, i]), bits(stack(states, x[i:i + 1])[:, 0])), i
    for scale in scales:
        assert_public_calls(states, q * scale.momentum, np.abs(q) / (2.0 * scale.beta))


def test_one_state_at_a_point_alone():
    """A stack of one state at a one-point array is its value in a longer
    block, on the int64 view: numpy takes the same complex product for a
    block of one row and one point as for any other."""
    q = np.concatenate([Q_SPECIAL, np.random.default_rng(11).uniform(-1e3, 1e3, 120)])
    for N, l in [(12, 0), (40, 3), (200, 5)]:
        state = QuantumState(N, l, PhysicalScale(1.0, 7.0))
        for stack, _ in KERNEL_STACKS:
            values = stack([state], q)[0]
            for i in range(q.size):
                assert np.array_equal(bits(values[i:i + 1]), bits(stack([state], q[i:i + 1])[0])), (
                    N, l, i)


def test_pp_shell_stops_each_row_at_its_degree():
    """The Gegenbauer ladder of a whole N = 400 shell, each row stopped at its own
    degree N - l - 1, raises no overflow (pyproject.toml makes warnings errors) and is
    finite; its rows at l = 0, 1, 133, 398 and 399 are their stacks of one."""
    q = np.concatenate([[0.0], np.logspace(-4.0, 3.0, 57)])
    states = [QuantumState(400, l) for l in range(400)]
    values = _pp_stack(states, q)
    assert np.isfinite(values).all()
    for l in (0, 1, 133, 398, 399):
        assert np.array_equal(bits(values[l]), bits(_pp_stack([states[l]], q)[0])), l


def test_pp_negative_p_rejected():
    with pytest.raises(ValueError):
        _pp_stack([QuantumState(2, 0)], np.array([1.0, -1e-3]))
    with pytest.raises(ValueError, match="requires p >= 0, got -0.007"):
        podolsky_pauling_G(QuantumState(2, 0, PhysicalScale(1.0, 7.0)), np.array([1.0, -7e-3]))


ROW_ORDERS = {"listed": lambda states: states, "reversed": lambda states: states[::-1],
              "shuffled": lambda states: list(np.random.default_rng(29).permutation(states))}


@pytest.mark.parametrize("order", ROW_ORDERS)
@pytest.mark.parametrize("ladder", [[(N, l) for N in range(1, 6) for l in range(N)],
                                    [(N, l) for l in (0, 3, 9) for N in range(l + 1, 41)]])
def test_gram_blocks_are_the_per_l_calls(ladder, order):
    """Every l of these reaches the same largest N, so each block takes the
    node set of the `_gram_blocks` call on its l alone and equals it bit for
    bit, whatever the order of the rows."""
    states = ROW_ORDERS[order]([QuantumState(N, l) for N, l in ladder])
    blocks = _gram_blocks(states)
    assert sorted(blocks) == sorted({l for _, l in ladder})
    for l, block in blocks.items():
        single = _gram_blocks([s for s in states if s.l == l])[l]
        assert all(np.array_equal(a, b) for a, b in zip(block, single)), l


@pytest.mark.parametrize("top", [1, 2, 5, 8, 12])
def test_p2_stack(top):
    """In a stack of every state with N <= top, on one rule of top + 6 nodes,
    each <p^2> / (hbar beta)^2 is 1 to rounding."""
    states = [QuantumState(N, l) for N in range(1, top + 1) for l in range(N)]
    assert np.max(np.abs(_p2_stack(states) - 1.0)) <= 3e-15


@pytest.mark.parametrize("N,l", [(40, 0), (120, 3), (200, 0)])
def test_p2_of_one_large_state(N, l):
    """<p^2> / (hbar beta)^2 of one state of N in the hundreds, from its G alone."""
    assert abs(_p2_stack([QuantumState(N, l)])[0] - 1.0) <= 3e-14


@pytest.mark.parametrize("beta", [1e-3, 1.0, 7.0])
def test_large_states(beta):
    """The top of the ladders and of N_{Nl}: (150, 149), (200, 3), (171, 0)."""
    scale = PhysicalScale(1.0, beta)
    states = [QuantumState(N, l, scale) for N, l in
              [(150, 149), (200, 3), (149, 149 - 1), (171, 0), (3, 3 - 1), (120, 3), (1, 0)]]
    q = np.array(Q_SPECIAL + [3.2e-3, 0.3, 1.0, 40.0])
    for stack, _ in KERNEL_STACKS:
        assert_rows_equal(stack, states, q)
    rho = np.array(RHO_SPECIAL + [1e-3, 0.5, 3.0, 117.0, 400.0, 1400.0])
    assert_rows_equal(_radial_stack, states, rho)
    assert_public_calls(states, q * scale.momentum, rho / (2.0 * beta))


def test_negative_r_rejected():
    with pytest.raises(ValueError):
        _radial_stack([QuantumState(2, 0)], np.array([1.0, -1e-3]))
