"""The crossing search ``_first_crossings`` against one step at a time.

Real rows (SL populations as (B, d, 1) columns, and population maps as
(B, d) rows) take up to ``_CHECK_EVERY`` steps between checks and check
the whole trail of states in one distance call; complex rows check every
step.  Either way each row's (n, distance, previous) must be, bit for
bit, what a search of that row alone gives when it steps and checks one
step at a time, and no row may take more than n_max steps.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ri_thermalizer import simtime
from ri_thermalizer.collisions import population_step_matrix
from ri_thermalizer.models import AncillaSpec, gibbs_populations
from ri_thermalizer.sweeps import MAX_D


def _one_step_at_a_time(step, states, params, distance, epsilons, n_max):
    """The search of each row alone, a step and a check at a time."""
    results = []
    for i, epsilon in enumerate(epsilons):
        state, row = states[i : i + 1], tuple(a[i : i + 1] for a in params)
        n, previous, dist = 0, state, distance(state, row[-1])[0]
        while not dist <= epsilon and n < n_max:
            n, previous, state = n + 1, state, step(state, row)
            dist = distance(state, row[-1])[0]
        results.append((n if dist <= epsilon else None, float(dist), previous[0]))
    return results


def _sl_scan(d, betas):
    """Step, column states, params and distance of SL rows from the
    maximally mixed state."""
    p_as = [AncillaSpec(1.0, beta).ground_population for beta in betas]
    states = np.tile(np.full((d, 1), 1.0 / d), (len(betas), 1, 1))
    return simtime._sl_step(0.01), states, simtime._sl_systems(d, p_as, 1.0), simtime._column_distances


def _map_scan(d, betas, j_tau=0.6):
    """Step, row states, params and distance of population-map rows."""
    ms = np.stack([population_step_matrix(d, AncillaSpec(1.0, beta).ground_population, j_tau) for beta in betas])
    targets = np.stack([gibbs_populations(d, 1.0, beta) for beta in betas])
    p0 = np.linspace(2.0, 1.0, d)
    states = np.tile(p0 / p0.sum(), (len(betas), 1))
    return (lambda s, params: simtime._matvecs(params[0], s)), states, (ms, targets), simtime._population_distances


_SCANS = {"sl": _sl_scan, "map": _map_scan}


def _epsilons(scan, crossings):
    """An epsilon per row on its own distance at the given step, one float
    below (-1), on (0) or above (+1) it; a step of None never crosses."""
    step, states, params, distance = scan
    epsilons = []
    for i, (at, nudge) in enumerate(crossings):
        if at is None:
            epsilons.append(1e-300)
            continue
        row = tuple(a[i : i + 1] for a in params)
        ((_, dist, _),) = _one_step_at_a_time(step, states[i : i + 1], row, distance, [-1.0], at)
        epsilons.append(dist if nudge == 0 else math.nextafter(dist, nudge * math.inf))
    return epsilons


def _assert_same_bits(got, expected):
    assert len(got) == len(expected)
    for (n, dist, previous), (n_ref, dist_ref, previous_ref) in zip(got, expected):
        assert n == n_ref and type(n) is type(n_ref)
        assert np.float64(dist).tobytes() == np.float64(dist_ref).tobytes()
        assert previous.shape == previous_ref.shape and previous.tobytes() == previous_ref.tobytes()


def _search(kind, d, betas, crossings, n_max, check_every):
    """The chunked search against the reference; returns its result and
    the step and distance calls it made."""
    step, states, params, distance = scan = _SCANS[kind](d, betas)
    epsilons = _epsilons(scan, crossings)
    calls = {"step": 0, "distance": 0}

    def counted(name, fn):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or fn(*args)

    with mock.patch.object(simtime, "_CHECK_EVERY", check_every):
        got = simtime._first_crossings(counted("step", step), states, params, counted("distance", distance), epsilons, n_max)
    _assert_same_bits(got, _one_step_at_a_time(step, states, params, distance, epsilons, n_max))
    assert calls["step"] <= n_max
    assert calls["distance"] <= 1 + math.ceil(n_max / check_every)
    return got, calls


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(_SCANS)),
    st.integers(2, 10),
    st.integers(0, 100),
    st.sampled_from([32, 1, 5, 7]),
    st.lists(
        st.tuples(st.floats(0.0, 5.0), st.one_of(st.none(), st.floats(0.0, 1.0)), st.sampled_from([-1, 0, 1])),
        min_size=1,
        max_size=6,
    ),
)
def test_chunked_checks_give_the_one_step_search(kind, d, n_max, check_every, rows):
    betas = [beta for beta, _, _ in rows]
    crossings = [(None if at is None else round(at * n_max), nudge) for _, at, nudge in rows]
    _search(kind, d, betas, crossings, n_max, check_every)


@pytest.mark.parametrize("kind", sorted(_SCANS))
@pytest.mark.parametrize(
    "n_max, crossings",
    [
        # n_max below one chunk, and past two chunks but not a multiple of one
        (13, [(5, 0), (None, 0), (13, 0)]),
        (70, [(69, 1), (None, 0), (70, -1), (70, 0)]),
        # at step 0, and at n_max
        (40, [(0, 0), (0, 1), (40, 0)]),
        (0, [(0, 0), (None, 0), (0, -1)]),
        # several rows crossing inside one chunk, one of them at its edge
        (100, [(33, 0), (34, 0), (40, 1), (64, 0), (65, 0), (None, 0)]),
    ],
)
def test_named_crossings(kind, n_max, crossings):
    betas = np.linspace(0.3, 3.0, len(crossings))
    got, calls = _search(kind, 6, betas, crossings, n_max, 32)
    # each distance falls at every step here, so a row crosses at its step,
    # or one later when epsilon lies just below it
    assert [n for n, _, _ in got] == [at if at is None or nudge >= 0 else (at + 1 if at < n_max else None) for at, nudge in crossings]
    # the search stops at its last row's check, and one call checks a chunk
    last = max(n_max if n is None else n for n, _, _ in got)
    assert calls["step"] == min(n_max, math.ceil(last / 32) * 32)
    assert calls["distance"] == 1 + math.ceil(calls["step"] / 32)


def test_complex_rows_are_checked_every_step():
    # a density-matrix row stops at its own crossing: no further step, so a
    # RandomFull row makes no further coupling draw
    states = np.stack([np.eye(3, dtype=complex) * s for s in (1.0, 2.0, 4.0)])
    targets = np.zeros_like(states)
    calls = []
    step = lambda s, params: calls.append(len(s)) or 0.5 * s
    distance = lambda s, t: np.abs(s - t).sum(axis=(1, 2))
    got = simtime._first_crossings(step, states, (targets,), distance, [0.1, 0.1, 0.1], 50)
    assert [n for n, _, _ in got] == [5, 6, 7]
    assert calls == [3] * 5 + [2, 1]


def test_a_trail_stays_within_one_block_at_max_d(monkeypatch):
    # SL rows at d = MAX_D in a block their generators fill: the trail and
    # the copies its distance call makes stay within that block, although
    # _CHECK_EVERY steps of them would not
    d, rows, n_max = MAX_D, 16, 40
    step, states, params, distance = _sl_scan(d, np.linspace(0.5, 2.0, rows))
    block = params[0].nbytes
    monkeypatch.setattr(simtime, "_BLOCK_BYTES", block)
    assert 5 * simtime._CHECK_EVERY * states.nbytes > block
    tracemalloc.start()
    try:
        got = simtime._first_crossings(step, states, params, distance, [1e-300] * rows, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(n is None for n, _, _ in got)
    assert peak < block
