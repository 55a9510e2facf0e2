"""The batched crossing search against one scan per run, compared with ==.

``tsim_simulated_sl_batch`` must give, bit for bit, the results of
``tsim_simulated_sl`` called point by point.  That rests on two
identities of the running numpy and BLAS, pinned here for every level
count a sweep allows: a stacked ``(B, d, d) @ (B, d, 1)`` product equals
the row-by-row ``gen @ p``, and the axis-1 distance sum equals
``population_distance`` row by row.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ri_thermalizer import simtime
from ri_thermalizer.collisions import evolve_populations, population_step_matrix, rk4_step, sl_population_generator
from ri_thermalizer.models import AncillaSpec
from ri_thermalizer.simtime import (
    _first_crossings,
    _sl_clock,
    bisect_crossing,
    population_distance,
    tsim_simulated_sl,
    tsim_simulated_sl_batch,
)
from ri_thermalizer.sweeps import MAX_D


def _p_a(beta):
    return AncillaSpec(omega=1.0, beta=beta).ground_population


def _per_point(p0, p_as, gamma, epsilons, t_max):
    return [tsim_simulated_sl(p0, p_a, gamma, eps, t_max) for p_a, eps in zip(p_as, epsilons)]


def _assert_batch_matches(p0, betas, gamma, epsilons, t_max):
    p_as = [_p_a(b) for b in betas]
    batch = tsim_simulated_sl_batch(p0, p_as, gamma, epsilons, t_max)
    assert batch == _per_point(p0, p_as, gamma, epsilons, t_max)
    return batch


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    st.integers(2, 12),
    st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.0, 8.0)),
            st.floats(-8.0, math.log10(0.3)).map(lambda x: 10.0**x),
        ),
        min_size=1,
        max_size=4,
    ),
    st.floats(0.2, 2.0),
    st.floats(0.5, 10.0),
    st.lists(st.floats(0.01, 1.0), min_size=12, max_size=12),
)
def test_batch_equals_one_scan_per_point(d, rows, gamma, t_max, w):
    p0 = np.array(w[:d]) / sum(w[:d])
    betas, epsilons = zip(*rows)
    _assert_batch_matches(p0, betas, gamma, epsilons, t_max)


def _bisected_crossing(p0, p_a, gamma, epsilon, t_max):
    """One row's crossing by its scalar definition: RK4 one step h at a time
    to the first step n within epsilon, then ``bisect_crossing`` of
    f(x), the distance after one step of length x from the state at n - 1.
    Returns (n, T_sim, distance), n = 0 at the start and None at the cap."""
    h, steps = simtime._sl_steps(p_a, gamma, epsilon, t_max, None)
    (gen,), (target,) = simtime._sl_systems(p0.size, [p_a], gamma)
    before = p0[:, None]
    f = lambda x: population_distance(rk4_step(lambda y: gen @ y, before, x)[:, 0], target)
    if population_distance(p0, target) <= epsilon:
        return 0, 0.0, population_distance(p0, target)
    for n in range(1, steps + 1):
        if f(h) <= epsilon:
            hi = bisect_crossing(f, epsilon, 0.0, h)[1]
            return n, _sl_clock(h, n - 1) + hi, f(hi)
        before = rk4_step(lambda y: gen @ y, before, h)
    return None, None, None


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    st.integers(2, 8),
    st.lists(
        st.tuples(st.one_of(st.just(math.inf), st.floats(0.0, 8.0)), st.floats(-4.0, -1.0).map(lambda x: 10.0**x)),
        min_size=1,
        max_size=4,
    ),
    st.floats(0.2, 2.0),
    st.floats(10.0, 40.0),
    st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
)
def test_the_stacked_bisection_gives_each_rows_scalar_crossing(d, rows, gamma, gamma_t_max, w):
    # every row that crosses after step 0 has T_sim = _sl_clock(h, n - 1) +
    # hi and the distance f(hi), with hi from bisect_crossing on (0, h)
    p0, (betas, epsilons) = np.array(w[:d]) / sum(w[:d]), zip(*rows)
    p_as, t_max = [_p_a(b) for b in betas], gamma_t_max / gamma
    batch = tsim_simulated_sl_batch(p0, p_as, gamma, epsilons, t_max)
    for res, p_a, eps in zip(batch, p_as, epsilons):
        n, t_sim, dist = _bisected_crossing(p0, p_a, gamma, eps, t_max)
        if n is None:
            assert not res.reachable
        else:
            assert (res.t_sim, res.final_distance) == (t_sim, dist)


class TestNamedCases:
    P0 = np.full(3, 1 / 3)

    def test_a_batch_of_one(self):
        (res,) = _assert_batch_matches(self.P0, [2.0], 1.0, [1e-4], 50.0)
        assert res.reachable

    def test_a_row_at_epsilon_at_step_zero(self):
        # beta = 0 targets the maximally mixed start itself
        res = _assert_batch_matches(self.P0, [0.0, 2.0], 1.0, [1e-4, 1e-4], 50.0)
        assert res[0].t_sim == 0.0 and res[0].final_distance == 0.0
        assert res[1].t_sim > 0.0

    def test_a_row_unreachable_at_the_cap(self):
        res = _assert_batch_matches(self.P0, [0.5, 4.0], 1.0, [1e-3, 1e-3], 10.0)
        assert [r.reachable for r in res] == [False, True]
        assert res[0].final_distance > 1e-3

    def test_mixed_epsilons(self):
        epsilons = [1e-2, 1e-8, 1e-5, 0.2, 1e-3]
        res = _assert_batch_matches(np.full(5, 0.2), [1.0, 1.0, 3.0, math.inf, 0.3], 1.5, epsilons, 60.0)
        assert all(r.reachable for r in res)

    def test_a_grid_larger_than_one_row_block(self, monkeypatch):
        # blocks of two rows at d = 4, so five rows take three blocks
        monkeypatch.setattr(simtime, "_BLOCK_BYTES", 2 * 8 * 4 * 4)
        betas = [0.2, 0.7, 1.5, 3.0, math.inf]
        res = _assert_batch_matches(np.full(4, 0.25), betas, 1.0, [1e-5] * 5, 60.0)
        assert all(r.reachable for r in res)

    def test_an_empty_batch(self):
        assert tsim_simulated_sl_batch(self.P0, [], 1.0, [], 10.0) == []

    def test_crossed_rows_take_no_step_after_the_block(self, monkeypatch):
        # RK4 steps are the scan's plus one stacked bisection of all the
        # crossing steps, about 54 for the block and not per row; each row's
        # single run starts within epsilon and takes no step
        steps, bisections = [], []
        rk4, scan = simtime.rk4_step, simtime._first_crossings

        def counted_rk4(rhs, y, h):
            (bisections if np.ndim(h) else steps).append(len(y))
            return rk4(rhs, y, h)

        scans = []
        monkeypatch.setattr(simtime, "rk4_step", counted_rk4)
        monkeypatch.setattr(simtime, "_first_crossings", lambda *args: scans.append(len(steps)) or scan(*args))
        betas = [0.3, 0.8, 1.5, 2.5, 4.0, 7.0]
        res = tsim_simulated_sl_batch(np.full(4, 0.25), [_p_a(b) for b in betas], 1.0, [1e-5] * 6, 60.0)
        assert all(r.reachable and r.t_sim > 0.0 for r in res) and len({r.t_sim for r in res}) == 6
        # the rows' single runs, after the block's scan, step nothing
        assert len(scans) == 1 + len(betas) and scans[1:] == [len(steps)] * len(betas)
        assert 0 < len(steps) <= math.ceil(60.0 / 0.01) and 50 <= len(bisections) <= 64
        assert bisections[0] == len(betas)

    @pytest.mark.parametrize("p_a, epsilon", [(0.0, 1e-4), (0.8, 0.0), (0.8, math.nan), (0.8, 1.0)])
    def test_rejects_what_one_scan_rejects(self, p_a, epsilon):
        # checked up front, also for a row the scan would never finish
        with pytest.raises(ValueError):
            tsim_simulated_sl_batch(self.P0, [0.9, p_a], 1.0, [1e-4, epsilon], 1e-3)


def test_first_crossings_of_a_population_map():
    # the generic search on a step other than RK4: rows of the diagonal
    # recursion, each with its own map, target and epsilon, against the
    # first crossing along the row's own trajectory
    d, j_tau, n_max = 4, 0.6, 400
    rng = np.random.default_rng(3)
    p_as = [0.55, 0.7, 0.9, 0.99, 0.6]
    epsilons = [1e-3, 1e-9, 1e-5, 0.05, 1e-300]
    maps = [population_step_matrix(d, p_a, j_tau) for p_a in p_as]
    targets = [np.linalg.matrix_power(m, 5000) @ np.full(d, 1 / d) for m in maps]
    p0 = rng.dirichlet(np.ones(d), size=len(p_as))
    step = lambda s, params: (params[0] @ s[:, :, None])[:, :, 0]
    distance = lambda s, targets: 0.5 * np.abs(s - targets).sum(axis=1)
    batch = _first_crossings(step, p0, (np.stack(maps), np.stack(targets)), distance, epsilons, n_max)
    for i, (n, dist, previous, state) in enumerate(batch):
        orbit = evolve_populations(p0[i], p_as[i], j_tau, n_max)
        distances = [population_distance(p, targets[i]) for p in orbit]
        first = next((k for k, x in enumerate(distances) if x <= epsilons[i]), None)
        last = n_max if first is None else first
        assert (n, dist) == (first, distances[last])
        assert np.array_equal(previous, orbit[max(last - 1, 0)])
        assert np.array_equal(state, orbit[last])
        # copies, which keep no stacked array alive
        assert previous.base is None and state.base is None
    assert batch[4][0] is None and batch[3][0] is not None


def test_a_batch_holds_one_block_of_generators_at_max_d(monkeypatch):
    # blocks of 16 rows at d = MAX_D, whose rows cross at many different
    # steps: a result that kept a view of the stack, or generators built for
    # all 64 rows at once, would hold several blocks
    d, rows = MAX_D, 64
    block = 16 * 8 * d * d
    monkeypatch.setattr(simtime, "_BLOCK_BYTES", block)
    p0 = np.full(d, 1.0 / d)
    p_a = _p_a(1.0)
    start = population_distance(p0, simtime._sl_systems(d, [p_a], 1.0)[1][0])
    # the distance falls by about 0.0036 per unit time here
    epsilons = list(start - np.linspace(2e-4, 7e-3, rows))
    tracemalloc.start()
    try:
        batch = tsim_simulated_sl_batch(p0, [p_a] * rows, 1.0, epsilons, 2.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.reachable for r in batch) and len({round(r.t_sim / 0.01) for r in batch}) > 32
    assert peak < 2.5 * block


@pytest.mark.parametrize("rows", [1, 3, 8])
def test_stacked_products_and_distances_equal_row_by_row(rows):
    rng = np.random.default_rng(rows)
    for d in range(2, MAX_D + 1):
        gens = np.stack([sl_population_generator(d, p_a, g) for p_a, g in rng.uniform(0.5, 1.0, (rows, 2))])
        ys = rng.dirichlet(np.ones(d), size=rows)
        targets = rng.dirichlet(np.ones(d), size=rows)
        stacked = (gens @ ys[:, :, None])[:, :, 0]
        distances = 0.5 * np.abs(ys - targets).sum(axis=1)
        for i in range(rows):
            assert np.array_equal(stacked[i], gens[i] @ ys[i]), d
            assert distances[i] == population_distance(ys[i], targets[i]), d


_SL_STEPS = [simtime._sl_steps(0.9, gamma, 1e-4, t_max, None)[0] for gamma, t_max in [(1.0, 1e4), (0.7, 50.0), (3.3, 123.4)]]


@pytest.mark.parametrize("h", [0.01, *_SL_STEPS, *np.random.default_rng(10).uniform(1e-5, 0.1, 3)])
def test_the_clock_is_n_sequential_additions(h):
    # the SL states carry no clock; the time after n steps must read, ==, as
    # a float64 clock stepped t + h once per step from 0.0 did
    h, t, k = float(h), 0.0, 0
    for n in (0, 1, 2, 23226, 10**6):
        for _ in range(n - k):
            t += h
        k = n
        assert simtime._sl_clock(h, n) == t, n
