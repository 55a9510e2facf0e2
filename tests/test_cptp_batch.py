"""The batched brute-force crossing search against one scan per run, compared with ==.

``nstar_simulated_batch`` must give, bit for bit, the results of
``nstar_simulated(..., engine="brute_force")`` called run by run.  That
rests on two identities of the running numpy, BLAS and LAPACK, pinned
here for level counts up to ``MAX_D``: a stacked ``_collide`` equals the
one-matrix ``collide_once`` state by state, and the stacked
``_trace_distances`` equals ``trace_distance``.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ri_thermalizer import simtime
from ri_thermalizer.collisions import CollisionConfig, _collide, collide_once, collision_unitary
from ri_thermalizer.linalg import _trace_distances, partial_trace_second, trace_distance
from ri_thermalizer.models import (
    AncillaSpec,
    CounterRotating,
    ModelSpec,
    RandomFull,
    SystemSpec,
    ancilla_thermal_state,
    flip_flop_model,
    random_density_matrix,
)
from ri_thermalizer.simtime import nstar_simulated, nstar_simulated_batch
from ri_thermalizer.sweeps import MAX_D


def _assert_batch_matches(rho0, models, cfgs):
    batch = nstar_simulated_batch(rho0, models, cfgs)
    assert batch == [nstar_simulated(rho0, m, c, engine="brute_force") for m, c in zip(models, cfgs)]
    return batch


def _random_full(d, beta, seed):
    return ModelSpec(SystemSpec(d=d, omega=1.0), AncillaSpec(omega=1.0, beta=beta), RandomFull(lo=1e-3, hi=math.pi * 1e-3, seed=seed))


def _runs(d, rows, n_max, j=1.0):
    # rows of (beta, J tau, epsilon) for the flip-flop model
    models = [flip_flop_model(d, 1.0, beta, j) for beta, _, _ in rows]
    cfgs = [CollisionConfig(tau=j_tau / j, n_max=n_max, epsilon=eps) for _, j_tau, eps in rows]
    return models, cfgs


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    st.integers(2, 6),
    st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.0, 6.0)),
            st.one_of(st.just(math.pi), st.floats(0.1, 3.0)),
            st.floats(-6.0, math.log10(0.3)).map(lambda x: 10.0**x),
        ),
        min_size=1,
        max_size=4,
    ),
    st.one_of(st.just(1), st.integers(2, 120)),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_batch_equals_one_scan_per_run(d, rows, n_max, seed, mixed):
    rho0 = np.eye(d, dtype=complex) / d if mixed else random_density_matrix(d, np.random.default_rng(seed))
    _assert_batch_matches(rho0, *_runs(d, rows, n_max))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    st.integers(2, 6),
    st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.0, 6.0)),
            st.integers(0, 2**64 - 1),
            st.floats(50.0, 500.0),
            # up to 0.89, above most starts' distances: a crossing at step 0
            st.floats(-2.5, -0.05).map(lambda x: 10.0**x),
        ),
        min_size=4,
        max_size=8,
    ),
    st.one_of(st.integers(11, 150), st.just(1), st.integers(2, 10)),
    st.booleans(),
)
def test_a_random_full_batch_equals_one_scan_per_run(d, rows, n_max, mixed):
    # at least 4 rows in each of 50 examples, 292 in all: 48 cross at step 0,
    # 70 later and 174 stay above epsilon at the cap (n_max = 1 included)
    rho0 = np.eye(d, dtype=complex) / d if mixed else random_density_matrix(d, np.random.default_rng(rows[0][1]))
    models = [_random_full(d, beta, seed) for beta, seed, _, _ in rows]
    cfgs = [CollisionConfig(tau=tau, n_max=n_max, epsilon=eps) for _, _, tau, eps in rows]
    batch = nstar_simulated_batch(rho0, models, cfgs)
    assert [repr(r) for r in batch] == [repr(nstar_simulated(rho0, m, c, engine="brute_force")) for m, c in zip(models, cfgs)]


class TestNamedCases:
    RHO0 = np.eye(3, dtype=complex) / 3

    def test_a_batch_of_one(self):
        (res,) = _assert_batch_matches(self.RHO0, *_runs(3, [(2.0, 0.9, 1e-4)], 500))
        assert res.reachable and res.n_star > 1 and res.engine == "brute_force"

    def test_a_row_at_epsilon_at_step_zero(self):
        # beta = 0 targets the maximally mixed start itself
        res = _assert_batch_matches(self.RHO0, *_runs(3, [(0.0, 0.9, 1e-4), (2.0, 0.9, 1e-4)], 500))
        assert res[0].n_star == 0 and res[0].t_sim == 0.0 and res[0].final_distance == 0.0
        assert res[1].n_star > 0

    def test_a_row_unreachable_at_the_cap(self):
        # J tau = pi swaps nothing: the populations stay frozen
        rows = [(2.0, math.pi, 1e-3), (2.0, 1.2, 1e-3), (2.0, 0.3, 1e-3)]
        res = _assert_batch_matches(self.RHO0, *_runs(3, rows, 40))
        assert [r.reachable for r in res] == [False, True, False]
        assert res[0].n_star is None and res[0].final_distance > 1e-3

    def test_mixed_epsilons(self):
        rows = [(1.0, 0.8, 1e-2), (1.0, 0.8, 1e-8), (3.0, 1.1, 1e-5), (math.inf, 1.5, 0.2), (0.3, 2.0, 1e-3)]
        res = _assert_batch_matches(np.eye(5, dtype=complex) / 5, *_runs(5, rows, 5000))
        assert all(r.reachable for r in res)

    def test_a_counter_rotating_model(self):
        d = 4
        models = [
            ModelSpec(SystemSpec(d=d, omega=1.0), AncillaSpec(omega=1.0, beta=beta), CounterRotating(j=1.0, j_prime=jp))
            for beta, jp in [(1.0, 0.2), (2.0, 0.5), (0.5, 0.0)]
        ]
        cfgs = [CollisionConfig(tau=tau, n_max=300, epsilon=0.05) for tau in (0.7, 1.3, 0.9)]
        rho0 = random_density_matrix(d, np.random.default_rng(11))
        _assert_batch_matches(rho0, models, cfgs)

    def test_a_grid_larger_than_one_row_block(self, monkeypatch):
        # blocks of two rows at d = 4, so five rows take three blocks
        monkeypatch.setattr(simtime, "_BLOCK_BYTES", 2 * simtime._CPTP_ROW_ARRAYS * 16 * 8 * 8)
        rows = [(0.2, 0.5, 1e-5), (0.7, 1.0, 1e-5), (1.5, 1.4, 1e-5), (3.0, 2.0, 1e-5), (math.inf, 2.6, 1e-5)]
        res = _assert_batch_matches(np.eye(4, dtype=complex) / 4, *_runs(4, rows, 5000))
        assert all(r.reachable for r in res)

    def test_an_empty_batch(self):
        assert nstar_simulated_batch(self.RHO0, [], []) == []

    def _random_full_batch(self):
        # a RandomFull row draws its unitary anew every collision, and every
        # row here crosses at its own n*, one of them at step 0 (beta = 0)
        rows = [(0.0, 7, 0.05), (0.5, 8, 0.05), (2.0, 9, 0.05), (2.0, 10, 0.02), (math.inf, 11, 0.05)]
        models = [_random_full(3, beta, seed) for beta, seed, _ in rows]
        cfgs = [CollisionConfig(tau=100.0, n_max=400, epsilon=eps) for _, _, eps in rows]
        res = _assert_batch_matches(self.RHO0, models, cfgs)
        assert res[0].n_star == 0 and all(r.n_star > 20 for r in res[1:])
        assert len({r.n_star for r in res}) == len(rows)
        return models, cfgs, res

    def test_a_random_full_batch_matches_single_runs(self):
        self._random_full_batch()

    def test_a_random_full_batch_in_blocks_of_two_rows(self, monkeypatch):
        # each block's scan counts its collisions from 0 again
        models, cfgs, whole = self._random_full_batch()
        monkeypatch.setattr(simtime, "_BLOCK_BYTES", 2 * simtime._CPTP_ROW_ARRAYS * 16 * 6 * 6)
        assert _assert_batch_matches(self.RHO0, models, cfgs) == whole

    def test_crossed_random_full_rows_take_no_collision_after_the_scan(self, monkeypatch):
        # one draw and one collision per step of the batch's scan, and no
        # scan in the rows' single runs, which start within epsilon
        calls, steps = {"draws": 0, "collisions": 0}, []
        draw, collide, scan = simtime._random_couplings, simtime._collide, simtime._first_crossings

        def counted(name, fn):
            return lambda *args: calls.__setitem__(name, calls[name] + 1) or fn(*args)

        def counted_scan(step, *args):
            steps.append(0)
            return scan(lambda *a: steps.__setitem__(-1, steps[-1] + 1) or step(*a), *args)

        monkeypatch.setattr(simtime, "_random_couplings", counted("draws", draw))
        monkeypatch.setattr(simtime, "_collide", counted("collisions", collide))
        monkeypatch.setattr(simtime, "_first_crossings", counted_scan)
        models, cfgs, res = self._random_full_batch()
        calls["draws"] = calls["collisions"] = 0
        steps.clear()
        assert nstar_simulated_batch(self.RHO0, models, cfgs) == res
        assert steps == [max(r.n_star for r in res)]
        assert calls == {"draws": steps[0], "collisions": steps[0]}

    def test_random_full_rows_of_one_temperature_share_their_arrays(self, monkeypatch):
        # H_0, rho_A and the Gibbs target depend on (system, ancilla) only:
        # six rows with their own seeds at two betas build two of each
        made = []
        monkeypatch.setattr(simtime, "ancilla_thermal_state", lambda spec: made.append(spec) or ancilla_thermal_state(spec))
        models = [_random_full(3, beta, seed) for beta in (0.5, 2.0) for seed in range(3)]
        simtime._cptp_scan([(m, CollisionConfig(tau=100.0, n_max=5, epsilon=1e-3)) for m in models], self.RHO0)
        assert sorted(spec.beta for spec in made) == [0.5, 2.0]

    @pytest.mark.parametrize("random_first", [True, False])
    @pytest.mark.parametrize("rows_per_block", [None, 1])
    def test_rejects_random_full_and_fixed_rows_together(self, monkeypatch, random_first, rows_per_block):
        # one step cannot both keep a unitary and draw a new one; the check
        # holds also when every row is a block of its own
        if rows_per_block:
            monkeypatch.setattr(simtime, "_BLOCK_BYTES", simtime._CPTP_ROW_ARRAYS * 16 * 6 * 6)
        models, cfgs = _runs(3, [(1.0, 0.9, 1e-3)] * 2, 50)
        models[0 if random_first else 1] = _random_full(3, 1.0, 4)
        with pytest.raises(ValueError, match="RandomFull"):
            nstar_simulated_batch(self.RHO0, models, cfgs)

    @pytest.mark.parametrize("d, n_maxes", [(4, (50, 50)), (3, (50, 60))])
    def test_rejects_rows_that_do_not_share_d_and_n_max(self, d, n_maxes):
        models = [flip_flop_model(3, 1.0, 1.0, 1.0), flip_flop_model(d, 1.0, 1.0, 1.0)]
        cfgs = [CollisionConfig(tau=0.9, n_max=n, epsilon=1e-3) for n in n_maxes]
        with pytest.raises(ValueError):
            nstar_simulated_batch(self.RHO0, models, cfgs)

    @pytest.mark.parametrize("shape", [(3, 4), (3,)])
    def test_rejects_a_state_that_is_not_d_by_d(self, shape):
        # checked before any work, as nstar_simulated checks it; it used to
        # end in a broadcast or reshape error inside the scan
        models, cfgs = _runs(3, [(1.0, 0.9, 1e-3)] * 2, 50)
        with pytest.raises(ValueError, match=r"rho0 has shape"):
            nstar_simulated_batch(np.ones(shape) / 3, models, cfgs)


def test_a_batch_holds_one_block_at_max_d(monkeypatch):
    # blocks of 16 rows at d = MAX_D, whose rows cross at several different
    # steps: systems built for all 64 rows at once, or a result that kept a
    # view of a stack, would hold several blocks
    d, rows = MAX_D, 64
    block = 16 * simtime._CPTP_ROW_ARRAYS * 16 * (2 * d) ** 2
    monkeypatch.setattr(simtime, "_BLOCK_BYTES", block)
    model = flip_flop_model(d, 1.0, 1.0, 1.0)
    rho0 = np.eye(d, dtype=complex) / d
    cfg = CollisionConfig(tau=0.3, n_max=8, epsilon=0.5)
    _, _, ((unitary,), (rho_a,), (target,)) = simtime._cptp_scan([(model, cfg)], rho0)
    distances = [trace_distance(rho0, target)]
    rho = rho0
    for _ in range(6):
        rho = _collide(rho, unitary, rho_a)
        distances.append(trace_distance(rho, target))
    # epsilons between the distances after 0 and 6 collisions
    epsilons = np.interp(np.linspace(0.5, 5.5, rows), np.arange(7), distances)
    cfgs = [CollisionConfig(tau=0.3, n_max=8, epsilon=float(eps)) for eps in epsilons]
    tracemalloc.start()
    try:
        batch = nstar_simulated_batch(rho0, [model] * rows, cfgs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted({r.n_star for r in batch}) == [1, 2, 3, 4, 5, 6]
    # 1.39 blocks measured; systems built for all 64 rows at once peak at 5.0
    assert peak < 2.5 * block


@pytest.mark.parametrize("rows", [1, 3, 8])
def test_stacked_collisions_and_distances_equal_matrix_by_matrix(rows):
    rng = np.random.default_rng(rows)
    for d in (2, 3, 5, 9, 17, 33, 64, 128):
        models = [flip_flop_model(d, 1.0, beta, 1.0) for beta in rng.uniform(0.0, 4.0, rows)]
        cfgs = [CollisionConfig(tau=tau, n_max=1, epsilon=0.5) for tau in rng.uniform(0.2, 2.0, rows)]
        # the batch's systems: one stacked eigh, one tau per row
        _, _, (unitaries, rho_as, _) = simtime._cptp_scan(list(zip(models, cfgs)), np.eye(d) / d)
        states = np.stack([random_density_matrix(d, rng) for _ in range(rows)])
        targets = np.stack([random_density_matrix(d, rng) for _ in range(rows)])
        stacked = _collide(states, unitaries, rho_as)
        distances = _trace_distances(stacked, targets)
        # a one-row stack under a shared (2d, 2d) unitary and (2, 2) rho_A:
        # a RandomFull run's step
        one_row = _collide(states[:1], unitaries[0], rho_as[0])
        assert np.array_equal(one_row[0], collide_once(states[0], models[0], cfgs[0])), d
        for i in range(rows):
            assert np.array_equal(unitaries[i], collision_unitary(models[i], cfgs[i].tau)), d
            assert np.array_equal(rho_as[i], ancilla_thermal_state(models[i].ancilla)), d
            one = collide_once(states[i], models[i], cfgs[i])
            assert np.array_equal(stacked[i], one), d
            assert distances[i] == trace_distance(one, targets[i]), d


def test_a_stacked_partial_trace_equals_matrix_by_matrix():
    rng = np.random.default_rng(5)
    joint = np.stack([random_density_matrix(6, rng) for _ in range(4)]).reshape(2, 2, 6, 6)
    stacked = partial_trace_second(joint, 3, 2)
    assert stacked.shape == (2, 2, 3, 3)
    for i in range(2):
        for k in range(2):
            assert np.array_equal(stacked[i, k], partial_trace_second(joint[i, k], 3, 2))
