"""The batched brute-force crossing search against one scan per run, compared with ==.

``nstar_simulated_batch`` must give, bit for bit, the results of
``nstar_simulated(..., engine="brute_force")`` called run by run.  That
rests on two identities of the running numpy, BLAS and LAPACK, pinned
here for level counts up to ``MAX_D``: a stacked ``_collide`` equals the
one-matrix ``collide_once`` state by state, and the stacked
``_trace_distances`` equals ``trace_distance``.  ``_collide`` fills only
rho_A's two diagonal blocks of the joint state; it must give the bytes of
the full outer product rho_S (x) rho_A, the formula kept here as reference.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ri_thermalizer import simtime
from ri_thermalizer.collisions import CollisionConfig, _collide, collide_once, collision_unitary, evolve
from ri_thermalizer.linalg import _trace_distances, partial_trace_second, trace_distance, unitary_from_hamiltonian
from ri_thermalizer.models import (
    AncillaSpec,
    CounterRotating,
    IsotropicFlipFlop,
    ModelSpec,
    RandomFull,
    SystemSpec,
    ancilla_thermal_state,
    bare_hamiltonian,
    flip_flop_model,
    random_density_matrix,
    total_hamiltonian,
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

    @pytest.mark.parametrize("chunk_entries", [2**14, 10 * 6 * 6])
    def test_crossed_random_full_rows_take_no_collision_after_the_scan(self, monkeypatch, chunk_entries):
        # one collision per step of the batch's scan, one draw per chunk of
        # collisions drawn ahead, and no scan in the rows' single runs, which
        # start within epsilon
        calls, steps = {"draws": 0, "rows drawn": 0, "collisions": 0}, []
        draw, collide, scan = simtime._draw_couplings, simtime._collide, simtime._first_crossings

        def counted_draw(*args):
            h_i = draw(*args)
            calls["draws"] += 1
            calls["rows drawn"] += h_i.shape[0] * h_i.shape[1]
            return h_i

        def counted_collide(*args):
            calls["collisions"] += 1
            return collide(*args)

        def counted_scan(step, *args):
            steps.append(0)
            return scan(lambda *a: steps.__setitem__(-1, steps[-1] + 1) or step(*a), *args)

        monkeypatch.setattr("ri_thermalizer.models._DRAW_CHUNK_ENTRIES", chunk_entries)
        monkeypatch.setattr(simtime, "_draw_couplings", counted_draw)
        monkeypatch.setattr(simtime, "_collide", counted_collide)
        monkeypatch.setattr(simtime, "_first_crossings", counted_scan)
        models, cfgs, res = self._random_full_batch()
        calls.update(dict.fromkeys(calls, 0))
        steps.clear()
        assert nstar_simulated_batch(self.RHO0, models, cfgs) == res
        assert steps == [max(r.n_star for r in res)]
        # at collision k of a chunk's start, the rows still above epsilon
        # (n* > k) draw as many collisions as fill the chunk's (6, 6)
        # entries, at least one, and none past n_max
        chunks = rows = k = 0
        while k < steps[0]:
            live = sum(r.n_star > k for r in res)
            ahead = min(max(1, chunk_entries // (live * 6 * 6)), cfgs[0].n_max - k)
            chunks, rows, k = chunks + 1, rows + live * ahead, k + ahead
        assert calls == {"draws": chunks, "rows drawn": rows, "collisions": steps[0]}
        # n* = 0, 55, 73, 116, 76: 113 collisions of four rows, then 287 of
        # the last (to n_max); or 2 of four rows first, with 10 * 36 entries
        assert (chunks, rows) == {2**14: (2, 739), 10 * 6 * 6: (39, 328)}[chunk_entries]

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
    _, _, ((unitary,), (p_a,), (target,)) = simtime._cptp_scan([(model, cfg)], rho0)
    distances = [trace_distance(rho0, target)]
    rho = rho0
    for _ in range(6):
        rho = _collide(rho, unitary, p_a)
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
        _, _, (unitaries, p_as, _) = simtime._cptp_scan(list(zip(models, cfgs)), np.eye(d) / d)
        states = np.stack([random_density_matrix(d, rng) for _ in range(rows)])
        targets = np.stack([random_density_matrix(d, rng) for _ in range(rows)])
        stacked = _collide(states, unitaries, p_as)
        distances = _trace_distances(stacked, targets)
        # a one-row stack under a shared (2d, 2d) unitary and (2, 2) rho_A:
        # a RandomFull run's step
        one_row = _collide(states[:1], unitaries[0], p_as[0])
        assert np.array_equal(one_row[0], collide_once(states[0], models[0], cfgs[0])), d
        for i in range(rows):
            assert np.array_equal(unitaries[i], collision_unitary(models[i], cfgs[i].tau)), d
            assert np.array_equal(p_as[i], ancilla_thermal_state(models[i].ancilla).diagonal()), d
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


def _outer_product_collide(rho_s, unitary, rho_a):
    """Tr_A[U (rho_S x rho_A) U^dagger] from the full outer product, every
    entry of rho_S times every entry of the (..., 2, 2) rho_A."""
    d = rho_s.shape[-1]
    joint = (rho_s[..., :, None, :, None] * rho_a[..., None, :, None, :]).reshape(*rho_s.shape[:-2], 2 * d, 2 * d)
    return partial_trace_second(unitary @ joint @ unitary.conj().swapaxes(-1, -2), d, 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 5),
    d=st.integers(2, 16),
    beta=st.sampled_from([0.0, math.inf]) | st.floats(0.0, 8.0),
    real=st.booleans(),
    shared=st.booleans(),
    flip_flop=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_two_block_joint_state_gives_the_outer_products_bytes(rows, d, beta, real, shared, flip_flop, seed):
    # states with exact and signed zeros, real (imaginary parts +-0) or complex,
    # under one unitary per row or one shared, dense or the flip-flop's, whose
    # blocks keep many entries exactly 0; beta = inf is p_A = 1
    rng = np.random.default_rng(seed)
    parts = rng.normal(size=(2, rows, d, d))
    if real:
        parts[1] = 0.0
    zeros = rng.integers(0, 3, size=parts.shape)  # 1: +0.0, 2: -0.0
    parts[zeros == 1], parts[zeros == 2] = 0.0, -0.0
    rho_s = parts[0] + 1j * parts[1]
    rho_s.imag[(zeros[1] == 2)] = -0.0  # complex addition turns -0.0 imaginary parts into +0.0
    h = rng.normal(size=(1 if shared else rows, 2 * d, 2 * d))
    if flip_flop:  # the flip-flop Hamiltonian, scaled by one draw per matrix
        h = total_hamiltonian(SystemSpec(d), AncillaSpec(1.0, beta), IsotropicFlipFlop(1.0)) * h[:, :1, :1]
    else:
        h = h + h.swapaxes(-1, -2)
    unitary = unitary_from_hamiltonian(h.astype(complex), 0.7)
    unitary = unitary[0] if shared else unitary
    rho_a = np.stack([ancilla_thermal_state(AncillaSpec(1.0, beta))] * rows)
    expected = _outer_product_collide(rho_s, unitary, rho_a)
    got = _collide(rho_s, unitary, rho_a.diagonal(axis1=-2, axis2=-1))
    assert got.tobytes() == expected.tobytes()
    assert got[0].tobytes() == _collide(rho_s[0], unitary if shared else unitary[0], rho_a[0].diagonal()).tobytes()


# The RandomFull scan draws a chunk of collisions ahead of its live rows.
# Each row's crossing must stay that of one collision at a time under
# default_rng([seed, k]).uniform's couplings, whatever the chunk, the row
# count, the seed's word count or the words of k.

def _default_rng_trail(rho0, model, tau, n, collision=0):
    """The distances to the model's Gibbs target after 0..n collisions from
    index collision on, each under the couplings that default_rng([seed, k])
    draws, one at a time."""
    ispec, d = model.interaction, model.system.d
    rows, cols = np.triu_indices(2 * d, k=1)
    h0 = bare_hamiltonian(model.system, model.ancilla)
    p_a = ancilla_thermal_state(model.ancilla).diagonal()
    rho, distances = rho0, [trace_distance(rho0, model.gibbs_target)]
    for k in range(collision, collision + n):
        h_i = np.zeros((2 * d, 2 * d), dtype=complex)
        h_i[rows, cols] = h_i[cols, rows] = np.random.default_rng([ispec.seed, k]).uniform(ispec.lo, ispec.hi, rows.size)
        rho = _collide(rho, unitary_from_hamiltonian(h0 + h_i, tau), p_a)
        distances.append(trace_distance(rho, model.gibbs_target))
    return distances


def _first_at_or_below(distances, epsilon):
    return next((n for n, x in enumerate(distances) if x <= epsilon), None)


# seeds of one, two and three 32-bit words, at betas whose rows cross at
# different collisions, most of them inside a chunk
_SEEDS = [(0.4, 7), (0.9, 2**40 + 3), (1.6, 2**70 + 11), (2.5, 2**32 - 1), (math.inf, 2**64), (1.1, 0)]


@pytest.mark.parametrize("chunk_entries", [2**14, 3 * 6 * 6, 6 * 6])
@pytest.mark.parametrize("rows_per_block", [None, 1, 2])
def test_the_draw_ahead_scan_gives_default_rngs_crossings(monkeypatch, chunk_entries, rows_per_block):
    monkeypatch.setattr("ri_thermalizer.models._DRAW_CHUNK_ENTRIES", chunk_entries)
    if rows_per_block:
        monkeypatch.setattr(simtime, "_BLOCK_BYTES", rows_per_block * simtime._CPTP_ROW_ARRAYS * 16 * 6 * 6)
    rho0, n_max = np.diag([0.1, 0.3, 0.6]).astype(complex), 120
    models = [_random_full(3, beta, seed) for beta, seed in _SEEDS]
    cfgs = [CollisionConfig(tau=100.0, n_max=n_max, epsilon=0.04) for _ in models]
    batch = nstar_simulated_batch(rho0, models, cfgs)
    crossings = []
    for model, cfg, res in zip(models, cfgs, batch):
        distances = _default_rng_trail(rho0, model, cfg.tau, n_max)
        n = _first_at_or_below(distances, cfg.epsilon)
        assert (res.n_star, res.final_distance) == (n, distances[n_max if n is None else n])
        assert evolve(rho0, model, cfg, n_max).distances == distances
        assert nstar_simulated(rho0, model, cfg, engine="brute_force") == res
        crossings.append(n)
    # rows leave the scan at four different collisions, all before the cap
    assert len(set(crossings)) >= 4 and None not in crossings


@pytest.mark.parametrize("chunk_entries", [2**14, 5 * 6 * 6])
def test_a_collision_offset_whose_chunk_crosses_k_2_32(monkeypatch, chunk_entries):
    # collisions 2^32 - 3 on: k takes one word, then two, within one chunk
    monkeypatch.setattr("ri_thermalizer.models._DRAW_CHUNK_ENTRIES", chunk_entries)
    rho0, offset, n_max = np.diag([0.1, 0.3, 0.6]).astype(complex), 2**32 - 3, 60
    for beta, seed in _SEEDS[:3]:
        model = _random_full(3, beta, seed)
        distances = _default_rng_trail(rho0, model, 100.0, n_max, collision=offset)
        # epsilon at the lowest distance of the first 10 collisions, first
        # reached past k = 2^32 (n > 3)
        epsilon = min(distances[:11])
        res = nstar_simulated(rho0, model, CollisionConfig(tau=100.0, n_max=n_max, epsilon=epsilon), collision=offset)
        n = _first_at_or_below(distances, epsilon)
        assert n > 3 and (res.n_star, res.final_distance) == (n, distances[n])
        res = nstar_simulated(rho0, model, CollisionConfig(tau=100.0, n_max=n_max, epsilon=1e-12), collision=offset)
        assert (res.n_star, res.final_distance) == (None, distances[n_max])
        # a numpy offset at the top of its dtype counts on as a Python int
        # would, past 2^32 - 1, not round to 0
        res = nstar_simulated(rho0, model, CollisionConfig(tau=100.0, n_max=5, epsilon=1e-12), collision=np.uint32(2**32 - 1))
        assert res.final_distance == _default_rng_trail(rho0, model, 100.0, 5, collision=2**32 - 1)[5]


def test_an_n_max_1_scan_draws_one_collision_a_row(monkeypatch):
    # one stack of every row's first collision: (rows, collisions) = (6, 1)
    drawn, draw = [], simtime._draw_couplings

    def counted(*args):
        h_i = draw(*args)
        drawn.append(h_i.shape[:2])
        return h_i

    monkeypatch.setattr(simtime, "_draw_couplings", counted)
    rho0 = np.diag([0.1, 0.3, 0.6]).astype(complex)
    models = [_random_full(3, beta, seed) for beta, seed in _SEEDS]
    cfg = CollisionConfig(tau=100.0, n_max=1, epsilon=1e-9)
    step, states, params = simtime._cptp_scan([(m, cfg) for m in models], rho0)
    crossings = simtime._first_crossings(step, states, params, _trace_distances, [cfg.epsilon] * len(models), 1)
    assert drawn == [(len(models), 1)]
    for model, (n, dist, _, _) in zip(models, crossings):
        assert (n, dist) == (None, _default_rng_trail(rho0, model, cfg.tau, 1)[1])


# The scan checks a density-matrix row against its epsilon every step with
# bounds (``_trace_distances(..., above)``): a row whose diagonal bound
# proves it above epsilon skips eigvalsh.  Each row's (n, distance,
# previous, state) must stay, bit for bit, what the exact kernel gives.

def _exact(rho, sigma, above=None):
    return _trace_distances(rho, sigma)


def _scan(models, cfg, rho0, epsilons, distance):
    """The CPTP scan of the rows from rho0 under distance, and the rows of
    each eigvalsh call it made."""
    stacks, eigvalsh = [], np.linalg.eigvalsh
    with mock.patch.object(np.linalg, "eigvalsh", lambda a: stacks.append(len(a)) or eigvalsh(a)):
        step, states, params = simtime._cptp_scan([(m, cfg) for m in models], rho0)
        crossings = simtime._first_crossings(step, states, params, distance, epsilons, cfg.n_max)
    return crossings, stacks


def _assert_same_crossings(got, expected):
    for (n, dist, previous, state), (n_ref, dist_ref, previous_ref, state_ref) in zip(got, expected, strict=True):
        assert n == n_ref and np.float64(dist).tobytes() == np.float64(dist_ref).tobytes()
        assert previous.tobytes() == previous_ref.tobytes() and state.tobytes() == state_ref.tobytes()


@pytest.mark.parametrize("random", [False, True], ids=["fixed-unitary", "RandomFull"])
def test_the_screened_scan_gives_the_exact_kernels_crossings(random):
    # epsilon per row on its distance at a step, or a float either side:
    # at step 0, mid-scan, at n_max (just below: unreachable with the cap's
    # distance), and far below every distance
    rho0, n_max = np.diag([0.1, 0.3, 0.6]).astype(complex), 40
    cfg = CollisionConfig(tau=100.0 if random else 0.9, n_max=n_max, epsilon=0.5)
    marks = [(0, 0), (0, -1), (7, 0), (7, -1), (7, 1), (19, 0), (n_max, 0), (n_max, -1), (None, 0)]
    betas = np.linspace(0.3, 3.0, len(marks))
    models = [_random_full(3, beta, seed) if random else flip_flop_model(3, 1.0, beta, 1.0) for beta, seed in zip(betas, range(3, 100))]
    epsilons = []
    for model, (at, nudge) in zip(models, marks):
        distances = evolve(rho0, model, cfg, n_max).distances
        epsilons.append(1e-12 if at is None else math.nextafter(distances[at], nudge * math.inf) if nudge else distances[at])
    screened, stacks = _scan(models, cfg, rho0, epsilons, _trace_distances)
    exact, exact_stacks = _scan(models, cfg, rho0, epsilons, _exact)
    _assert_same_crossings(screened, exact)
    ns = [n for n, *_ in exact]
    assert ns[0] == 0 and ns[-3] == n_max and ns[-2] is None and ns[-1] is None and sum(n is not None for n in ns) >= 6
    # every row at step 0, each crossed row at its crossing, the rows left at
    # n_max, and any row whose bound falls within its epsilon before it crosses
    assert len(stacks) < len(exact_stacks) and sum(stacks) < sum(exact_stacks) / 4
    assert sum(stacks) >= len(models) + sum(0 < n < n_max for n in ns if n is not None) + 3


def test_the_rows_a_seeded_random_full_scan_hands_to_eigvalsh():
    # pinned: 6 rows at step 0, then each row at its crossing (two at
    # collision 97), where the exact kernel takes 646 rows in 119 calls
    rho0, cfg = np.diag([0.1, 0.3, 0.6]).astype(complex), CollisionConfig(tau=100.0, n_max=120, epsilon=0.04)
    models = [_random_full(3, beta, seed) for beta, seed in _SEEDS]
    screened, stacks = _scan(models, cfg, rho0, [cfg.epsilon] * len(models), _trace_distances)
    exact, exact_stacks = _scan(models, cfg, rho0, [cfg.epsilon] * len(models), _exact)
    _assert_same_crossings(screened, exact)
    assert stacks == [6, 2, 1, 1, 1, 1, 1] and (sum(exact_stacks), len(exact_stacks)) == (646, 119)
    assert sorted(n for n, *_ in exact) == [97, 97, 100, 113, 115, 118]
