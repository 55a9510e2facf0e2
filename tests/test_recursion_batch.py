"""The batched powered recursion search against one run per row, compared by ``repr``.

``nstar_simulated_batch(..., engine="recursion")`` must give, bit for bit,
the results of ``nstar_simulated(..., engine="recursion")`` called run by
run.  That rests on the identities pinned here: a stacked square and a
stacked matrix-vector product give each row what the 2-D ``@`` gives it,
and a stacked distance what a row's own gives it, so a crossed row's
single run from its state at n* reports n* = 0 and the same distance.  The batch builds a block's maps and
Gibbs targets as one stack (``collisions._population_systems``), pinned here
bit for bit to ``population_step_matrix`` and ``gibbs_populations`` row by
row, and to their exception types for a row they reject.  The SL scans'
stacked generators (``collisions._sl_generators``), of which
``sl_population_generator`` is the one-row case, are pinned to an
entry-by-entry coding kept here.
"""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ri_thermalizer import simtime
from ri_thermalizer.collisions import (
    CollisionConfig,
    _population_systems,
    _sl_generators,
    evolve_populations,
    population_step_matrix,
    sl_population_generator,
)
from ri_thermalizer.models import (
    AncillaSpec,
    CounterRotating,
    ModelSpec,
    SystemSpec,
    flip_flop_model,
    gibbs_populations,
    random_density_matrix,
)
from ri_thermalizer.models import IsotropicFlipFlop
from ri_thermalizer.simtime import (
    _matvecs,
    _population_distances,
    nstar_simulated,
    nstar_simulated_batch,
    population_distance,
)
from ri_thermalizer.sweeps import MAX_D


def _assert_batch_matches(rho0, models, cfgs):
    batch = nstar_simulated_batch(rho0, models, cfgs, engine="recursion")
    assert [repr(r) for r in batch] == [repr(nstar_simulated(rho0, m, c, engine="recursion")) for m, c in zip(models, cfgs)]
    return batch


def _runs(d, rows, n_max):
    # rows of (beta, J tau, epsilon) for the flip-flop model at J = 1
    models = [flip_flop_model(d, 1.0, beta, 1.0) for beta, _, _ in rows]
    cfgs = [CollisionConfig(tau=j_tau, n_max=n_max, epsilon=eps) for _, j_tau, eps in rows]
    return models, cfgs


def _diagonal_start(d, seed, mixed):
    p = np.full(d, 1.0 / d) if mixed else np.random.default_rng(seed).dirichlet(np.ones(d))
    return np.diag(p).astype(complex)


# the goldens' powered-fallback case: epsilon on the scanned distance at
# collision 60 fails the rounding guard, and the row goes to the scan
P5 = np.diag([0.05, 0.3, 0.1, 0.4, 0.15]).astype(complex)
FALLBACK = (0.7, 1.1, 1.7742467431566822e-06)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(2, 11),
    st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.0, 6.0)),
            # pi swaps nothing, so the populations stay frozen above epsilon
            st.one_of(st.just(math.pi), st.just(math.pi / 2), st.floats(0.05, 3.0)),
            st.floats(-12.0, math.log10(0.9)).map(lambda x: 10.0**x),
        ),
        min_size=4,
        max_size=8,
    ),
    st.one_of(st.just(1), st.just(2), st.integers(3, 200), st.integers(201, 100_000)),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from([None, 1, 3]),
    st.one_of(st.none(), st.integers(1, 60)),
)
def test_a_recursion_batch_equals_one_run_per_row(d, rows, n_max, seed, mixed, block_rows, on_scan):
    # at least 4 rows in each of 100 examples: rows within epsilon at step 0
    # (beta = 0 from the maximally mixed state, or a loose epsilon), rows
    # left at the cap, and crossings at many spans 2^t; blocks of one or
    # three rows put block boundaries between them.  An epsilon on the
    # scanned distance after on_scan collisions can fail the rounding
    # guard, and then that row goes to the fallback scan
    rho0 = _diagonal_start(d, seed, mixed)
    models, cfgs = _runs(d, rows, n_max)
    if on_scan is not None:
        p_a = models[0].ancilla.ground_population
        p = evolve_populations(np.diag(rho0).real, p_a, cfgs[0].tau, on_scan)[-1]
        eps = population_distance(p, gibbs_populations(d, 1.0, models[0].ancilla.beta))
        if 0.0 < eps < 1.0:
            cfgs[0] = CollisionConfig(tau=cfgs[0].tau, n_max=n_max, epsilon=eps)
    block = simtime._BLOCK_BYTES if block_rows is None else block_rows * n_max.bit_length() * 8 * d * d
    with mock.patch.object(simtime, "_BLOCK_BYTES", block):
        _assert_batch_matches(rho0, models, cfgs)


class TestNamedCases:
    RHO0 = np.eye(4, dtype=complex) / 4
    # step 0 (beta = 0), frozen at the cap (J tau = pi), and crossings
    ROWS = [(0.0, 0.9, 1e-4), (2.0, math.pi, 1e-4), (0.5, 0.9, 1e-4), (2.0, 0.9, 1e-4), (8.0, 0.9, 1e-9), (1.0, 2.5, 0.3)]

    def test_mixed_rows_and_epsilons(self):
        res = _assert_batch_matches(self.RHO0, *_runs(4, self.ROWS, 5000))
        assert res[0].n_star == 0 and res[0].t_sim == 0.0
        assert res[1].n_star is None and res[1].final_distance > 1e-4
        assert all(r.n_star > 0 for r in res[2:])

    def test_rows_in_blocks_of_two(self, monkeypatch):
        # a row's bytes are its floor(log2 n_max) + 1 = 13 powers of 8 d^2
        whole = _assert_batch_matches(self.RHO0, *_runs(4, self.ROWS, 5000))
        monkeypatch.setattr(simtime, "_BLOCK_BYTES", 2 * 13 * 8 * 4 * 4)
        calls = []
        search = simtime._powered_crossings
        monkeypatch.setattr(simtime, "_powered_crossings", lambda ms, *args: calls.append(len(ms)) or search(ms, *args))
        assert _assert_batch_matches(self.RHO0, *_runs(4, self.ROWS, 5000)) == whole
        # three blocks; a single run beside the batch for each row but the
        # one at epsilon at step 0, and the frozen row's again from rho0
        assert sorted(calls) == [1] * 6 + [2] * 3

    def test_crossed_rows_take_no_product_after_the_stacked_search(self, monkeypatch):
        # the search squares and lifts once for the batch; each row's single
        # run starts within epsilon and returns before any search
        events = []
        search, matvecs = simtime._powered_crossings, simtime._matvecs
        monkeypatch.setattr(simtime, "_powered_crossings", lambda ms, *args: events.append(len(ms)) or search(ms, *args))
        monkeypatch.setattr(simtime, "_matvecs", lambda *args: events.append("matvec") or matvecs(*args))
        rows = [row for row in self.ROWS if row[1] != math.pi]
        res = nstar_simulated_batch(self.RHO0, *_runs(4, rows, 5000), engine="recursion")
        assert all(r.reachable for r in res) and len({r.n_star for r in res}) == len(rows)
        assert events == [len(rows)] + ["matvec"] * (5000).bit_length()

    def test_a_row_the_guard_hands_to_the_scan(self, monkeypatch):
        # finished from rho0 with the whole n_max, whose run takes the scan
        calls = []
        scan = simtime._first_crossings
        monkeypatch.setattr(simtime, "_first_crossings", lambda *args: calls.append(1) or scan(*args))
        models, cfgs = _runs(5, [FALLBACK, (0.7, 1.1, 1e-6), (2.0, 0.4, 1e-3)], 3000)
        batch = nstar_simulated_batch(P5, models, cfgs, engine="recursion")
        assert len(calls) == 1
        assert repr(batch[0]) == "ThermalizationResult(n_star=60, t_sim=66.0, final_distance=1.7742467431566822e-06, engine='recursion')"
        assert [repr(r) for r in batch] == [repr(nstar_simulated(P5, m, c, engine="recursion")) for m, c in zip(models, cfgs)]

    # the top powers overflow, as they do in any run at such an n_max
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_n_max_past_int64(self):
        # the lifted counts stay exact as Python ints, and the crossings are
        # those under a cap of 5000 (the frozen row would end in the scan)
        rows = [row for row in self.ROWS if row[1] != math.pi]
        huge = _assert_batch_matches(self.RHO0, *_runs(4, rows, 2**70 + 3))
        small = nstar_simulated_batch(self.RHO0, *_runs(4, rows, 5000), engine="recursion")
        assert [r.n_star for r in huge] == [r.n_star for r in small]

    def test_an_empty_batch(self):
        assert nstar_simulated_batch(self.RHO0, [], [], engine="recursion") == []

    def test_rejects_a_model_off_resonance_or_a_coherent_state(self):
        models, cfgs = _runs(3, [(1.0, 0.9, 1e-3)] * 2, 50)
        counter = ModelSpec(SystemSpec(3, 1.0), AncillaSpec(1.0, 1.0), CounterRotating(1.0, 0.3))
        with pytest.raises(ValueError, match="recursion"):
            nstar_simulated_batch(np.eye(3) / 3, [models[0], counter], cfgs, engine="recursion")
        with pytest.raises(ValueError, match="diagonal"):
            nstar_simulated_batch(random_density_matrix(3, np.random.default_rng(1)), models, cfgs, engine="recursion")

    def test_rejects_an_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            nstar_simulated_batch(np.eye(3) / 3, *_runs(3, [(1.0, 0.9, 1e-3)], 50), engine="auto")


@pytest.mark.parametrize("rows", [1, 3, 8])
def test_stacked_squares_and_matvecs_equal_matrix_by_matrix(rows):
    rng = np.random.default_rng(rows)
    for d in (2, 3, 5, 8, 9, 17, 33, 64, MAX_D):
        p_as = 1.0 / (1.0 + np.exp(-rng.uniform(0.0, 6.0, rows)))
        ms = np.stack([population_step_matrix(d, p_a, j_tau) for p_a, j_tau in zip(p_as, rng.uniform(0.05, 3.0, rows))])
        states = rng.dirichlet(np.ones(d), rows)
        targets = np.stack([gibbs_populations(d, 1.0, beta) for beta in rng.uniform(0.0, 6.0, rows)])
        squares, moved = ms, states
        for _ in range(3):
            squares = squares @ squares
            moved = _matvecs(squares, moved)
        distances = _population_distances(moved, targets)
        for i in range(rows):
            square, one = ms[i], states[i]
            for _ in range(3):
                square = square @ square
                one = square @ one
            assert np.array_equal(squares[i], square), d
            assert np.array_equal(moved[i], one), d
            assert distances[i] == population_distance(one, targets[i]), d


# beta at both ends: 0, the smallest subnormal and normal, large enough that
# every excited weight underflows, and zero temperature
BETAS = st.one_of(st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e3, 1e300, math.inf]), st.floats(0.0, 50.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    # every pairwise-sum regime of a row's sum: below 8, up to 128 and at MAX_D
    st.one_of(st.integers(2, 9), st.integers(2, MAX_D), st.sampled_from([127, MAX_D])),
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from([0.5, 1.0]), st.floats(1e-12, 1.0)),
            st.one_of(st.sampled_from([5e-324, math.pi / 2, math.pi]), st.floats(-12.0, 3.0).map(lambda x: 10.0**x)),
            st.one_of(st.just(1.0), st.floats(-3.0, 3.0).map(lambda x: 10.0**x)),
            BETAS,
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_the_stacked_systems_equal_the_per_row_builders(d, rows):
    with np.errstate(over="ignore"):  # beta omega E_k past the float range, as a row alone
        ms, targets = _population_systems(d, rows)
        for (p_a, j_tau, omega, beta), m, target in zip(rows, ms, targets):
            assert m.tobytes() == population_step_matrix(d, p_a, j_tau).tobytes()
            assert target.tobytes() == gibbs_populations(d, omega, beta).tobytes()
    # the SL generators of the rows' p_A, at Gamma = the first row's omega
    gamma = rows[0][2]
    for (p_a, *_), gen in zip(rows, _sl_generators(d, [row[0] for row in rows], gamma)):
        assert gen.tobytes() == _sl_generator_entry_by_entry(d, p_a, gamma).tobytes()
        assert sl_population_generator(d, p_a, gamma).tobytes() == gen.tobytes()


def _sl_generator_entry_by_entry(d, p_a, gamma):
    # an independent coding of sl_population_generator: one rate at a time
    gen = np.zeros((d, d))
    for k in range(d - 1):
        gen[k, k + 1] = gamma * p_a
        gen[k + 1, k] = gamma * (1.0 - p_a)
    np.fill_diagonal(gen, -gen.sum(axis=0))
    return gen


GOOD = (0.7, 0.9, 1.0, 1.0)


@pytest.mark.parametrize(
    "d, bad",
    [
        (1, GOOD),
        (3.0, GOOD),
        (3, (0.0, 0.9, 1.0, 1.0)),
        (3, (1.5, 0.9, 1.0, 1.0)),
        (3, (math.nan, 0.9, 1.0, 1.0)),
        (3, (0.7, math.inf, 1.0, 1.0)),
        (3, (0.7, math.nan, 1.0, 1.0)),
        (3, (0.7, 0.9, 0.0, 1.0)),
        (3, (0.7, 0.9, math.inf, 1.0)),
        (3, (0.7, 0.9, 1.0, -1.0)),
        (3, (0.7, 0.9, 1.0, math.nan)),
        (3, (0.7, "0.9", 1.0, 1.0)),
    ],
)
def test_the_stacked_systems_reject_what_a_row_alone_rejects(d, bad):
    def per_row(p_a, j_tau, omega, beta):
        population_step_matrix(d, p_a, j_tau)
        gibbs_populations(d, omega, beta)

    with pytest.raises(Exception) as alone:
        per_row(*bad)
    with pytest.raises(type(alone.value), match=re.escape(str(alone.value))):
        _population_systems(d, [GOOD, bad, GOOD])


def test_a_batch_row_whose_j_tau_overflows_raises_as_its_run_does():
    rho0 = np.eye(3, dtype=complex) / 3
    models = [flip_flop_model(3, 1.0, 1.0, 1.0), ModelSpec(SystemSpec(3, 1.0), AncillaSpec(1.0, 1.0), IsotropicFlipFlop(1e300))]
    cfgs = [CollisionConfig(tau=1e10, n_max=50, epsilon=1e-3)] * 2
    with pytest.raises(ValueError) as alone:
        nstar_simulated(rho0, models[1], cfgs[1], engine="recursion")
    with pytest.raises(type(alone.value), match=re.escape(str(alone.value))):
        nstar_simulated_batch(rho0, models, cfgs, engine="recursion")
