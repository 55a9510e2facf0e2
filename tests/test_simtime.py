"""Unit tests for Lambert-W, simulated crossings, and closed-form costs."""

import math
import sys
import time
from collections import Counter
from contextlib import ExitStack
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ri_thermalizer import simtime
from ri_thermalizer.collisions import (
    CollisionConfig,
    _coherence_step,
    density_matrix_d3,
    evolve_populations,
    population_step_matrix,
)
from ri_thermalizer.errors import (
    EpsilonTooLarge,
    FrozenDynamics,
    NoConvergence,
    NoRootBelowCap,
    OutOfDomain,
    StepTooLarge,
)
from ri_thermalizer.linalg import _trace_distances
from ri_thermalizer.models import (
    AncillaSpec,
    CounterRotating,
    ModelSpec,
    RandomFull,
    SystemSpec,
    flip_flop_model,
    gibbs_populations,
    random_density_matrix,
    system_gibbs_state,
)
from ri_thermalizer.simtime import (
    ThermalizationResult,
    bracket_crossing,
    ceil_collisions,
    lambert_w,
    nstar_closed_d3_zeroT,
    nstar_general_zeroT_solve,
    nstar_simulated,
    population_distance,
    tsim_closed_sl_zeroT,
    tsim_general_sl_zeroT_solve,
    tsim_simulated_sl,
)
from ri_thermalizer.spectra import (
    lambda_closed,
    liouvillian_matrix,
    nstar_estimate_discrete,
    stationary_populations_d3,
    tsim_estimate_sl,
)

NEG_INV_E = -math.exp(-1.0)


def bisect_w_lower(z, lo=-80.0, hi=-1.0):
    """Independent oracle: bisection on w e^w = z over the lower branch."""
    f = lambda w: w * math.exp(w) - z
    assert f(lo) < 0 < f(hi) or f(lo) > 0 > f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (f(hi) > 0):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestLambertW:
    def test_principal_at_zero(self):
        assert lambert_w(0.0, 0) == 0.0

    def test_branch_point_values(self):
        assert lambert_w(NEG_INV_E, 0) == pytest.approx(-1.0, abs=1e-6)
        assert lambert_w(NEG_INV_E, -1) == pytest.approx(-1.0, abs=1e-6)

    def test_lower_branch_against_bisection(self):
        for z in (-0.1, -0.01, -0.25, -0.35):
            assert lambert_w(z, -1) == pytest.approx(bisect_w_lower(z), abs=1e-10)

    def test_residuals_on_grids(self):
        for z in np.linspace(NEG_INV_E, 10.0, 1000):
            w = lambert_w(float(z), 0)
            assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, abs(z))
        for z in np.linspace(NEG_INV_E, -1e-12, 1000):
            w = lambert_w(float(z), -1)
            assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, abs(z))
            assert w <= -1.0 + 1e-8

    def test_deep_tail_lower_branch(self):
        for z in (-1e-10, -1e-50, -1e-200):
            w = lambert_w(z, -1)
            assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, abs(z))

    @pytest.mark.parametrize("z", [1e308, sys.float_info.max])
    def test_top_of_the_float_range(self, z):
        # Halley's denominator overflows here; W0 itself is about 703
        w = lambert_w(z, 0)
        assert abs(w * math.exp(w) - z) <= 1e-12 * z

    def test_domain_errors(self):
        with pytest.raises(OutOfDomain):
            lambert_w(NEG_INV_E - 1e-6, 0)
        with pytest.raises(OutOfDomain):
            lambert_w(0.1, -1)
        with pytest.raises(ValueError):
            lambert_w(0.1, 2)

    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("branch", [0, -1])
    def test_non_finite_z_is_out_of_domain(self, z, branch):
        # inf and NaN used to stall Halley's iteration, NoConvergence
        with pytest.raises(OutOfDomain, match="not finite"):
            lambert_w(z, branch)


class TestNstarSimulated:
    def test_already_thermal(self):
        model = flip_flop_model(3, omega=1.0, beta=1.0, j=0.5)
        cfg = CollisionConfig(tau=1.0, n_max=100, epsilon=1e-2)
        from ri_thermalizer.models import system_gibbs_state

        res = nstar_simulated(system_gibbs_state(model.system, 1.0), model, cfg)
        assert res.n_star == 0 and res.t_sim == 0.0

    def test_a_nan_start_raises_value_error_before_any_distance(self):
        # it ended in NoConvergence from the trace distance's eigvalsh, which
        # test_linalg still checks on a NaN pair
        model = flip_flop_model(3, omega=1.0, beta=1.0, j=1.0)
        rho0 = np.full((3, 3), math.nan, dtype=complex)
        with pytest.raises(ValueError, match="expected finite entries"):
            nstar_simulated(rho0, model, CollisionConfig(tau=1.0, n_max=5, epsilon=1e-3), engine="brute_force")

    def test_two_collisions_at_optimal_point(self):
        model = flip_flop_model(3, omega=1.0, beta=math.inf, j=1.0)
        cfg = CollisionConfig(tau=math.pi / 2, n_max=100, epsilon=1e-4)
        res = nstar_simulated(np.eye(3, dtype=complex) / 3, model, cfg)
        assert res.n_star == 2
        assert res.t_sim == pytest.approx(math.pi, abs=1e-15)

    def test_crossing_invariant(self):
        model = flip_flop_model(3, omega=1.0, beta=3.0, j=1e-3)
        cfg = CollisionConfig(tau=(math.pi / 5) / 1e-3, n_max=10**6, epsilon=1e-4)
        res = nstar_simulated(np.eye(3, dtype=complex) / 3, model, cfg)
        from ri_thermalizer.models import gibbs_populations

        pops = evolve_populations(
            np.full(3, 1 / 3), model.ancilla.ground_population, math.pi / 5, res.n_star
        )
        target = gibbs_populations(3, 1.0, 3.0)
        assert population_distance(pops[res.n_star], target) <= 1e-4
        assert population_distance(pops[res.n_star - 1], target) > 1e-4

    def test_unreachable_at_frozen_point(self):
        model = flip_flop_model(3, omega=1.0, beta=2.0, j=1.0)
        cfg = CollisionConfig(tau=math.pi, n_max=50, epsilon=1e-4)
        res = nstar_simulated(np.eye(3, dtype=complex) / 3, model, cfg)
        assert not res.reachable
        assert res.n_star is None and res.t_sim is None
        assert res.final_distance > 1e-4

    def test_frozen_map_returns_at_once(self):
        # J*tau = pi makes the population step matrix exactly the identity
        model = flip_flop_model(4, omega=1.0, beta=2.0, j=1.0)
        cfg = CollisionConfig(tau=math.pi, n_max=10**8, epsilon=1e-4)
        p0 = np.array([0.1, 0.2, 0.3, 0.4])
        start = time.perf_counter()
        res = nstar_simulated(np.diag(p0).astype(complex), model, cfg)
        assert time.perf_counter() - start < 1.0
        assert not res.reachable
        p_a = model.ancilla.ground_population
        scanned = evolve_populations(p0, p_a, math.pi, 1000)[-1]
        assert res.final_distance == population_distance(scanned, gibbs_populations(4, 1.0, 2.0))

    def test_engines_agree(self):
        model = flip_flop_model(3, omega=1.0, beta=2.0, j=0.9)
        cfg = CollisionConfig(tau=1.0, n_max=10**4, epsilon=1e-3)
        rho0 = np.eye(3, dtype=complex) / 3
        a = nstar_simulated(rho0, model, cfg, engine="recursion")
        b = nstar_simulated(rho0, model, cfg, engine="brute_force")
        assert a.n_star == b.n_star

    def test_engines_agree_with_coherences(self):
        rng = np.random.default_rng(13)
        model = flip_flop_model(3, omega=1.0, beta=1.5, j=0.7)
        cfg = CollisionConfig(tau=1.2, n_max=10**4, epsilon=1e-3)
        rho0 = random_density_matrix(3, rng)
        a = nstar_simulated(rho0, model, cfg, engine="recursion")
        b = nstar_simulated(rho0, model, cfg, engine="brute_force")
        assert a.n_star == b.n_star


class TestEngineRecorded:
    """ThermalizationResult.engine names the engine that actually ran."""

    CFG = CollisionConfig(tau=1.0, n_max=10**4, epsilon=1e-3)

    def test_auto_falls_back_to_brute_force_for_a_coherent_state_above_d3(self):
        model = flip_flop_model(4, omega=1.0, beta=1.5, j=0.7)
        rho0 = random_density_matrix(4, np.random.default_rng(14))
        auto = nstar_simulated(rho0, model, self.CFG)
        brute = nstar_simulated(rho0, model, self.CFG, engine="brute_force")
        assert auto.engine == "brute_force"
        assert (auto.n_star, auto.final_distance) == (brute.n_star, brute.final_distance)

    @pytest.mark.parametrize("d, coherent", [(4, False), (3, False), (3, True)])
    def test_auto_takes_the_recursion_where_it_applies(self, d, coherent):
        model = flip_flop_model(d, omega=1.0, beta=1.5, j=0.7)
        rho0 = random_density_matrix(d, np.random.default_rng(15))
        if not coherent:
            rho0 = np.diag(np.diag(rho0))
        assert nstar_simulated(rho0, model, self.CFG).engine == "recursion"

    def test_auto_takes_brute_force_off_resonance(self):
        model = flip_flop_model(3, omega=1.0, beta=1.5, j=0.7)
        model = replace(model, ancilla=replace(model.ancilla, omega=1.1))
        assert nstar_simulated(np.eye(3, dtype=complex) / 3, model, self.CFG).engine == "brute_force"

    @pytest.mark.parametrize(
        "interaction, engine, message",
        [
            (CounterRotating(j=0.7, j_prime=0.2), "recursion", "recursion engine unavailable"),
            (None, "ode_sl", "unknown engine 'ode_sl'"),
        ],
        ids=["recursion-on-counter-rotating", "unknown"],
    )
    def test_an_engine_that_cannot_run_raises(self, interaction, engine, message):
        model = flip_flop_model(3, omega=1.0, beta=1.5, j=0.7)
        if interaction is not None:
            model = replace(model, interaction=interaction)
        with pytest.raises(ValueError, match=message):
            nstar_simulated(np.eye(3, dtype=complex) / 3, model, self.CFG, engine=engine)

    @pytest.mark.parametrize("engine", ["auto", "recursion", "brute_force"])
    def test_a_state_of_another_shape_raises_before_any_work(self, engine):
        model = flip_flop_model(3, omega=1.0, beta=1.5, j=0.7)
        with pytest.raises(ValueError, match=r"shape \(2, 2\).*\(3, 3\)"):
            nstar_simulated(np.eye(2, dtype=complex) / 2, model, self.CFG, engine=engine)

    @pytest.mark.parametrize("engine", ["recursion", "brute_force"])
    def test_an_explicit_engine_is_recorded(self, engine):
        model = flip_flop_model(3, omega=1.0, beta=1.5, j=0.7)
        assert nstar_simulated(np.eye(3, dtype=complex) / 3, model, self.CFG, engine=engine).engine == engine

    @pytest.mark.parametrize("t_max", [1e4, 1e-3])
    def test_sl_scan_records_ode_sl(self, t_max):
        # reachable and unreachable
        res = tsim_simulated_sl(np.full(3, 1 / 3), 0.8, 1.0, 1e-4, t_max=t_max)
        assert res.engine == "ode_sl"
        assert res.reachable == (t_max > 1)


class TestStartWithinEpsilon:
    """A single run answers a start within epsilon before it builds any
    dynamics, with what its engine's search returns at step 0."""

    ENGINES = {"diagonal": "recursion", "coherent": "recursion", "fixed": "brute_force", "random": "brute_force"}

    @staticmethod
    def _model(path, d, beta, j_tau, seed):
        if path == "random":
            return ModelSpec(SystemSpec(d, 1.0), AncillaSpec(1.0, beta), RandomFull(lo=1e-3, hi=math.pi * 1e-3, seed=seed)), 100.0
        return flip_flop_model(d, omega=1.0, beta=beta, j=1.0), j_tau

    @staticmethod
    def _searched(rho0, model, cfg, path):
        # the path's search called directly on the one row, as nstar_simulated calls it
        d, beta, j_tau = model.system.d, model.ancilla.beta, getattr(model.interaction, "j", 0.0) * cfg.tau
        if path in ("diagonal", "coherent"):
            m = population_step_matrix(d, model.ancilla.ground_population, j_tau)
        if path == "diagonal":
            p, target = np.diag(rho0).real, gibbs_populations(d, 1.0, beta)
            ((n, dist, _),) = simtime._powered_crossings(m[None], p[None], target[None], [cfg.epsilon], cfg.n_max)
        else:
            if path == "coherent":
                coherence = _coherence_step(model.ancilla.ground_population, j_tau, cfg.tau)
                step = lambda states, _: density_matrix_d3(m @ states[0].diagonal().real, *coherence(states[0, 0, 1], states[0, 0, 2], states[0, 1, 2]))[None]
                states, params = rho0[None], (system_gibbs_state(model.system, beta)[None],)
            else:
                step, states, params = simtime._cptp_scan([(model, cfg)], rho0)
            ((n, dist, *_),) = simtime._first_crossings(step, states, params, _trace_distances, [cfg.epsilon], cfg.n_max)
        return ThermalizationResult(n, None if n is None else n * cfg.tau, dist, TestStartWithinEpsilon.ENGINES[path])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from(["diagonal", "coherent", "fixed", "random"]),
        st.integers(2, 6),
        st.one_of(st.just(math.inf), st.floats(0.0, 5.0)),
        st.floats(0.1, 3.0),
        st.integers(0, 2**32 - 1),
    )
    def test_epsilon_at_the_start_distance(self, path, d, beta, j_tau, seed):
        # epsilon at the start's distance and one float either side of it
        d = 3 if path == "coherent" else d
        model, tau = self._model(path, d, beta, j_tau, seed)
        rho0 = random_density_matrix(d, np.random.default_rng(seed))
        rho0 = np.diag(np.diag(rho0)) if path == "diagonal" else rho0
        start = self._searched(rho0, model, CollisionConfig(tau=tau, n_max=200, epsilon=math.nextafter(1.0, 0.0)), path)
        assert start.n_star == 0
        for eps in (math.nextafter(start.final_distance, 0.0), start.final_distance, math.nextafter(start.final_distance, 1.0)):
            cfg = CollisionConfig(tau=tau, n_max=200, epsilon=eps)
            built = []
            with ExitStack() as patches:
                for name in ("_cptp_scan", "_population_maps", "_powered_crossings", "_first_crossings"):
                    counted = lambda *args, fn=getattr(simtime, name), name=name: built.append(name) or fn(*args)
                    patches.enter_context(mock.patch.object(simtime, name, counted))
                res = nstar_simulated(rho0, model, cfg, engine=self.ENGINES[path])
            assert repr(res) == repr(self._searched(rho0, model, cfg, path))
            # only a start above epsilon builds and runs the search
            assert bool(built) == (eps < start.final_distance)

    @pytest.mark.parametrize(
        "interaction, rho0, message",
        [
            (CounterRotating(j=0.7, j_prime=0.2), np.eye(3) / 3, "recursion engine unavailable"),
            (None, np.eye(3)[None] / 3, r"shape \(1, 3, 3\)"),
        ],
        ids=["non-resonant", "shape"],
    )
    def test_a_start_within_epsilon_still_raises(self, interaction, rho0, message):
        # the maximally mixed start is the beta = 0 target itself
        model = flip_flop_model(3, omega=1.0, beta=0.0, j=0.7)
        model = model if interaction is None else replace(model, interaction=interaction)
        with pytest.raises(ValueError, match=message):
            nstar_simulated(rho0, model, CollisionConfig(tau=1.0, n_max=10, epsilon=0.5), engine="recursion")

    @pytest.mark.parametrize("kind", ["fixed", "random", "recursion"])
    def test_a_batch_whose_rows_all_cross_searches_once_per_block(self, monkeypatch, kind):
        # two rows a block: each block makes one search, and each row's
        # report, from its state at n*, builds no map, unitary or draw
        if kind == "random":
            rows = [(0.0, 7, 0.05), (0.5, 8, 0.05), (2.0, 9, 0.05), (2.0, 10, 0.02), (math.inf, 11, 0.05)]
            models = [self._model("random", 3, beta, None, seed)[0] for beta, seed, _ in rows]
            cfgs = [CollisionConfig(tau=100.0, n_max=400, epsilon=eps) for *_, eps in rows]
        else:
            rows = [(0.5, 0.9, 1e-4), (2.0, 0.9, 1e-4), (1.0, 1.2, 1e-3), (3.0, 0.7, 1e-5), (math.inf, 1.5, 1e-4)]
            models = [flip_flop_model(3, omega=1.0, beta=beta, j=1.0) for beta, *_ in rows]
            cfgs = [CollisionConfig(tau=j_tau, n_max=5000, epsilon=eps) for _, j_tau, eps in rows]
        engine = "recursion" if kind == "recursion" else "brute_force"
        row_bytes = (5000).bit_length() * 8 * 3 * 3 if kind == "recursion" else simtime._CPTP_ROW_ARRAYS * 16 * 6 * 6
        monkeypatch.setattr(simtime, "_BLOCK_BYTES", 2 * row_bytes)
        calls, reporting = Counter(), []

        def counted(name, fn):
            return lambda *args, **kwargs: calls.update([(name, bool(reporting))]) or fn(*args, **kwargs)

        def report(*args, **kwargs):
            reporting.append(True)
            try:
                return single(*args, **kwargs)
            finally:
                reporting.pop()

        names = ("_cptp_scan", "_powered_crossings", "unitary_from_hamiltonian", "_population_maps", "_draw_couplings", "_first_crossings")
        for name in names:
            monkeypatch.setattr(simtime, name, counted(name, getattr(simtime, name)))
        single = simtime.nstar_simulated
        monkeypatch.setattr(simtime, "nstar_simulated", report)
        res = simtime.nstar_simulated_batch(np.eye(3, dtype=complex) / 3, models, cfgs, engine=engine)
        assert all(r.reachable for r in res) and len({r.n_star for r in res}) == len(rows)
        search = "_powered_crossings" if kind == "recursion" else "_cptp_scan"
        assert calls[search, False] == 3
        assert not [name for name, in_report in calls if in_report]


class TestPoweredCrossing:
    """The diagonal recursion's O(log n_max) search against the linear scan."""

    @pytest.mark.parametrize(
        "d, beta, j_tau, p0",
        [
            (3, 2.0, 0.3, None),
            (5, 0.7, 1.1, [0.05, 0.3, 0.1, 0.4, 0.15]),
            (8, 4.0, math.pi / 16, None),
            (10, 0.0, 2.9, np.arange(1, 11) / 55),
        ],
    )
    def test_epsilon_on_a_scanned_distance(self, d, beta, j_tau, p0):
        # epsilon at a distance of the scan, and one float either side of it
        p0 = np.full(d, 1 / d) if p0 is None else np.array(p0)
        n_max = 3000
        model = flip_flop_model(d, omega=1.0, beta=beta, j=1.0)
        orbit = evolve_populations(p0, model.ancilla.ground_population, j_tau, n_max)
        target = gibbs_populations(d, 1.0, beta)
        dists = [population_distance(p, target) for p in orbit]
        rho0 = np.diag(p0).astype(complex)
        for n in (1, 2, 7, 60, 401, 2999):
            for eps in (math.nextafter(dists[n], 0.0), dists[n], math.nextafter(dists[n], 1.0)):
                expected = next((k for k, x in enumerate(dists) if x <= eps), None)
                res = nstar_simulated(rho0, model, CollisionConfig(tau=j_tau, n_max=n_max, epsilon=eps))
                assert res.n_star == expected
                assert res.final_distance == dists[n_max if expected is None else expected]

    def test_distance_evaluations_grow_with_log_n_max(self, monkeypatch):
        # the nstar_recursion benchmark's sweep point: d = 8, J tau = pi/16
        # one stacked distance call per probe, each one row here
        calls = []
        counted = simtime._population_distances

        def counting(states, targets):
            calls.append(len(states))
            return counted(states, targets)

        monkeypatch.setattr(simtime, "_population_distances", counting)
        n_max = 100_000
        cfg = CollisionConfig(tau=(math.pi / 16) / 1e-3, n_max=n_max, epsilon=1e-6)
        for beta in (0.2, 1.0, 3.3, 6.0, 10.0):
            model = flip_flop_model(8, omega=1.0, beta=beta, j=1e-3)
            calls.clear()
            res = nstar_simulated(np.eye(8, dtype=complex) / 8, model, cfg)
            assert res.n_star is not None and res.n_star > 100
            assert 0 < sum(calls) <= 3 * math.log2(n_max) + 3


# the reference for the powered search's scan of the rows its guard hands
# over: one row at a time, a chunk at a time, with its own repeated-state test
_FALLBACK_CHUNK = 2**12


def _fallback_scan(m: np.ndarray, p: np.ndarray, target: np.ndarray, epsilon: float, n_max: int):
    """(n, distance) of the scan a row goes to when the powered search's
    rounding guard cannot decide: one collision at a time on a (1, d, 1)
    column, a chunk at a time up to MAX_STEPS.  An orbit whose collision
    returns its state bit for bit never crosses, whatever n_max; only one
    that MAX_STEPS cuts off while still moving raises NoConvergence."""
    step = lambda states, params: params[0] @ states
    bound, params, state = min(n_max, simtime.MAX_STEPS), (m[None], target[None]), p[:, None]
    for n in range(0, bound, _FALLBACK_CHUNK):
        ((k, dist, _, state),) = simtime._first_crossings(step, state[None], params, simtime._column_distances, [epsilon], min(bound - n, _FALLBACK_CHUNK))
        if k is not None:
            return n + k, dist
        if np.array_equal(step(state[None], params)[0], state):
            return None, dist
    if n_max > simtime.MAX_STEPS:
        raise NoConvergence(f"the powered search's fallback scan does not reach epsilon = {epsilon:.3g} within MAX_STEPS = {simtime.MAX_STEPS} collisions")
    return None, dist


def _outcome(run):
    """repr of run()'s result, or the type and message of its NoConvergence."""
    try:
        return repr(run())
    except NoConvergence as err:
        return ("NoConvergence", str(err))


def _scan_spy(calls):
    """A stand-in for ``_first_crossings`` that appends [rows, collisions
    allowed, steps taken] for each call."""
    scan = simtime._first_crossings

    def spy(step, states, params, distance, epsilons, n_max):
        calls.append([len(states), n_max, 0])

        def counted(states, params):
            calls[-1][2] += 1
            return step(states, params)

        return scan(counted, states, params, distance, epsilons, n_max)

    return spy


class TestFallbackScan:
    """The scan the powered search gives its rows when rounding cannot
    decide: one stacked scan of every handed row, over at most MAX_STEPS
    collisions."""

    # epsilon far below the distance's rounding floor: the guard fails at
    # every n_max and the scan never crosses.  At beta = 1, J tau = 1 the
    # scan's state repeats bit for bit from collision 84 on; at beta = 3,
    # J tau = pi/2 it never does
    ORBITS = [(1.0, 1.0), (3.0, math.pi / 2)]
    # epsilon on the scanned distance at collision 60 fails the guard
    P5, CROSSING = np.array([0.05, 0.3, 0.1, 0.4, 0.15]), (0.7, 1.1, 60)

    @staticmethod
    def _run(beta, j_tau, n_max, epsilon=1e-300, p0=np.full(3, 1 / 3)):
        model = flip_flop_model(p0.size, omega=1.0, beta=beta, j=1.0)
        return nstar_simulated(np.diag(p0).astype(complex), model, CollisionConfig(tau=j_tau, n_max=n_max, epsilon=epsilon))

    @staticmethod
    def _on_scan(p0, beta, j_tau, n):
        orbit = evolve_populations(p0, AncillaSpec(1.0, beta).ground_population, j_tau, n)
        return population_distance(orbit[-1], gibbs_populations(p0.size, 1.0, beta))

    @pytest.fixture
    def scans(self, monkeypatch):
        """[rows, collisions allowed, steps taken] of each call of the scan."""
        calls = []
        monkeypatch.setattr(simtime, "_first_crossings", _scan_spy(calls))
        return calls

    @pytest.mark.parametrize("beta, j_tau", ORBITS)
    def test_a_scan_that_does_not_cross_by_max_steps_raises(self, monkeypatch, scans, beta, j_tau):
        # unless its state repeats: that orbit never crosses, whatever n_max
        monkeypatch.setattr(simtime, "MAX_STEPS", 5000)
        if beta == 1.0:
            res = self._run(beta, j_tau, 10**6)
            orbit = evolve_populations(np.full(3, 1 / 3), AncillaSpec(1.0, beta).ground_population, j_tau, 100)
            assert res.n_star is None
            assert res.final_distance == population_distance(orbit[-1], gibbs_populations(3, 1.0, beta))
        else:
            with pytest.raises(NoConvergence, match="MAX_STEPS"):
                self._run(beta, j_tau, 10**6)
        assert [rows for rows, *_ in scans] == [1] and sum(steps for *_, steps in scans) <= 5000

    @pytest.mark.parametrize("beta, j_tau", ORBITS)
    def test_within_max_steps_it_gives_the_scan(self, scans, beta, j_tau):
        n_max = 10_000
        res = self._run(beta, j_tau, n_max)
        orbit = evolve_populations(np.full(3, 1 / 3), AncillaSpec(1.0, beta).ground_population, j_tau, n_max)
        assert res.n_star is None
        assert res.final_distance == population_distance(orbit[-1], gibbs_populations(3, 1.0, beta))
        # a state that repeats from collision 84 on ends the scan at the
        # first check after its collision 85
        fixed = beta == 1.0
        assert scans == [[1, n_max, simtime._CHECK_EVERY * math.ceil(85 / simtime._CHECK_EVERY) if fixed else n_max]]

    def test_a_crossing_before_max_steps_is_returned(self, monkeypatch, scans):
        beta, j_tau, at = self.CROSSING
        target = gibbs_populations(5, 1.0, beta)
        orbit = evolve_populations(self.P5, AncillaSpec(1.0, beta).ground_population, j_tau, 100)
        eps = self._on_scan(self.P5, beta, j_tau, at)
        expected = next(k for k, p in enumerate(orbit) if population_distance(p, target) <= eps)
        monkeypatch.setattr(simtime, "MAX_STEPS", 1000)
        assert self._run(beta, j_tau, 10**6, eps, self.P5).n_star == expected
        assert [allowed for _, allowed, _ in scans] == [1000]

    @pytest.mark.parametrize("n_max", [10_000, 10**6])
    def test_the_handed_rows_of_a_batch_take_one_stacked_scan(self, monkeypatch, n_max):
        # a frozen orbit, a moving one and a crossing at collision 40, all at
        # d = 3 from the maximally mixed state; past MAX_STEPS the moving
        # row raises from that one scan
        monkeypatch.setattr(simtime, "MAX_STEPS", 5000)
        p0 = np.full(3, 1 / 3)
        rows = [(*self.ORBITS[0], 1e-300), (*self.ORBITS[1], 1e-300), (0.7, 1.1, self._on_scan(p0, 0.7, 1.1, 40))]
        models = [flip_flop_model(3, omega=1.0, beta=beta, j=1.0) for beta, _, _ in rows]
        cfgs = [CollisionConfig(tau=j_tau, n_max=n_max, epsilon=eps) for _, j_tau, eps in rows]
        rho0 = np.diag(p0).astype(complex)
        singles = [_outcome(lambda: nstar_simulated(rho0, m, c)) for m, c in zip(models, cfgs)]
        calls = []
        monkeypatch.setattr(simtime, "_first_crossings", _scan_spy(calls))
        batch = _outcome(lambda: [repr(r) for r in simtime.nstar_simulated_batch(rho0, models, cfgs, engine="recursion")])
        if n_max > simtime.MAX_STEPS:
            assert batch == singles[1] and batch[0] == "NoConvergence"
        else:
            assert batch == repr(singles) and "n_star=None" in singles[0] + singles[1]
        # the frozen row's report runs again from rho0, and scans alone
        assert calls[0][:2] == [3, min(n_max, simtime.MAX_STEPS)]
        assert [rows for rows, *_ in calls[1:]] == ([1] if n_max <= simtime.MAX_STEPS else [])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.one_of(st.integers(2, 3), st.integers(2, 12)),
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from([0.5, 1.0, 3.0, 8.0]), st.floats(0.0, 8.0)),
            # pi/2 keeps the d = 2 and 3 orbits moving; the others freeze
            st.one_of(st.just(math.pi / 2), st.sampled_from([1.0, 2.0]), st.floats(0.2, 2.5)),
            # below the rounding floor, or on the scanned distance at a collision
            st.one_of(st.just(None), st.integers(1, 300)),
        ),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from([1, 40, 1500, 2000, 10**6, 10**7]),
    st.integers(0, 2**32 - 1),
)
def test_handed_rows_give_the_fallback_scan(d, rows, n_max, seed):
    # every single run the guard hands to the scan gives the reference's
    # result or NoConvergence, and the batch gives the single runs'
    p0 = np.random.default_rng(seed).dirichlet(np.ones(d))
    models = [flip_flop_model(d, omega=1.0, beta=beta, j=1.0) for beta, _, _ in rows]
    cfgs = []
    for model, (beta, j_tau, at) in zip(models, rows):
        eps = 1e-300 if at is None else TestFallbackScan._on_scan(p0, beta, j_tau, at)
        cfgs.append(CollisionConfig(tau=j_tau, n_max=n_max, epsilon=eps if 0.0 < eps < 1.0 else 1e-300))
    rho0 = np.diag(p0).astype(complex)
    with mock.patch.object(simtime, "MAX_STEPS", 2000):
        singles = []
        for model, cfg in zip(models, cfgs):
            calls = []
            with mock.patch.object(simtime, "_first_crossings", _scan_spy(calls)):
                singles.append(_outcome(lambda: nstar_simulated(rho0, model, cfg)))
            if calls:
                m = population_step_matrix(d, model.ancilla.ground_population, cfg.tau)

                def reference():
                    n, dist = _fallback_scan(m, p0, gibbs_populations(d, 1.0, model.ancilla.beta), cfg.epsilon, n_max)
                    return ThermalizationResult(n, None if n is None else n * cfg.tau, dist, "recursion")

                expected = _outcome(reference)
                assert singles[-1] == expected
                event("raised" if isinstance(expected, tuple) else "reached" if "n_star=None" not in expected else "unreachable")
        batch = _outcome(lambda: [repr(r) for r in simtime.nstar_simulated_batch(rho0, models, cfgs, engine="recursion")])
    raised = [r for r in singles if isinstance(r, tuple)]
    assert batch == (raised[0] if raised else repr(singles))


def _capped_sl(p0, p_as, h, steps):
    """Each SL row's distance after all its steps from p0, stepped with no
    check on the way, and the step whose state first repeats (None when none
    does)."""
    gens, targets = simtime._sl_systems(p0.size, p_as, 1.0)
    state, step, frozen = np.tile(p0[:, None], (len(p_as), 1, 1)), simtime._sl_step(h), [None] * len(p_as)
    for n in range(1, steps + 1):
        after = step(state, (gens,))
        for i in np.flatnonzero((after == state).all(axis=(1, 2))):
            frozen[i] = n if frozen[i] is None else frozen[i]
        state = after
    return simtime._column_distances(state, targets).tolist(), frozen


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    st.integers(2, 4),
    st.lists(st.one_of(st.just(math.inf), st.floats(0.0, 8.0)), min_size=1, max_size=3),
    st.sampled_from([10.0, 40.0, 80.0]),
)
def test_an_sl_row_below_the_rounding_floor_gives_the_capped_scan(d, betas, t_max):
    # most of these rows stop moving within t_max; each still reports the
    # distance after its last RK4 step, and a single run's scan stops at
    # its first check after its state repeats
    p0, p_as = np.linspace(2.0, 1.0, d) / (1.5 * d), [AncillaSpec(1.0, beta).ground_population for beta in betas]
    h, steps = simtime._sl_steps(p_as[0], 1.0, 1e-300, t_max, None)
    dists, frozen = _capped_sl(p0, p_as, h, steps)
    expected = [repr(ThermalizationResult(None, None, dist, "ode_sl")) for dist in dists]
    singles = []
    for p_a, f in zip(p_as, frozen):
        event("moving" if f is None else "frozen")
        calls = []
        with mock.patch.object(simtime, "_first_crossings", _scan_spy(calls)):
            singles.append(repr(tsim_simulated_sl(p0, p_a, 1.0, 1e-300, t_max)))
        assert calls == [[1, steps, steps if f is None else min(steps, simtime._CHECK_EVERY * math.ceil(f / simtime._CHECK_EVERY))]]
    assert singles == expected
    assert [repr(r) for r in simtime.tsim_simulated_sl_batch(p0, p_as, 1.0, [1e-300] * len(p_as), t_max)] == expected


class TestTsimSimulatedInputs:
    @pytest.mark.parametrize("p_a", [0.0, -0.2, 1.5, math.nan])
    def test_rejects_ground_population_outside_unit_interval(self, p_a):
        with pytest.raises(ValueError):
            tsim_simulated_sl(np.full(3, 1 / 3), p_a, 1.0, 1e-4, t_max=10.0)

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_rejects_non_positive_gamma(self, gamma):
        with pytest.raises(ValueError):
            tsim_simulated_sl(np.full(3, 1 / 3), 0.8, gamma, 1e-4, t_max=10.0)

    @pytest.mark.parametrize("epsilon", [math.nan, 0.0, -1.0, 1.0])
    def test_rejects_epsilon_outside_unit_interval(self, epsilon):
        with pytest.raises(ValueError):
            tsim_simulated_sl(np.full(3, 1 / 3), 0.8, 1.0, epsilon, t_max=10.0)

    @pytest.mark.parametrize("t_max", [0.0, -5.0, math.inf])
    def test_rejects_non_positive_t_max(self, t_max):
        with pytest.raises(ValueError):
            tsim_simulated_sl(np.full(3, 1 / 3), 0.8, 1.0, 1e-4, t_max=t_max)

    @pytest.mark.parametrize("gamma, t_max", [(1e308, 1e4), (1.0, 1e308)])
    def test_rejects_an_infinite_step_count(self, gamma, t_max):
        # t_max / (0.01 / gamma) overflows; it used to raise OverflowError
        with pytest.raises(ValueError, match="finite number of steps"):
            tsim_simulated_sl(np.full(3, 1 / 3), 0.9, gamma, 1e-4, t_max=t_max)

    @pytest.mark.parametrize("dt, gamma", [(5.0, 1.0), (0.2, 1.0), (0.011, 10.0)])
    def test_rejects_a_step_above_a_tenth_of_the_rate(self, dt, gamma):
        with pytest.raises(StepTooLarge):
            tsim_simulated_sl(np.full(3, 1 / 3), 0.8, gamma, 1e-4, t_max=10.0, dt=dt)

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan])
    def test_rejects_non_positive_dt(self, dt):
        with pytest.raises(ValueError):
            tsim_simulated_sl(np.full(3, 1 / 3), 0.8, 1.0, 1e-4, t_max=10.0, dt=dt)

    def test_default_step_is_a_hundredth_of_the_inverse_rate(self):
        p0 = np.array([0.2, 0.5, 0.3])
        default = tsim_simulated_sl(p0, 0.9, 2.0, 1e-5, t_max=50.0)
        explicit = tsim_simulated_sl(p0, 0.9, 2.0, 1e-5, t_max=50.0, dt=0.01 / 2.0)
        assert default == explicit


@pytest.mark.parametrize(
    "solve, rate",
    [
        (nstar_closed_d3_zeroT, 0.8),
        (tsim_closed_sl_zeroT, 1.0),
        (nstar_general_zeroT_solve, 0.8),
        (tsim_general_sl_zeroT_solve, 1.0),
    ],
)
@pytest.mark.parametrize("epsilon", [math.nan, 0.0, -1e-3, 1.0, 1.5])
def test_zero_temperature_solvers_reject_epsilon_outside_unit_interval(solve, rate, epsilon):
    # each used to return a number here (1.0 for NaN, a finite time at 0, a
    # negative time at 1 and above for some starts) or end in a math error
    for p0 in (np.array([0.2, 0.3, 0.5]), np.array([0.0, 0.9, 0.1])):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
            solve(p0, rate, epsilon)


# one call per function of Gamma that needs 0 < Gamma < inf
GAMMA_FUNCTIONS = {
    "tsim_simulated_sl": lambda gamma: tsim_simulated_sl(np.full(3, 1 / 3), 0.8, gamma, 1e-4, t_max=10.0),
    "tsim_closed_sl_zeroT": lambda gamma: tsim_closed_sl_zeroT(np.full(3, 1 / 3), gamma, 1e-3),
    "tsim_general_sl_zeroT_solve": lambda gamma: tsim_general_sl_zeroT_solve(np.full(3, 1 / 3), gamma, 1e-3),
    "tsim_estimate_sl": lambda gamma: tsim_estimate_sl(np.full(3, 1 / 3) - stationary_populations_d3(0.8), 0.8, gamma, 1e-4),
    "liouvillian_matrix": lambda gamma: liouvillian_matrix(3, 0.8, gamma),
    "lambda_closed": lambda gamma: lambda_closed(3, 0.8, gamma),
}


@pytest.mark.parametrize("name", GAMMA_FUNCTIONS)
@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
def test_every_function_of_gamma_rejects_a_rate_outside_zero_to_inf(name, gamma):
    # each used to return a number for some of these (-8.12 from
    # tsim_closed_sl_zeroT at Gamma = -1, 0.0 at inf, NaN matrices) or end
    # in a ZeroDivisionError
    with pytest.raises(ValueError, match="Gamma must be positive and finite"):
        GAMMA_FUNCTIONS[name](gamma)


# the users of flip_flop_rates, the one source of lambda_+ and lambda_-
J_TAU_FUNCTIONS = {
    "nstar_closed_d3_zeroT": lambda j_tau: nstar_closed_d3_zeroT(np.full(3, 1 / 3), j_tau, 1e-3),
    "nstar_general_zeroT_solve": lambda j_tau: nstar_general_zeroT_solve(np.full(3, 1 / 3), j_tau, 1e-3),
    "nstar_estimate_discrete": lambda j_tau: nstar_estimate_discrete(np.full(3, 1 / 3) - stationary_populations_d3(0.8), 0.8, j_tau, 1e-4),
}


@pytest.mark.parametrize("name", J_TAU_FUNCTIONS)
@pytest.mark.parametrize("j_tau", [math.nan, math.inf])
def test_the_lambda_users_reject_a_j_tau_that_is_not_finite(name, j_tau):
    # NaN used to give 1.0 or NaN, inf a bare math domain error
    with pytest.raises(ValueError, match=r"J\*tau must be finite"):
        J_TAU_FUNCTIONS[name](j_tau)


@pytest.mark.parametrize("solve, rate", [(nstar_closed_d3_zeroT, 0.8), (tsim_closed_sl_zeroT, 1.0)])
@pytest.mark.parametrize("d", [2, 4])
def test_the_lambert_forms_reject_a_state_that_is_not_three_level(solve, rate, d):
    # they read only p0[1] and p0[2]: a number for d = 4, an IndexError for d = 2
    with pytest.raises(ValueError, match="d = 3 only"):
        solve(np.full(d, 1 / d), rate, 1e-3)


@pytest.mark.parametrize(
    "solve, rate, d",
    [
        (nstar_closed_d3_zeroT, 0.8, 3),
        (tsim_closed_sl_zeroT, 1.0, 3),
        (nstar_general_zeroT_solve, 0.8, 4),
        (tsim_general_sl_zeroT_solve, 1.0, 3),
    ],
)
def test_zero_temperature_solvers_give_zero_from_the_ground_state(solve, rate, d):
    assert solve(np.eye(d)[0], rate, 1e-4) == 0.0


class TestClosedFormsD3:
    def test_matches_simulation_at_zero_temperature(self):
        model = flip_flop_model(3, omega=1.0, beta=math.inf, j=1e-3)
        for j_tau in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
            for epsilon in (1e-3, 1e-4):
                cfg = CollisionConfig(tau=j_tau / 1e-3, n_max=10**6, epsilon=epsilon)
                sim = nstar_simulated(np.eye(3, dtype=complex) / 3, model, cfg).n_star
                closed = ceil_collisions(
                    nstar_closed_d3_zeroT(np.full(3, 1 / 3), j_tau, epsilon)
                )
                assert abs(closed - sim) <= 1

    def test_vanishing_p3_single_mode(self):
        j_tau, eps = 0.8, 1e-5
        p0 = np.array([0.4, 0.6, 0.0])
        got = nstar_closed_d3_zeroT(p0, j_tau, eps)
        expected = math.log(eps / 0.6) / math.log(math.cos(j_tau) ** 2)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_minimum_at_half_pi(self):
        grid = np.linspace(0.15, math.pi - 0.15, 41)
        vals = [
            ceil_collisions(nstar_closed_d3_zeroT(np.full(3, 1 / 3), float(jt), 1e-4))
            for jt in grid
        ]
        nearest = int(np.argmin(np.abs(grid - math.pi / 2)))
        assert vals[nearest] == min(vals)

    def test_frozen_and_epsilon_guards(self):
        with pytest.raises(FrozenDynamics):
            nstar_closed_d3_zeroT(np.full(3, 1 / 3), math.pi, 1e-4)
        # loose precision targets push the Lambert argument below -1/e
        with pytest.raises(EpsilonTooLarge):
            nstar_closed_d3_zeroT(np.full(3, 1 / 3), 0.8, 0.9)

    def test_tsim_matches_ode_crossing(self):
        gamma, eps = 1.0, 1e-4
        p0 = np.full(3, 1 / 3)
        closed = tsim_closed_sl_zeroT(p0, gamma, eps)
        sim = tsim_simulated_sl(p0, 1.0, gamma, eps, t_max=100.0)
        assert abs(closed - sim.t_sim) <= 1e-6 / gamma

    def test_tsim_scales_inversely_with_gamma(self):
        p0 = np.array([0.2, 0.5, 0.3])
        t1 = tsim_closed_sl_zeroT(p0, 1.0, 1e-4)
        t2 = tsim_closed_sl_zeroT(p0, 2.0, 1e-4)
        assert t1 == pytest.approx(2.0 * t2, rel=1e-14)

    def test_tsim_epsilon_bound(self):
        p0 = np.array([0.0, 0.1, 0.9])
        bound = 0.9 * math.exp(0.1 / 0.9)
        with pytest.raises(EpsilonTooLarge):
            tsim_closed_sl_zeroT(p0, 1.0, bound * 1.01)
        # p2 = 0: the bound is p3 = 0.5
        with pytest.raises(EpsilonTooLarge):
            tsim_closed_sl_zeroT(np.array([0.5, 0.0, 0.5]), 1.0, 0.6)

    def test_tsim_vanishing_p3_single_mode(self):
        assert tsim_closed_sl_zeroT(np.array([0.5, 0.5, 0.0]), 1.0, 1e-3) == pytest.approx(math.log(500.0), rel=1e-15)


class TestGeneralSolvers:
    def test_nstar_reduces_to_d3_closed_form(self):
        p0 = np.array([0.3, 0.33, 0.37])
        j_tau, eps = 0.83, 1e-4
        closed = nstar_closed_d3_zeroT(p0, j_tau, eps)
        general = nstar_general_zeroT_solve(p0, j_tau, eps)
        assert abs(closed - general) <= 1e-9

    def test_nstar_d4_satisfies_a_coefficient_equation(self):
        p0 = np.array([0.1, 0.2, 0.3, 0.4])
        j_tau, eps = 0.7, 1e-5
        n = nstar_general_zeroT_solve(p0, j_tau, eps)
        lp = math.cos(j_tau) ** 2
        lm = math.sin(j_tau) ** 2
        a0 = p0[1] + p0[2] + p0[3]
        a1 = (lm / lp) * (p0[2] + p0[3])
        a2 = (lm / lp) ** 2 * p0[3]
        lhs = (a0 + a1 * n + a2 * n * (n - 1) / 2) * math.exp(n * math.log(lp))
        assert lhs == pytest.approx(eps, rel=1e-8)

    def test_frozen_map_and_zero_rate_raise(self):
        with pytest.raises(FrozenDynamics):
            nstar_general_zeroT_solve(np.full(4, 0.25), math.pi, 1e-4)
        with pytest.raises(ValueError, match="Gamma must be positive"):
            tsim_general_sl_zeroT_solve(np.full(3, 1 / 3), 0.0, 1e-4)

    def test_bracket_stops_at_its_cap(self):
        with pytest.raises(NoRootBelowCap):
            bracket_crossing(lambda x: 1.0, 0.5, 1.0, 8.0)

    @pytest.mark.parametrize("n_real", [math.inf, -math.inf, math.nan])
    def test_ceil_collisions_rejects_a_count_that_is_not_finite(self, n_real):
        # inf used to raise OverflowError, which is not a ValueError
        with pytest.raises(ValueError, match=r"n\* must be finite"):
            ceil_collisions(n_real)

    def test_nstar_exact_cascade_at_half_pi(self):
        for d in (3, 4, 5, 8):
            p0 = np.full(d, 1 / d)
            assert nstar_general_zeroT_solve(p0, math.pi / 2, 1e-4) == float(d - 1)

    def test_nstar_matches_iterated_recursion_crossing(self):
        rng = np.random.default_rng(14)
        starts = [rng.dirichlet(np.ones(d)) for d in (4, 6, 10)]
        # (0.5, 0.5, 0, 0) has the zero tail sums S_1 = S_2 = 0
        for p0 in starts + [np.array([0.5, 0.0, 0.0, 0.5]), np.array([0.5, 0.5, 0.0, 0.0])]:
            j_tau, eps = 0.9, 1e-5
            n_real = nstar_general_zeroT_solve(p0, j_tau, eps)
            traj = evolve_populations(p0, 1.0, j_tau, int(n_real) + 3)
            dist = traj[:, 1:].sum(axis=1)
            crossing = int(np.argmax(dist <= eps))
            assert abs(ceil_collisions(n_real) - crossing) <= 1

    def test_tsim_reduces_to_d3_closed_form(self):
        p0 = np.array([0.25, 0.35, 0.4])
        closed = tsim_closed_sl_zeroT(p0, 1.3, 1e-4)
        general = tsim_general_sl_zeroT_solve(p0, 1.3, 1e-4)
        assert abs(closed - general) <= 1e-9

    @pytest.mark.parametrize(
        "d,coeff_count",
        [(4, 3), (5, 4)],
    )
    def test_tsim_satisfies_polynomial_equation(self, d, coeff_count):
        rng = np.random.default_rng(15)
        p0 = rng.dirichlet(np.ones(d))
        gamma, eps = 0.8, 1e-5
        t = tsim_general_sl_zeroT_solve(p0, gamma, eps)
        coeffs = [
            gamma**k / math.factorial(k) * p0[k + 1 :].sum() for k in range(coeff_count)
        ]
        lhs = math.exp(-gamma * t) * sum(c * t**k for k, c in enumerate(coeffs))
        assert lhs == pytest.approx(eps, rel=1e-8)

    def test_tsim_matches_ode_crossing_d5(self):
        p0 = np.full(5, 0.2)
        gamma, eps = 1.0, 1e-4
        solved = tsim_general_sl_zeroT_solve(p0, gamma, eps)
        sim = tsim_simulated_sl(p0, 1.0, gamma, eps, t_max=100.0)
        assert abs(solved - sim.t_sim) <= 1e-6


class TestOscillationStructure:
    def test_minima_at_odd_half_pi_maxima_at_pi(self):
        model = flip_flop_model(3, omega=1.0, beta=math.inf, j=1.0)

        def n_at(j_tau):
            cfg = CollisionConfig(tau=j_tau, n_max=5000, epsilon=1e-4)
            return nstar_simulated(np.eye(3, dtype=complex) / 3, model, cfg)

        assert n_at(math.pi / 2).n_star == 2
        assert n_at(3 * math.pi / 2).n_star == 2
        assert n_at(0.95 * math.pi).n_star > 50
        assert n_at(1.05 * math.pi).n_star > 50
        assert not n_at(math.pi).reachable
