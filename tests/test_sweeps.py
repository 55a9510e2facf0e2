"""Unit tests for sweep configuration, execution, and CSV emission."""

import concurrent.futures
import importlib.util
import io
import math
import pickle
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ri_thermalizer import sweeps
from ri_thermalizer.errors import ConfigInvalid, IoError
from ri_thermalizer.sweeps import (
    ENGINES,
    KINDS,
    MAX_D,
    MAX_STEPS,
    MAX_TASKS,
    SweepRecord,
    SweepSpec,
    emit_csv,
    format_csv,
    parse_config,
    parse_csv,
    run_sweep,
)
from ri_thermalizer.collisions import CollisionConfig
from ri_thermalizer.models import AncillaSpec, RandomFull, flip_flop_model
from ri_thermalizer.simtime import _sl_steps, tsim_simulated_sl


@pytest.fixture
def pools(monkeypatch):
    """A stand-in for concurrent.futures' executor, which sweeps imports
    when it pools: it records max_workers and maps in this process, so no
    pool, let alone a large one, is ever started."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return started


class TestParseConfig:
    def test_minimal_config_gets_defaults(self):
        spec = parse_config("kind = NstarVsBeta\ngrid = 1,2,5\n")
        assert spec.kind == "NstarVsBeta"
        assert spec.grid == (1.0, 2.0, 5.0)
        assert spec.omega == 1.0
        assert spec.epsilon == 1e-4
        assert spec.engine == "Recursion"

    def test_sl_kinds_default_to_ode_engine(self):
        spec = parse_config("kind = TsimVsBeta\ngrid = 1,2\n")
        assert spec.engine == "OdeSL"

    def test_linear_grid_form(self):
        spec = parse_config("kind = NstarVsBeta\ngrid = 0:1:5\n")
        assert np.allclose(spec.grid, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_comments_and_blank_lines(self):
        text = "# sweep over beta\n\nkind = NstarVsBeta  # inline\ngrid = 1,2\n"
        assert parse_config(text).kind == "NstarVsBeta"

    def test_unknown_key_named(self):
        with pytest.raises(ConfigInvalid, match="line 3.*'frequency'"):
            parse_config("kind = NstarVsBeta\ngrid = 1,2\nfrequency = 2\n")

    def test_line_without_equals_named(self):
        with pytest.raises(ConfigInvalid, match="line 2: expected 'key = value'"):
            parse_config("kind = NstarVsBeta\ngrid 1,2\n")

    def test_missing_required_keys(self):
        with pytest.raises(ConfigInvalid, match="kind"):
            parse_config("grid = 1,2\n")
        with pytest.raises(ConfigInvalid, match="grid"):
            parse_config("kind = NstarVsBeta\n")

    def test_grid_must_increase(self):
        with pytest.raises(ConfigInvalid, match="increasing"):
            parse_config("kind = NstarVsBeta\ngrid = 2,1\n")

    def test_engine_kind_compatibility(self):
        with pytest.raises(ConfigInvalid, match="OdeSL"):
            parse_config("kind = NstarVsBeta\ngrid = 1,2\nengine = OdeSL\n")
        with pytest.raises(ConfigInvalid, match="BruteForce"):
            parse_config("kind = RandomEnsembleVsBeta\ngrid = 1,2\nengine = Recursion\n")

    def test_bad_numeric_values(self):
        with pytest.raises(ConfigInvalid, match="integer"):
            parse_config("kind = NstarVsBeta\ngrid = 1,2\nd = three\n")
        with pytest.raises(ConfigInvalid, match="number"):
            parse_config("kind = NstarVsBeta\ngrid = 1,2\nbeta = warm\n")

    def test_physical_parameter_guards(self):
        with pytest.raises(ConfigInvalid, match="positive"):
            parse_config("kind = NstarVsBeta\ngrid = 1,2\nj = 0\n")
        with pytest.raises(ConfigInvalid, match="gamma"):
            parse_config("kind = TsimVsBeta\ngrid = 1,2\ngamma = -1\n")
        with pytest.raises(ConfigInvalid, match="lo < hi"):
            parse_config("kind = RandomEnsembleVsBeta\ngrid = 1,2\nlo = 2\nhi = 1\n")
        with pytest.raises(ConfigInvalid, match="epsilon grid"):
            parse_config("kind = TsimVsEpsilon\ngrid = 0.5,2\n")

    @pytest.mark.parametrize("kind", ["NstarVsBeta", "RandomEnsembleVsBeta"])
    def test_a_beta_grid_builds_one_collision_config(self, monkeypatch, kind):
        # the grid varies only the ancilla, so every point shares one config
        built = []
        check = CollisionConfig.__post_init__
        monkeypatch.setattr(CollisionConfig, "__post_init__", lambda cfg: built.append(cfg) or check(cfg))
        parse_config(f"kind = {kind}\ngrid = 0.1:10:1000\n")
        assert len(built) == 1

    def test_a_jtau_the_grid_replaces_builds_no_config(self):
        # jtau = -1 would be a negative collision time, but every point has its own
        assert parse_config("kind = NstarVsJtau\ngrid = 1,2\njtau = -1\n").j_tau == -1.0

    @pytest.mark.parametrize("kind", ["TsimVsBeta", "TsimVsEpsilon"])
    def test_an_sl_run_is_its_p_a_and_epsilon(self, kind):
        spec = parse_config(f"kind = {kind}\ngrid = 1e-3:0.5:40\nomega = 1.5\nbeta = 2\n")
        runs = spec.runs
        assert all(isinstance(p_a, float) and isinstance(eps, float) for p_a, eps in runs)
        betas, epsilons = (spec.grid, [spec.epsilon] * 40) if kind == "TsimVsBeta" else ([spec.beta] * 40, list(spec.grid))
        assert [p_a for p_a, _ in runs] == [AncillaSpec(spec.omega, beta).ground_population for beta in betas]
        assert [eps for _, eps in runs] == epsilons


_EXTREME_FLOATS = st.sampled_from(
    ["inf", "-inf", "nan", "0", "-1", "1e300", "-1e300", "1e-300", "-1e-300", "1e308", "5e-324"]
) | st.floats().map(repr)
# each key's (plain values, extremes): infinities, NaN, 1e+-300, the bounds
# and their neighbours and huge counts.  A grid count either fits the bound
# or is too large for numpy to allocate at all, so a regression fails at
# once instead of filling memory
_VALUES = {
    "kind": (st.sampled_from(KINDS), st.sampled_from(["Bogus", ""])),
    "engine": (st.sampled_from(["", *ENGINES]), st.just("Bogus")),
    "grid": (
        st.sampled_from(["0.5", "0.1,0.5,0.7", "0.1:0.9:4"]),
        st.sampled_from([0, MAX_TASKS, MAX_TASKS + 1, 10**15]).map(lambda n: f"0.1:0.9:{n}")
        | st.sampled_from(["", ":", "1:2", "1,,2", "2,1", "nan,1", "inf", "-1e308:1e308:3", "0:inf:3"])
        | st.tuples(_EXTREME_FLOATS, _EXTREME_FLOATS).map(lambda t: "{}:{}:3".format(*t)),
    ),
    "d": (st.sampled_from([3, 2, 5]), st.sampled_from([0, 1, MAX_D, MAX_D + 1, 10**12])),
    "seed": (st.sampled_from([0, 7]), st.sampled_from([-1, 2**64])),
    "repetitions": (st.sampled_from([1, 3]), st.sampled_from([0, -1, MAX_TASKS, MAX_TASKS + 1, 10**12])),
    "n_max": (st.sampled_from([10, 1000]), st.sampled_from([0, -1, MAX_STEPS, MAX_STEPS + 1, 10**12])),
    "t_max": (st.sampled_from(["10", "100"]), _EXTREME_FLOATS),
    "lo": (st.sampled_from(["0.001", "0.01"]), _EXTREME_FLOATS),
    "hi": (st.sampled_from(["0.5", "2"]), _EXTREME_FLOATS),
    "epsilon": (st.sampled_from(["0.05", "0.001"]), _EXTREME_FLOATS),
    **{key: (st.sampled_from(["0.5", "1", "2"]), _EXTREME_FLOATS) for key in ("omega", "beta", "jtau", "j", "gamma", "tau")},
}
# each drawn config is parsed again with each of these set: the values at
# and past every bound (t_max = 1e6 is MAX_STEPS RK4 steps at gamma = 1)
_PROBES = [
    *({"n_max": n} for n in (MAX_STEPS, MAX_STEPS + 1, 10**12)),
    *({"repetitions": n} for n in (MAX_TASKS, MAX_TASKS + 1, 10**12)),
    *({"grid": f"0.1:0.9:{n}"} for n in (MAX_TASKS + 1, 10**15)),
    *({"t_max": t} for t in ("999999.99", "1e6", "1000000.01", "1e300")),
    *({"d": d} for d in (MAX_D, MAX_D + 1)),
    {"lo": "-1e308", "hi": "1e308"},
    {"epsilon": "1e-300"},
]


@st.composite
def _configs(draw):
    """(keys and values, form): kind, grid and any other keys, each plain
    but for one key at an extreme or, in one config of five, any key.
    Form 8 drops kind and grid (the empty text among others), form 9
    repeats a key.  Hypothesis favours the first choice, so kind and grid
    come last among the keys that may take the extreme."""
    others = draw(st.lists(st.sampled_from(sorted(set(_VALUES) - {"kind", "grid"})), unique=True))
    wild, chaos, form = draw(st.sampled_from([*others, "grid", "kind"])), draw(st.integers(0, 4)) == 4, draw(st.integers(0, 9))
    config = {}
    for key in others if form == 8 else ["kind", "grid", *others]:
        plain, extreme = _VALUES[key]
        config[key] = draw(extreme if key == wild or (chaos and draw(st.booleans())) else plain)
    return config, form


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_configs())
def test_every_config_text_is_rejected_or_bounded(drawn):
    # parse_config only, so no sweep runs and no wall-clock limit is needed
    config, form = drawn
    for probe in [{}, *_PROBES]:
        lines = [f"{key} = {value}" for key, value in {**config, **probe}.items()]
        _check_rejected_or_bounded("\n".join(lines + lines[-1:] if form == 9 else lines))


def _check_rejected_or_bounded(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            spec = parse_config(text)
        except ConfigInvalid:
            return
    reps = spec.repetitions if spec.kind == "RandomEnsembleVsBeta" else 1
    assert 1 <= len(spec.grid) * reps <= MAX_TASKS
    if spec.engine == "OdeSL":
        assert _sl_steps(1.0, spec.gamma, spec.epsilon, spec.t_max, None)[1] <= MAX_STEPS
    elif spec.engine == "BruteForce":
        assert 1 <= spec.n_max <= MAX_STEPS
    if spec.kind == "RandomEnsembleVsBeta":
        RandomFull(spec.lo, spec.hi, spec.seed)  # the couplings a run draws
    # every run builds its objects: each domain is an interval and the grid
    # increases, so its two ends stand for every point
    field = {"NstarVsJtau": "j_tau", "TsimVsEpsilon": "epsilon"}.get(spec.kind, "beta")
    for point in {spec.grid[0], spec.grid[-1]}:
        run = replace(spec, **{field: float(point)})
        model = flip_flop_model(run.d, run.omega, run.beta, run.j)
        if run.engine == "OdeSL":
            _sl_steps(model.ancilla.ground_population, run.gamma, run.epsilon, run.t_max, None)
        else:
            tau = run.tau if run.kind == "RandomEnsembleVsBeta" else run.j_tau / run.j
            CollisionConfig(tau=tau, n_max=run.n_max, epsilon=run.epsilon)


class TestRunSweep:
    def test_empty_grid_is_invalid(self):
        with pytest.raises(ConfigInvalid, match="grid must be nonempty"):
            run_sweep(SweepSpec(kind="NstarVsBeta", grid=()))

    def test_a_spec_checks_itself_and_builds_its_runs_once(self, monkeypatch):
        # a spec builds its runs when made and run_sweep takes them; replace
        # makes a new spec, which checks itself and builds its own
        built = []
        point_runs = sweeps._point_runs
        monkeypatch.setattr(sweeps, "_point_runs", lambda spec: built.append(1) or point_runs(spec))
        spec = parse_config("kind = NstarVsBeta\ngrid = 1,2\nd = 3\n")
        first, second = format_csv(run_sweep(spec)), format_csv(run_sweep(spec))
        assert first == second and len(built) == 1
        with pytest.raises(ConfigInvalid, match="d must lie"):
            replace(spec, d=1)
        with pytest.raises(ConfigInvalid, match="d must lie"):
            SweepSpec(kind="NstarVsBeta", grid=(1.0, 2.0), d=1)
        copy = replace(spec)
        assert len(built) == 2 and format_csv(run_sweep(copy)) == first
        # the runs are no field
        assert copy == spec and hash(copy) == hash(spec) and repr(copy) == repr(spec)
        # a pickled spec, as a pool worker gets it, carries no runs and sweeps the same
        loaded = pickle.loads(pickle.dumps(spec))
        assert "runs" not in loaded.__dict__ and loaded == spec
        assert format_csv(run_sweep(loaded)) == first

    @pytest.mark.parametrize("parallel", [0, -3, np.int64(0), 2.0])
    def test_parallel_must_be_an_integer_of_at_least_one(self, parallel):
        spec = SweepSpec(kind="NstarVsBeta", grid=(1.0, 2.0))
        with pytest.raises(ConfigInvalid, match="parallel must be an integer >= 1"):
            run_sweep(spec, parallel=parallel)
        assert run_sweep(spec, parallel=np.int64(1)) == run_sweep(spec)

    def test_single_point_grid(self):
        spec = SweepSpec(kind="NstarVsBeta", grid=(5.0,), j_tau=math.pi / 2)
        records = run_sweep(spec)
        assert len(records) == 1
        assert records[0].reachable
        assert records[0].stderr == 0.0

    def test_nstar_vs_beta_decreases_toward_two(self):
        spec = SweepSpec(kind="NstarVsBeta", grid=tuple(np.linspace(0.5, 10, 12)), j_tau=math.pi / 2)
        values = [rec.value for rec in run_sweep(spec)]
        assert values[-1] == 2.0
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_tsim_vs_beta_qubit_monotone(self):
        spec = SweepSpec(kind="TsimVsBeta", grid=(0.5, 1.0, 2.0, 5.0, 10.0), d=2, gamma=1.0)
        values = [rec.value for rec in run_sweep(spec)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_tsim_vs_epsilon_grows_as_precision_tightens(self):
        spec = SweepSpec(kind="TsimVsEpsilon", grid=(1e-6, 1e-4, 1e-2), beta=2.0, gamma=1.0)
        values = [rec.value for rec in run_sweep(spec)]
        assert values[0] > values[1] > values[2]
        # roughly logarithmic in the precision target (equal decade gaps)
        gaps = (values[0] - values[1], values[1] - values[2])
        assert 0.6 < gaps[0] / gaps[1] < 1.4

    def test_unreachable_point_reports_cap(self):
        spec = SweepSpec(kind="NstarVsJtau", grid=(math.pi,), beta=2.0, n_max=40)
        rec = run_sweep(spec)[0]
        assert not rec.reachable
        assert rec.value == 40.0

    def test_deterministic_bytes(self):
        spec = SweepSpec(
            kind="RandomEnsembleVsBeta",
            grid=(1.0,),
            seed=77,
            repetitions=3,
            epsilon=0.05,
            n_max=2000,
            tau=100.0,
        )
        a = format_csv(run_sweep(spec))
        b = format_csv(run_sweep(spec))
        assert a == b

    @pytest.mark.parametrize(
        "spec, csv",
        [
            (SweepSpec(kind="TsimVsEpsilon", grid=(1e-4, 1e-3, 1e-2), engine="BruteForce", d=3, beta=2.0, j=1.0,
                       j_tau=0.5),
             "0.0001,26.5,0,true\n0.001,19.5,0,true\n0.01,13,0,true\n"),
            (SweepSpec(kind="TsimVsBeta", grid=(0.5, 2.0, math.inf), engine="Recursion", d=4, j=1.0, j_tau=0.9,
                       epsilon=1e-4, n_max=30),
             "0.5,27,0,false\n2,20.7,0,true\ninf,13.5,0,true\n"),
        ],
        ids=["epsilon-BruteForce", "beta-Recursion"],
    )
    def test_a_tsim_sweep_on_a_collision_engine_gives_n_star_tau(self, spec, csv):
        # T_sim = n* tau with tau = jtau / j, or the cap n_max tau
        assert format_csv(run_sweep(spec)) == "point,value,stderr,reachable\n" + csv

    def test_parallel_matches_serial(self):
        spec = SweepSpec(kind="NstarVsBeta", grid=(1.0, 3.0, 7.0), j_tau=math.pi / 4)
        assert format_csv(run_sweep(spec, parallel=3)) == format_csv(run_sweep(spec))

    @pytest.mark.parametrize(
        "parallel, points, cpus, workers",
        [(100_000, 2, 64, 2), (100_000, 8, 4, 4), (5, 8, None, None), (100_000, 3, 1, None)],
    )
    def test_pool_is_bounded_by_tasks_and_cpus(self, monkeypatch, pools, parallel, points, cpus, workers):
        # d = 3 lies above this bound, so the sweep may be pooled
        monkeypatch.setitem(sweeps._STACK_MAX_D, "Recursion", 2)
        spec = SweepSpec(kind="NstarVsBeta", grid=tuple(np.linspace(0.5, 4.0, points)), j_tau=math.pi / 4)
        serial = format_csv(run_sweep(spec))
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: cpus)
        assert format_csv(run_sweep(spec, parallel=parallel)) == serial
        assert pools == ([] if workers is None else [workers])

    def test_an_sl_sweep_starts_no_pool(self, monkeypatch, pools):
        # one stacked scan in this process, whatever parallel allows
        spec = SweepSpec(kind="TsimVsBeta", grid=(0.5, 1.0, 2.0, 5.0), d=4, gamma=1.0)
        serial = format_csv(run_sweep(spec))
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 2)
        assert format_csv(run_sweep(spec, parallel=2)) == serial
        assert pools == []

    @pytest.mark.parametrize("d, workers", [(4, []), (5, [2])])
    def test_an_sl_sweep_above_the_stack_bound_is_pooled(self, monkeypatch, pools, d, workers):
        # the pool splits the rows once the work per row outweighs the
        # per-step overhead; serially the sweep is still one stacked scan
        monkeypatch.setitem(sweeps._STACK_MAX_D, "OdeSL", 4)
        spec = SweepSpec(kind="TsimVsBeta", grid=(0.5, 1.0, 2.0, 5.0), d=d, gamma=1.0)
        serial = format_csv(run_sweep(spec))
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 2)
        assert format_csv(run_sweep(spec, parallel=2)) == serial
        assert pools == workers

    @pytest.mark.parametrize("d, workers", [(2, []), (3, [2])])
    def test_a_brute_force_sweep_above_the_stack_bound_is_pooled(self, monkeypatch, pools, d, workers):
        monkeypatch.setitem(sweeps._STACK_MAX_D, "BruteForce", 2)
        spec = SweepSpec(kind="NstarVsJtau", grid=(0.4, 0.9, 1.3, 2.2), d=d, beta=2.0, j=1.0,
                         epsilon=1e-4, engine="BruteForce")
        serial = format_csv(run_sweep(spec))
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 2)
        assert format_csv(run_sweep(spec, parallel=2)) == serial
        assert pools == workers

    @pytest.mark.parametrize("d, workers", [(4, []), (5, [2])])
    def test_a_random_ensemble_sweep_follows_the_brute_force_bound(self, monkeypatch, pools, d, workers):
        # the ensemble is one stacked CPTP scan, routed as any BruteForce sweep
        spec = SweepSpec(kind="RandomEnsembleVsBeta", grid=(0.5, 2.0, 6.0), d=d, seed=3, repetitions=2,
                         epsilon=0.05, n_max=2000)
        serial = format_csv(run_sweep(spec))
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 2)
        assert format_csv(run_sweep(spec, parallel=2)) == serial
        assert pools == workers

    @pytest.mark.parametrize("above, workers", [(0, []), (1, [2])])
    def test_a_recursion_sweep_follows_its_stack_bound(self, monkeypatch, pools, above, workers):
        # at the bound one stacked search in this process, above it a pool
        spec = SweepSpec(kind="NstarVsBeta", grid=(0.5, 1.0, 2.0, 4.0), d=sweeps._STACK_MAX_D["Recursion"] + above,
                         j=1.0, j_tau=0.9, epsilon=1e-4, n_max=5000)
        serial = format_csv(run_sweep(spec))
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 2)
        assert format_csv(run_sweep(spec, parallel=2)) == serial
        assert pools == workers

    @pytest.mark.parametrize(
        "spec",
        [
            SweepSpec(kind="NstarVsJtau", grid=(0.4, 0.9, 1.3, 2.2, math.pi), d=5, beta=2.0, j=1.0,
                      epsilon=1e-4, n_max=400, engine="BruteForce"),
            SweepSpec(kind="NstarVsJtau", grid=(0.4, 0.9, 1.3, 2.2, math.pi), d=5, beta=2.0, j=1.0,
                      epsilon=1e-4, n_max=400),
            SweepSpec(kind="RandomEnsembleVsBeta", grid=(0.5, 2.0, 6.0), seed=3, repetitions=3,
                      epsilon=0.05, n_max=2000),
        ],
        ids=["BruteForce", "Recursion", "RandomEnsembleVsBeta"],
    )
    def test_pooled_shares_give_the_serial_csv(self, monkeypatch, spec):
        # two real worker processes, each with every other task
        serial = format_csv(run_sweep(spec))
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 2)
        assert format_csv(run_sweep(spec, parallel=2)) == serial

    @staticmethod
    def _task_roots(tmp_path, spec):
        # perfbench's tracer, loaded from its file
        path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
        module_spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer_mod = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(tracer_mod)
        tracer = tracer_mod.Tracer(tmp_path)
        tracer.install()
        try:
            records = run_sweep(spec)
        finally:
            tracer.uninstall()
        calls = tracer_mod.sweep_summary(*tracer.collect())["calls"]
        return records, sum(calls[name] for name in tracer_mod.TASK_ROOTS)

    def test_a_traced_sl_sweep_has_one_task_root_per_task(self, tmp_path):
        # perfbench's traced run counts one tsim_simulated_sl span per task,
        # also for the points the scan leaves unreachable
        spec = SweepSpec(kind="TsimVsBeta", grid=(0.0, 0.5, 1.0, 4.0, math.inf), d=3, gamma=1.0,
                         epsilon=1e-3, t_max=10.0)
        records, roots = self._task_roots(tmp_path, spec)
        assert [r.reachable for r in records] == [True, False, False, True, True]
        assert roots == len(spec.grid)

    def test_a_traced_brute_force_sweep_has_one_task_root_per_task(self, tmp_path):
        # one nstar_simulated span per task, also for the points left
        # unreachable at the cap (J tau = pi freezes the populations)
        spec = SweepSpec(kind="NstarVsJtau", grid=(0.4, 1.2, 2.2, math.pi), d=4, beta=2.0, j=1.0,
                         epsilon=1e-4, n_max=50, engine="BruteForce")
        records, roots = self._task_roots(tmp_path, spec)
        assert [r.reachable for r in records] == [False, True, True, False]
        assert roots == len(spec.grid)

    def test_a_traced_random_ensemble_sweep_has_one_task_root_per_task(self, tmp_path):
        # one nstar_simulated span per task and repetition: a point at step 0
        # (beta = 0), one whose runs all cross and one left at the cap
        spec = SweepSpec(kind="RandomEnsembleVsBeta", grid=(0.0, 0.3, 6.0), seed=5, repetitions=3,
                         epsilon=0.05, n_max=40)
        records, roots = self._task_roots(tmp_path, spec)
        assert [(r.value, r.reachable) for r in records][0] == (0.0, True)
        assert [r.reachable for r in records] == [True, True, False]
        assert roots == 9

    def test_a_traced_recursion_sweep_has_one_task_root_per_task(self, tmp_path):
        # one nstar_simulated span per task from the batch's per-row calls: a
        # point at step 0 (beta = 0), one left at the cap and two crossed
        spec = SweepSpec(kind="NstarVsBeta", grid=(0.0, 0.5, 2.0, 8.0), d=4, j=1.0, j_tau=0.9,
                         epsilon=1e-4, n_max=30)
        records, roots = self._task_roots(tmp_path, spec)
        assert [(r.value, r.reachable) for r in records] == [(0.0, True), (30.0, False), (23.0, True), (15.0, True)]
        assert roots == len(spec.grid)

    @staticmethod
    def _per_point(spec, betas, epsilons):
        p0 = np.full(spec.d, 1.0 / spec.d)
        records = []
        for beta, eps in zip(betas, epsilons):
            res = tsim_simulated_sl(p0, AncillaSpec(omega=spec.omega, beta=beta).ground_population,
                                    spec.gamma, eps, spec.t_max)
            records.append((res.t_sim if res.reachable else spec.t_max, res.reachable))
        return records

    def test_tsim_vs_beta_equals_one_scan_per_point(self):
        # a step-0 point, two unreachable at t_max = 10 and zero temperature
        grid = (0.0, 0.5, 1.0, 2.0, 4.0, math.inf)
        spec = SweepSpec(kind="TsimVsBeta", grid=grid, d=3, gamma=1.0, epsilon=1e-3, t_max=10.0)
        records = run_sweep(spec)
        expected = self._per_point(spec, grid, [spec.epsilon] * len(grid))
        assert [(r.value, r.reachable) for r in records] == expected
        assert [r.reachable for r in records] == [True, False, False, True, True, True]

    def test_tsim_vs_epsilon_equals_one_scan_per_point(self):
        grid = (1e-9, 1e-6, 1e-4, 1e-2, 0.3)
        spec = SweepSpec(kind="TsimVsEpsilon", grid=grid, d=6, beta=1.5, gamma=2.0, t_max=30.0)
        records = run_sweep(spec)
        assert [(r.value, r.reachable) for r in records] == self._per_point(spec, [spec.beta] * len(grid), grid)

    def test_ensemble_mean_stability(self):
        base = dict(
            kind="RandomEnsembleVsBeta",
            grid=(1.0, 2.0),
            seed=5,
            epsilon=0.05,
            n_max=2000,
            tau=100.0,
        )
        small = run_sweep(SweepSpec(repetitions=6, **base))
        large = run_sweep(SweepSpec(repetitions=12, **base))
        for a, b in zip(small, large):
            assert a.stderr > 0.0
            assert abs(a.value - b.value) < 3.0 * max(a.stderr, b.stderr)


class TestCsv:
    def test_empty_records_header_only(self):
        buf = io.StringIO()
        emit_csv([], buf)
        assert buf.getvalue() == "point,value,stderr,reachable\n"

    def test_unreachable_sentinel_row(self):
        buf = io.StringIO()
        emit_csv([SweepRecord(1.0, 500.0, 0.0, False)], buf)
        assert buf.getvalue().splitlines()[1] == "1,500,0,false"

    def test_round_trip_is_byte_stable(self):
        records = [
            SweepRecord(0.5, 123.456789012345, 0.25, True),
            SweepRecord(1.0 / 3.0, 2.0, 0.0, False),
            SweepRecord(math.pi, 1e-12, 7.5e-3, True),
        ]
        text = format_csv(records)
        assert format_csv(parse_csv(text)) == text

    def test_twelve_significant_digits(self):
        text = format_csv([SweepRecord(1.0 / 3.0, 2.0 / 3.0, 0.0, True)])
        assert "0.333333333333,0.666666666667" in text

    def test_io_error_wrapped(self):
        with pytest.raises(IoError):
            emit_csv([], "/nonexistent-dir/out.csv")

    def test_writes_to_path(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([SweepRecord(1.0, 2.0, 0.0, True)], path)
        assert path.read_text() == "point,value,stderr,reachable\n1,2,0,true\n"
