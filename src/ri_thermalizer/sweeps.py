"""Parameter sweeps over the collision model, with CSV output.

Sweep configurations are flat ``key = value`` text (``#`` starts a
comment).  Grids are either ``start:stop:count`` (linear) or an explicit
comma list.  Supported kinds:

* ``NstarVsJtau``       n* against the interaction product J*tau
* ``NstarVsBeta``       n* against the target inverse temperature
* ``TsimVsBeta``        simulation time against beta (SL crossing by default)
* ``TsimVsEpsilon``     simulation time against the precision target
* ``RandomEnsembleVsBeta``  mean n* of the fully randomized interaction

Every sweep starts from the maximally mixed state.  Records are emitted
as ``point,value,stderr,reachable`` with 12 significant digits; points
whose run hit the collision or time cap carry ``reachable=false`` with
the cap in the value field.

A sweep runs one task per grid point and repetition.  A process pool,
when asked for, gives each worker an equal share of the tasks.  Every
engine runs a share as one batch: ``OdeSL`` as one stacked RK4 scan
(:func:`.simtime.tsim_simulated_sl_batch`), ``BruteForce``, a
``RandomEnsembleVsBeta`` ensemble included, as one stacked CPTP scan and
``Recursion`` as one stacked powered search (both
:func:`.simtime.nstar_simulated_batch`).  Stacking shares the per-step
overhead among the rows, so a sweep with d <= ``_STACK_MAX_D[engine]``
runs as one share in this process; at larger d a pool that splits the
rows wins.

The level count d is bounded by ``MAX_D``: the brute-force engine works
on the 2d x 2d joint space and stacks such matrices, so a d far beyond
it exhausts memory rather than running, as does a task count far beyond
``MAX_TASKS``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .collisions import CollisionConfig
from .errors import ConfigInvalid, IoError, StepTooLarge
from .models import AncillaSpec, IsotropicFlipFlop, ModelSpec, RandomFull, SystemSpec
from .simtime import MAX_STEPS, _sl_steps, nstar_simulated_batch, tsim_simulated_sl_batch

# each kind's default engine, and the SweepSpec field its grid points replace
_KIND_TABLE = {
    "NstarVsJtau": ("Recursion", "j_tau"),
    "NstarVsBeta": ("Recursion", "beta"),
    "TsimVsBeta": ("OdeSL", "beta"),
    "TsimVsEpsilon": ("OdeSL", "epsilon"),
    "RandomEnsembleVsBeta": ("BruteForce", "beta"),
}
KINDS = tuple(_KIND_TABLE)
ENGINES = ("BruteForce", "Recursion", "OdeSL")
# largest level count a config may ask for: a 256 x 256 complex joint
# space, 1 MiB per matrix
MAX_D = 128
# most tasks (grid points times ensemble repetitions) a sweep may run: it
# holds a spec, model and result per task, 10.7 MB at 10^4 NstarVsBeta tasks
MAX_TASKS = 10**5
# each engine with the largest d at which a pooled sweep runs as one share
# in this process instead.  On two CPUs and 48 points the SL scan beats a
# pool up to d = 48 and ties a pool of shares up to 32; the CPTP scan ties a
# pool of shares up to d = 4 and loses to it from d = 5.  On 120 points the
# powered search beats a pool up to d = 16; from d = 20 rows its rounding
# guard hands to the scan take most of the time, and a pool splits them
_STACK_MAX_D = {"OdeSL": 32, "BruteForce": 4, "Recursion": 16}


@dataclass(frozen=True)
class SweepSpec:
    """Validated sweep description; see module docstring for the kinds."""

    kind: str
    grid: tuple[float, ...]
    d: int = 3
    omega: float = 1.0
    beta: float = 1.0
    j_tau: float = math.pi / 2
    j: float = 1e-3
    gamma: float = 1.0
    epsilon: float = 1e-4
    engine: str = ""
    seed: int = 0
    repetitions: int = 1
    n_max: int = 100_000
    t_max: float = 1e4
    lo: float = 1e-3
    hi: float = math.pi * 1e-3
    tau: float = 100.0


@dataclass(frozen=True)
class SweepRecord:
    """One grid point: swept value, result, ensemble stderr, cap flag."""

    point: float
    value: float
    stderr: float
    reachable: bool


def _validated(spec: SweepSpec) -> SweepSpec:
    if spec.kind not in KINDS:
        raise ConfigInvalid(f"unknown kind {spec.kind!r}; expected one of {KINDS}")
    if not spec.grid:
        raise ConfigInvalid("grid must be nonempty")
    if spec.repetitions < 1:
        raise ConfigInvalid("repetitions must be >= 1")
    # only the random ensemble repeats a grid point
    reps = spec.repetitions if spec.kind == "RandomEnsembleVsBeta" else 1
    if len(spec.grid) * reps > MAX_TASKS:
        raise ConfigInvalid(f"grid points times repetitions exceeds MAX_TASKS = {MAX_TASKS}")
    default_engine, axis = _KIND_TABLE[spec.kind]
    # +inf is the zero-temperature sentinel of a beta, never of another axis
    if not all(math.isfinite(x) or (axis == "beta" and x == math.inf) for x in spec.grid):
        raise ConfigInvalid("grid points must be finite numbers (a beta may be inf)")
    for key in sorted(_FLOAT_KEYS - {"beta"}):
        if not math.isfinite(getattr(spec, _KEY_TO_FIELD.get(key, key))):
            raise ConfigInvalid(f"{key} must be a finite number")
    if not spec.beta >= 0 or (axis == "beta" and min(spec.grid) < 0):
        raise ConfigInvalid("beta must be >= 0 (inf for zero temperature)")
    if any(b <= a for a, b in zip(spec.grid, spec.grid[1:])):
        raise ConfigInvalid("grid must be strictly increasing")
    engine = spec.engine or default_engine
    if engine not in ENGINES:
        raise ConfigInvalid(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if spec.kind in ("NstarVsJtau", "NstarVsBeta") and engine == "OdeSL":
        raise ConfigInvalid(f"engine OdeSL cannot produce collision counts for {spec.kind}")
    if spec.kind == "RandomEnsembleVsBeta" and engine != "BruteForce":
        raise ConfigInvalid("RandomEnsembleVsBeta requires engine BruteForce")
    if not 0.0 < spec.epsilon < 1.0:
        raise ConfigInvalid("epsilon must lie in (0, 1)")
    if spec.kind == "TsimVsEpsilon" and not all(0.0 < e < 1.0 for e in spec.grid):
        raise ConfigInvalid("epsilon grid values must lie in (0, 1)")
    if not 2 <= spec.d <= MAX_D:
        raise ConfigInvalid(f"d must lie in [2, {MAX_D}]")
    if not spec.omega > 0:
        raise ConfigInvalid("omega must be positive")
    if spec.j <= 0 or spec.tau <= 0:
        raise ConfigInvalid("j and tau must be positive")
    if engine == "OdeSL":
        # the SL scan's own step rule; its p_A check passes for any beta
        try:
            steps = _sl_steps(1.0, spec.gamma, spec.epsilon, spec.t_max, None)[1]
        except (ValueError, StepTooLarge) as exc:
            # a default step 0.01 / gamma that is not finite is StepTooLarge
            if not spec.gamma > 0 or isinstance(exc, StepTooLarge):
                raise ConfigInvalid("gamma must be positive, with a finite default step 0.01 / gamma") from exc
            raise ConfigInvalid("t_max must be positive, with a finite step count t_max / (0.01 / gamma)") from exc
        if steps > MAX_STEPS:
            raise ConfigInvalid(f"t_max / (0.01 / gamma) = {steps:.3g} RK4 steps exceeds MAX_STEPS = {MAX_STEPS}")
    elif spec.n_max < 1:
        raise ConfigInvalid("n_max must be >= 1")
    elif engine == "BruteForce" and spec.n_max > MAX_STEPS:
        raise ConfigInvalid(f"n_max = {spec.n_max} exceeds MAX_STEPS = {MAX_STEPS} for the BruteForce scan")
    elif spec.kind != "RandomEnsembleVsBeta":
        # tau = jtau / j, which a tiny j overflows to inf (as floats, silently)
        j_taus = spec.grid if axis == "j_tau" else (spec.j_tau,)
        if not all(0.0 < float(jt) / spec.j < math.inf for jt in j_taus):
            raise ConfigInvalid("tau = jtau / j must be finite and positive")
    if spec.kind == "RandomEnsembleVsBeta" and not (spec.lo < spec.hi and math.isfinite(spec.hi - spec.lo)):
        raise ConfigInvalid("need lo < hi, with a finite hi - lo, for the randomized couplings")
    if spec.kind == "RandomEnsembleVsBeta" and spec.seed < 0:
        raise ConfigInvalid("seed must be >= 0")
    return replace(spec, engine=engine, repetitions=reps)


# ---------------------------------------------------------------------------
# Point evaluation
# ---------------------------------------------------------------------------


def _point_spec(spec: SweepSpec, point_index: int) -> SweepSpec:
    return replace(spec, **{_KIND_TABLE[spec.kind][1]: spec.grid[point_index]})


def _evaluate_tasks(spec: SweepSpec, tasks) -> list[tuple[float, bool]]:
    """(value, reachable) of each (point index, repetition) task, all
    run as one batch."""
    points = [_point_spec(spec, pi) for pi, _ in tasks]
    if spec.engine == "OdeSL":
        p_as = [AncillaSpec(omega=s.omega, beta=s.beta).ground_population for s in points]
        p0 = np.full(spec.d, 1.0 / spec.d)
        results = tsim_simulated_sl_batch(p0, p_as, spec.gamma, [s.epsilon for s in points], spec.t_max)
        return [(float(res.t_sim if res.reachable else spec.t_max), res.reachable) for res in results]

    models, cfgs = [], []
    for s, (pi, rep) in zip(points, tasks):
        tau, interaction = s.j_tau / s.j, IsotropicFlipFlop(j=s.j)
        if s.kind == "RandomEnsembleVsBeta":
            seed = int(np.random.SeedSequence([s.seed, pi, rep]).generate_state(1, np.uint64)[0])
            tau, interaction = s.tau, RandomFull(lo=s.lo, hi=s.hi, seed=seed)
        models.append(ModelSpec(SystemSpec(d=s.d, omega=s.omega), AncillaSpec(omega=s.omega, beta=s.beta), interaction))
        cfgs.append(CollisionConfig(tau=tau, n_max=s.n_max, epsilon=s.epsilon))
    rho0 = np.eye(spec.d, dtype=complex) / spec.d
    results = nstar_simulated_batch(rho0, models, cfgs, engine="brute_force" if spec.engine == "BruteForce" else "recursion")
    # the Tsim kinds turn a collision count into the time n* tau
    unit = lambda cfg: cfg.tau if spec.kind.startswith("Tsim") else 1.0
    return [(float(res.n_star if res.reachable else spec.n_max) * unit(cfg), res.reachable) for res, cfg in zip(results, cfgs)]


def run_sweep(spec: SweepSpec, parallel: int = 1) -> list[SweepRecord]:
    """Evaluate every grid point (and repetition) of a validated sweep.

    Tasks are independent; a pool of min(parallel, tasks, CPUs) worker
    processes runs them when that is more than one, so parallel is an
    upper bound.  Worker w takes every w-th task as one share.  Each
    share runs as one batch, and a sweep with d <= _STACK_MAX_D[engine]
    runs all its tasks as one share in this process.  Results are
    assembled in grid order, so output is deterministic for a given spec
    and seed.
    """
    spec = _validated(spec)
    reps = spec.repetitions
    tasks = [(pi, r) for pi in range(len(spec.grid)) for r in range(reps)]
    workers = min(parallel, len(tasks), os.cpu_count() or 1)
    if workers > 1 and spec.d > _STACK_MAX_D[spec.engine]:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shares = list(pool.map(_evaluate_tasks, [spec] * workers, [tasks[w::workers] for w in range(workers)]))
        outcomes = [None] * len(tasks)
        for w, share in enumerate(shares):
            outcomes[w::workers] = share
    else:
        outcomes = _evaluate_tasks(spec, tasks)

    records = []
    for pi, point in enumerate(spec.grid):
        chunk = outcomes[pi * reps : (pi + 1) * reps]
        values = np.array([v for v, _ in chunk])
        reachable = all(ok for _, ok in chunk)
        stderr = 0.0
        if reps > 1:
            stderr = float(values.std(ddof=1) / math.sqrt(reps))
        records.append(
            SweepRecord(point=float(point), value=float(values.mean()),
                        stderr=stderr, reachable=reachable)
        )
    return records


# ---------------------------------------------------------------------------
# CSV and config I/O
# ---------------------------------------------------------------------------


def format_csv(records: list[SweepRecord]) -> str:
    lines = ["point,value,stderr,reachable"]
    for rec in records:
        flag = "true" if rec.reachable else "false"
        lines.append(f"{rec.point:.12g},{rec.value:.12g},{rec.stderr:.12g},{flag}")
    return "\n".join(lines) + "\n"


def emit_csv(records: list[SweepRecord], destination) -> None:
    """Write records as CSV to a path or an open text stream."""
    text = format_csv(records)
    try:
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            with open(destination, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {destination!r}: {exc}") from exc


def parse_csv(text: str) -> list[SweepRecord]:
    """Inverse of emit_csv, for round-trip checks and downstream tooling."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    records = []
    for line in lines[1:]:
        point, value, stderr, flag = line.split(",")
        records.append(
            SweepRecord(float(point), float(value), float(stderr), flag == "true")
        )
    return records


_INT_KEYS = {"d", "seed", "repetitions", "n_max"}
_FLOAT_KEYS = {
    "omega", "beta", "jtau", "j", "gamma", "epsilon", "t_max", "lo", "hi", "tau",
}
_KEY_TO_FIELD = {"jtau": "j_tau"}


def _parse_grid(raw: str, lineno: int) -> tuple[float, ...]:
    try:
        if ":" in raw:
            parts = raw.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:count")
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if not 1 <= count <= MAX_TASKS:
                raise ValueError(f"count must lie in [1, MAX_TASKS = {MAX_TASKS}]")
            # a grid that overflows holds inf or NaN, which _validated rejects
            with np.errstate(over="ignore", invalid="ignore"):
                return tuple(np.linspace(start, stop, count))
        return tuple(float(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise ConfigInvalid(f"line {lineno}: bad grid {raw!r} ({exc})") from exc


def parse_config(text: str) -> SweepSpec:
    """Parse and validate flat key-value sweep configuration text."""
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if _KEY_TO_FIELD.get(key, key) in values:
            raise ConfigInvalid(f"line {lineno}: duplicate key {key!r}")
        if key in ("kind", "engine"):
            values[key] = raw
        elif key == "grid":
            values["grid"] = _parse_grid(raw, lineno)
        elif key in _INT_KEYS or key in _FLOAT_KEYS:
            number, noun = (int, "an integer") if key in _INT_KEYS else (float, "a number")
            try:
                values[_KEY_TO_FIELD.get(key, key)] = number(raw)
            except ValueError as exc:
                raise ConfigInvalid(f"line {lineno}: key {key!r} needs {noun}") from exc
        else:
            raise ConfigInvalid(f"line {lineno}: unknown key {key!r}")
    if "kind" not in values:
        raise ConfigInvalid("missing required key 'kind'")
    if "grid" not in values:
        raise ConfigInvalid("missing required key 'grid'")
    return _validated(SweepSpec(**values))
