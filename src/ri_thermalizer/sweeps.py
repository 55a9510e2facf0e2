"""Parameter sweeps over the collision model, with CSV output.

Sweep configurations are flat ``key = value`` text (``#`` starts a
comment), parsed into a ``SweepSpec`` that checks itself and builds each
grid point's run when it is made.  Grids are either ``start:stop:count``
(linear) or an explicit comma list.  Supported kinds:

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

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .collisions import CollisionConfig, _check_epsilon
from .errors import ConfigInvalid, IoError, StepTooLarge
from .models import AncillaSpec, IsotropicFlipFlop, ModelSpec, RandomFull, SystemSpec, _entropy_array, _seed_states
from .simtime import MAX_STEPS, _sl_steps, nstar_simulated_batch, tsim_simulated_sl_batch

# each kind's default engine, and the config key its grid points replace
_KIND_TABLE = {
    "NstarVsJtau": ("Recursion", "jtau"),
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
    """A sweep (kinds in the module docstring) that checks itself when made:
    its own rules, then each grid point's objects (``runs``), then its
    engine's scan bound; raises ConfigInvalid.  ``engine`` and
    ``repetitions`` become what the sweep runs.  The runs are no field, so
    ``==``, ``hash`` and ``repr`` ignore them, and pickling drops them."""

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

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigInvalid(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if not self.grid:
            raise ConfigInvalid("grid must be nonempty")
        if self.repetitions < 1:
            raise ConfigInvalid("repetitions must be >= 1")
        # only the random ensemble repeats a grid point
        if self.kind != "RandomEnsembleVsBeta":
            object.__setattr__(self, "repetitions", 1)
        if len(self.grid) * self.repetitions > MAX_TASKS:
            raise ConfigInvalid(f"grid points times repetitions exceeds MAX_TASKS = {MAX_TASKS}")
        for key in sorted(_FLOAT_KEYS - {"beta"}):
            if not math.isfinite(getattr(self, _KEY_TO_FIELD.get(key, key))):
                raise ConfigInvalid(f"{key} must be a finite number")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigInvalid("grid must be strictly increasing")
        object.__setattr__(self, "engine", self.engine or _KIND_TABLE[self.kind][0])
        if self.engine not in ENGINES:
            raise ConfigInvalid(f"unknown engine {self.engine!r}; expected one of {ENGINES}")
        if self.kind in ("NstarVsJtau", "NstarVsBeta") and self.engine == "OdeSL":
            raise ConfigInvalid(f"engine OdeSL cannot produce collision counts for {self.kind}")
        if self.kind == "RandomEnsembleVsBeta" and self.engine != "BruteForce":
            raise ConfigInvalid("RandomEnsembleVsBeta requires engine BruteForce")
        if not 2 <= self.d <= MAX_D:
            raise ConfigInvalid(f"d must lie in [2, {MAX_D}]")
        # tau = jtau / j for the flip-flop runs
        if self.j <= 0 or self.tau <= 0:
            raise ConfigInvalid("j and tau must be positive")
        self.runs  # builds, and so checks, every grid point's run
        if self.engine == "OdeSL":
            # the SL scan's own step rule; its p_A check passes for any beta
            try:
                steps = _sl_steps(1.0, self.gamma, self.epsilon, self.t_max, None)[1]
            except (ValueError, StepTooLarge) as exc:
                # a default step 0.01 / gamma that is not finite is StepTooLarge
                if not self.gamma > 0 or isinstance(exc, StepTooLarge):
                    raise ConfigInvalid("gamma must be positive, with a finite default step 0.01 / gamma") from exc
                raise ConfigInvalid("t_max must be positive, with a finite step count t_max / (0.01 / gamma)") from exc
            if steps > MAX_STEPS:
                raise ConfigInvalid(f"t_max / (0.01 / gamma) = {steps:.3g} RK4 steps exceeds MAX_STEPS = {MAX_STEPS}")
        elif self.engine == "BruteForce" and self.n_max > MAX_STEPS:
            raise ConfigInvalid(f"n_max = {self.n_max} exceeds MAX_STEPS = {MAX_STEPS} for the BruteForce scan")

    @functools.cached_property
    def runs(self) -> list[tuple]:
        """Each grid point's run (see _point_runs), built once a spec."""
        return _point_runs(self)

    def __getstate__(self):
        return {key: value for key, value in self.__dict__.items() if key != "runs"}


@dataclass(frozen=True)
class SweepRecord:
    """One grid point: swept value, result, ensemble stderr, cap flag."""

    point: float
    value: float
    stderr: float
    reachable: bool


# ---------------------------------------------------------------------------
# Point evaluation
# ---------------------------------------------------------------------------


def _point_runs(spec: SweepSpec) -> list[tuple]:
    """Each grid point's run: (p_A, epsilon) for OdeSL, all its batch reads,
    else (ModelSpec, CollisionConfig).  A point builds the half its grid key
    changes (beta; J*tau or epsilon) and shares the other, built once from
    keys the grid does not replace.  An object's ValueError becomes
    ConfigInvalid, prefixed ``at <key> grid point <x>:`` at a point; the
    beta and epsilon keys are checked also where the grid replaces them."""
    axis = _KIND_TABLE[spec.kind][1]
    ensemble = spec.kind == "RandomEnsembleVsBeta"
    point = None
    try:
        system = SystemSpec(d=spec.d, omega=spec.omega)
        AncillaSpec(omega=spec.omega, beta=spec.beta)
        _check_epsilon(spec.epsilon)
        interaction = RandomFull(lo=spec.lo, hi=spec.hi, seed=spec.seed) if ensemble else IsotropicFlipFlop(j=spec.j)
        if spec.engine == "OdeSL":
            model = lambda beta: AncillaSpec(omega=spec.omega, beta=beta).ground_population
            config = lambda jtau, eps: _check_epsilon(eps) or eps
        else:
            model = lambda beta: ModelSpec(system, AncillaSpec(omega=spec.omega, beta=beta), interaction)
            config = lambda jtau, eps: CollisionConfig(tau=spec.tau if ensemble else float(jtau) / spec.j, n_max=spec.n_max, epsilon=eps)
        # the half the grid does not vary, built once, at the first point
        fixed_model = functools.cache(lambda: model(spec.beta))
        fixed_config = functools.cache(lambda: config(spec.j_tau, spec.epsilon))
        run = {
            "beta": lambda x: (model(x), fixed_config()),
            "jtau": lambda x: (fixed_model(), config(x, spec.epsilon)),
            "epsilon": lambda x: (fixed_model(), config(spec.j_tau, x)),
        }[axis]
        runs = []
        for point in spec.grid:
            runs.append(run(point))
    except ValueError as exc:
        where = "" if point is None else f"at {axis} grid point {point:.12g}: "
        raise ConfigInvalid(f"{where}{exc}") from exc
    return runs


def _evaluate_tasks(spec: SweepSpec, runs) -> list[tuple[float, bool]]:
    """(value, reachable) of each task's run from _point_runs, all run as
    one batch: OdeSL's (p_A, epsilon) pairs, the others' (model, config)."""
    if spec.engine == "OdeSL":
        p_as, epsilons = zip(*runs)
        results = tsim_simulated_sl_batch(np.full(spec.d, 1.0 / spec.d), p_as, spec.gamma, epsilons, spec.t_max)
        return [(float(res.t_sim if res.reachable else spec.t_max), res.reachable) for res in results]
    models, cfgs = zip(*runs)
    engine = "brute_force" if spec.engine == "BruteForce" else "recursion"
    results = nstar_simulated_batch(np.eye(spec.d, dtype=complex) / spec.d, models, cfgs, engine=engine)
    if spec.kind.startswith("Tsim"):
        # the time n* tau, or the cap n_max tau
        return [(float(res.t_sim if res.reachable else spec.n_max * cfg.tau), res.reachable) for res, cfg in zip(results, cfgs)]
    return [(float(res.n_star if res.reachable else spec.n_max), res.reachable) for res in results]


def run_sweep(spec: SweepSpec, parallel: int = 1) -> list[SweepRecord]:
    """Evaluate every grid point (and repetition) of a sweep from its runs.

    Tasks are independent; a pool of min(parallel, tasks, CPUs) worker
    processes runs them when that is more than one, so parallel, an
    integer >= 1 (else ConfigInvalid), is an upper bound.  Worker w takes
    every w-th task as one share.  Each share runs as one batch, and a
    sweep with d <= _STACK_MAX_D[engine] runs all its tasks as one share
    in this process.  Results are assembled in grid order, so output is
    deterministic for a given spec and seed.
    """
    if not isinstance(parallel, (int, np.integer)) or parallel < 1:
        raise ConfigInvalid(f"parallel must be an integer >= 1, got {parallel!r}")
    runs = spec.runs
    reps = spec.repetitions
    if spec.kind == "RandomEnsembleVsBeta":
        # point i's repetition r: the seed SeedSequence([seed, i, r]) makes (i, r < 2^32), all in one stacked hash
        words, points = _entropy_array([spec.seed])[0], np.indices((len(runs), reps), dtype=np.uint32).reshape(2, -1).T
        seeds = iter(_seed_states(np.hstack([words.repeat(len(points), axis=0), points]), np.full(len(points), words.shape[1] + 2), 1)[:, 0].tolist())
        runs = [(ModelSpec(model.system, model.ancilla, RandomFull(spec.lo, spec.hi, next(seeds))), cfg)
                for model, cfg in runs for _ in range(reps)]
    workers = min(parallel, len(runs), os.cpu_count() or 1)
    if workers > 1 and spec.d > _STACK_MAX_D[spec.engine]:
        # imported here, so a sweep that pools nothing loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            shares = list(pool.map(_evaluate_tasks, [spec] * workers, [runs[w::workers] for w in range(workers)]))
        outcomes = [None] * len(runs)
        for w, share in enumerate(shares):
            outcomes[w::workers] = share
    else:
        outcomes = _evaluate_tasks(spec, runs)

    # one row of repetitions per point
    values = np.array([v for v, _ in outcomes]).reshape(-1, reps)
    reachable = np.array([ok for _, ok in outcomes]).reshape(-1, reps).all(axis=1)
    stderrs = values.std(ddof=1, axis=1) / math.sqrt(reps) if reps > 1 else np.zeros(len(values))
    return [
        SweepRecord(point=float(point), value=float(value), stderr=float(stderr), reachable=bool(ok))
        for point, value, stderr, ok in zip(spec.grid, values.mean(axis=1), stderrs, reachable)
    ]


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
    rows = [line.split(",") for line in text.splitlines() if line.strip()][1:]
    return [SweepRecord(float(point), float(value), float(stderr), flag == "true") for point, value, stderr, flag in rows]


_INT_KEYS = {"d", "seed", "repetitions", "n_max"}
_FLOAT_KEYS = {"omega", "beta", "jtau", "j", "gamma", "epsilon", "t_max", "lo", "hi", "tau"}
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
            # a grid that overflows holds inf or NaN, which SweepSpec rejects
            with np.errstate(over="ignore", invalid="ignore"):
                return tuple(np.linspace(start, stop, count))
        return tuple(float(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise ConfigInvalid(f"line {lineno}: bad grid {raw!r} ({exc})") from exc


def parse_config(text: str) -> SweepSpec:
    """The SweepSpec of flat key-value sweep configuration text, which
    checks itself as it is made; raises ConfigInvalid."""
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
    return SweepSpec(**values)
