"""Spans and call counts at the module boundaries of the sweep path.

A sweep goes through six modules: cli -> sweeps -> simtime -> collisions
-> models and linalg.  The tracer wraps the public functions in SPANNED
and COUNTED under every name that one of those modules binds them to, so
a call is seen wherever the caller looks it up (``simtime.trace_distance``
and ``collisions.trace_distance`` are one function bound in two places).
Each SPANNED call records one span: id, parent id, task id, name, start,
end, and the n* it returned, if any.  Spans of one grid task share the id
of the task's root span (``nstar_simulated`` or ``tsim_simulated_sl``).
COUNTED functions run once per collision or RK4 step inside simtime
itself; they are only counted, so their time stays in simtime's self time
and the trace stays small.

Pool workers forked during a traced sweep inherit the wrappers and the
open span stack, record their own spans, and spool them to a file when
they exit; the parent collects the files after the sweep.  Spans are kept
in memory and written out once, at the end of the run.

Nothing here changes the program: installing patches module attributes,
and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from multiprocessing import util as mp_util
from pathlib import Path

LAYERS = ("cli", "sweeps", "simtime", "collisions", "models", "linalg")

SPANNED = (
    "cli.main",
    "sweeps.parse_config",
    "sweeps.run_sweep",
    "sweeps.emit_csv",
    "simtime.nstar_simulated",
    "simtime.tsim_simulated_sl",
    "collisions.population_step_matrix",
    "collisions.sl_population_generator",
    "collisions.collide_once",
    "collisions.collision_unitary",
    "models.total_hamiltonian",
    "models.ancilla_thermal_state",
    "linalg.unitary_from_hamiltonian",
    "linalg.trace_distance",
    "linalg.partial_trace_second",
)
COUNTED = ("simtime.population_distance",)
TASK_ROOTS = frozenset({"simtime.nstar_simulated", "simtime.tsim_simulated_sl"})

# span tuple fields
SID, PARENT, TASK, NAME, START, END, NSTAR = range(7)


class TraceError(RuntimeError):
    """The sweep path no longer matches what the tracer wraps."""


def _modules() -> dict:
    return {name: importlib.import_module(f"ri_thermalizer.{name}") for name in LAYERS}


class Tracer:
    """Wraps the sweep path while installed; collects spans and counts."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple] = []
        self._pid = os.getpid()
        self._seq = 0
        self._patched: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = _modules()
        originals = {}
        for qual in SPANNED + COUNTED:
            mod_name, attr = qual.split(".")
            originals[qual] = getattr(modules[mod_name], attr, None)
            if not callable(originals[qual]):
                raise TraceError(
                    f"public name {qual} no longer exists; the traced layers in "
                    f"perfbench/tracer.py must follow the program"
                )
        for qual, original in originals.items():
            wrapper = self._span(qual, original) if qual in SPANNED else self._count(qual, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
        mp_util.register_after_fork(self, Tracer._after_fork)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _span(self, name: str, fn):
        tracer = self
        clock = time.perf_counter
        is_root = name in TASK_ROOTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._seq += 1
            sid = tracer._pid * 1_000_000_000 + tracer._seq
            parent, task = tracer._stack[-1] if tracer._stack else (None, None)
            if is_root:
                task = sid
            tracer._stack.append((sid, task))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                tracer._stack.pop()
                tracer.spans.append(
                    (sid, parent, task, name, start, end, getattr(result, "n_star", None))
                )

        return wrapper

    def _count(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- pool workers --------------------------------------------------------

    def _after_fork(self) -> None:
        # runs in a forked worker; the open stack is kept so the worker's
        # task spans name the parent's run_sweep span as their parent
        if not self._patched:
            return
        self.spans = []
        self.counts = Counter()
        self._pid = os.getpid()
        self._seq = 0
        mp_util.Finalize(self, self._spool, exitpriority=10)

    def _spool(self) -> None:
        path = self.spool_dir / f"spool-{self._pid}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)

    def collect(self) -> tuple[list[tuple], Counter]:
        """Take the spans and counts recorded since the last collect,
        including those spooled by pool workers that have exited."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        for path in sorted(self.spool_dir.glob("spool-*.json")):
            with open(path, encoding="utf-8") as handle:
                spooled = json.load(handle)
            path.unlink()
            spans.extend(tuple(s) for s in spooled["spans"])
            counts.update(spooled["counts"])
        return spans, counts


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict:
    """Self time per span id: its duration minus the part of its interval
    that its child spans cover (children in pool workers may overlap)."""
    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c[START], s[START]), min(c[END], s[END]))
            for c in children.get(s[SID], ())
            if c[END] > s[START] and c[START] < s[END]
        ]
        out[s[SID]] = (s[END] - s[START]) - _covered(clipped)
    return out


def sweep_summary(spans: list[tuple], counts: Counter) -> dict:
    """Per-sweep figures: calls, total self time and durations per name,
    and the n* total of the task roots."""
    selfs = self_times(spans)
    calls = Counter(counts)
    self_s = defaultdict(float)
    durations = defaultdict(list)
    collisions = 0
    for s in spans:
        calls[s[NAME]] += 1
        self_s[s[NAME]] += selfs[s[SID]]
        durations[s[NAME]].append(s[END] - s[START])
        if s[NAME] == "simtime.nstar_simulated" and s[NSTAR] is not None:
            collisions += s[NSTAR]
    return {"calls": calls, "self_s": self_s, "durations": durations, "collisions": collisions}


def _pct(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-layer metrics from the summaries of repeated traced sweeps of
    one spec.  Counts must repeat exactly between those sweeps."""
    first = summaries[0]
    for other in summaries[1:]:
        if other["calls"] != first["calls"] or other["collisions"] != first["collisions"]:
            raise TraceError("call counts differ between traced sweeps of one spec")
    calls = first["calls"]
    durations = defaultdict(list)
    for s in summaries:
        for name, values in s["durations"].items():
            durations[name].extend(values)

    def self_s(name: str) -> float:
        return statistics.median(s["self_s"].get(name, 0.0) for s in summaries)

    collisions = first["collisions"]
    nstar_s = statistics.median(sum(s["durations"]["simtime.nstar_simulated"]) for s in summaries)
    distance_calls = calls["simtime.population_distance"] + calls["linalg.trace_distance"]
    m = {
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "sweeps.run_sweep.self_s": (self_s("sweeps.run_sweep"), "s"),
        "simtime.nstar_simulated.self_s": (self_s("simtime.nstar_simulated"), "s"),
        "simtime.collisions_total": (collisions, "count"),
        "simtime.us_per_collision": (1e6 * nstar_s / collisions if collisions else 0.0, "us"),
        "simtime.distance_evals_per_collision": (
            distance_calls / collisions if collisions else 0.0, "ratio"),
        "collisions.collide_once.self_s": (self_s("collisions.collide_once"), "s"),
    }
    for name in SPANNED + COUNTED:
        if name.split(".")[0] not in ("cli", "sweeps"):
            m[f"{name}.calls"] = (calls[name], "count")
    for name in ("simtime.nstar_simulated", "simtime.tsim_simulated_sl"):
        for q in (50, 90):
            m[f"{name}.ms_p{q}"] = (1e3 * _pct(durations[name], q), "ms")
    for name in (
        "collisions.collide_once", "collisions.collision_unitary", "models.total_hamiltonian",
        "linalg.unitary_from_hamiltonian", "linalg.trace_distance", "linalg.partial_trace_second",
    ):
        m[f"{name}.us_p50"] = (1e6 * _pct(durations[name], 50), "us")
    return m


def write_spans(path: Path, spans: list[tuple]) -> None:
    fields = ("id", "parent", "task", "name", "start", "end", "n_star")
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            handle.write(json.dumps(dict(zip(fields, s))) + "\n")
