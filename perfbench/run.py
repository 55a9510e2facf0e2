#!/usr/bin/env python3
"""Sweep benchmark for ri_thermalizer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]

Run from the root of a checkout.  The workload's sweep runs in this
process through ``ri_thermalizer.cli.main(["sweep", cfg, "--out", csv,
"--parallel", K])`` with the package imported from ``src/``; every CSV it
writes is checked by an independent route (workloads.py).  The last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (tasks, i.e. grid points x repetitions) and ``metrics``.

--trace 0 measures the end-to-end metrics; --trace 1 measures the
per-layer metrics in a separate run that wraps the module boundaries
(tracer.py).  --quick shrinks the grids and the sample counts so the
self-test finishes in seconds.  The line before the result records the
environment and the raw (unscaled) timings.  README.md explains the
metrics, the workloads and the calibration that steadies the timings.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# OpenBLAS threads x pool workers must stay within the two cores, and the
# program lets RI_THERMALIZER_THREADS override --parallel silently.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
DROPPED_ENV = ("RI_THERMALIZER_THREADS",)

SETUP_CODE = (
    "import sys\n"
    "from ri_thermalizer import cli\n"
    "with open(sys.argv[1], encoding='utf-8') as handle:\n"
    "    spec = cli.parse_config(handle.read())\n"
    "print(len(spec.grid))\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny grids, for the self-test")
    return parser.parse_args(argv)


def pin_environment() -> None:
    for key in DROPPED_ENV:
        os.environ.pop(key, None)
    os.environ.update(PINNED_ENV)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def environment_record(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "unknown"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError):
        pass
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
        "env": {**PINNED_ENV, **{key: None for key in DROPPED_ENV}},
    }


class Run:
    """One benchmark run of one workload: the sweeps, their CSVs, the check."""

    def __init__(self, workload, seed: int, quick: bool, tmp: Path, cli):
        self.w = workload
        self.seed = seed
        self.quick = quick
        self.cli = cli
        self.tmp = tmp
        self.grid = workload.grid(seed, quick)
        self.cfg = tmp / "sweep.cfg"
        self.cfg.write_text(workload.config(seed, self.grid), encoding="utf-8")
        self.csv = tmp / "sweep.csv"
        self.texts: list[str | None] = []
        self.twin: str | None = None  # first --parallel 2 CSV
        self.min_sweeps = 1 if quick else 5
        # a sweep on K processes is calibrated on K processes at once,
        # because contention on either core slows a pooled sweep.  The pool
        # forks: spawn would start multiprocessing's resource tracker, a
        # process that nothing waits for and that outlives the benchmark.
        self.cal_pool = None
        if workload.parallel > 1:
            self.cal_pool = ProcessPoolExecutor(
                workload.parallel, mp_context=multiprocessing.get_context("fork"))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.cal_pool is not None:
            self.cal_pool.shutdown()

    def sweep(self, parallel: int) -> tuple[float, float]:
        """One cli.main sweep call; returns (wall s, CPU s of this process
        and its reaped children).  The CSV is kept for the check."""
        argv = ["sweep", str(self.cfg), "--out", str(self.csv), "--parallel", str(parallel)]
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        text = self.csv.read_text(encoding="utf-8") if code == 0 and self.csv.exists() else None
        self.csv.unlink(missing_ok=True)
        self.texts.append(text)
        if parallel == 2 and self.twin is None:
            self.twin = text
        return wall, cpu

    def kernel_s(self) -> tuple[float, float]:
        """(wall, CPU) seconds of the workload's calibration kernel; with a
        pool, the means over ``parallel`` copies run at once."""
        if self.cal_pool is None:
            return time_kernel(self.w.kernel)
        copies = list(self.cal_pool.map(time_kernel, [self.w.kernel] * self.w.parallel))
        return statistics.fmean(c[0] for c in copies), statistics.fmean(c[1] for c in copies)

    def setup_s(self) -> float:
        """Fresh interpreter to parsed SweepSpec: import cli, parse the config."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(self.cfg)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout.strip() != str(len(self.grid)):
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
        return wall

    def check(self, workloads) -> tuple[int, int]:
        """(attempted, failed) tasks over every CSV this run produced."""
        expected = self.w.expect(self.w.params, self.grid, self.seed, self.quick)
        if expected is None:
            expected = self.twin.splitlines()[1:] if self.twin else [None] * len(self.grid)
        verdicts: dict = {}
        attempted = failed = 0
        for text in self.texts:
            if text not in verdicts:
                verdicts[text] = workloads.failed_tasks(self.w, self.grid, expected, text)
            attempted += self.w.tasks(self.grid)
            failed += verdicts[text]
        return attempted, failed


def time_kernel(kernel) -> tuple[float, float]:
    """(wall, CPU) seconds of one kernel run in this process.  A sweep's CPU
    time is scaled by the kernel's CPU time, because time the host does not
    run this process inflates wall times but not CPU times."""
    t0, c0 = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - t0, time.process_time() - c0


def calibrated(action, kernel_s, count: int, seconds: float) -> tuple[list, list]:
    """Repeat ``action`` at least ``count`` times and for ``seconds``,
    calling ``kernel_s`` (which times a calibration kernel) before the
    first call and after each one.  Returns the results and kernel times."""
    kernel_times = [kernel_s()]
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < count or time.perf_counter() < deadline:
        results.append(action())
        kernel_times.append(kernel_s())
    return results, kernel_times


def scaled_mean(values, kernel_s, ref_s: float) -> float:
    """Mean of ``values`` at the machine speed where the kernel takes ref_s.

    Sweeps and kernel runs alternate over the whole run, so the mean kernel
    time measures the machine's mean speed over the same stretch of time;
    their ratio is steadier than any per-sample statistic (README.md).
    """
    return statistics.fmean(values) * ref_s / statistics.fmean(kernel_s)


def run_timed(run: Run, seconds: float, workloads) -> tuple[dict, dict]:
    w = run.w
    run.sweep(w.parallel)  # warm-up: first-call costs a user pays once per process
    sweeps, kernel_s = calibrated(lambda: run.sweep(w.parallel), run.kernel_s,
                                  run.min_sweeps, seconds)
    rss = peak_rss_mb()
    if w.parallel_twin:
        run.sweep(2)
    setups, setup_kernel_s = calibrated(
        run.setup_s, lambda: time_kernel(workloads.kernel_fresh_numpy),
        2 if run.quick else 7, 0.0)
    walls = [wall for wall, _ in sweeps]
    cpus = [cpu for _, cpu in sweeps]
    ref = workloads.KERNEL_REF_S
    # each set-up sits between two fresh-numpy kernel runs of the same kind
    setups_scaled = [
        setup * workloads.SETUP_KERNEL_REF_S / ((before[0] + after[0]) / 2)
        for setup, before, after in zip(setups, setup_kernel_s, setup_kernel_s[1:])
    ]
    metrics = {
        "setup_s": (statistics.median(setups_scaled), "s"),
        "sweep_s": (scaled_mean(walls, [k[0] for k in kernel_s], ref), "s"),
        "cpu_s": (scaled_mean(cpus, [k[1] for k in kernel_s], ref), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {
        "sweeps": len(sweeps),
        "setup_runs": len(setups),
        "raw_sweep_s_median": statistics.median(walls),
        "raw_cpu_s_median": statistics.median(cpus),
        "raw_setup_s_median": statistics.median(setups),
        "sweep_samples": sweeps,
        "kernel_s": kernel_s,
        "setup_samples": setups,
        "setup_kernel_s": setup_kernel_s,
    }
    return metrics, info


def run_traced(run: Run, seconds: float, workloads, tracer_mod) -> tuple[dict, dict]:
    w = run.w
    run.sweep(w.parallel)
    # untraced: serial and --parallel 2 sweeps alternate, for pool_speedup
    # and as the base of trace.overhead_frac
    pairs, kernel_s = calibrated(lambda: (run.sweep(1)[0], run.sweep(2)[0]), run.kernel_s,
                                 1 if run.quick else 3, seconds / 2)
    kernel_walls = [k[0] for k in kernel_s]
    serial = scaled_mean([s for s, _ in pairs], kernel_walls, workloads.KERNEL_REF_S)
    pooled = scaled_mean([p for _, p in pairs], kernel_walls, workloads.KERNEL_REF_S)
    untraced = serial if w.parallel == 1 else pooled

    tracer = tracer_mod.Tracer(run.tmp)
    tracer.install()
    summaries, spans = [], []
    try:
        def traced_sweep():
            wall, _ = run.sweep(w.parallel)
            sweep_spans, counts = tracer.collect()
            if not spans:  # one sweep's spans are written out; more only add size
                spans.extend(sweep_spans)
            summaries.append(tracer_mod.sweep_summary(sweep_spans, counts))
            return wall

        traced, traced_kernel_s = calibrated(traced_sweep, run.kernel_s,
                                             1 if run.quick else 2, seconds / 2)
    finally:
        tracer.uninstall()
    roots = sum(summaries[0]["calls"][name] for name in tracer_mod.TASK_ROOTS)
    if roots != w.tasks(run.grid):
        raise tracer_mod.TraceError(
            f"traced {roots} task roots for {w.tasks(run.grid)} tasks; "
            "pool workers must inherit the wrappers (fork start method)"
        )
    metrics = tracer_mod.layer_metrics(summaries)
    metrics["sweeps.pool_speedup"] = (serial / pooled, "ratio")
    traced_s = scaled_mean(traced, [k[0] for k in traced_kernel_s], workloads.KERNEL_REF_S)
    metrics["trace.overhead_frac"] = (traced_s / untraced - 1.0, "ratio")
    trace_path = OUT / f"trace-{w.name}-seed{run.seed}.jsonl"
    tracer_mod.write_spans(trace_path, spans)
    info = {
        "untraced_pairs": len(pairs),
        "traced_sweeps": len(traced),
        "spans": len(spans),
        "spans_file": str(trace_path.relative_to(ROOT)),
    }
    return metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if not (SRC / "ri_thermalizer" / "cli.py").is_file():
        print(f"perfbench: no ri_thermalizer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ri_thermalizer

    if Path(ri_thermalizer.__file__).resolve().parent != SRC / "ri_thermalizer":
        print(f"perfbench: imported ri_thermalizer from {ri_thermalizer.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from ri_thermalizer import cli

    import tracer
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp, \
            Run(workload, args.seed, args.quick, Path(tmp), cli) as run:
        if args.trace:
            metrics, info = run_traced(run, args.seconds, workloads, tracer)
        else:
            metrics, info = run_timed(run, args.seconds, workloads)
        attempted, failed = run.check(workloads)
    info.update(workload=workload.name, trace=args.trace, quick=args.quick,
                tasks_per_sweep=workload.tasks(run.grid), failed_frac=failed / attempted,
                environment=environment_record(args.seed))
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
