#!/usr/bin/env python3
"""Alternating parent/change pairs of the sweep benchmark.

    python3 tools/bench_pairs.py --tag NAME [--workload NAME[:PAIRS] ...] \\
        [--seconds S] [--quick] [--claim WORKLOAD:METRIC] [--what TEXT] [--out PATH]

Run from anywhere inside a checkout.  The parent is ``git archive HEAD``;
the change is the working tree's files that git tracks or would track.
Each copy goes to its own temporary directory, and ``perfbench/run.py
--workload W --seed S --seconds X`` runs from each in turn: pair S uses
seed S, the parent first on even seeds and the change first on odd ones.
A workload runs its own number of pairs (``NAME:10``) or six (every
workload in BENCHMARK.json when none is named).

The result, ``BENCH_<tag>.json`` at the root of the checkout unless --out
names another path, holds every run and, per workload and end-to-end
metric of BENCHMARK.json, the parent's and the change's medians, the
parent's interquartile range, their ratio (change / parent), the median
and quartiles of the per-pair ratios (change / parent of one seed), the
number of pairs and the pairs the change won.  Each run also keeps
perfbench's unscaled medians (``RAW``, from its ``{"perfbench": ...}``
line), summarized the same way; they are for reading only, as are the
times of 15 fresh ``import ri_thermalizer.cli`` runs a side (2 with
--quick), alternating the sides, each from its tree's ``src/`` with
PYTHONDONTWRITEBYTECODE=1: both medians and the per-pair ratios.  The per-pair
ratios matter where a workload's seeds differ in work, which widens the
parent's IQR across seeds.  --claim adds the gain rule, on the end-to-end
metric alone: the change wins at least nine pairs in ten and its median
beats the parent's by more than the parent's IQR.  Exits 2, before any
tree is exported, on a workload or end-to-end metric that BENCHMARK.json
does not name, a workload named twice, a pair count that is not a whole
number >= 1, or a claim without ":" or on a workload the run does not
run; exits 1 when a run fails or its check reports an incorrect CSV.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 6  # pairs of a workload named without its own count
# perfbench's medians of the unscaled samples behind sweep_s, cpu_s and setup_s
RAW = ("raw_sweep_s_median", "raw_cpu_s_median", "raw_setup_s_median")
# fresh imports timed a side, and with --quick
IMPORT_RUNS, QUICK_IMPORT_RUNS = 15, 2
IMPORT_CODE = "import time; t = time.perf_counter(); import ri_thermalizer.cli; print(time.perf_counter() - t)"


def parse_args(argv, bench: dict):
    """The options, with ``plan``, the (workload, pairs) to run, checked
    against bench (BENCHMARK.json) before anything runs: a bad option exits 2."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="names the output, BENCH_<tag>.json")
    parser.add_argument("--workload", action="append", default=[], help="NAME or NAME:PAIRS; repeatable")
    parser.add_argument("--seconds", type=float, default=20.0, help="perfbench/run.py --seconds")
    parser.add_argument("--quick", action="store_true", help="perfbench/run.py --quick")
    parser.add_argument("--claim", help="WORKLOAD:METRIC whose gain the rule checks")
    parser.add_argument("--what", default="", help="what the change does, for the record")
    parser.add_argument("--out", type=Path, help="output path (default BENCH_<tag>.json in the checkout)")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    args.plan = []
    for name, _, count in (w.partition(":") for w in args.workload or workloads):
        if name not in workloads:
            parser.error(f"unknown workload {name!r}; BENCHMARK.json names {', '.join(workloads)}")
        if name in dict(args.plan):
            parser.error(f"workload {name!r} is named twice")
        if count and not (count.isdecimal() and int(count) >= 1):
            parser.error(f"workload {name!r} needs a whole number of pairs >= 1, not {count!r}")
        args.plan.append((name, int(count or PAIRS)))
    if args.claim:
        workload, colon, metric = args.claim.partition(":")
        if not colon:
            parser.error(f"--claim takes WORKLOAD:METRIC, not {args.claim!r}")
        if workload not in dict(args.plan):
            parser.error(f"--claim names workload {workload!r}, which this run does not run")
        if metric not in metrics:
            parser.error(f"--claim names metric {metric!r}; BENCHMARK.json's end-to-end metrics are {', '.join(metrics)}")
    return args


def git(*args, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, **kwargs)


def export_parent(rev: str, dest: Path) -> None:
    archive = git("archive", "--format=tar", rev).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def export_change(dest: Path) -> None:
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").stdout.decode().split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted from the working tree is gone from the change
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(tree: Path, workload: str, seed: int, seconds: float, quick: bool, metrics) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd + ["--quick"] * quick, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"seed": seed, "correct": False, "failed": None, "returncode": proc.returncode}
    result = json.loads(lines[-1])
    info = next((json.loads(line)["perfbench"] for line in lines if line.startswith('{"perfbench"')), {})
    values = {name: result["metrics"][name]["value"] for name in metrics}
    raw = {name: info[name] for name in RAW if name in info}
    return {"seed": seed, "correct": result["correct"], "failed": result["failed"], **values, **raw}


def time_imports(trees: dict, runs: int) -> dict:
    """Seconds of ``runs`` fresh ``import ri_thermalizer.cli`` a side, in
    pairs, the parent first in even pairs; each from the tree's src/ with
    PYTHONDONTWRITEBYTECODE=1, so every run compiles the package anew."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    times = {side: [] for side in SIDES}
    for i in range(runs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=trees[side] / "src", env=env, capture_output=True, text=True, check=True)
            times[side].append(float(proc.stdout))
    return {
        "runs": runs,
        "parent_median": statistics.median(times["parent"]),
        "change_median": statistics.median(times["change"]),
        "pair_ratios": [c / p for p, c in zip(times["parent"], times["change"])],
        **times,
    }


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs, metric: str, lower_is_better: bool) -> dict:
    by_seed = {side: {r["seed"]: r[metric] for r in runs if r["side"] == side and metric in r} for side in SIDES}
    seeds = sorted(set(by_seed["parent"]) & set(by_seed["change"]))
    if not seeds:  # every run of one side failed
        return {"pairs": 0, "change_wins": 0}
    parent = [by_seed["parent"][s] for s in seeds]
    change = [by_seed["change"][s] for s in seeds]
    q1, q3 = quartiles(parent)
    wins = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    ratios = [c / p for p, c in zip(parent, change) if p]  # one per pair
    ratio_median, (ratio_q1, ratio_q3) = (statistics.median(ratios), quartiles(ratios)) if ratios else (None, (None, None))
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "ratio": round(change_median / parent_median, 4) if parent_median else None,
        "parent_iqr": q3 - q1,
        "pair_ratio_median": ratio_median,
        "pair_ratio_q1": ratio_q1,
        "pair_ratio_q3": ratio_q3,
        "pairs": len(seeds),
        "change_wins": wins,
    }


def workload_summary(runs, metrics: dict) -> dict:
    """``summarize`` of each end-to-end metric (name: lower is better), then
    of each ``RAW`` median."""
    return {m: summarize(runs, m, lower) for m, lower in {**metrics, **dict.fromkeys(RAW, True)}.items()}


def claim_record(summary: dict, claim: str, lower_is_better: bool) -> dict:
    workload, metric = claim.split(":")
    s = summary[workload][metric]
    if not s["pairs"]:
        return {"workload": workload, "metric": metric, "pairs": 0, "met": False}
    gap = (s["parent_median"] - s["change_median"]) * (1 if lower_is_better else -1)
    return {
        "workload": workload,
        "metric": metric,
        "rule": "change wins >= 9/10 of pairs and |parent median - change median| > parent IQR, in the metric's better direction",
        "change_wins": s["change_wins"],
        "pairs": s["pairs"],
        "parent_median": s["parent_median"],
        "change_median": s["change_median"],
        "parent_iqr": s["parent_iqr"],
        "gap": gap,
        "reduction": gap / s["parent_median"],
        "met": 10 * s["change_wins"] >= 9 * s["pairs"] and gap > s["parent_iqr"],
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, bench)
    metrics = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    plan = args.plan
    parent_commit = git("rev-parse", "HEAD", text=True).stdout.strip()

    runs, ok = {name: [] for name, _ in plan}, True
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        export_parent(parent_commit, trees["parent"])
        export_change(trees["change"])
        for name, pairs in plan:
            for seed in range(pairs):
                for side in SIDES if seed % 2 == 0 else SIDES[::-1]:
                    run = {"side": side, **run_once(trees[side], name, seed, args.seconds, args.quick, metrics)}
                    ok &= run["correct"]
                    runs[name].append(run)
                    shown = ", ".join(f"{k} {run[k]:.4g}" for k in metrics if k in run)
                    print(f"{name} seed {seed} {side}: correct={run['correct']} {shown}", flush=True)
        imports = time_imports(trees, QUICK_IMPORT_RUNS if args.quick else IMPORT_RUNS)
        print(f"import ri_thermalizer.cli: parent {imports['parent_median']:.4g} s, change {imports['change_median']:.4g} s (medians)", flush=True)

    summary = {name: workload_summary(runs[name], metrics) for name, _ in plan}
    command = f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}" + " --quick" * args.quick
    record = {
        "tag": args.tag,
        "what": args.what,
        "claim": claim_record(summary, args.claim, metrics[args.claim.split(":")[1]]) if args.claim else None,
        "parent_commit": parent_commit,
        "command": command,
        "protocol": (
            "tools/bench_pairs.py: each pair runs the parent (git archive) and the change (the working tree's "
            "tracked and untracked, not ignored, files) one after the other, each from its own copy; pair S uses "
            "seed S, the parent first on even seeds. Pairs: "
            + ", ".join(f"{name} {pairs}" for name, pairs in plan)
            + f". Host: {platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}."
        ),
        "summary": summary,
        "imports": imports,
        "runs": runs,
    }
    out = args.out or ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    if record["claim"]:
        print("claim met" if record["claim"]["met"] else "claim NOT met", json.dumps(record["claim"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
