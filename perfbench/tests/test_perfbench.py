"""Self-test of the sweep benchmark, in quick mode (tiny grids).

    python -m pytest perfbench/tests -q

It runs the benchmark the way BENCHMARK.json's command does and checks
the result line against BENCHMARK.json, that the output check can fail,
that the traced run's counts repeat exactly, and that no process the
benchmark starts outlives it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402
from ri_thermalizer import cli, collisions  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]
EXACT = ("simtime.collisions_total", "simtime.distance_evals_per_collision")


def bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


# Runs the command in argv[1:] as a child subreaper (Linux), so that any
# process the command leaves behind is reparented here instead of to init.
# Waits up to 5 s for such orphans, kills what still runs, reaps them all
# and prints the command's exit code and the number of orphans.
ORPHAN_PROBE = """
import ctypes, json, os, signal, subprocess, sys, time
if ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) != 0:  # PR_SET_CHILD_SUBREAPER
    sys.exit(77)
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode

def kill_children():
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == os.getpid():
            os.kill(int(entry), signal.SIGKILL)

orphans, deadline = 0, time.monotonic() + 5
while True:
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        break
    orphans += pid != 0
    if pid == 0 and time.monotonic() > deadline:
        kill_children()
        deadline = float("inf")
    elif pid == 0:
        time.sleep(0.05)
print(json.dumps({"returncode": code, "orphans": orphans}))
"""


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_timed_run_prints_every_end_to_end_metric_with_its_unit(workload):
    result = result_of(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_prints_every_layer_metric_and_its_counts_repeat(workload):
    first, second = result_of(bench(workload, 1)), result_of(bench(workload, 1))
    units = {name: m["unit"] for name, m in first["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert first["correct"] and second["correct"]
    counted = [n for n in units if n.endswith(".calls") or n in EXACT]
    assert counted
    for name in counted:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", ["nstar_recursion", "random_ensemble"])
def test_a_corrupted_row_counts_as_failed_tasks(workload, tmp_path):
    w = workloads.WORKLOADS[workload]
    grid = w.grid(0, True)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(w.config(0, grid), encoding="utf-8")
    parallel = tmp_path / "parallel.csv"
    serial = tmp_path / "serial.csv"
    assert cli.main(["sweep", str(cfg), "--out", str(parallel), "--parallel", "2"]) == 0
    assert cli.main(["sweep", str(cfg), "--out", str(serial)]) == 0
    expected = w.expect(w.params, grid, 0, True)
    if expected is None:
        expected = parallel.read_text(encoding="utf-8").splitlines()[1:]
    good = serial.read_text(encoding="utf-8")
    assert workloads.failed_tasks(w, grid, expected, good) == 0

    lines = good.splitlines()
    point, value, stderr, flag = lines[1].split(",")
    lines[1] = ",".join((point, repr(float(value) + 1.0), stderr, flag))
    bad = "\n".join(lines) + "\n"
    assert workloads.failed_tasks(w, grid, expected, bad) == w.reps
    assert workloads.failed_tasks(w, grid, expected, None) == w.tasks(grid)


def test_tracer_fails_loudly_when_a_public_name_is_gone(monkeypatch, tmp_path):
    monkeypatch.delattr(collisions, "collide_once")
    with pytest.raises(tracer.TraceError, match="collisions.collide_once"):
        tracer.Tracer(tmp_path).install()


@pytest.mark.parametrize("trace", [0, 1])
def test_no_process_outlives_a_run_of_the_pool_workload(trace):
    if not Path("/proc/self/stat").is_file():
        pytest.skip("needs Linux")
    proc = subprocess.run(
        [sys.executable, "-c", ORPHAN_PROBE, sys.executable, "perfbench/run.py",
         "--workload", "tsim_sl_pool", "--seed", "1", "--seconds", "0",
         "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode == 77:
        pytest.skip("no child subreaper")
    assert json.loads(proc.stdout) == {"returncode": 0, "orphans": 0}, proc.stderr


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(NAMES[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
