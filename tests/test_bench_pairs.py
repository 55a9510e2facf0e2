"""``tools/bench_pairs.py``: its option check, and its summary and claim on
synthetic runs, with no benchmark run."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "options, plan",
    [
        ([], [(w["name"], bench_pairs.PAIRS) for w in BENCH["workloads"]]),
        (["--workload", "nstar_recursion:4", "--workload", "random_ensemble"], [("nstar_recursion", 4), ("random_ensemble", 10)]),
        (["--workload", "nstar_bruteforce:1", "--claim", "nstar_bruteforce:sweep_s"], [("nstar_bruteforce", 1)]),
    ],
)
def test_the_plan_of_valid_options(options, plan):
    assert bench_pairs.parse_args(["--tag", "t", *options], BENCH).plan == plan


@pytest.mark.parametrize(
    "options, message",
    [
        (["--workload", "nstar_recursoin"], "unknown workload 'nstar_recursoin'"),
        (["--workload", "nstar_recursion:0"], "pairs >= 1, not '0'"),
        (["--workload", "nstar_recursion:-2"], "pairs >= 1, not '-2'"),
        (["--workload", "nstar_recursion:x"], "pairs >= 1, not 'x'"),
        (["--workload", "nstar_recursion", "--workload", "nstar_recursion:3"], "named twice"),
        (["--workload", "nstar_bruteforce:1", "--claim", "nstar_recursion:sweep_s"], "which this run does not run"),
        (["--claim", "nstar_recursion"], "WORKLOAD:METRIC"),
        (["--claim", "nstar_recursion:sweep_ms"], "metric 'sweep_ms'"),
        (["--claim", "nstar_recursion:sweep_s:x"], "metric 'sweep_s:x'"),
    ],
)
def test_a_bad_option_exits_2_before_any_tree_is_exported(monkeypatch, capsys, options, message):
    def no_export(*args):
        raise AssertionError("exported a tree")

    monkeypatch.setattr(bench_pairs, "export_parent", no_export)
    monkeypatch.setattr(bench_pairs, "export_change", no_export)
    monkeypatch.setattr(bench_pairs, "git", no_export)
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--tag", "t", *options])
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err


def _runs(pairs):
    # (parent, change) sweep_s per seed; seed 2's change run failed
    runs = []
    for seed, (parent, change) in enumerate(pairs):
        runs.append({"side": "parent", "seed": seed, "correct": True, "sweep_s": parent})
        runs.append({"side": "change", "seed": seed, "correct": change is not None, **({} if change is None else {"sweep_s": change})})
    return runs


def test_summarize_pairs_runs_by_seed():
    runs = _runs([(10.0, 8.0), (12.0, 9.0), (11.0, None), (14.0, 15.0), (13.0, 7.0)])
    s = bench_pairs.summarize(runs, "sweep_s", lower_is_better=True)
    pair_ratios = s.pop("pair_ratio_median"), s.pop("pair_ratio_q1"), s.pop("pair_ratio_q3")
    # seeds 0, 1, 3 and 4: the parent's 10, 12, 14, 13 against 8, 9, 15, 7;
    # inclusive quartiles of 10, 12, 13, 14 are 11.5 and 13.25
    assert s == {"parent_median": 12.5, "change_median": 8.5, "ratio": 0.68, "parent_iqr": 1.75, "pairs": 4, "change_wins": 3}
    # the pairs' ratios 8/10, 9/12, 15/14 and 7/13, sorted 7/13, 3/4, 4/5, 15/14
    assert pair_ratios == pytest.approx((0.775, 7 / 13 + 0.75 * (0.75 - 7 / 13), 0.8 + 0.25 * (15 / 14 - 0.8)))
    assert bench_pairs.summarize(runs, "sweep_s", lower_is_better=False)["change_wins"] == 1
    assert bench_pairs.summarize(_runs([(1.0, None)]), "sweep_s", True) == {"pairs": 0, "change_wins": 0}


def test_a_workload_summary_reports_each_sides_raw_medians():
    runs = _runs([(10.0, 8.0), (12.0, 9.0), (11.0, 6.0)])
    for run in runs:  # perfbench's unscaled medians, twice and thrice the scaled sweep_s
        run.update(raw_sweep_s_median=2 * run["sweep_s"], raw_cpu_s_median=3 * run["sweep_s"])
    summary = bench_pairs.workload_summary(runs, {"sweep_s": True})
    assert list(summary) == ["sweep_s", *bench_pairs.RAW]
    assert (summary["raw_sweep_s_median"]["parent_median"], summary["raw_sweep_s_median"]["change_median"]) == (22.0, 16.0)
    assert (summary["raw_cpu_s_median"]["parent_median"], summary["raw_cpu_s_median"]["change_median"]) == (33.0, 24.0)
    assert summary["raw_cpu_s_median"]["pair_ratio_median"] == pytest.approx(0.75)
    # a run without the field, as from a perfbench that does not print it, leaves it unsummarized
    assert summary["raw_setup_s_median"] == {"pairs": 0, "change_wins": 0}


@pytest.mark.parametrize("info_line", [True, False])
def test_a_run_keeps_perfbench_raw_medians(monkeypatch, info_line):
    info = {"sweeps": 9, "raw_sweep_s_median": 0.31, "raw_cpu_s_median": 0.32, "raw_setup_s_median": 0.17, "sweep_samples": [[0.3, 0.3]]}
    result = {"correct": True, "attempted": 48, "failed": 0, "metrics": {"sweep_s": {"value": 0.29, "unit": "s"}, "cpu_s": {"value": 0.3, "unit": "s"}}}
    stdout = (json.dumps({"perfbench": info}) + "\n") * info_line + json.dumps(result) + "\n"
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kwargs: subprocess.CompletedProcess(args, 0, stdout, ""))
    run = bench_pairs.run_once(Path("."), "tsim_sl_pool", 3, 1.0, True, ["sweep_s", "cpu_s"])
    raw = {name: info[name] for name in bench_pairs.RAW} if info_line else {}
    assert run == {"seed": 3, "correct": True, "failed": 0, "sweep_s": 0.29, "cpu_s": 0.3, **raw}


@pytest.mark.parametrize(
    "pairs, met",
    [
        ([(10.0 + i % 3, 8.0) for i in range(10)], True),
        # 8 wins of 10 fall short of nine in ten
        ([(10.0, 8.0)] * 8 + [(10.0, 12.0)] * 2, False),
        # every pair won, by less than the parent's IQR
        ([(10.0 + 2 * (i % 2), 9.9 + 2 * (i % 2)) for i in range(10)], False),
    ],
)
def test_claim_record_applies_the_gain_rule(pairs, met):
    summary = {"w": {"sweep_s": bench_pairs.summarize(_runs(pairs), "sweep_s", True)}}
    record = bench_pairs.claim_record(summary, "w:sweep_s", True)
    assert record["met"] is met and record["pairs"] == len(pairs)
    assert record["gap"] == pytest.approx(record["parent_median"] - record["change_median"])


def test_claim_record_of_a_workload_whose_runs_all_failed():
    summary = {"w": {"sweep_s": bench_pairs.summarize(_runs([(1.0, None)] * 3), "sweep_s", True)}}
    assert bench_pairs.claim_record(summary, "w:sweep_s", True) == {"workload": "w", "metric": "sweep_s", "pairs": 0, "met": False}


def _fake_import_runner(calls):
    """A subprocess.run that answers an import run with 0.5 s in the parent
    tree and 0.4 s in the change, recording each run's side and settings."""
    def run(cmd, cwd, env, **kwargs):
        side = Path(cwd).parent.name
        calls.append((side, Path(cwd).name, env.get("PYTHONDONTWRITEBYTECODE"), cmd[1:] == ["-c", bench_pairs.IMPORT_CODE]))
        return subprocess.CompletedProcess(cmd, 0, {"parent": "0.5\n", "change": "0.4\n"}[side], "")
    return run


def test_imports_alternate_the_sides_from_each_trees_src(monkeypatch):
    calls = []
    monkeypatch.setattr(bench_pairs.subprocess, "run", _fake_import_runner(calls))
    trees = {side: Path("/nowhere") / side for side in bench_pairs.SIDES}
    imports = bench_pairs.time_imports(trees, 3)
    assert [side for side, *_ in calls] == ["parent", "change", "change", "parent", "parent", "change"]
    assert {tuple(rest) for _, *rest in calls} == {("src", "1", True)}
    assert imports == {"runs": 3, "parent_median": 0.5, "change_median": 0.4, "pair_ratios": [0.8] * 3, "parent": [0.5] * 3, "change": [0.4] * 3}


@pytest.mark.parametrize("quick, runs", [(False, 15), (True, 2)])
def test_a_run_always_times_the_imports(monkeypatch, tmp_path, quick, runs):
    # the workload runs and the trees are faked: only the import runs start
    calls = []
    monkeypatch.setattr(bench_pairs.subprocess, "run", _fake_import_runner(calls))
    monkeypatch.setattr(bench_pairs, "git", lambda *args, **kwargs: subprocess.CompletedProcess(args, 0, "abc\n", ""))
    monkeypatch.setattr(bench_pairs, "export_parent", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "export_change", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: {"seed": args[2], "correct": True, "failed": 0, "sweep_s": 1.0})
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--tag", "t", "--workload", "nstar_bruteforce:1", "--out", str(out)] + ["--quick"] * quick) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert len(calls) == 2 * runs
    assert (record["imports"]["runs"], record["imports"]["parent_median"], record["imports"]["change_median"]) == (runs, 0.5, 0.4)
    # for reading only: no claim rests on them
    assert record["claim"] is None
