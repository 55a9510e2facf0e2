"""``tools/bench_pairs.py``: its option check, and its summary and claim on
synthetic runs, with no benchmark run."""

import importlib.util
import json
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
        (["--workload", "nstar_recursion:10", "--workload", "random_ensemble"], [("nstar_recursion", 10), ("random_ensemble", 6)]),
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
    # seeds 0, 1, 3 and 4: the parent's 10, 12, 14, 13 against 8, 9, 15, 7;
    # inclusive quartiles of 10, 12, 13, 14 are 11.5 and 13.25
    assert s == {"parent_median": 12.5, "change_median": 8.5, "ratio": 0.68, "parent_iqr": 1.75, "pairs": 4, "change_wins": 3}
    assert bench_pairs.summarize(runs, "sweep_s", lower_is_better=False)["change_wins"] == 1
    assert bench_pairs.summarize(_runs([(1.0, None)]), "sweep_s", True) == {"pairs": 0, "change_wins": 0}


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
