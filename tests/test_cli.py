"""End-to-end tests of the command-line interface."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ri_thermalizer import simtime, sweeps
from ri_thermalizer.cli import main
from ri_thermalizer.errors import ConfigInvalid
from ri_thermalizer.models import AncillaSpec
from ri_thermalizer.sweeps import MAX_D, MAX_STEPS, MAX_TASKS, parse_config

README = Path(__file__).resolve().parent.parent / "README.md"

FIG3A_STYLE_CONFIG = """\
# n* against J*tau at strong coupling, low target temperature
kind = NstarVsJtau
grid = 0.6:2.4:7
d = 3
beta = 10
j = 10
epsilon = 1e-4
n_max = 100000
"""

FIG3A_GOLDEN_CSV = """\
point,value,stderr,reachable
0.6,29,0,true
0.9,12,0,true
1.2,6,0,true
1.5,3,0,true
1.8,5,0,true
2.1,9,0,true
2.4,18,0,true
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(FIG3A_STYLE_CONFIG)
    return path


class TestSweepCommand:
    def test_golden_file(self, config_path, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["sweep", str(config_path), "--out", str(out)]) == 0
        assert out.read_text() == FIG3A_GOLDEN_CSV

    def test_stdout_when_no_out(self, config_path, capsys):
        assert main(["sweep", str(config_path)]) == 0
        assert capsys.readouterr().out == FIG3A_GOLDEN_CSV

    @pytest.mark.parametrize("kind", ["NstarVsBeta", "TsimVsBeta", "RandomEnsembleVsBeta"])
    def test_a_sweep_builds_each_grid_points_objects_once(self, tmp_path, monkeypatch, kind):
        # run_sweep takes the runs parse_config built: one AncillaSpec per
        # grid point and one for the config's own beta (1.0), not two each
        built = []
        check = AncillaSpec.__post_init__
        monkeypatch.setattr(AncillaSpec, "__post_init__", lambda ancilla: built.append(ancilla.beta) or check(ancilla))
        runs = []
        point_runs = sweeps._point_runs
        monkeypatch.setattr(sweeps, "_point_runs", lambda spec: runs.append(1) or point_runs(spec))
        cfg = tmp_path / "beta.cfg"
        cfg.write_text(f"kind = {kind}\ngrid = 0.5,2,4\nd = 3\nepsilon = 0.05\nrepetitions = 2\nn_max = 50\nt_max = 5\n")
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0
        assert sorted(built) == [0.5, 1.0, 2.0, 4.0]
        assert len(runs) == 1

    def test_identical_bytes_across_runs(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", str(config_path), "--out", str(out1)])
        main(["sweep", str(config_path), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_parallel_flag_matches_serial(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", str(config_path), "--out", str(out1)])
        main(["sweep", str(config_path), "--out", str(out2), "--parallel", "3"])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("parallel", ["0", "-3"])
    def test_parallel_below_one_exits_2(self, config_path, capsys, parallel):
        assert main(["sweep", str(config_path), "--parallel", parallel]) == 2
        captured = capsys.readouterr()
        assert "invalid configuration: parallel must be an integer >= 1" in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("kind = NstarVsBeta\ngrid = 1,2\nbogus = 3\n")
        assert main(["sweep", str(bad)]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "kind = NstarVsBeta\ngrid = -1,2\n",
            "kind = TsimVsBeta\ngrid = -1,2\n",
            "kind = NstarVsJtau\ngrid = 0.5,1\nbeta = -1\n",
            "kind = NstarVsBeta\ngrid = 1,nan\n",
            "kind = NstarVsJtau\ngrid = 0.5,inf\n",
            "kind = TsimVsBeta\ngrid = -inf,1\n",
            "kind = NstarVsBeta\ngrid = 1,2\nd = 3\nd = 4\n",
        ],
        ids=["negative-beta-grid", "negative-beta-tsim", "negative-beta-key", "nan-point",
             "inf-jtau", "minus-inf-beta", "duplicate-key"],
    )
    def test_config_hole_exits_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert main(["sweep", str(bad)]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, line",
        [
            ("NstarVsBeta", "omega = nan"),
            ("NstarVsJtau", "beta = nan"),
            ("NstarVsBeta", "jtau = inf"),
            ("NstarVsBeta", "j = inf"),
            ("TsimVsBeta", "gamma = nan"),
            ("TsimVsBeta", "epsilon = nan"),
            ("TsimVsBeta", "t_max = inf"),
            ("RandomEnsembleVsBeta", "lo = -inf"),
            ("RandomEnsembleVsBeta", "hi = inf"),
            ("RandomEnsembleVsBeta", "tau = nan"),
        ],
        ids=lambda v: v.split(" ")[0] if "=" in v else v,
    )
    def test_non_finite_key_exits_2(self, tmp_path, capsys, kind, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"kind = {kind}\ngrid = 1,2\n{line}\n")
        assert main(["sweep", str(bad)]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "kind = NstarVsBeta\ngrid = 1,2\nomega = 0\n",
            "kind = NstarVsBeta\ngrid = 1,2\nomega = -1\n",
            "kind = RandomEnsembleVsBeta\ngrid = 1\nomega = 0\nn_max = 10\n",
            "kind = RandomEnsembleVsBeta\ngrid = 1\nomega = -1\nn_max = 10\n",
            "kind = TsimVsBeta\ngrid = 1,2\nomega = 0\n",
            "kind = NstarVsBeta\ngrid = 1,2\nj = 1e-320\n",
            "kind = NstarVsJtau\ngrid = 0.5,1\nj = 1e-320\n",
            "kind = TsimVsBeta\ngrid = 1,2\nengine = Recursion\nj = 1e-320\n",
            "kind = NstarVsJtau\ngrid = 0,1\n",
            "kind = NstarVsJtau\ngrid = -1,1\n",
            "kind = NstarVsBeta\ngrid = 1,2\njtau = -0.5\n",
            "kind = NstarVsBeta\ngrid = 1,2\nn_max = 0\n",
            "kind = TsimVsBeta\ngrid = 1,2\nt_max = -1\n",
            "kind = TsimVsBeta\ngrid = 1,2\ngamma = 1e-320\n",
            "kind = RandomEnsembleVsBeta\ngrid = 1\nseed = -1\nn_max = 5\n",
            "kind = TsimVsBeta\ngrid = 1.0\ngamma = 1e308\n",
            "kind = TsimVsBeta\ngrid = 1.0\nt_max = 1e308\n",
            "kind = NstarVsJtau\nengine = BruteForce\nd = 3\nomega = 1e307\nn_max = 50\ngrid = 1.0\n",
            "kind = RandomEnsembleVsBeta\nlo = 1e307\nhi = 1e308\ngrid = 1.0\n",
            "kind = TsimVsBeta\ngrid = 1.0\nt_max = 1e300\nepsilon = 1e-300\n",
            "kind = NstarVsJtau\nengine = BruteForce\nn_max = 1000000000000\nepsilon = 1e-300\ngrid = 1.0\n",
            "kind = NstarVsBeta\ngrid = 0:1:1000000000000000\n",
            "kind = RandomEnsembleVsBeta\ngrid = 1.0\nlo = -1e308\nhi = 1e308\nn_max = 5\n",
            "kind = NstarVsBeta\ngrid = -1e308:1e308:3\n",
            "kind = NstarVsBeta\nd = 3\nomega = 1e308\ngrid = 0, 1\n",
        ],
        ids=["omega-0", "omega-negative", "omega-0-ensemble", "omega-negative-ensemble",
             "omega-0-tsim", "subnormal-j", "subnormal-j-jtau-grid", "subnormal-j-tsim-recursion",
             "jtau-0-grid", "jtau-negative-grid", "jtau-negative-key", "n-max-0", "t-max-negative",
             "subnormal-gamma", "seed-negative", "sl-steps-overflow-gamma", "sl-steps-overflow-t-max",
             "unitary-overflow-omega", "unitary-overflow-couplings", "sl-steps-above-max-steps",
             "n-max-above-max-steps", "grid-count-above-max-tasks",
             "coupling-range-overflow", "grid-overflow", "level-span-overflow"],
    )
    def test_value_out_of_range_exits_2(self, tmp_path, capsys, text):
        # each of these used to end in a traceback with exit 1, a warning
        # line, or a hang
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "invalid configuration" in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("beta, jtau, code, out", [(3, math.pi / 2, 2, ""), (1, 1.0, 0, "1,1e+12,0,false\n")],
                             ids=["moving", "frozen"])
    def test_a_recursion_scan_exits_2_only_when_max_steps_cuts_it_off(self, tmp_path, capsys, monkeypatch,
                                                                       beta, jtau, code, out):
        # epsilon = 1e-300 hands the run to the scan.  At beta = 3, J tau =
        # pi/2 its state never repeats, so MAX_STEPS cuts off a moving orbit;
        # at beta = 1, J tau = 1 the state repeats from collision 84 on, and
        # the orbit never crosses, whatever n_max
        monkeypatch.setattr(simtime, "MAX_STEPS", 5000)
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(f"kind = NstarVsJtau\ngrid = {jtau!r}\nbeta = {beta}\nn_max = 1000000000000\nepsilon = 1e-300\n")
        assert main(["sweep", str(cfg)]) == code
        captured = capsys.readouterr()
        assert captured.out == (out and "point,value,stderr,reachable\n" + out)
        assert captured.err == ("" if out else "error: invalid configuration: the powered search's fallback scan does "
                                "not reach epsilon = 1e-300 within MAX_STEPS = 5000 collisions\n")

    @pytest.mark.parametrize("d", [MAX_D + 1, 100_000, 1, 0, -3])
    def test_level_count_outside_bound_is_rejected(self, d):
        # parse_config only: a sweep at such a d would allocate the matrices
        with pytest.raises(ConfigInvalid, match=r"d must lie in \[2, "):
            parse_config(f"kind = NstarVsBeta\ngrid = 1,2\nd = {d}\n")

    def test_level_count_at_bound_is_accepted(self):
        assert parse_config(f"kind = NstarVsBeta\ngrid = 1,2\nd = {MAX_D}\n").d == MAX_D

    def test_scanning_sweeps_are_bounded_by_max_steps(self):
        brute = "kind = NstarVsJtau\ngrid = 1.0\nengine = BruteForce\n"
        assert parse_config(f"{brute}n_max = {MAX_STEPS}\n").n_max == MAX_STEPS
        with pytest.raises(ConfigInvalid, match="MAX_STEPS"):
            parse_config(f"{brute}n_max = {MAX_STEPS + 1}\n")
        # OdeSL steps 0.01 / gamma at a time: 1e7 steps up to t_max = 1e5, 1e9 up to 1e7
        assert parse_config("kind = TsimVsBeta\ngrid = 1.0\nt_max = 1e5\n").t_max == 1e5
        with pytest.raises(ConfigInvalid, match="MAX_STEPS"):
            parse_config("kind = TsimVsBeta\ngrid = 1.0\nt_max = 1e7\n")
        # the recursion's powered search does not scan
        assert parse_config(f"kind = NstarVsJtau\ngrid = 1.0\nn_max = {10 * MAX_STEPS}\n").n_max == 10 * MAX_STEPS

    def test_task_count_is_bounded(self):
        # parse_config only; the counts above the bound are so large that a
        # regression fails at once: numpy cannot allocate the grid, and the
        # repetitions reach no allocation in parse_config at all
        ensemble = "kind = RandomEnsembleVsBeta\nn_max = 5\n"
        for text in (
            "kind = NstarVsBeta\ngrid = 0:1:1000000000000000\n",
            f"{ensemble}grid = 1.0\nrepetitions = 1000000000000\n",
            f"{ensemble}grid = 1,2\nrepetitions = {MAX_TASKS // 2 + 1}\n",
        ):
            with pytest.raises(ConfigInvalid, match="MAX_TASKS"):
                parse_config(text)
        assert parse_config(f"{ensemble}grid = 1.0\nrepetitions = {MAX_TASKS}\n").repetitions == MAX_TASKS
        # only the random ensemble repeats a point
        assert parse_config("kind = NstarVsBeta\ngrid = 1,2\nrepetitions = 1000000000000\n").repetitions == 1

    def test_keys_an_engine_does_not_use_are_not_checked(self):
        # OdeSL never collides, so it needs no tau and no n_max
        assert parse_config("kind = TsimVsBeta\ngrid = 1,2\nj = 1e-320\nn_max = 0\n").engine == "OdeSL"

    def test_infinite_omega_exits_2(self, tmp_path, capsys):
        # used to exit 0 with a row of output
        bad = tmp_path / "bad.cfg"
        bad.write_text("kind = NstarVsJtau\ngrid = 0.5,1\nomega = inf\n")
        assert main(["sweep", str(bad)]) == 2
        assert capsys.readouterr().out == ""

    def test_infinite_beta_is_zero_temperature(self, tmp_path, capsys):
        cfg = tmp_path / "cold.cfg"
        cfg.write_text("kind = TsimVsBeta\ngrid = 1,inf\nd = 3\nt_max = 100\n")
        assert main(["sweep", str(cfg)]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("inf,") and last.endswith(",true")

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["sweep", str(tmp_path / "nope.cfg")]) == 2

    def test_a_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        # a byte 0xff in a comment: one line on stderr, not a traceback and exit 1
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes(FIG3A_STYLE_CONFIG.encode() + b"# caf\xff\n")
        assert main(["sweep", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot read config: ") and "0xff" in err
        assert err.count("\n") == 1

    def test_unwritable_output_exits_3(self, config_path):
        assert main(["sweep", str(config_path), "--out", "/nonexistent-dir/x.csv"]) == 3

    def test_config_seed_changes_ensemble(self, tmp_path):
        ensemble = "kind = RandomEnsembleVsBeta\ngrid = 1.0\nrepetitions = 3\nepsilon = 0.05\nn_max = 2000\ntau = 100\n"
        texts = []
        for seed in (1, 2):
            cfg, out = tmp_path / f"ens{seed}.cfg", tmp_path / f"ens{seed}.csv"
            cfg.write_text(f"{ensemble}seed = {seed}\n")
            assert main(["sweep", str(cfg), "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[0] != texts[1]

    def test_brute_force_engine_reproduces_golden(self, tmp_path):
        cfg, out = tmp_path / "bf.cfg", tmp_path / "bf.csv"
        cfg.write_text(FIG3A_STYLE_CONFIG + "engine = BruteForce\n")
        assert main(["sweep", str(cfg), "--out", str(out)]) == 0
        assert out.read_text() == FIG3A_GOLDEN_CSV

    @pytest.mark.parametrize("flag", ["--seed", "--engine"])
    def test_config_keys_are_not_flags(self, config_path, capsys, flag):
        # the seed and the engine are config keys only; argparse rejects the flag
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(config_path), flag, "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ri-thermalizer") and f"unrecognized arguments: {flag} 1" in err
        assert "Traceback" not in err

    def test_readme_usage_lists_the_sweep_options(self, capsys):
        # the README's sweep usage line names exactly the options the parser takes
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
        usage = [ln for ln in README.read_text(encoding="utf-8").splitlines() if ln.startswith("ri-thermalizer sweep ")]
        assert len(usage) == 1
        assert set(re.findall(r"--[a-z-]+", usage[0])) == options == {"--out", "--parallel"}


class TestValidateCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("[PASS]") >= 5


class TestSpectraCommand:
    def test_closed_matches_numeric_in_output(self, capsys):
        assert main(["spectra", "4", "0.8", "0.9"]) == 0
        lines = capsys.readouterr().out.splitlines()
        data = [ln for ln in lines if ln and ln[0].isdigit()]
        assert len(data) == 8  # 4 discrete + 4 continuous rows
        for row in data:
            _, closed, numeric = row.split(",")
            assert abs(float(closed) - float(numeric)) <= 1e-9

    def test_bad_arguments_exit_2(self):
        assert main(["spectra", "1", "0.8", "0.9"]) == 2
        assert main(["spectra", "3", "1.8", "0.9"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["3", "0.8", "inf"], ["3", "0.8", "nan"], [str(MAX_D + 1), "0.8", "0.9"],
         ["3", "0", "0.5"], ["3", "nan", "0.5"], ["3", "0.8", "-inf"]],
        ids=["x=inf", "x=nan", "d=MAX_D+1", "pA=0", "pA=nan", "x=-inf"],
    )
    def test_non_finite_x_or_too_many_levels_exit_2(self, argv, capsys):
        assert main(["spectra", *argv]) == 2
        assert "invalid configuration" in capsys.readouterr().err


def test_importing_the_cli_starts_no_process_machinery():
    # a sweep imports the process pool only when it pools, so set-up pays
    # for none of concurrent.futures, multiprocessing or subprocess
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, ri_thermalizer.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing', 'subprocess') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_gibbs_exponent_past_the_float_range_sweeps_under_warnings_as_errors(tmp_path):
    # at beta = 10 the excited weight exp(-10 * 1e308) is 0: n* = 0 from the
    # ground state, with no overflow warning on stderr
    cfg = tmp_path / "span.cfg"
    cfg.write_text("kind = NstarVsBeta\nd = 2\nomega = 1e308\ngrid = 0, 10\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "ri_thermalizer", "sweep", str(cfg)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[1:] == ["0,0,0,true", "10,1,0,true"]


def test_an_ensemble_sweep_leaves_numpy_random_unloaded(tmp_path):
    # RandomFull rows draw without a numpy Generator, so an ensemble sweep
    # never imports numpy.random
    cfg = tmp_path / "ensemble.toml"
    cfg.write_text("kind = RandomEnsembleVsBeta\nengine = BruteForce\ngrid = 0.5,4.0\nd = 3\nrepetitions = 3\n"
                   "epsilon = 0.05\ntau = 100.0\nlo = 0.001\nhi = 0.003\nn_max = 100000\nseed = 0\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys; from ri_thermalizer.cli import main; "
            "code = main(['sweep', sys.argv[1], '--out', sys.argv[2]]); print(code, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path / "out.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 3
