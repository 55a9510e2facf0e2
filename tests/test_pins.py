"""The benchmark's sweep CSVs, pinned by sha256 (``pins/manifest.json``).

Each of the 8 configs, the four benchmark workloads at seeds 0 and 7, is
stored whole with the sha256 of its CSV, so a change that moves any bit
of a sweep's output fails here, at ``--parallel`` 1 and at 2 (where the
d = 5 ``BruteForce`` workload pools).  ``pins/capture.py`` rewrites the
manifest; the platform rule is in ``conftest.py``.
"""

import hashlib
import json

import pytest
from conftest import PINS, assert_pinned

from ri_thermalizer.cli import main

CSVS = json.loads((PINS / "manifest.json").read_text(encoding="utf-8"))["csvs"]


@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize("pin", CSVS, ids=lambda pin: f"{pin['workload']}-seed{pin['seed']}")
def test_a_benchmark_sweep_keeps_its_csv_bytes(tmp_path, pin, parallel):
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
    cfg.write_text(pin["config"], encoding="utf-8")
    assert main(["sweep", str(cfg), "--out", str(out), "--parallel", str(parallel)]) == 0
    assert_pinned(hashlib.sha256(out.read_bytes()).hexdigest(), pin["sha256"], f"the sha256 of the {pin['workload']} seed {pin['seed']} CSV")
