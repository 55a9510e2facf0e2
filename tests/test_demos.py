"""Every demo script, and ``python -m ri_thermalizer validate``, runs to
completion under ``python -W error`` and prints the bytes pinned in
``pins/<name>.stdout``, under the platform rule of ``conftest.py``.  Any
warning fails it, as in the test suite: a numpy scalar that wraps, for
one, warns where an array wraps silently."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import PINS, assert_pinned

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = {p.name: [str(p)] for p in sorted((ROOT / "demos").glob("*.py"))}
COMMANDS["validate"] = ["-m", "ri_thermalizer", "validate"]


@pytest.mark.parametrize("name", COMMANDS)
def test_demo_runs(name):
    pythonpath = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    proc = subprocess.run(
        [sys.executable, "-W", "error", *COMMANDS[name]], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert_pinned(proc.stdout, (PINS / f"{Path(name).stem}.stdout").read_text(encoding="utf-8"), f"the stdout of {name}")
