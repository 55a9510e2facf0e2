#!/usr/bin/env python3
"""Capture the bit-identity pins that tests/test_pins.py and
tests/test_demos.py check.

    python tests/pins/capture.py

Run from the root of a checkout whose outputs are the reference, on the
numpy and BLAS the pins should name.  It writes ``manifest.json`` (the
platform, and per benchmark workload and seed the sweep config text with
the sha256 of its CSV, the same at ``--parallel`` 1 and 2) and one
``<name>.stdout`` per demo and for ``python -m ri_thermalizer validate``.
The config texts come from ``perfbench/workloads.py`` at capture time and
are stored whole, so later edits there do not move the pins.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PINS = Path(__file__).resolve().parent
ROOT = PINS.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(PINS.parent)]

import workloads  # noqa: E402
from conftest import pinned_platform  # noqa: E402
from ri_thermalizer.cli import main  # noqa: E402

SEEDS = (0, 7)


def sweep_sha256(config: str, parallel: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp, "sweep.cfg"), Path(tmp, "sweep.csv")
        cfg.write_text(config, encoding="utf-8")
        if main(["sweep", str(cfg), "--out", str(out), "--parallel", str(parallel)]) != 0:
            raise SystemExit(f"sweep failed:\n{config}")
        return hashlib.sha256(out.read_bytes()).hexdigest()


def main_capture() -> None:
    csvs = []
    for name, w in workloads.WORKLOADS.items():
        for seed in SEEDS:
            config = w.config(seed, w.grid(seed, quick=False))
            digests = {sweep_sha256(config, parallel) for parallel in (1, 2)}
            if len(digests) != 1:
                raise SystemExit(f"{name} seed {seed}: --parallel 1 and 2 differ")
            csvs.append({"workload": name, "seed": seed, "config": config, "sha256": digests.pop()})
    manifest = {"platform": pinned_platform(), "csvs": csvs}
    (PINS / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    commands = {p.stem: [str(p)] for p in sorted((ROOT / "demos").glob("*.py"))}
    commands["validate"] = ["-m", "ri_thermalizer", "validate"]
    for name, args in commands.items():
        proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300, check=True)
        (PINS / f"{name}.stdout").write_text(proc.stdout, encoding="utf-8")


if __name__ == "__main__":
    main_capture()
