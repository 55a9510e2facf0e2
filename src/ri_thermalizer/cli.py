"""Command-line driver.

Subcommands::

    ri-thermalizer sweep <config> [--out PATH] [--parallel K]
    ri-thermalizer validate
    ri-thermalizer spectra <d> <pA> <x>

``sweep`` runs the configured parameter sweep and emits CSV (stdout when
--out is omitted).  ``validate`` runs the oracle cross-check suite.
``spectra`` prints closed-form vs numerically computed eigenvalues,
reading x once as J*tau (discrete map) and once as Gamma (SL generator).

Exit codes: 0 success, 1 failed validation, 2 invalid configuration
(for ``sweep`` also a config that cannot be read or is not UTF-8, one
with more than MAX_TASKS tasks, one whose scan would take more than
MAX_STEPS steps a run, or one whose numbers overflow a collision unitary
or a trace distance or whose powered search hands a run to a scan that
MAX_STEPS collisions cut off while its state still moves, raising
NoConvergence, and a --parallel below 1; for ``spectra``: d outside [2,
MAX_D], pA outside (0, 1] or a non-finite x), 3 output I/O failure.
--parallel alone bounds the sweep's worker processes; the config sets
every other value, its seed and engine included.
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from .checks import run_cross_checks
from .errors import ConfigInvalid, IoError, NoConvergence
from .spectra import lambda_closed, liouvillian_matrix, stochastic_matrix, xi_closed
from .sweeps import MAX_D, emit_csv, parse_config, run_sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ri-thermalizer",
        description="Thermal state preparation by repeated interactions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a configured parameter sweep")
    p_sweep.add_argument("config", help="path to a key = value sweep configuration")
    p_sweep.add_argument("--out", default=None, help="CSV destination (default stdout)")
    p_sweep.add_argument("--parallel", type=int, default=1, help="upper bound on worker processes")

    sub.add_parser("validate", help="run the oracle cross-check suite")

    p_spectra = sub.add_parser("spectra", help="closed-form vs numeric eigenvalues")
    # a negative number, -inf and -1e-3 included, is a value and not an option
    p_spectra._negative_number_matcher = re.compile(r"^-(inf|nan|(\d+\.?\d*|\.\d+)(e[+-]?\d+)?)$", re.IGNORECASE)
    p_spectra.add_argument("d", type=int)
    p_spectra.add_argument("p_a", type=float)
    p_spectra.add_argument("x", type=float, help="interpreted as J*tau and as Gamma")
    return parser


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        records = run_sweep(parse_config(text), parallel=args.parallel)
    except (ConfigInvalid, NoConvergence) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        if args.out is None:
            emit_csv(records, sys.stdout)
        else:
            emit_csv(records, args.out)
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def _cmd_validate() -> int:
    results = run_cross_checks()
    all_ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        all_ok &= res.passed
        print(f"[{status}] {res.name}: {res.detail}")
    return 0 if all_ok else 1


def _cmd_spectra(args) -> int:
    spectra = [("# discrete map, J*tau", "xi", xi_closed, stochastic_matrix)]
    if args.x > 0:
        spectra.append(("# SL generator, Gamma", "lambda", lambda_closed, liouvillian_matrix))
    try:
        if args.d > MAX_D:
            raise ValueError(f"d must be at most MAX_D = {MAX_D}")
        # each spectrum is computed before any line is printed
        tables = [(title, name, closed(args.d, args.p_a, args.x), matrix(args.d, args.p_a, args.x))
                  for title, name, closed, matrix in spectra]
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    for title, name, closed, matrix in tables:
        numeric = np.sort(np.linalg.eigvals(matrix).real)[::-1]
        print(f"{title} = {args.x:.12g}")
        print(f"m,{name}_closed,{name}_numeric")
        for m, (a, b) in enumerate(zip(np.sort(closed)[::-1], numeric), start=1):
            print(f"{m},{a:.12g},{b:.12g}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "validate":
        return _cmd_validate()
    return _cmd_spectra(args)
