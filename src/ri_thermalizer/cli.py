"""Command-line driver.

Subcommands::

    ri-thermalizer sweep <config> [--out PATH] [--seed N] [--engine NAME] [--parallel K]
    ri-thermalizer validate
    ri-thermalizer spectra <d> <pA> <x>

``sweep`` runs the configured parameter sweep and emits CSV (stdout when
--out is omitted).  ``validate`` runs the oracle cross-check suite.
``spectra`` prints closed-form vs numerically computed eigenvalues,
reading x once as J*tau (discrete map) and once as Gamma (SL generator).

Exit codes: 0 success, 1 failed validation, 2 invalid configuration
(for ``sweep`` also one whose scan would take more than MAX_STEPS steps
a run, or whose numbers overflow a collision unitary or a trace
distance, raising NoConvergence; for ``spectra``: d outside [2, MAX_D],
pA outside [0, 1] or a non-finite x), 3 output I/O failure.
RI_THERMALIZER_THREADS overrides --parallel; either is an upper bound
on the sweep's worker processes.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

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
    p_sweep.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sweep.add_argument("--engine", default=None, help="override the config engine")
    p_sweep.add_argument("--parallel", type=int, default=1, help="upper bound on worker processes")

    sub.add_parser("validate", help="run the oracle cross-check suite")

    p_spectra = sub.add_parser("spectra", help="closed-form vs numeric eigenvalues")
    p_spectra.add_argument("d", type=int)
    p_spectra.add_argument("p_a", type=float)
    p_spectra.add_argument("x", type=float, help="interpreted as J*tau and as Gamma")
    return parser


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        spec = parse_config(text)
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
        if args.engine is not None:
            spec = replace(spec, engine=args.engine)
        parallel = args.parallel
        env = os.environ.get("RI_THERMALIZER_THREADS")
        if env is not None:
            try:
                parallel = int(env)
            except ValueError:
                raise ConfigInvalid(f"RI_THERMALIZER_THREADS = {env!r} is not an integer")
        records = run_sweep(spec, parallel=max(1, parallel))
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
    if not 2 <= args.d <= MAX_D:
        print(f"error: invalid configuration: d must lie in [2, {MAX_D}]", file=sys.stderr)
        return 2
    if not 0.0 <= args.p_a <= 1.0:
        print("error: invalid configuration: pA must lie in [0, 1]", file=sys.stderr)
        return 2
    if not math.isfinite(args.x):
        print("error: invalid configuration: x must be finite", file=sys.stderr)
        return 2
    xi = xi_closed(args.d, args.p_a, args.x)
    xi_num = np.sort(np.linalg.eigvals(stochastic_matrix(args.d, args.p_a, args.x)).real)[::-1]
    print(f"# discrete map, J*tau = {args.x:.12g}")
    print("m,xi_closed,xi_numeric")
    for m, (a, b) in enumerate(zip(np.sort(xi)[::-1], xi_num), start=1):
        print(f"{m},{a:.12g},{b:.12g}")
    if args.x > 0:
        lam = lambda_closed(args.d, args.p_a, args.x)
        lam_num = np.sort(np.linalg.eigvals(liouvillian_matrix(args.d, args.p_a, args.x)).real)[::-1]
        print(f"# SL generator, Gamma = {args.x:.12g}")
        print("m,lambda_closed,lambda_numeric")
        for m, (a, b) in enumerate(zip(np.sort(lam)[::-1], lam_num), start=1):
            print(f"{m},{a:.12g},{b:.12g}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "validate":
        return _cmd_validate()
    return _cmd_spectra(args)


if __name__ == "__main__":
    sys.exit(main())
