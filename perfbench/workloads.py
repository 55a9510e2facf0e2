"""The benchmark's workloads: seeded sweep configs, independent output
checks, and the calibration kernels that measure machine speed.

Each workload is one sweep config.  The benchmark's seed draws its grid
(one uniform draw per equal-width stratum of the range, so the grid is
strictly increasing and the total work varies little from seed to seed);
the program only ever sees the generated config text.  README.md says why
each workload exists and which layer it stresses.
"""

from __future__ import annotations

import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ri_thermalizer.collisions import (
    CollisionConfig,
    evolve,
    evolve_populations,
    sl_population_generator,
)
from ri_thermalizer.models import AncillaSpec, flip_flop_model, gibbs_populations

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
CSV_HEADER = "point,value,stderr,reachable"

# The SL check's exact solution agrees with the RK4 scan to 6e-11 relative
# at the commit that added it (d = 10, beta in [0.2, 10]); the CSV rounds to
# 12 significant digits.  1e-8 leaves room for a different but equally
# accurate integrator and still rejects any wrong crossing.
TSIM_RTOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict  # config keys other than grid
    axis: tuple[float, float]  # range the grid is drawn from
    points: int
    quick_points: int
    parallel: int
    expect: Callable  # (params, grid, seed, quick) -> per-row expectation or None
    compare: Callable  # (value, stderr, line, expected) -> bool
    kernel: Callable  # calibration kernel, see below
    seeded_config: bool = False  # the config's own seed is the workload seed
    # every run also makes one --parallel 2 sweep; with no other expectation,
    # every serial CSV must equal it byte for byte
    parallel_twin: bool = False

    def grid(self, seed: int, quick: bool) -> tuple[float, ...]:
        n = self.quick_points if quick else self.points
        lo, hi = self.axis
        u = np.random.default_rng(seed).uniform(size=n)
        return tuple(float(x) for x in lo + (hi - lo) * (np.arange(n) + u) / n)

    def config(self, seed: int, grid: tuple[float, ...]) -> str:
        params = dict(self.params)
        if self.seeded_config:
            params["seed"] = seed
        lines = [f"{key} = {value}" for key, value in params.items()]
        lines.append("grid = " + ",".join(repr(x) for x in grid))
        return "\n".join(lines) + "\n"

    @property
    def reps(self) -> int:
        return self.params.get("repetitions", 1)

    def tasks(self, grid) -> int:
        return len(grid) * self.reps


# ---------------------------------------------------------------------------
# Independent routes to each sweep's answer
# ---------------------------------------------------------------------------


def _first_crossing(distances: np.ndarray, epsilon: float) -> int | None:
    hit = np.flatnonzero(distances <= epsilon)
    return int(hit[0]) if hit.size else None


def nstar_by_population_map(p, grid, seed, quick, chunk=4096):
    """n* per beta from the trajectory of ``evolve_populations``."""
    out = []
    for beta in grid:
        tau = p["jtau"] / p["j"]
        p_a = AncillaSpec(omega=p["omega"], beta=beta).ground_population
        target = gibbs_populations(p["d"], p["omega"], beta)
        state = np.full(p["d"], 1.0 / p["d"])
        offset, n_star = 0, None
        while n_star is None and offset < p["n_max"]:
            steps = min(chunk, p["n_max"] - offset)
            traj = evolve_populations(state, p_a, p["j"] * tau, steps)
            hit = _first_crossing(0.5 * np.abs(traj - target).sum(axis=1), p["epsilon"])
            if hit is not None:
                n_star = offset + hit
            state, offset = traj[-1], offset + steps
        out.append(n_star)
    return out


def nstar_by_cptp_map(p, grid, seed, quick, chunk=256):
    """n* per J*tau from the trace distances ``evolve`` records."""
    out = []
    for j_tau in grid:
        model = flip_flop_model(p["d"], p["omega"], p["beta"], p["j"])
        cfg = CollisionConfig(tau=j_tau / p["j"], n_max=p["n_max"], epsilon=p["epsilon"])
        rho = np.eye(p["d"], dtype=complex) / p["d"]
        offset, n_star = 0, None
        while n_star is None and offset < p["n_max"]:
            steps = min(chunk, p["n_max"] - offset)
            record = evolve(rho, model, cfg, steps)
            hit = _first_crossing(np.array(record.distances), p["epsilon"])
            if hit is not None:
                n_star = offset + hit
            rho, offset = record.states[-1], offset + steps
        out.append(n_star)
    return out


def tsim_by_eigendecomposition(p, grid, seed, quick):
    """SL crossing time per beta from the exact solution of p' = G p.

    G = sl_population_generator satisfies detailed balance, so
    S = D^(-1/2) G D^(1/2) with D = diag(Gibbs) is symmetric and
    p(t) = D^(1/2) Q exp(E t) Q^T D^(-1/2) p(0) for S = Q diag(E) Q^T.
    The basis change has condition number sqrt(max D / min D), about
    e^(beta (d-1) / 2) = 3e19 at beta = 10, d = 10, so the decomposition
    and the distance are evaluated with 50 significant digits (mpmath).
    The crossing is then bisected on the exact, non-increasing distance.
    """
    import mpmath

    d = p["d"]
    out = []
    with mpmath.workdps(50):
        for beta in grid:
            out.append(float(_exact_sl_crossing(mpmath, d, beta, p)))
    return out


def _exact_sl_crossing(mp, d, beta, p):
    p_a = 1.0 / (1.0 + math.exp(-beta * p["omega"]))
    gen = sl_population_generator(d, p_a, p["gamma"])
    ratio = mp.mpf(1.0 - p_a) / mp.mpf(p_a)
    gibbs = [ratio**k for k in range(d)]
    z = mp.fsum(gibbs)
    gibbs = [g / z for g in gibbs]
    root = [mp.sqrt(g) for g in gibbs]
    s = mp.matrix(d, d)
    for i in range(d):
        s[i, i] = mp.mpf(gen[i, i])
    for i in range(d - 1):
        s[i, i + 1] = s[i + 1, i] = mp.sqrt(mp.mpf(gen[i, i + 1]) * mp.mpf(gen[i + 1, i]))
    energies, basis = mp.eigsy(s)
    coeff = [mp.fsum(basis[k, m] * mp.mpf(1.0 / d) / root[k] for k in range(d)) for m in range(d)]

    def distance(t):
        w = [coeff[m] * mp.exp(energies[m] * t) for m in range(d)]
        return mp.fsum(
            abs(root[k] * mp.fsum(basis[k, m] * w[m] for m in range(d)) - gibbs[k])
            for k in range(d)
        ) / 2

    lo, hi = mp.mpf(0), mp.mpf(1)
    while distance(hi) > p["epsilon"] and hi <= p["t_max"]:
        lo, hi = hi, 2 * hi
    for _ in range(60):
        mid = (lo + hi) / 2
        if distance(mid) > p["epsilon"]:
            lo = mid
        else:
            hi = mid
    return hi


def reference_rows(p, grid, seed, quick):
    """Rows recorded, for the default seed, at the commit that added the
    benchmark; else None (the run then compares the serial CSVs with a
    --parallel 2 CSV)."""
    if seed != DEFAULT_SEED or quick:
        return None
    text = (HERE / "reference" / "random_ensemble_seed0.csv").read_text(encoding="utf-8")
    return text.splitlines()[1:]


def _same_count(value, stderr, line, expected):
    return stderr == 0.0 and expected is not None and value == expected


def _same_time(value, stderr, line, expected):
    return stderr == 0.0 and abs(value - expected) <= TSIM_RTOL * expected


def _same_row(value, stderr, line, expected):
    return value >= 1.0 and math.isfinite(stderr) and stderr >= 0.0 and line == expected


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------


def _fields(line: str):
    parts = line.split(",")
    if len(parts) != 4:
        return None
    try:
        return float(parts[0]), float(parts[1]), float(parts[2]), parts[3]
    except ValueError:
        return None


def failed_tasks(w: Workload, grid, expected, text: str | None) -> int:
    """Tasks of one sweep that the check rejects.

    A task is one grid point x repetition; a row stands for ``w.reps``
    tasks.  No CSV, a wrong header or a wrong row count fails every task.
    """
    tasks = w.tasks(grid)
    if text is None:
        return tasks
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER or len(lines) - 1 != len(grid):
        return tasks
    failed = 0
    for line, point, exp in zip(lines[1:], grid, expected):
        fields = _fields(line)
        ok = (
            fields is not None
            and fields[3] == "true"
            and fields[0] == float(f"{point:.12g}")
            and w.compare(fields[1], fields[2], line, exp)
        )
        failed += 0 if ok else w.reps
    return failed


# ---------------------------------------------------------------------------
# Calibration kernels
#
# The machine this runs on is shared: the same sweep takes up to twice as
# long when other tenants load the cores, in phases lasting seconds, and
# how much it slows depends on the instruction mix.  Each workload's kernel
# replays, on fixed inputs and with numpy only, the kind of calls its sweep
# spends its time in (a fixed copy: it never changes with the program).
# The benchmark times it between sweeps and rescales each sweep to the
# speed at which the kernel takes ``KERNEL_REF_S``.  Kernels compute values
# and drop them: only their time matters.
# ---------------------------------------------------------------------------

_R = np.random.default_rng(12345)
_M8 = _R.random((8, 8))
_M8 /= _M8.sum(axis=0)
_G10 = _R.random((10, 10))
_G10 -= np.diag(_G10.sum(axis=0))
_H10 = _R.random((10, 10)) + 1j * _R.random((10, 10))
_H10 = _H10 + _H10.conj().T


def kernel_population_scan():
    m, target = _M8, np.full(8, 0.125)
    x = np.linspace(1.0, 2.0, 8)
    x /= x.sum()
    for _ in range(12000):
        x = m @ x
        0.5 * float(np.abs(np.asarray(x) - np.asarray(target)).sum())


def kernel_rk4_scan():
    g, h, target = _G10, 0.01, np.full(10, 0.1)
    y = np.linspace(1.0, 2.0, 10)
    y /= y.sum()
    for _ in range(3000):
        k1 = g @ y
        k2 = g @ (y + 0.5 * h * k1)
        k3 = g @ (y + 0.5 * h * k2)
        k4 = g @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        0.5 * float(np.abs(np.asarray(y) - np.asarray(target)).sum())


def _collide_and_measure(u, rho, anc, target, d):
    joint = np.kron(np.asarray(rho, dtype=complex), anc)
    rho = (u @ joint @ u.conj().T).reshape(d, 2, d, 2).trace(axis1=1, axis2=3)
    0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(np.asarray(rho) - np.asarray(target)))))
    return rho


def kernel_cptp_scan():
    w, v = np.linalg.eigh(_H10)
    u = (v * np.exp(-1j * w)) @ v.conj().T
    target = np.diag(np.linspace(0.3, 0.1, 5)).astype(complex)
    rho = np.eye(5, dtype=complex) / 5
    for _ in range(900):
        anc = np.diag(np.array([0.8, 0.2], dtype=complex))
        rho = _collide_and_measure(u, rho, anc, target, 5)


def kernel_random_collisions():
    d, dim, tau, seed = 3, 6, 100.0, 0x9E3779B97F4A7C15
    target = np.diag(np.array([0.6, 0.3, 0.1]).astype(complex))
    rho = np.eye(d, dtype=complex) / d
    for i in range(200):
        h_s = np.diag((1.0 * (np.arange(d) - 1.0)).astype(complex))
        h_a = np.diag(np.array([-0.5, 0.5], dtype=complex))
        bare = (np.kron(h_s, np.eye(2, dtype=complex))
                + np.kron(np.eye(d, dtype=complex), h_a))
        h_i = np.zeros((dim, dim), dtype=complex)
        rng = np.random.default_rng([seed, i])
        rows, cols = np.triu_indices(dim, k=1)
        couplings = rng.uniform(1e-3, 3e-3, size=rows.size)
        h_i[rows, cols] = couplings
        h_i[cols, rows] = couplings
        h = np.asarray(bare + h_i)
        np.max(np.abs(h - h.conj().T)) > 1e-10 * (np.max(np.abs(h)) or 1.0)
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * w * tau)) @ v.conj().T
        anc = np.diag(np.array([0.8, 0.2], dtype=complex))
        rho = _collide_and_measure(u, rho, anc, target, d)


def kernel_fresh_numpy():
    """Set-up is mostly a fresh interpreter importing numpy; this kernel is
    exactly that, without the program."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120)


# The kernels' times on an unloaded core of the machine the benchmark was
# written on; they only fix the scale of the reported seconds.
KERNEL_REF_S = 0.036
SETUP_KERNEL_REF_S = 0.10

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="nstar_recursion",
            params=dict(kind="NstarVsBeta", engine="Recursion", d=8, omega=1.0, j=1e-3,
                        jtau=math.pi / 16, epsilon=1e-6, n_max=100_000),
            axis=(0.2, 10.0), points=120, quick_points=6, parallel=1,
            expect=nstar_by_population_map, compare=_same_count,
            kernel=kernel_population_scan,
        ),
        Workload(
            name="tsim_sl_pool",
            params=dict(kind="TsimVsBeta", engine="OdeSL", d=10, omega=1.0, gamma=1.0,
                        epsilon=1e-6, t_max=1e4),
            axis=(0.2, 10.0), points=48, quick_points=4, parallel=2,
            expect=tsim_by_eigendecomposition, compare=_same_time,
            kernel=kernel_rk4_scan,
        ),
        Workload(
            name="random_ensemble",
            params=dict(kind="RandomEnsembleVsBeta", engine="BruteForce", d=3, omega=1.0,
                        repetitions=8, epsilon=0.05, tau=100.0, lo=1e-3, hi=math.pi * 1e-3,
                        n_max=100_000),
            axis=(0.2, 10.0), points=8, quick_points=1, parallel=1,
            expect=reference_rows, compare=_same_row, seeded_config=True, parallel_twin=True,
            kernel=kernel_random_collisions,
        ),
        Workload(
            name="nstar_bruteforce",
            params=dict(kind="NstarVsJtau", engine="BruteForce", d=5, omega=1.0, beta=2.0,
                        j=1.0, epsilon=1e-6, n_max=100_000),
            axis=(0.3, 2.8), points=100, quick_points=8, parallel=1,
            expect=nstar_by_cptp_map, compare=_same_count,
            kernel=kernel_cptp_scan,
        ),
    )
}
