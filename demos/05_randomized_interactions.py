#!/usr/bin/env python3
"""Beyond energy conservation: randomized and counter-rotating couplings.

Long weak collisions thermalize the system even when every off-diagonal
coupling is redrawn at random before each collision.  In the SL limit a
counter-rotating term instead drives the system to a nonequilibrium
stationary state whose long-range coherence c13 stays finite, pinned by
the stationary populations.
"""

import math

import numpy as np

from ri_thermalizer import (
    AncillaSpec,
    CollisionConfig,
    ModelSpec,
    RandomFull,
    SystemSpec,
    c13_steady_state,
    evolve,
    gibbs_populations,
    sl_ode_nonconserving_d3,
    run_sweep,
    SweepSpec,
    format_csv,
)

print("randomized couplings, d = 3, J_ij ~ U(1e-3, pi*1e-3), tau = 100, beta = 1")
print("mean trace distance to the Gibbs target (10 seeds):")
for n in (0, 50, 100, 200, 300):
    dists = []
    for rep in range(10):
        seed = int(np.random.SeedSequence([31415, rep]).generate_state(1, np.uint64)[0])
        model = ModelSpec(
            system=SystemSpec(d=3, omega=1.0),
            ancilla=AncillaSpec(omega=1.0, beta=1.0),
            interaction=RandomFull(lo=1e-3, hi=math.pi * 1e-3, seed=seed),
        )
        cfg = CollisionConfig(tau=100.0, n_max=max(n, 1), epsilon=1e-4)
        rec = evolve(np.eye(3, dtype=complex) / 3, model, cfg, n)
        dists.append(rec.distances[-1])
    print(f"  after {n:3d} collisions: {np.mean(dists):.4f}")

print("\nensemble sweep of mean n* versus beta (epsilon = 0.05):")
spec = SweepSpec(
    kind="RandomEnsembleVsBeta",
    grid=(0.5, 1.0, 2.0, 4.0),
    repetitions=8,
    epsilon=0.05,
    n_max=3000,
    tau=100.0,
    seed=88,
)
print(format_csv(run_sweep(spec)))

print("counter-rotating SL dynamics (Gamma1 = 1, Gamma2 = 0.25, Gamma12 = 0.5, beta = 1):")
p_a = AncillaSpec(omega=1.0, beta=1.0).ground_population
traj = sl_ode_nonconserving_d3(gibbs_populations(3, 1.0, 1.0), 0.0j, p_a, 1.0, 0.25, 0.5, 60.0)
for t_query in (0.0, 2.0, 10.0, 30.0, 60.0):
    idx = int(np.argmin(np.abs(traj.times - t_query)))
    p1, p2, p3, re_c13, _ = traj.values[idx]
    print(f"  t = {traj.times[idx]:5.1f}: populations ({p1:.4f}, {p2:.4f}, {p3:.4f}), "
          f"Re c13 = {re_c13:+.5f}")
final = traj.values[-1]
print(f"stationary c13 from populations: "
      f"{c13_steady_state(1.0, 0.25, 0.5, final[:3]):+.5f} (integrated {final[3]:+.5f})")
