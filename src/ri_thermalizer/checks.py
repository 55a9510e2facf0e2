"""Self-contained oracle cross-checks behind the CLI ``validate`` command.

Each check recomputes a quantity along two independent routes (exact
recursion vs brute-force CPTP map, closed-form vs numerical spectra,
Lambert residuals) and reports the worst deviation observed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collisions import CollisionConfig, evolve, evolve_coherences_d3, evolve_populations
from .models import flip_flop_model, random_density_matrix, system_gibbs_state
from .simtime import lambert_w
from .spectra import lambda_closed, liouvillian_matrix, stochastic_matrix, xi_closed


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_recursion_vs_brute_force() -> CheckResult:
    rng = np.random.default_rng(7)
    worst = 0.0
    for d in (2, 3, 5):
        model = flip_flop_model(d, omega=1.0, beta=1.3, j=0.8)
        cfg = CollisionConfig(tau=1.1, n_max=100, epsilon=1e-4)
        rho = random_density_matrix(d, rng)
        pops = evolve_populations(
            np.diag(rho).real, model.ancilla.ground_population, 0.8 * 1.1, 30
        )
        states = np.array(evolve(rho, model, cfg, 30).states)
        worst = max(worst, float(np.max(np.abs(np.diagonal(states, axis1=1, axis2=2).real - pops))))
    return CheckResult("recursion vs brute-force populations", worst < 1e-12, f"max |dp| = {worst:.2e}")


def _check_coherences_vs_brute_force() -> CheckResult:
    rng = np.random.default_rng(11)
    model = flip_flop_model(3, omega=1.0, beta=0.7, j=0.5)
    cfg = CollisionConfig(tau=0.9, n_max=100, epsilon=1e-4)
    rho = random_density_matrix(3, rng)
    cs = evolve_coherences_d3(
        (rho[0, 1], rho[0, 2], rho[1, 2]),
        model.ancilla.ground_population,
        0.5 * 0.9,
        1.0 * 0.9,
        25,
    )
    states = np.array(evolve(rho, model, cfg, 25).states)
    worst = float(np.max(np.abs(states[:, [0, 0, 1], [1, 2, 2]] - cs)))
    return CheckResult("recursion vs brute-force coherences (d=3)", worst < 1e-12, f"max |dc| = {worst:.2e}")


def _check_closed_spectra() -> CheckResult:
    rng = np.random.default_rng(3)
    worst = 0.0
    for d in range(2, 8):
        p_a = rng.uniform(0.55, 0.95)
        j_tau = rng.uniform(0.1, 1.4)
        gamma = rng.uniform(0.5, 2.0)
        xi_num = np.sort(np.linalg.eigvals(stochastic_matrix(d, p_a, j_tau)).real)[::-1]
        worst = max(worst, float(np.max(np.abs(xi_num - np.sort(xi_closed(d, p_a, j_tau))[::-1]))))
        lam_num = np.sort(np.linalg.eigvals(liouvillian_matrix(d, p_a, gamma)).real)[::-1]
        worst = max(worst, float(np.max(np.abs(lam_num - np.sort(lambda_closed(d, p_a, gamma))[::-1]))))
    return CheckResult("closed-form vs numerical spectra", worst < 1e-10, f"max |dxi| = {worst:.2e}")


def _check_lambert() -> CheckResult:
    worst = 0.0
    for branch, top in ((0, 5.0), (-1, -1e-9)):
        for z in np.linspace(-math.exp(-1.0) + 1e-9, top, 200):
            w = lambert_w(float(z), branch)
            worst = max(worst, abs(w * math.exp(w) - z) / max(1.0, abs(z)))
    return CheckResult("Lambert-W residuals", worst < 1e-12, f"max residual = {worst:.2e}")


def _check_thermal_fixed_point() -> CheckResult:
    worst = 0.0
    for d, beta in ((2, 0.5), (3, 1.0), (5, 5.0)):
        model = flip_flop_model(d, omega=1.0, beta=beta, j=0.7)
        cfg = CollisionConfig(tau=1.3, n_max=100, epsilon=1e-4)
        gibbs = system_gibbs_state(model.system, beta)
        rho = evolve(gibbs, model, cfg, 50).states[-1]
        worst = max(worst, float(np.max(np.abs(rho - gibbs))))
    return CheckResult("Gibbs state is a fixed point", worst < 1e-12, f"max drift = {worst:.2e}")


def run_cross_checks() -> list[CheckResult]:
    """Run all oracle cross-checks; failures do not raise, they report."""
    return [
        _check_recursion_vs_brute_force(),
        _check_coherences_vs_brute_force(),
        _check_closed_spectra(),
        _check_lambert(),
        _check_thermal_fixed_point(),
    ]
