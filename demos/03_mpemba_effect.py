#!/usr/bin/env python3
"""The Mpemba-like turnover of preparation time versus target temperature.

Starting from the maximally mixed state, reaching a cold target can cost
fewer collisions (or less Lindblad time) than reaching a warmer one.
The slow relaxation mode explains it: its decay rate speeds up as the
target temperature drops, and the slow-mode estimates built from the
projection amplitude reproduce the turnover quantitatively.  The rho
columns give the residual of the neglected second mode at the estimated
crossing: near 0 the single-mode estimate holds, and as the two slow
eigenvalues approach each other at low temperature it grows toward 1 and
the estimate leaves its validity.  A qubit has a temperature-independent
gap, so it shows no turnover.
"""

import math

import numpy as np

from ri_thermalizer import (
    AncillaSpec,
    CollisionConfig,
    gibbs_populations,
    flip_flop_model,
    lambda_closed,
    nstar_estimate_discrete,
    nstar_simulated,
    slow_mode_validity,
    tsim_estimate_sl,
    tsim_simulated_sl,
    xi_closed,
)

EPS = 1e-4
J_TAU = math.pi / 8


def p_ancilla(beta):
    return AncillaSpec(omega=1.0, beta=beta).ground_population


betas = np.concatenate([np.linspace(0.4, 4, 10), np.linspace(5, 12, 8)])

print("discrete protocol, J*tau = pi/8 (d = 3)              |  SL protocol, Gamma = 1")
print(" beta    n*_sim   n*_slow-mode   rho     xi_2        |   T_sim     T_slow-mode   rho")
for beta in betas:
    p_a = p_ancilla(beta)
    dp0 = np.full(3, 1 / 3) - gibbs_populations(3, 1.0, beta)
    model = flip_flop_model(3, omega=1.0, beta=float(beta), j=1e-3)
    cfg = CollisionConfig(tau=J_TAU / 1e-3, n_max=10**6, epsilon=EPS)
    n_sim = nstar_simulated(np.eye(3, dtype=complex) / 3, model, cfg).n_star
    n_est = nstar_estimate_discrete(dp0, p_a, J_TAU, EPS)
    xi = xi_closed(3, p_a, J_TAU)
    xi2 = xi[1]
    rho_n = slow_mode_validity(dp0, p_a, EPS, -math.log(xi2), -math.log(abs(xi[2]))).residual
    t_sim = tsim_simulated_sl(np.full(3, 1 / 3), p_a, 1.0, EPS, t_max=1e3).t_sim
    t_est = tsim_estimate_sl(dp0, p_a, 1.0, EPS)
    lam = lambda_closed(3, p_a, 1.0)
    rho_t = slow_mode_validity(dp0, p_a, EPS, -lam[1], -lam[2]).residual
    print(
        f"{beta:5.2f}   {n_sim:6d}   {n_est:12.1f}   {rho_n:5.3f}   {xi2:.5f}     |"
        f"  {t_sim:7.3f}   {t_est:7.3f}       {rho_t:5.3f}"
    )

print("\nqubit control (d = 2): T_sim is monotone because lambda_2 = -Gamma")
for beta in (0.5, 1.0, 2.0, 5.0, 10.0):
    t_sim = tsim_simulated_sl(np.full(2, 0.5), p_ancilla(beta), 1.0, EPS, t_max=1e3).t_sim
    lam2 = lambda_closed(2, p_ancilla(beta), 1.0)[1]
    print(f"  beta {beta:5.2f}: T_sim {t_sim:7.3f}   lambda_2 {lam2:.6f}")

print("\nthe slow eigenvalue magnitude grows toward low temperature (d = 3):")
for beta in (1.0, 2.0, 4.0, 8.0):
    lam2 = lambda_closed(3, p_ancilla(beta), 1.0)[1]
    print(f"  beta {beta:4.1f}: lambda_2 = {lam2:.4f}")
