"""Property tests of the invariants the first-crossing search rests on.

The distance to the target never grows along an orbit: the population
map is column-stochastic (L1 contraction), a fixed-unitary collision is
a CPTP map with the Gibbs state as fixed point (trace-distance
contraction, Ruskai 1994), and the RK4 step at h Gamma = 0.01 is itself
a stochastic matrix.  The engines must also agree on n*.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ri_thermalizer.collisions import (
    CollisionConfig,
    collide_once,
    collision_unitary,
    evolve_populations,
    rk4_step,
    sl_population_generator,
)
from ri_thermalizer.linalg import trace_distance
from ri_thermalizer.models import (
    AncillaSpec,
    flip_flop_model,
    gibbs_populations,
    random_density_matrix,
    system_gibbs_state,
)
from ri_thermalizer.simtime import nstar_simulated, population_distance

SLACK = 1e-14
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

dims = st.integers(2, 6)
betas = st.floats(0.0, 6.0)
j_taus = st.floats(0.05, math.pi - 0.05)
weights = st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6)


def _populations(w, d):
    p = np.array(w[:d])
    return p / p.sum()


def _never_grows(distances):
    return float(np.max(np.diff(distances))) <= SLACK


@PROPERTY
@given(dims, betas, j_taus, weights)
def test_population_map_contracts_in_l1(d, beta, j_tau, w):
    p_a = AncillaSpec(1.0, beta).ground_population
    target = gibbs_populations(d, 1.0, beta)
    orbit = evolve_populations(_populations(w, d), p_a, j_tau, 200)
    assert _never_grows([population_distance(p, target) for p in orbit])


@PROPERTY
@given(st.integers(2, 4), betas, st.floats(0.1, 2.0), st.floats(0.1, 3.0), st.integers(0, 2**32))
def test_fixed_unitary_collision_contracts_in_trace_distance(d, beta, j, tau, seed):
    model = flip_flop_model(d, 1.0, beta, j)
    cfg = CollisionConfig(tau=tau, n_max=100, epsilon=1e-4)
    unitary = collision_unitary(model, tau)
    target = system_gibbs_state(model.system, beta)
    rho = random_density_matrix(d, np.random.default_rng(seed))
    distances = [trace_distance(rho, target)]
    for _ in range(30):
        rho = collide_once(rho, model, cfg, unitary=unitary)
        distances.append(trace_distance(rho, target))
    assert _never_grows(distances)


@PROPERTY
@given(dims, betas, st.floats(0.1, 5.0), weights)
def test_rk4_step_contracts_in_l1(d, beta, gamma, w):
    gen = sl_population_generator(d, AncillaSpec(1.0, beta).ground_population, gamma)
    target = gibbs_populations(d, 1.0, beta)
    p = _populations(w, d)
    distances = [population_distance(p, target)]
    for _ in range(300):
        p = rk4_step(lambda y: gen @ y, p, 0.01 / gamma)
        distances.append(population_distance(p, target))
    assert _never_grows(distances)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(dims, st.floats(0.0, 4.0), st.floats(0.4, math.pi - 0.4), st.floats(1e-4, 0.2), weights)
def test_recursion_and_brute_force_agree_on_nstar(d, beta, j_tau, epsilon, w):
    model = flip_flop_model(d, 1.0, beta, 1.0)
    cfg = CollisionConfig(tau=j_tau, n_max=2000, epsilon=epsilon)
    p0 = _populations(w, d)
    rho0 = np.diag(p0).astype(complex)
    rec = nstar_simulated(rho0, model, cfg, engine="recursion")
    brute = nstar_simulated(rho0, model, cfg, engine="brute_force")
    if rec.n_star == brute.n_star:
        return
    # the engines round differently, so they may split only on a distance at epsilon
    orbit = evolve_populations(p0, model.ancilla.ground_population, j_tau, cfg.n_max)
    target = gibbs_populations(d, 1.0, beta)

    def at_epsilon(n):
        return n is not None and any(
            abs(population_distance(orbit[k], target) - epsilon) <= 1e-12 for k in (n - 1, n) if k >= 0
        )

    assert at_epsilon(rec.n_star) or at_epsilon(brute.n_star)
