"""Property tests of the invariants the first-crossing search rests on.

The distance to the target never grows along an orbit: the population
map is column-stochastic (L1 contraction), a fixed-unitary collision is
a CPTP map with the Gibbs state as fixed point (trace-distance
contraction, Ruskai 1994), and the RK4 step at h Gamma = 0.01 is itself
a stochastic matrix.  A collision keeps the trace and positivity.  The
engines must agree on n*, the powered search of the population
recursion must find the linear scan's n*, every stacked population map
must fix its stacked Gibbs target up to the rounding the search's guard
allows, and the zero-temperature closed form must round to the simulated
n*.  A RandomFull run, which builds each collision's unitary in a stacked
step, must give, bit for bit, the crossing of ``evolve``'s one unitary per
collision.  In the Lindblad limit a collision is one Euler step of the SL
generator at Gamma = 1 over a time sin^2(J tau): the population map and
its spectrum must match that identity within a few units of roundoff.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ri_thermalizer.collisions import (
    CollisionConfig,
    _collide,
    _population_maps,
    collide_once,
    collision_unitary,
    evolve,
    evolve_populations,
    population_step_matrix,
    rk4_step,
    sl_population_generator,
)
from ri_thermalizer.errors import EpsilonTooLarge
from ri_thermalizer.linalg import trace_distance
from ri_thermalizer.models import (
    AncillaSpec,
    CounterRotating,
    IsotropicFlipFlop,
    ModelSpec,
    RandomFull,
    SystemSpec,
    _gibbs_stack,
    ancilla_thermal_state,
    flip_flop_model,
    gibbs_populations,
    random_density_matrix,
    system_gibbs_state,
)
from ri_thermalizer.simtime import (
    ceil_collisions,
    nstar_closed_d3_zeroT,
    nstar_simulated,
    population_distance,
)
from ri_thermalizer.spectra import lambda_closed, xi_closed
from ri_thermalizer.sweeps import MAX_D

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
    unitary = collision_unitary(model, tau)
    p_a = ancilla_thermal_state(model.ancilla).diagonal()
    target = system_gibbs_state(model.system, beta)
    rho = random_density_matrix(d, np.random.default_rng(seed))
    distances = [trace_distance(rho, target)]
    for _ in range(30):
        rho = _collide(rho, unitary, p_a)
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


interactions = st.sampled_from(
    [IsotropicFlipFlop(0.7), CounterRotating(0.7, 0.3), RandomFull(0.1, 1.0, seed=5)]
)


@PROPERTY
@given(st.integers(2, 4), betas, interactions, st.floats(0.1, 3.0), st.integers(0, 2**32))
def test_collision_keeps_trace_and_positivity(d, beta, interaction, tau, seed):
    model = ModelSpec(SystemSpec(d=d, omega=1.0), AncillaSpec(1.0, beta), interaction)
    cfg = CollisionConfig(tau=tau, n_max=100, epsilon=1e-4)
    rho = collide_once(random_density_matrix(d, np.random.default_rng(seed)), model, cfg)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()) >= -1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.one_of(st.integers(2, 9), st.integers(2, MAX_D)),
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from([0.0, math.inf]), st.floats(0.0, 50.0)),
            st.one_of(st.just(1.0), st.floats(-3.0, 3.0).map(lambda x: 10.0**x)),
            st.one_of(j_taus, st.floats(-12.0, 0.0).map(lambda x: 10.0**x)),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_every_stacked_map_fixes_its_stacked_gibbs_target(d, rows):
    # |m g - g|_1 <= d (d + 8) u, the rounding of the fixed point that the
    # powered search's rounding guard assumes
    betas, omegas, taus = zip(*rows)
    ms = _population_maps(d, [AncillaSpec(omega, beta).ground_population for beta, omega, _ in rows], taus)
    targets = _gibbs_stack(d, omegas, betas)
    bound = d * (d + 8) * (0.5 * np.finfo(float).eps)
    for m, g in zip(ms, targets):
        assert float(np.abs(m @ g - g).sum()) <= bound


@PROPERTY
@given(dims, betas, j_taus, weights)
def test_population_map_keeps_the_sum(d, beta, j_tau, w):
    m = population_step_matrix(d, AncillaSpec(1.0, beta).ground_population, j_tau)
    p = _populations(w, d)
    for _ in range(50):
        p = m @ p
        assert abs(float(p.sum()) - 1.0) <= 1e-12


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(2, 10),
    st.floats(0.0, 10.0),
    st.floats(0.01, 3.1),
    st.floats(-9.0, -1.0),
    st.sampled_from([1, 50, 500, 5000]),
    st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10),
)
def test_powered_search_finds_the_scanned_crossing(d, beta, j_tau, log_eps, n_max, w):
    p0 = np.array(w[:d])
    assume(p0.sum() > 0.0)
    p0 = p0 / p0.sum()
    epsilon = 10.0**log_eps
    model = flip_flop_model(d, 1.0, beta, 1.0)
    res = nstar_simulated(
        np.diag(p0).astype(complex), model, CollisionConfig(tau=j_tau, n_max=n_max, epsilon=epsilon)
    )
    target = gibbs_populations(d, 1.0, beta)
    orbit = evolve_populations(p0, model.ancilla.ground_population, j_tau, n_max)
    dists = [population_distance(p, target) for p in orbit]
    expected = next((k for k, x in enumerate(dists) if x <= epsilon), None)
    assert res.n_star == expected
    # the powered state's distance lies within the guard's bound of the scan's
    n = n_max if expected is None else expected
    assert abs(res.final_distance - dists[n]) <= 4 * (n + d) * (d + 2) * np.finfo(float).eps / 2


@PROPERTY
@given(st.floats(0.1, 3.0), st.floats(-8.0, -3.0), st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3))
def test_zero_temperature_closed_form_rounds_to_simulated_nstar(j_tau, log_eps, w):
    p0 = _populations(w, 3)
    epsilon = 10.0**log_eps
    try:
        n_real = nstar_closed_d3_zeroT(p0, j_tau, epsilon)
    except EpsilonTooLarge:
        assume(False)
    # an n* within 1e-9 of an integer may round either way
    assume(abs(n_real - round(n_real)) > 1e-9)
    model = flip_flop_model(3, 1.0, math.inf, 1.0)
    cfg = CollisionConfig(tau=j_tau, n_max=10**6, epsilon=epsilon)
    assert ceil_collisions(n_real) == nstar_simulated(np.diag(p0).astype(complex), model, cfg).n_star


def _random_full_case(d, beta, seed):
    model = ModelSpec(
        SystemSpec(d=d, omega=1.0), AncillaSpec(1.0, beta), RandomFull(1e-3, math.pi * 1e-3, seed=seed)
    )
    return model, np.eye(d, dtype=complex) / d


def _evolve_distances(model, rho0, n):
    # the reference: evolve builds one collision_unitary per collision
    return evolve(rho0, model, CollisionConfig(tau=100.0, n_max=n, epsilon=0.5), n).distances


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.integers(2, 4),
    st.floats(1.0, 5.0),
    st.integers(0, 2**63 - 1),
    st.integers(0, 50),
    st.sampled_from([1, 7, 15, 16, 17, 50]),
)
def test_random_full_block_unitaries_give_the_evolve_crossing(d, beta, seed, m, n_max):
    # with epsilon at the distance after m collisions, n* and final_distance
    # must equal those of evolve's one-at-a-time unitaries, also at caps
    # around multiples of 16
    model, rho0 = _random_full_case(d, beta, seed)
    distances = _evolve_distances(model, rho0, max(m, n_max))
    epsilon = distances[m]
    res = nstar_simulated(rho0, model, CollisionConfig(tau=100.0, n_max=n_max, epsilon=epsilon))
    n = next((k for k, x in enumerate(distances[: n_max + 1]) if x <= epsilon), None)
    assert (res.n_star, res.final_distance) == (n, distances[n_max if n is None else n])
    assert res.engine == "brute_force"


@pytest.mark.parametrize("k", [0, 1, 15, 16, 17, 40])
def test_a_run_from_collision_k_follows_evolve_from_k(k):
    # nstar_simulated(..., collision=k) from evolve's state after k collisions
    # draws H_I(seed, k), H_I(seed, k + 1), ...: evolve's distances from k on
    model, rho0 = _random_full_case(4, 1.5, seed=2**64 - 5)
    record = evolve(rho0, model, CollisionConfig(tau=100.0, n_max=k + 30, epsilon=0.5), k + 30)
    ahead = record.distances[k:]
    for m in (1, 5, 30):
        res = nstar_simulated(record.states[k], model, CollisionConfig(100.0, m, 1e-9), collision=k)
        assert (res.n_star, res.final_distance) == (None, ahead[m])
    # epsilon at the lowest distance of the 30 ahead: the crossing is its first index
    n = int(np.argmin(ahead[1:])) + 1
    res = nstar_simulated(record.states[k], model, CollisionConfig(100.0, 30, ahead[n]), collision=k)
    assert (res.n_star, res.final_distance) == (next(i for i, x in enumerate(ahead) if x <= ahead[n]), ahead[n])
    # the draws do depend on k: from collision 0 the same state goes elsewhere
    if k:
        assert nstar_simulated(record.states[k], model, CollisionConfig(100.0, 5, 1e-9)).final_distance != ahead[5]


def test_random_full_crossings_around_a_block_boundary():
    # epsilon set to the distance at n, where that distance is a new minimum,
    # puts the crossing exactly at n: just below, at and above multiples of 16
    model, rho0 = _random_full_case(3, 2.0, seed=20251018)
    n_max = 64
    distances = _evolve_distances(model, rho0, n_max)
    targets = [b + o for b in (16, 32, 48) for o in (-1, 0, 1)]
    for n in targets:
        assert distances[n] < min(distances[:n])  # the case is usable
        for cap in (n, n + 1, n_max):
            res = nstar_simulated(rho0, model, CollisionConfig(tau=100.0, n_max=cap, epsilon=distances[n]))
            assert res.n_star == n
            assert res.final_distance == distances[n]
    # a cap below 16 and below the crossing: unreachable, distance at the cap
    for cap in (1, 8, 15):
        res = nstar_simulated(rho0, model, CollisionConfig(tau=100.0, n_max=cap, epsilon=distances[n_max]))
        assert res.n_star is None
        assert res.final_distance == distances[cap]


# The collision map is m = I + sin^2(J tau) L with L the SL generator at
# Gamma = 1, exactly; the two builders round differently (m through cos 2 J
# tau, L through p_A), so each side is within a few u of the exact value.
FEW_U = 8 * (0.5 * np.finfo(float).eps)
lindblad_p_as = st.floats(0.0, 1.0, exclude_min=True)
lindblad_j_taus = st.floats(-10.0, 10.0)


@PROPERTY
@given(st.integers(2, MAX_D), lindblad_p_as, lindblad_j_taus)
def test_a_collision_is_an_euler_step_of_the_sl_generator(d, p_a, j_tau):
    step = population_step_matrix(d, p_a, j_tau) - np.eye(d)
    euler = math.sin(j_tau) ** 2 * sl_population_generator(d, p_a, 1.0)
    assert np.abs(step - euler).max() <= FEW_U


@PROPERTY
@given(st.integers(2, MAX_D), lindblad_p_as, lindblad_j_taus)
def test_the_map_spectrum_is_one_plus_sin_squared_the_sl_spectrum(d, p_a, j_tau):
    euler = 1.0 + math.sin(j_tau) ** 2 * lambda_closed(d, p_a, 1.0)
    assert np.abs(xi_closed(d, p_a, j_tau) - euler).max() <= FEW_U
