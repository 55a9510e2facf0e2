"""Unit tests for Lambert-W, simulated crossings, and closed-form costs."""

import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from ri_thermalizer import simtime
from ri_thermalizer.collisions import CollisionConfig, evolve_populations
from ri_thermalizer.errors import (
    EpsilonTooLarge,
    FrozenDynamics,
    NoConvergence,
    NoRootBelowCap,
    OutOfDomain,
    StepTooLarge,
)
from ri_thermalizer.models import (
    AncillaSpec,
    CounterRotating,
    flip_flop_model,
    gibbs_populations,
    random_density_matrix,
)
from ri_thermalizer.simtime import (
    bracket_crossing,
    ceil_collisions,
    lambert_w,
    nstar_closed_d3_zeroT,
    nstar_general_zeroT_solve,
    nstar_simulated,
    population_distance,
    tsim_closed_sl_zeroT,
    tsim_general_sl_zeroT_solve,
    tsim_simulated_sl,
)
from ri_thermalizer.spectra import (
    lambda_closed,
    liouvillian_matrix,
    nstar_estimate_discrete,
    stationary_populations_d3,
    tsim_estimate_sl,
)

NEG_INV_E = -math.exp(-1.0)


def bisect_w_lower(z, lo=-80.0, hi=-1.0):
    """Independent oracle: bisection on w e^w = z over the lower branch."""
    f = lambda w: w * math.exp(w) - z
    assert f(lo) < 0 < f(hi) or f(lo) > 0 > f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (f(hi) > 0):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestLambertW:
    def test_principal_at_zero(self):
        assert lambert_w(0.0, 0) == 0.0

    def test_branch_point_values(self):
        assert lambert_w(NEG_INV_E, 0) == pytest.approx(-1.0, abs=1e-6)
        assert lambert_w(NEG_INV_E, -1) == pytest.approx(-1.0, abs=1e-6)

    def test_lower_branch_against_bisection(self):
        for z in (-0.1, -0.01, -0.25, -0.35):
            assert lambert_w(z, -1) == pytest.approx(bisect_w_lower(z), abs=1e-10)

    def test_residuals_on_grids(self):
        for z in np.linspace(NEG_INV_E, 10.0, 1000):
            w = lambert_w(float(z), 0)
            assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, abs(z))
        for z in np.linspace(NEG_INV_E, -1e-12, 1000):
            w = lambert_w(float(z), -1)
            assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, abs(z))
            assert w <= -1.0 + 1e-8

    def test_deep_tail_lower_branch(self):
        for z in (-1e-10, -1e-50, -1e-200):
            w = lambert_w(z, -1)
            assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, abs(z))

    @pytest.mark.parametrize("z", [1e308, sys.float_info.max])
    def test_top_of_the_float_range(self, z):
        # Halley's denominator overflows here; W0 itself is about 703
        w = lambert_w(z, 0)
        assert abs(w * math.exp(w) - z) <= 1e-12 * z

    def test_domain_errors(self):
        with pytest.raises(OutOfDomain):
            lambert_w(NEG_INV_E - 1e-6, 0)
        with pytest.raises(OutOfDomain):
            lambert_w(0.1, -1)
        with pytest.raises(ValueError):
            lambert_w(0.1, 2)

    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("branch", [0, -1])
    def test_non_finite_z_is_out_of_domain(self, z, branch):
        # inf and NaN used to stall Halley's iteration, NoConvergence
        with pytest.raises(OutOfDomain, match="not finite"):
            lambert_w(z, branch)


class TestNstarSimulated:
    def test_already_thermal(self):
        model = flip_flop_model(3, omega=1.0, beta=1.0, j=0.5)
        cfg = CollisionConfig(tau=1.0, n_max=100, epsilon=1e-2)
        from ri_thermalizer.models import system_gibbs_state

        res = nstar_simulated(system_gibbs_state(model.system, 1.0), model, cfg)
        assert res.n_star == 0 and res.t_sim == 0.0

    def test_a_distance_eigvalsh_cannot_take_raises_no_convergence(self):
        # numpy's LinAlgError from the trace distance's eigvalsh, typed
        model = flip_flop_model(3, omega=1.0, beta=1.0, j=1.0)
        rho0 = np.full((3, 3), math.nan, dtype=complex)
        with pytest.raises(NoConvergence, match="trace distance"):
            nstar_simulated(rho0, model, CollisionConfig(tau=1.0, n_max=5, epsilon=1e-3), engine="brute_force")

    def test_two_collisions_at_optimal_point(self):
        model = flip_flop_model(3, omega=1.0, beta=math.inf, j=1.0)
        cfg = CollisionConfig(tau=math.pi / 2, n_max=100, epsilon=1e-4)
        res = nstar_simulated(np.eye(3, dtype=complex) / 3, model, cfg)
        assert res.n_star == 2
        assert res.t_sim == pytest.approx(math.pi, abs=1e-15)

    def test_crossing_invariant(self):
        model = flip_flop_model(3, omega=1.0, beta=3.0, j=1e-3)
        cfg = CollisionConfig(tau=(math.pi / 5) / 1e-3, n_max=10**6, epsilon=1e-4)
        res = nstar_simulated(np.eye(3, dtype=complex) / 3, model, cfg)
        from ri_thermalizer.models import gibbs_populations

        pops = evolve_populations(
            np.full(3, 1 / 3), model.ancilla.ground_population, math.pi / 5, res.n_star
        )
        target = gibbs_populations(3, 1.0, 3.0)
        assert population_distance(pops[res.n_star], target) <= 1e-4
        assert population_distance(pops[res.n_star - 1], target) > 1e-4

    def test_unreachable_at_frozen_point(self):
        model = flip_flop_model(3, omega=1.0, beta=2.0, j=1.0)
        cfg = CollisionConfig(tau=math.pi, n_max=50, epsilon=1e-4)
        res = nstar_simulated(np.eye(3, dtype=complex) / 3, model, cfg)
        assert not res.reachable
        assert res.n_star is None and res.t_sim is None
        assert res.final_distance > 1e-4

    def test_frozen_map_returns_at_once(self):
        # J*tau = pi makes the population step matrix exactly the identity
        model = flip_flop_model(4, omega=1.0, beta=2.0, j=1.0)
        cfg = CollisionConfig(tau=math.pi, n_max=10**8, epsilon=1e-4)
        p0 = np.array([0.1, 0.2, 0.3, 0.4])
        start = time.perf_counter()
        res = nstar_simulated(np.diag(p0).astype(complex), model, cfg)
        assert time.perf_counter() - start < 1.0
        assert not res.reachable
        p_a = model.ancilla.ground_population
        scanned = evolve_populations(p0, p_a, math.pi, 1000)[-1]
        assert res.final_distance == population_distance(scanned, gibbs_populations(4, 1.0, 2.0))

    def test_engines_agree(self):
        model = flip_flop_model(3, omega=1.0, beta=2.0, j=0.9)
        cfg = CollisionConfig(tau=1.0, n_max=10**4, epsilon=1e-3)
        rho0 = np.eye(3, dtype=complex) / 3
        a = nstar_simulated(rho0, model, cfg, engine="recursion")
        b = nstar_simulated(rho0, model, cfg, engine="brute_force")
        assert a.n_star == b.n_star

    def test_engines_agree_with_coherences(self):
        rng = np.random.default_rng(13)
        model = flip_flop_model(3, omega=1.0, beta=1.5, j=0.7)
        cfg = CollisionConfig(tau=1.2, n_max=10**4, epsilon=1e-3)
        rho0 = random_density_matrix(3, rng)
        a = nstar_simulated(rho0, model, cfg, engine="recursion")
        b = nstar_simulated(rho0, model, cfg, engine="brute_force")
        assert a.n_star == b.n_star


class TestEngineRecorded:
    """ThermalizationResult.engine names the engine that actually ran."""

    CFG = CollisionConfig(tau=1.0, n_max=10**4, epsilon=1e-3)

    def test_auto_falls_back_to_brute_force_for_a_coherent_state_above_d3(self):
        model = flip_flop_model(4, omega=1.0, beta=1.5, j=0.7)
        rho0 = random_density_matrix(4, np.random.default_rng(14))
        auto = nstar_simulated(rho0, model, self.CFG)
        brute = nstar_simulated(rho0, model, self.CFG, engine="brute_force")
        assert auto.engine == "brute_force"
        assert (auto.n_star, auto.final_distance) == (brute.n_star, brute.final_distance)

    @pytest.mark.parametrize("d, coherent", [(4, False), (3, False), (3, True)])
    def test_auto_takes_the_recursion_where_it_applies(self, d, coherent):
        model = flip_flop_model(d, omega=1.0, beta=1.5, j=0.7)
        rho0 = random_density_matrix(d, np.random.default_rng(15))
        if not coherent:
            rho0 = np.diag(np.diag(rho0))
        assert nstar_simulated(rho0, model, self.CFG).engine == "recursion"

    def test_auto_takes_brute_force_off_resonance(self):
        model = flip_flop_model(3, omega=1.0, beta=1.5, j=0.7)
        model = replace(model, ancilla=replace(model.ancilla, omega=1.1))
        assert nstar_simulated(np.eye(3, dtype=complex) / 3, model, self.CFG).engine == "brute_force"

    @pytest.mark.parametrize(
        "interaction, engine, message",
        [
            (CounterRotating(j=0.7, j_prime=0.2), "recursion", "recursion engine unavailable"),
            (None, "ode_sl", "unknown engine 'ode_sl'"),
        ],
        ids=["recursion-on-counter-rotating", "unknown"],
    )
    def test_an_engine_that_cannot_run_raises(self, interaction, engine, message):
        model = flip_flop_model(3, omega=1.0, beta=1.5, j=0.7)
        if interaction is not None:
            model = replace(model, interaction=interaction)
        with pytest.raises(ValueError, match=message):
            nstar_simulated(np.eye(3, dtype=complex) / 3, model, self.CFG, engine=engine)

    @pytest.mark.parametrize("engine", ["auto", "recursion", "brute_force"])
    def test_a_state_of_another_shape_raises_before_any_work(self, engine):
        model = flip_flop_model(3, omega=1.0, beta=1.5, j=0.7)
        with pytest.raises(ValueError, match=r"shape \(2, 2\).*\(3, 3\)"):
            nstar_simulated(np.eye(2, dtype=complex) / 2, model, self.CFG, engine=engine)

    @pytest.mark.parametrize("engine", ["recursion", "brute_force"])
    def test_an_explicit_engine_is_recorded(self, engine):
        model = flip_flop_model(3, omega=1.0, beta=1.5, j=0.7)
        assert nstar_simulated(np.eye(3, dtype=complex) / 3, model, self.CFG, engine=engine).engine == engine

    @pytest.mark.parametrize("t_max", [1e4, 1e-3])
    def test_sl_scan_records_ode_sl(self, t_max):
        # reachable and unreachable
        res = tsim_simulated_sl(np.full(3, 1 / 3), 0.8, 1.0, 1e-4, t_max=t_max)
        assert res.engine == "ode_sl"
        assert res.reachable == (t_max > 1)


class TestPoweredCrossing:
    """The diagonal recursion's O(log n_max) search against the linear scan."""

    @pytest.mark.parametrize(
        "d, beta, j_tau, p0",
        [
            (3, 2.0, 0.3, None),
            (5, 0.7, 1.1, [0.05, 0.3, 0.1, 0.4, 0.15]),
            (8, 4.0, math.pi / 16, None),
            (10, 0.0, 2.9, np.arange(1, 11) / 55),
        ],
    )
    def test_epsilon_on_a_scanned_distance(self, d, beta, j_tau, p0):
        # epsilon at a distance of the scan, and one float either side of it
        p0 = np.full(d, 1 / d) if p0 is None else np.array(p0)
        n_max = 3000
        model = flip_flop_model(d, omega=1.0, beta=beta, j=1.0)
        orbit = evolve_populations(p0, model.ancilla.ground_population, j_tau, n_max)
        target = gibbs_populations(d, 1.0, beta)
        dists = [population_distance(p, target) for p in orbit]
        rho0 = np.diag(p0).astype(complex)
        for n in (1, 2, 7, 60, 401, 2999):
            for eps in (math.nextafter(dists[n], 0.0), dists[n], math.nextafter(dists[n], 1.0)):
                expected = next((k for k, x in enumerate(dists) if x <= eps), None)
                res = nstar_simulated(rho0, model, CollisionConfig(tau=j_tau, n_max=n_max, epsilon=eps))
                assert res.n_star == expected
                assert res.final_distance == dists[n_max if expected is None else expected]

    def test_distance_evaluations_grow_with_log_n_max(self, monkeypatch):
        # the nstar_recursion benchmark's sweep point: d = 8, J tau = pi/16
        # one stacked distance call per probe, each one row here
        calls = []
        counted = simtime._population_distances

        def counting(states, targets):
            calls.append(len(states))
            return counted(states, targets)

        monkeypatch.setattr(simtime, "_population_distances", counting)
        n_max = 100_000
        cfg = CollisionConfig(tau=(math.pi / 16) / 1e-3, n_max=n_max, epsilon=1e-6)
        for beta in (0.2, 1.0, 3.3, 6.0, 10.0):
            model = flip_flop_model(8, omega=1.0, beta=beta, j=1e-3)
            calls.clear()
            res = nstar_simulated(np.eye(8, dtype=complex) / 8, model, cfg)
            assert res.n_star is not None and res.n_star > 100
            assert 0 < sum(calls) <= 3 * math.log2(n_max) + 3


class TestFallbackScan:
    """The scan the powered search hands a run to when rounding cannot
    decide, over at most MAX_STEPS collisions."""

    # epsilon far below the distance's rounding floor: the guard fails at
    # every n_max and the scan never crosses.  At beta = 1, J tau = 1 the
    # scan's state repeats bit for bit from collision 84 on; at beta = 3,
    # J tau = pi/2 it never does
    ORBITS = [(1.0, 1.0), (3.0, math.pi / 2)]

    @staticmethod
    def _run(beta, j_tau, n_max, epsilon=1e-300, p0=np.full(3, 1 / 3)):
        model = flip_flop_model(p0.size, omega=1.0, beta=beta, j=1.0)
        return nstar_simulated(np.diag(p0).astype(complex), model, CollisionConfig(tau=j_tau, n_max=n_max, epsilon=epsilon))

    @pytest.fixture
    def scans(self, monkeypatch):
        """The collisions each call of the scan is allowed, one entry a call."""
        calls = []
        scan = simtime._first_crossings
        monkeypatch.setattr(simtime, "_first_crossings", lambda *args: calls.append(args[-1]) or scan(*args))
        return calls

    @pytest.mark.parametrize("beta, j_tau", ORBITS)
    def test_a_scan_that_does_not_cross_by_max_steps_raises(self, monkeypatch, scans, beta, j_tau):
        monkeypatch.setattr(simtime, "MAX_STEPS", 5000)
        with pytest.raises(NoConvergence, match="MAX_STEPS"):
            self._run(beta, j_tau, 10**6)
        assert sum(scans) <= 5000

    @pytest.mark.parametrize("chunk", [simtime._FALLBACK_CHUNK, 7])
    @pytest.mark.parametrize("beta, j_tau", ORBITS)
    def test_within_max_steps_it_gives_the_scan(self, monkeypatch, scans, beta, j_tau, chunk):
        monkeypatch.setattr(simtime, "_FALLBACK_CHUNK", chunk)
        n_max = 10_000
        res = self._run(beta, j_tau, n_max)
        orbit = evolve_populations(np.full(3, 1 / 3), AncillaSpec(1.0, beta).ground_population, j_tau, n_max)
        assert res.n_star is None
        assert res.final_distance == population_distance(orbit[-1], gibbs_populations(3, 1.0, beta))
        # a state that repeats ends the scan after the chunk it repeats in
        fixed = beta == 1.0
        assert len(scans) == (math.ceil(84 / chunk) if fixed else math.ceil(n_max / chunk))

    def test_a_crossing_before_max_steps_is_returned(self, monkeypatch, scans):
        # epsilon on the scanned distance at collision 60 fails the guard
        p0 = np.array([0.05, 0.3, 0.1, 0.4, 0.15])
        target = gibbs_populations(5, 1.0, 0.7)
        orbit = evolve_populations(p0, AncillaSpec(1.0, 0.7).ground_population, 1.1, 100)
        eps = population_distance(orbit[60], target)
        expected = next(k for k, p in enumerate(orbit) if population_distance(p, target) <= eps)
        monkeypatch.setattr(simtime, "MAX_STEPS", 1000)
        assert self._run(0.7, 1.1, 10**6, eps, p0).n_star == expected
        assert scans == [1000]


class TestTsimSimulatedInputs:
    @pytest.mark.parametrize("p_a", [0.0, -0.2, 1.5, math.nan])
    def test_rejects_ground_population_outside_unit_interval(self, p_a):
        with pytest.raises(ValueError):
            tsim_simulated_sl(np.full(3, 1 / 3), p_a, 1.0, 1e-4, t_max=10.0)

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_rejects_non_positive_gamma(self, gamma):
        with pytest.raises(ValueError):
            tsim_simulated_sl(np.full(3, 1 / 3), 0.8, gamma, 1e-4, t_max=10.0)

    @pytest.mark.parametrize("epsilon", [math.nan, 0.0, -1.0, 1.0])
    def test_rejects_epsilon_outside_unit_interval(self, epsilon):
        with pytest.raises(ValueError):
            tsim_simulated_sl(np.full(3, 1 / 3), 0.8, 1.0, epsilon, t_max=10.0)

    @pytest.mark.parametrize("t_max", [0.0, -5.0, math.inf])
    def test_rejects_non_positive_t_max(self, t_max):
        with pytest.raises(ValueError):
            tsim_simulated_sl(np.full(3, 1 / 3), 0.8, 1.0, 1e-4, t_max=t_max)

    @pytest.mark.parametrize("gamma, t_max", [(1e308, 1e4), (1.0, 1e308)])
    def test_rejects_an_infinite_step_count(self, gamma, t_max):
        # t_max / (0.01 / gamma) overflows; it used to raise OverflowError
        with pytest.raises(ValueError, match="finite number of steps"):
            tsim_simulated_sl(np.full(3, 1 / 3), 0.9, gamma, 1e-4, t_max=t_max)

    @pytest.mark.parametrize("dt, gamma", [(5.0, 1.0), (0.2, 1.0), (0.011, 10.0)])
    def test_rejects_a_step_above_a_tenth_of_the_rate(self, dt, gamma):
        with pytest.raises(StepTooLarge):
            tsim_simulated_sl(np.full(3, 1 / 3), 0.8, gamma, 1e-4, t_max=10.0, dt=dt)

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan])
    def test_rejects_non_positive_dt(self, dt):
        with pytest.raises(ValueError):
            tsim_simulated_sl(np.full(3, 1 / 3), 0.8, 1.0, 1e-4, t_max=10.0, dt=dt)

    def test_default_step_is_a_hundredth_of_the_inverse_rate(self):
        p0 = np.array([0.2, 0.5, 0.3])
        default = tsim_simulated_sl(p0, 0.9, 2.0, 1e-5, t_max=50.0)
        explicit = tsim_simulated_sl(p0, 0.9, 2.0, 1e-5, t_max=50.0, dt=0.01 / 2.0)
        assert default == explicit


@pytest.mark.parametrize(
    "solve, rate",
    [
        (nstar_closed_d3_zeroT, 0.8),
        (tsim_closed_sl_zeroT, 1.0),
        (nstar_general_zeroT_solve, 0.8),
        (tsim_general_sl_zeroT_solve, 1.0),
    ],
)
@pytest.mark.parametrize("epsilon", [math.nan, 0.0, -1e-3, 1.0, 1.5])
def test_zero_temperature_solvers_reject_epsilon_outside_unit_interval(solve, rate, epsilon):
    # each used to return a number here (1.0 for NaN, a finite time at 0, a
    # negative time at 1 and above for some starts) or end in a math error
    for p0 in (np.array([0.2, 0.3, 0.5]), np.array([0.0, 0.9, 0.1])):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
            solve(p0, rate, epsilon)


# one call per function of Gamma that needs 0 < Gamma < inf
GAMMA_FUNCTIONS = {
    "tsim_simulated_sl": lambda gamma: tsim_simulated_sl(np.full(3, 1 / 3), 0.8, gamma, 1e-4, t_max=10.0),
    "tsim_closed_sl_zeroT": lambda gamma: tsim_closed_sl_zeroT(np.full(3, 1 / 3), gamma, 1e-3),
    "tsim_general_sl_zeroT_solve": lambda gamma: tsim_general_sl_zeroT_solve(np.full(3, 1 / 3), gamma, 1e-3),
    "tsim_estimate_sl": lambda gamma: tsim_estimate_sl(np.full(3, 1 / 3) - stationary_populations_d3(0.8), 0.8, gamma, 1e-4),
    "liouvillian_matrix": lambda gamma: liouvillian_matrix(3, 0.8, gamma),
    "lambda_closed": lambda gamma: lambda_closed(3, 0.8, gamma),
}


@pytest.mark.parametrize("name", GAMMA_FUNCTIONS)
@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
def test_every_function_of_gamma_rejects_a_rate_outside_zero_to_inf(name, gamma):
    # each used to return a number for some of these (-8.12 from
    # tsim_closed_sl_zeroT at Gamma = -1, 0.0 at inf, NaN matrices) or end
    # in a ZeroDivisionError
    with pytest.raises(ValueError, match="Gamma must be positive and finite"):
        GAMMA_FUNCTIONS[name](gamma)


# the users of flip_flop_rates, the one source of lambda_+ and lambda_-
J_TAU_FUNCTIONS = {
    "nstar_closed_d3_zeroT": lambda j_tau: nstar_closed_d3_zeroT(np.full(3, 1 / 3), j_tau, 1e-3),
    "nstar_general_zeroT_solve": lambda j_tau: nstar_general_zeroT_solve(np.full(3, 1 / 3), j_tau, 1e-3),
    "nstar_estimate_discrete": lambda j_tau: nstar_estimate_discrete(np.full(3, 1 / 3) - stationary_populations_d3(0.8), 0.8, j_tau, 1e-4),
}


@pytest.mark.parametrize("name", J_TAU_FUNCTIONS)
@pytest.mark.parametrize("j_tau", [math.nan, math.inf])
def test_the_lambda_users_reject_a_j_tau_that_is_not_finite(name, j_tau):
    # NaN used to give 1.0 or NaN, inf a bare math domain error
    with pytest.raises(ValueError, match=r"J\*tau must be finite"):
        J_TAU_FUNCTIONS[name](j_tau)


@pytest.mark.parametrize("solve, rate", [(nstar_closed_d3_zeroT, 0.8), (tsim_closed_sl_zeroT, 1.0)])
@pytest.mark.parametrize("d", [2, 4])
def test_the_lambert_forms_reject_a_state_that_is_not_three_level(solve, rate, d):
    # they read only p0[1] and p0[2]: a number for d = 4, an IndexError for d = 2
    with pytest.raises(ValueError, match="d = 3 only"):
        solve(np.full(d, 1 / d), rate, 1e-3)


@pytest.mark.parametrize(
    "solve, rate, d",
    [
        (nstar_closed_d3_zeroT, 0.8, 3),
        (tsim_closed_sl_zeroT, 1.0, 3),
        (nstar_general_zeroT_solve, 0.8, 4),
        (tsim_general_sl_zeroT_solve, 1.0, 3),
    ],
)
def test_zero_temperature_solvers_give_zero_from_the_ground_state(solve, rate, d):
    assert solve(np.eye(d)[0], rate, 1e-4) == 0.0


class TestClosedFormsD3:
    def test_matches_simulation_at_zero_temperature(self):
        model = flip_flop_model(3, omega=1.0, beta=math.inf, j=1e-3)
        for j_tau in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
            for epsilon in (1e-3, 1e-4):
                cfg = CollisionConfig(tau=j_tau / 1e-3, n_max=10**6, epsilon=epsilon)
                sim = nstar_simulated(np.eye(3, dtype=complex) / 3, model, cfg).n_star
                closed = ceil_collisions(
                    nstar_closed_d3_zeroT(np.full(3, 1 / 3), j_tau, epsilon)
                )
                assert abs(closed - sim) <= 1

    def test_vanishing_p3_single_mode(self):
        j_tau, eps = 0.8, 1e-5
        p0 = np.array([0.4, 0.6, 0.0])
        got = nstar_closed_d3_zeroT(p0, j_tau, eps)
        expected = math.log(eps / 0.6) / math.log(math.cos(j_tau) ** 2)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_minimum_at_half_pi(self):
        grid = np.linspace(0.15, math.pi - 0.15, 41)
        vals = [
            ceil_collisions(nstar_closed_d3_zeroT(np.full(3, 1 / 3), float(jt), 1e-4))
            for jt in grid
        ]
        nearest = int(np.argmin(np.abs(grid - math.pi / 2)))
        assert vals[nearest] == min(vals)

    def test_frozen_and_epsilon_guards(self):
        with pytest.raises(FrozenDynamics):
            nstar_closed_d3_zeroT(np.full(3, 1 / 3), math.pi, 1e-4)
        # loose precision targets push the Lambert argument below -1/e
        with pytest.raises(EpsilonTooLarge):
            nstar_closed_d3_zeroT(np.full(3, 1 / 3), 0.8, 0.9)

    def test_tsim_matches_ode_crossing(self):
        gamma, eps = 1.0, 1e-4
        p0 = np.full(3, 1 / 3)
        closed = tsim_closed_sl_zeroT(p0, gamma, eps)
        sim = tsim_simulated_sl(p0, 1.0, gamma, eps, t_max=100.0)
        assert abs(closed - sim.t_sim) <= 1e-6 / gamma

    def test_tsim_scales_inversely_with_gamma(self):
        p0 = np.array([0.2, 0.5, 0.3])
        t1 = tsim_closed_sl_zeroT(p0, 1.0, 1e-4)
        t2 = tsim_closed_sl_zeroT(p0, 2.0, 1e-4)
        assert t1 == pytest.approx(2.0 * t2, rel=1e-14)

    def test_tsim_epsilon_bound(self):
        p0 = np.array([0.0, 0.1, 0.9])
        bound = 0.9 * math.exp(0.1 / 0.9)
        with pytest.raises(EpsilonTooLarge):
            tsim_closed_sl_zeroT(p0, 1.0, bound * 1.01)
        # p2 = 0: the bound is p3 = 0.5
        with pytest.raises(EpsilonTooLarge):
            tsim_closed_sl_zeroT(np.array([0.5, 0.0, 0.5]), 1.0, 0.6)

    def test_tsim_vanishing_p3_single_mode(self):
        assert tsim_closed_sl_zeroT(np.array([0.5, 0.5, 0.0]), 1.0, 1e-3) == pytest.approx(math.log(500.0), rel=1e-15)


class TestGeneralSolvers:
    def test_nstar_reduces_to_d3_closed_form(self):
        p0 = np.array([0.3, 0.33, 0.37])
        j_tau, eps = 0.83, 1e-4
        closed = nstar_closed_d3_zeroT(p0, j_tau, eps)
        general = nstar_general_zeroT_solve(p0, j_tau, eps)
        assert abs(closed - general) <= 1e-9

    def test_nstar_d4_satisfies_a_coefficient_equation(self):
        p0 = np.array([0.1, 0.2, 0.3, 0.4])
        j_tau, eps = 0.7, 1e-5
        n = nstar_general_zeroT_solve(p0, j_tau, eps)
        lp = math.cos(j_tau) ** 2
        lm = math.sin(j_tau) ** 2
        a0 = p0[1] + p0[2] + p0[3]
        a1 = (lm / lp) * (p0[2] + p0[3])
        a2 = (lm / lp) ** 2 * p0[3]
        lhs = (a0 + a1 * n + a2 * n * (n - 1) / 2) * math.exp(n * math.log(lp))
        assert lhs == pytest.approx(eps, rel=1e-8)

    def test_frozen_map_and_zero_rate_raise(self):
        with pytest.raises(FrozenDynamics):
            nstar_general_zeroT_solve(np.full(4, 0.25), math.pi, 1e-4)
        with pytest.raises(ValueError, match="Gamma must be positive"):
            tsim_general_sl_zeroT_solve(np.full(3, 1 / 3), 0.0, 1e-4)

    def test_bracket_stops_at_its_cap(self):
        with pytest.raises(NoRootBelowCap):
            bracket_crossing(lambda x: 1.0, 0.5, 1.0, 8.0)

    @pytest.mark.parametrize("n_real", [math.inf, -math.inf, math.nan])
    def test_ceil_collisions_rejects_a_count_that_is_not_finite(self, n_real):
        # inf used to raise OverflowError, which is not a ValueError
        with pytest.raises(ValueError, match=r"n\* must be finite"):
            ceil_collisions(n_real)

    def test_nstar_exact_cascade_at_half_pi(self):
        for d in (3, 4, 5, 8):
            p0 = np.full(d, 1 / d)
            assert nstar_general_zeroT_solve(p0, math.pi / 2, 1e-4) == float(d - 1)

    def test_nstar_matches_iterated_recursion_crossing(self):
        rng = np.random.default_rng(14)
        starts = [rng.dirichlet(np.ones(d)) for d in (4, 6, 10)]
        # (0.5, 0.5, 0, 0) has the zero tail sums S_1 = S_2 = 0
        for p0 in starts + [np.array([0.5, 0.0, 0.0, 0.5]), np.array([0.5, 0.5, 0.0, 0.0])]:
            j_tau, eps = 0.9, 1e-5
            n_real = nstar_general_zeroT_solve(p0, j_tau, eps)
            traj = evolve_populations(p0, 1.0, j_tau, int(n_real) + 3)
            dist = traj[:, 1:].sum(axis=1)
            crossing = int(np.argmax(dist <= eps))
            assert abs(ceil_collisions(n_real) - crossing) <= 1

    def test_tsim_reduces_to_d3_closed_form(self):
        p0 = np.array([0.25, 0.35, 0.4])
        closed = tsim_closed_sl_zeroT(p0, 1.3, 1e-4)
        general = tsim_general_sl_zeroT_solve(p0, 1.3, 1e-4)
        assert abs(closed - general) <= 1e-9

    @pytest.mark.parametrize(
        "d,coeff_count",
        [(4, 3), (5, 4)],
    )
    def test_tsim_satisfies_polynomial_equation(self, d, coeff_count):
        rng = np.random.default_rng(15)
        p0 = rng.dirichlet(np.ones(d))
        gamma, eps = 0.8, 1e-5
        t = tsim_general_sl_zeroT_solve(p0, gamma, eps)
        coeffs = [
            gamma**k / math.factorial(k) * p0[k + 1 :].sum() for k in range(coeff_count)
        ]
        lhs = math.exp(-gamma * t) * sum(c * t**k for k, c in enumerate(coeffs))
        assert lhs == pytest.approx(eps, rel=1e-8)

    def test_tsim_matches_ode_crossing_d5(self):
        p0 = np.full(5, 0.2)
        gamma, eps = 1.0, 1e-4
        solved = tsim_general_sl_zeroT_solve(p0, gamma, eps)
        sim = tsim_simulated_sl(p0, 1.0, gamma, eps, t_max=100.0)
        assert abs(solved - sim.t_sim) <= 1e-6


class TestOscillationStructure:
    def test_minima_at_odd_half_pi_maxima_at_pi(self):
        model = flip_flop_model(3, omega=1.0, beta=math.inf, j=1.0)

        def n_at(j_tau):
            cfg = CollisionConfig(tau=j_tau, n_max=5000, epsilon=1e-4)
            return nstar_simulated(np.eye(3, dtype=complex) / 3, model, cfg)

        assert n_at(math.pi / 2).n_star == 2
        assert n_at(3 * math.pi / 2).n_star == 2
        assert n_at(0.95 * math.pi).n_star > 50
        assert n_at(1.05 * math.pi).n_star > 50
        assert not n_at(math.pi).reachable
