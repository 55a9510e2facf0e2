"""Unit tests for the collision engine: recursions, CPTP map, SL ODEs."""

import math

import numpy as np
import pytest

from ri_thermalizer import collisions, simtime
from ri_thermalizer.collisions import (
    CollisionConfig,
    collide_once,
    collision_unitary,
    density_matrix_d3,
    eta_coefficients,
    evolve,
    evolve_coherences_d3,
    evolve_populations,
    population_step_matrix,
    psi_coefficients,
    sl_ode_coherences_d3,
    sl_ode_nonconserving_d3,
    sl_ode_populations,
    step_coherences_d3,
    step_populations_recursive,
    zero_temp_coherences_d3_closed,
    zero_temp_populations_closed,
)
from ri_thermalizer.errors import CapExceeded, NoConvergence, StepTooLarge, SumNotZero
from ri_thermalizer.linalg import partial_trace_second, trace_distance
from ri_thermalizer.models import (
    AncillaSpec,
    CounterRotating,
    ModelSpec,
    RandomFull,
    SystemSpec,
    ancilla_thermal_state,
    flip_flop_model,
    gibbs_populations,
    random_density_matrix,
    system_gibbs_state,
)
from ri_thermalizer.simtime import nstar_simulated
from ri_thermalizer.spectra import c13_steady_state


class TestEtaCoefficients:
    def test_zero_interaction_identity(self):
        e = eta_coefficients(0.8, 0.0)
        assert (e.eta11, e.eta12, e.eta21, e.eta22, e.eta33) == (1.0, 0.0, 0.0, 1.0, 1.0)

    def test_zero_temperature_simplification(self):
        j_tau = 0.9
        lam_plus = 0.5 * (1 + math.cos(2 * j_tau))
        lam_minus = 0.5 * (1 - math.cos(2 * j_tau))
        e = eta_coefficients(1.0, j_tau)
        assert e.eta11 == pytest.approx(1.0, abs=1e-15)
        assert e.eta21 == pytest.approx(0.0, abs=1e-15)
        assert e.eta12 == pytest.approx(lam_minus, abs=1e-15)
        assert e.eta22 == pytest.approx(lam_plus, abs=1e-15)
        assert e.eta33 == pytest.approx(lam_plus, abs=1e-15)

    def test_frozen_values(self):
        # trig oracle at p_A = 0.7, J tau = pi/3: cos(2 pi/3) = -1/2
        e = eta_coefficients(0.7, math.pi / 3)
        assert e.eta11 == pytest.approx(0.775, abs=1e-15)
        assert e.eta12 == pytest.approx(0.525, abs=1e-15)
        assert e.eta21 == pytest.approx(0.225, abs=1e-15)
        assert e.eta22 == pytest.approx(0.25, abs=1e-15)
        assert e.eta33 == pytest.approx(0.475, abs=1e-15)

    def test_column_sums(self):
        e = eta_coefficients(0.63, 1.17)
        assert e.eta11 + e.eta21 == pytest.approx(1.0, abs=1e-15)
        assert e.eta12 + e.eta22 + e.eta21 == pytest.approx(1.0, abs=1e-15)
        assert e.eta12 + e.eta33 == pytest.approx(1.0, abs=1e-15)


class TestPsiCoefficients:
    def test_zero_interaction_identity(self):
        p = psi_coefficients(0.8, 0.0)
        assert (p.psi11, p.psi13, p.psi22, p.psi31, p.psi33) == (1.0, 0.0, 1.0, 0.0, 1.0)

    def test_zero_temperature_simplification(self):
        j_tau = 1.2
        mu = math.cos(j_tau)
        lam_plus = 0.5 * (1 + math.cos(2 * j_tau))
        lam_minus = 0.5 * (1 - math.cos(2 * j_tau))
        p = psi_coefficients(1.0, j_tau)
        assert p.psi11 == pytest.approx(mu, abs=1e-15)
        assert p.psi22 == pytest.approx(mu, abs=1e-15)
        assert p.psi13 == pytest.approx(lam_minus, abs=1e-15)
        assert p.psi33 == pytest.approx(lam_plus, abs=1e-15)
        assert p.psi31 == pytest.approx(0.0, abs=1e-15)

    def test_frozen_values(self):
        # trig oracle at p_A = 0.6, J tau = 1
        p = psi_coefficients(0.6, 1.0)
        assert p.psi11 == pytest.approx(0.4409520162114554, abs=1e-15)
        assert p.psi13 == pytest.approx(0.4248440509641427, abs=1e-15)
        assert p.psi22 == pytest.approx(0.5403023058681398, abs=1e-15)
        assert p.psi31 == pytest.approx(0.2832293673094285, abs=1e-15)
        assert p.psi33 == pytest.approx(0.3912768713831132, abs=1e-15)


class TestCollideOnce:
    def test_gibbs_state_is_fixed_point(self):
        model = flip_flop_model(3, omega=1.0, beta=1.0, j=0.4)
        cfg = CollisionConfig(tau=1.0, n_max=10, epsilon=1e-4)
        gibbs = system_gibbs_state(model.system, 1.0)
        out = collide_once(gibbs, model, cfg)
        assert np.max(np.abs(out - gibbs)) <= 1e-12

    def test_frozen_populations_at_j_tau_pi(self):
        rng = np.random.default_rng(0)
        model = flip_flop_model(3, omega=1.0, beta=math.inf, j=1.0)
        cfg = CollisionConfig(tau=math.pi, n_max=10, epsilon=1e-4)
        p = rng.random(3)
        p /= p.sum()
        out = collide_once(np.diag(p).astype(complex), model, cfg)
        assert np.max(np.abs(np.diag(out).real - p)) <= 1e-12

    def test_populations_match_explicit_recursions_d3(self):
        # explicit one-collision expressions for p1', p2', p3'
        rng = np.random.default_rng(1)
        beta, j, tau = 0.9, 0.7, 1.3
        model = flip_flop_model(3, omega=1.0, beta=beta, j=j)
        cfg = CollisionConfig(tau=tau, n_max=10, epsilon=1e-4)
        p_a = model.ancilla.ground_population
        c2 = math.cos(2 * j * tau)
        p1, p2, p3 = p = rng.dirichlet(np.ones(3))
        out = np.diag(collide_once(np.diag(p).astype(complex), model, cfg)).real
        expected = np.array(
            [
                0.5 * (p1 * ((1 + p_a) + (1 - p_a) * c2) + p2 * p_a * (1 - c2)),
                0.5 * (
                    p1 + p2 + p_a - (2 * p1 + p2) * p_a
                    + (-p1 + p2 + (-1 + 2 * p1 + p2) * p_a) * c2
                ),
                0.5 * (p2 * (1 - p_a) * (1 - c2) - p3 * (p_a * (1 - c2) - 2)),
            ]
        )
        assert np.max(np.abs(out - expected)) <= 1e-13

    @pytest.mark.parametrize("seed", range(12))
    def test_joint_state_equals_the_kronecker_product(self, seed):
        # collide_once forms rho_S (x) rho_A as an outer product; the result
        # must be the np.kron route's bit for bit, for any complex rho (not
        # only states) and for a non-contiguous one
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        model = ModelSpec(
            SystemSpec(d=d, omega=1.0), AncillaSpec(omega=1.0, beta=float(rng.uniform(0, 5))),
            RandomFull(lo=0.1, hi=0.9, seed=seed),
        )
        cfg = CollisionConfig(tau=float(rng.uniform(0.1, 3.0)), n_max=10, epsilon=1e-4)
        u = collision_unitary(model, cfg.tau, collision=seed)
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        for r in (rho, rho.T):
            joint = np.kron(r, ancilla_thermal_state(model.ancilla))
            expected = partial_trace_second(u @ joint @ u.conj().T, d, 2)
            assert np.array_equal(collisions._collide(r, u, ancilla_thermal_state(model.ancilla)), expected)
            assert np.array_equal(collide_once(r, model, cfg, collision=seed), expected)

    def test_output_is_valid_state(self):
        rng = np.random.default_rng(2)
        model = flip_flop_model(4, omega=1.0, beta=0.5, j=0.9)
        cfg = CollisionConfig(tau=0.8, n_max=10, epsilon=1e-4)
        rho = random_density_matrix(4, rng)
        for _ in range(5):
            rho = collide_once(rho, model, cfg)
            assert abs(np.trace(rho).real - 1.0) <= 1e-13
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-13
            assert np.linalg.eigvalsh(rho).min() >= -1e-10


class TestAncillaStateOncePerRun:
    """A run's rho_A is fixed: it is built once and handed to every
    collision, as the unitary is."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []

        def counting(spec):
            made.append(spec)
            return ancilla_thermal_state(spec)

        for module in (collisions, simtime):
            monkeypatch.setattr(module, "ancilla_thermal_state", counting, raising=False)
        return made

    MODELS = {
        "fixed": flip_flop_model(3, omega=1.0, beta=1.2, j=0.5),
        "random": ModelSpec(
            SystemSpec(d=3, omega=1.0), AncillaSpec(omega=1.0, beta=1.2), RandomFull(lo=0.1, hi=0.9, seed=4)
        ),
    }

    @pytest.mark.parametrize("kind", MODELS)
    def test_one_per_nstar_run(self, calls, kind):
        cfg = CollisionConfig(tau=0.7, n_max=60, epsilon=1e-3)
        res = nstar_simulated(np.eye(3, dtype=complex) / 3, self.MODELS[kind], cfg, engine="brute_force")
        assert res.n_star is None or res.n_star > 5
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", MODELS)
    def test_one_per_evolve_run(self, calls, kind):
        cfg = CollisionConfig(tau=0.7, n_max=100, epsilon=1e-3)
        evolve(np.eye(3, dtype=complex) / 3, self.MODELS[kind], cfg, 9)
        assert len(calls) == 1

    def test_a_direct_call_builds_its_own(self, calls):
        model = self.MODELS["fixed"]
        cfg = CollisionConfig(tau=0.7, n_max=10, epsilon=1e-3)
        rho = random_density_matrix(3, np.random.default_rng(8))
        collide_once(rho, model, cfg)
        assert len(calls) == 1


class TestEvolve:
    def test_zero_collisions_single_entry(self):
        model = flip_flop_model(3, omega=1.0, beta=1.0, j=0.4)
        cfg = CollisionConfig(tau=1.0, n_max=10, epsilon=1e-4)
        rho0 = np.eye(3, dtype=complex) / 3
        rec = evolve(rho0, model, cfg, 0)
        assert len(rec.states) == 1 and len(rec.distances) == 1
        assert np.array_equal(rec.states[0], rho0)

    def test_ground_state_after_two_collisions_d3(self):
        model = flip_flop_model(3, omega=1.0, beta=math.inf, j=1.0)
        cfg = CollisionConfig(tau=math.pi / 2, n_max=10, epsilon=1e-4)
        rec = evolve(np.eye(3, dtype=complex) / 3, model, cfg, 2)
        assert rec.distances[2] <= 1e-14
        assert rec.distances[1] > 0.1

    def test_ground_state_after_four_collisions_d5(self):
        model = flip_flop_model(5, omega=1.0, beta=math.inf, j=1.0)
        cfg = CollisionConfig(tau=math.pi / 2, n_max=10, epsilon=1e-4)
        rec = evolve(np.eye(5, dtype=complex) / 5, model, cfg, 4)
        assert rec.distances[4] <= 1e-14
        assert rec.distances[3] > 0.1

    def test_cap_enforced(self):
        model = flip_flop_model(3, omega=1.0, beta=1.0, j=0.4)
        cfg = CollisionConfig(tau=1.0, n_max=3, epsilon=1e-4)
        with pytest.raises(CapExceeded):
            evolve(np.eye(3, dtype=complex) / 3, model, cfg, 4)

    def test_distances_tracked_against_target(self):
        model = flip_flop_model(3, omega=1.0, beta=2.0, j=0.5)
        cfg = CollisionConfig(tau=1.1, n_max=50, epsilon=1e-4)
        target = system_gibbs_state(model.system, 2.0)
        rec = evolve(np.eye(3, dtype=complex) / 3, model, cfg, 10)
        for state, dist in zip(rec.states, rec.distances):
            assert dist == pytest.approx(trace_distance(state, target), abs=1e-14)

    @pytest.mark.parametrize("d,chunk_entries", [(2, 2**14), (3, 100), (5, 200), (16, 2**14)])
    def test_random_full_states_are_a_chain_of_collide_once(self, monkeypatch, d, chunk_entries):
        # evolve draws a chunk of collisions at a time (2, 2, 16 and 1024 of
        # them here); each state must be collide_once's at that collision
        # index, byte for byte, across the chunk edges
        monkeypatch.setattr(collisions, "_DRAW_CHUNK_ENTRIES", chunk_entries)
        model = ModelSpec(
            SystemSpec(d=d, omega=1.0), AncillaSpec(omega=1.0, beta=0.8), RandomFull(lo=0.05, hi=0.9, seed=2**40 + d)
        )
        cfg = CollisionConfig(tau=2.5, n_max=40, epsilon=1e-4)
        rec = evolve(np.eye(d, dtype=complex) / d, model, cfg, 40)
        rho = rec.states[0]
        for k, state in enumerate(rec.states[1:]):
            rho = collide_once(rho, model, cfg, collision=k)
            assert state.tobytes() == rho.tobytes(), k

    def test_a_nan_state_raises_no_convergence(self):
        rho0 = np.full((3, 3), np.nan, dtype=complex)
        with pytest.raises(NoConvergence):
            evolve(rho0, flip_flop_model(3, 1.0, 1.0, 1.0), CollisionConfig(1.0, 5, 0.1), 2)


class TestPopulationRecursion:
    def test_zero_deviation_fixed(self):
        out = step_populations_recursive(np.zeros(3), 0.8, 0.7)
        assert np.array_equal(out, np.zeros(3))

    def test_rejects_nonzero_sum(self):
        with pytest.raises(SumNotZero):
            step_populations_recursive(np.array([0.1, 0.0, 0.0]), 0.8, 0.7)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 33, 128])
    def test_step_matrix_equals_the_entry_by_entry_map(self, d):
        # the eta rates placed one entry at a time, as the reference
        for p_a, j_tau in [(0.8, 0.7), (1.0, math.pi / 16), (0.5, 3.0)]:
            e = eta_coefficients(p_a, j_tau)
            expected = np.zeros((d, d))
            for k in range(d - 1):
                expected[k, k + 1], expected[k + 1, k] = e.eta12, e.eta21
            for k in range(1, d - 1):
                expected[k, k] = e.eta22
            expected[0, 0], expected[d - 1, d - 1] = e.eta11, e.eta33
            assert np.array_equal(population_step_matrix(d, p_a, j_tau), expected)

    def test_step_matrix_needs_two_levels(self):
        with pytest.raises(ValueError, match="d >= 2"):
            population_step_matrix(1, 0.8, 0.7)

    def test_matches_eta_recursion_d3(self):
        rng = np.random.default_rng(3)
        p_a, j_tau = 0.77, 0.9
        dp = rng.normal(size=3)
        dp -= dp.mean()
        e = eta_coefficients(p_a, j_tau)
        expected = np.array(
            [
                e.eta11 * dp[0] + e.eta12 * dp[1],
                e.eta21 * dp[0] + e.eta22 * dp[1] + e.eta12 * dp[2],
                e.eta21 * dp[1] + e.eta33 * dp[2],
            ]
        )
        out = step_populations_recursive(dp, p_a, j_tau)
        assert np.max(np.abs(out - expected)) <= 1e-14

    def test_matches_four_level_recursions(self):
        # literal transcription of the four-level one-collision expressions
        rng = np.random.default_rng(4)
        beta, j_tau = 1.4, 0.8
        p_a = 1 / (1 + math.exp(-beta))
        p_star = gibbs_populations(4, 1.0, beta)
        dp = rng.normal(size=4)
        dp -= dp.mean()
        p = p_star + 1e-2 * dp
        c2 = math.cos(2 * j_tau)
        oracle = np.array(
            [
                0.5 * (p[0] * (1 + p_a + (1 - p_a) * c2) + p[1] * p_a * (1 - c2)),
                0.5 * (
                    p[0] * (1 - p_a - (1 - p_a) * c2)
                    + p[1] * (1 + c2)
                    + p[2] * p_a * (1 - c2)
                ),
                0.5 * (
                    p[1] * (1 - p_a - (1 - p_a) * c2)
                    + p[2] * (1 + c2)
                    + p[3] * p_a * (1 - c2)
                ),
                0.5 * (p[2] * (1 - p_a - (1 - p_a) * c2) + p[3] * (2 - p_a * (1 - c2))),
            ]
        )
        out = step_populations_recursive(p - p_star, p_a, j_tau) + p_star
        assert np.max(np.abs(out - oracle)) <= 1e-14

    def test_sum_preserved(self):
        rng = np.random.default_rng(5)
        dp = rng.normal(size=6)
        dp -= dp.mean()
        out = step_populations_recursive(dp, 0.9, 1.3)
        assert abs(out.sum()) <= 1e-13


class TestCoherenceRecursion:
    def test_zero_in_zero_out(self):
        out = step_coherences_d3(0j, 0j, 0j, 0.8, 0.7, 0.9)
        assert out == (0j, 0j, 0j)

    def test_matches_brute_force_offdiagonals(self):
        rng = np.random.default_rng(6)
        beta, j, tau, omega = 0.8, 0.6, 1.1, 1.0
        model = flip_flop_model(3, omega=omega, beta=beta, j=j)
        cfg = CollisionConfig(tau=tau, n_max=10, epsilon=1e-4)
        rho = random_density_matrix(3, rng)
        out = collide_once(rho, model, cfg)
        c12, c13, c23 = step_coherences_d3(
            rho[0, 1], rho[0, 2], rho[1, 2],
            model.ancilla.ground_population, j * tau, omega * tau,
        )
        assert abs(out[0, 1] - c12) <= 1e-13
        assert abs(out[0, 2] - c13) <= 1e-13
        assert abs(out[1, 2] - c23) <= 1e-13

    def test_zero_temperature_matches_closed_form(self):
        c0 = (0.12 - 0.05j, -0.03 + 0.08j, 0.2 + 0.1j)
        j_tau, omega_tau = 0.9, 1.3
        traj = evolve_coherences_d3(c0, 1.0, j_tau, omega_tau, 12)
        for n in (1, 5, 12):
            closed = zero_temp_coherences_d3_closed(c0, n, j_tau, omega_tau)
            assert np.max(np.abs(traj[n] - np.array(closed))) <= 1e-13


class TestZeroTemperatureClosedForms:
    def test_zero_steps_identity(self):
        p0 = np.array([0.2, 0.5, 0.3])
        assert np.allclose(zero_temp_populations_closed(p0, 0, 0.7), p0, atol=1e-15)
        c0 = (0.1 + 0.2j, -0.3j, 0.05)
        assert zero_temp_coherences_d3_closed(c0, 0, 0.7, 1.3) == c0

    def test_d3_ground_state_expression(self):
        p0 = np.array([0.1, 0.45, 0.45])
        j_tau, n = 0.6, 9
        lp = math.cos(j_tau) ** 2
        lm = math.sin(j_tau) ** 2
        expected_p1 = 1 - lp**n * (p0[1] + p0[2] * (1 + n * lm / lp))
        out = zero_temp_populations_closed(p0, n, j_tau)
        assert out[0] == pytest.approx(expected_p1, abs=1e-13)
        assert out[2] == pytest.approx(lp**n * p0[2], abs=1e-15)

    def test_d10_matches_iterated_recursion(self):
        rng = np.random.default_rng(7)
        p0 = rng.dirichlet(np.ones(10))
        j_tau = 1.1
        traj = evolve_populations(p0, 1.0, j_tau, 7)
        closed = zero_temp_populations_closed(p0, 7, j_tau)
        assert np.max(np.abs(closed - traj[7])) <= 1e-12

    @pytest.mark.parametrize("n", [-1, 1.5, math.nan])
    def test_a_collision_count_that_is_not_a_count_raises(self, n):
        # n = -1 used to give the ground state [1, 0, 0] or a trajectory of
        # no or one state, 1.5 and NaN a TypeError
        c0 = (0.1, 0.2j, 0.05)
        for run in (
            lambda: zero_temp_populations_closed(np.array([0.2, 0.5, 0.3]), n, 0.5),
            lambda: zero_temp_coherences_d3_closed(c0, n, 0.5, 1.0),
            lambda: evolve_populations(np.full(3, 1 / 3), 0.8, 0.5, n),
            lambda: evolve_coherences_d3(c0, 0.8, 0.5, 1.0, n),
            lambda: evolve(np.eye(3) / 3, flip_flop_model(3, 1.0, 2.0, 1.0), CollisionConfig(1.0, 10, 1e-3), n),
        ):
            with pytest.raises(ValueError, match="n must be an integer >= 0"):
                run()

    def test_few_steps_large_dimension_stays_finite(self):
        # binomial terms with j > n must drop out even where lambda_+ is tiny
        p0 = np.full(12, 1 / 12)
        j_tau = math.pi / 2 - 1e-8
        for n in (0, 1, 3):
            out = zero_temp_populations_closed(p0, n, j_tau)
            assert np.all(np.isfinite(out))
            ref = evolve_populations(p0, 1.0, j_tau, max(n, 1))[n]
            assert np.max(np.abs(out - ref)) <= 1e-12

    def test_coherences_zero_input(self):
        out = zero_temp_coherences_d3_closed((0j, 0j, 0j), 5, 0.7, 0.9)
        assert out == (0j, 0j, 0j)

    def test_c13_explicit_decay(self):
        c0 = (0j, 0.3 - 0.2j, 0j)
        n, j_tau, omega_tau = 6, 0.8, 1.1
        _, c13, _ = zero_temp_coherences_d3_closed(c0, n, j_tau, omega_tau)
        expected = np.exp(2j * omega_tau * n) * math.cos(j_tau) ** n * c0[1]
        assert abs(c13 - expected) <= 1e-14

    def test_nine_steps_match_iteration(self):
        c0 = (0.05 + 0.02j, -0.1 - 0.04j, 0.15 + 0.09j)
        j_tau, omega_tau = 1.3, 0.4
        traj = evolve_coherences_d3(c0, 1.0, j_tau, omega_tau, 9)
        closed = zero_temp_coherences_d3_closed(c0, 9, j_tau, omega_tau)
        assert np.max(np.abs(traj[9] - np.array(closed))) <= 1e-13

    def test_degenerate_modes_limit(self):
        # lambda_+ == mu happens at J tau -> pi/2 (both vanish) and -> 0 (both 1)
        c0 = (0.1 + 0.05j, 0.02j, 0.3 - 0.07j)
        for j_tau in (math.pi / 2, 1e-8):
            traj = evolve_coherences_d3(c0, 1.0, j_tau, 0.7, 8)
            closed = zero_temp_coherences_d3_closed(c0, 8, j_tau, 0.7)
            assert np.max(np.abs(traj[8] - np.array(closed))) <= 1e-12


class TestSlOde:
    def test_matches_zero_temperature_closed_form(self):
        gamma = 1.4
        p0 = np.array([0.25, 0.35, 0.4])
        t_end = 3.0 / gamma
        traj = sl_ode_populations(p0, 1.0, gamma, t_end)
        t = traj.times
        expected = np.column_stack(
            [
                1 - np.exp(-gamma * t) * (p0[1] + p0[2] * (1 + gamma * t)),
                np.exp(-gamma * t) * (p0[1] + gamma * t * p0[2]),
                np.exp(-gamma * t) * p0[2],
            ]
        )
        assert np.max(np.abs(traj.values - expected)) <= 1e-8

    def test_zero_rate_constant_trajectory(self):
        p0 = np.array([0.5, 0.3, 0.2])
        traj = sl_ode_populations(p0, 0.9, 0.0, 5.0)
        assert np.max(np.abs(traj.values - p0)) == 0.0

    def test_step_guard(self):
        with pytest.raises(StepTooLarge):
            sl_ode_populations(np.array([1.0, 0.0, 0.0]), 0.9, 2.0, 1.0, dt=0.2)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: sl_ode_populations(np.full(3, 1 / 3), 0.8, -1.0, 5.0),
            lambda: sl_ode_populations(np.full(3, 1 / 3), 0.8, math.nan, 5.0),
            lambda: sl_ode_populations(np.full(3, 1 / 3), 0.8, 1.0, -5.0),
            lambda: sl_ode_populations(np.full(3, 1 / 3), 0.8, 1.0, math.inf),
            lambda: sl_ode_populations(np.full(3, 1 / 3), 0.8, 1.0, math.nan),
            lambda: sl_ode_coherences_d3((0.1, 0.1j, 0.0), 0.8, math.nan, 5.0),
            lambda: sl_ode_coherences_d3((0.1, 0.1j, 0.0), 0.8, -1.0, 5.0),
            lambda: sl_ode_nonconserving_d3(np.full(3, 1 / 3), 0.0j, 0.8, 1.0, 0.25, math.nan, 5.0),
            lambda: sl_ode_nonconserving_d3(np.full(3, 1 / 3), 0.0j, 0.8, -1.0, 0.25, 0.5, 5.0),
            lambda: sl_ode_nonconserving_d3(np.full(3, 1 / 3), 0.0j, 0.8, 1.0, -0.25, 0.5, 5.0),
            lambda: sl_ode_nonconserving_d3(np.full(3, 1 / 3), 0.0j, 0.8, math.nan, 0.25, 0.5, 5.0),
            lambda: sl_ode_nonconserving_d3(np.full(3, 1 / 3), 0.0j, 0.8, 1.0, 0.25, 0.5, -5.0),
        ],
        ids=["negative-gamma", "nan-gamma", "negative-t-end", "inf-t-end", "nan-t-end",
             "coherences-nan-gamma", "coherences-negative-gamma", "nan-gamma12",
             "negative-gamma1", "negative-gamma2", "nan-gamma1", "nonconserving-negative-t-end"],
    )
    def test_rejects_a_bad_rate_or_end_time(self, run):
        # each used to integrate: a negative rate or end time to populations
        # outside [0, 1], a NaN rate to NaN rows
        with pytest.raises(ValueError, match="rates must be >= 0|t_end must be finite"):
            run()

    @pytest.mark.parametrize(
        "run",
        [
            lambda gamma: sl_ode_populations(np.full(3, 1 / 3), 0.8, gamma, 0.0),
            lambda gamma: sl_ode_coherences_d3((0.1j, 0.2, 0.05 - 0.1j), 0.8, gamma, 0.0),
            lambda gamma: sl_ode_nonconserving_d3(np.full(3, 1 / 3), 0.1j, 0.8, gamma, gamma, gamma, 0.0),
        ],
        ids=["populations", "coherences", "nonconserving"],
    )
    def test_t_end_zero_at_zero_rates_is_the_start(self, run):
        # every rate 0 and t_end = 0 is one step of length 0, as at a positive
        # rate, and no complaint about a default step t_end / 100 = 0
        frozen, moving = run(0.0), run(1.0)
        assert np.array_equal(frozen.times, [0.0, 0.0])
        assert np.array_equal(frozen.times, moving.times)
        assert np.array_equal(frozen.values, moving.values)
        assert np.array_equal(frozen.values[0], frozen.values[1])

    def test_a_negative_gamma12_is_valid(self):
        # Gamma12 is a signed cross rate; its magnitude bounds the step
        p0 = np.full(3, 1 / 3)
        plus = sl_ode_nonconserving_d3(p0, 0.0j, 0.8, 1.0, 0.25, 0.5, 5.0)
        minus = sl_ode_nonconserving_d3(p0, 0.0j, 0.8, 1.0, 0.25, -0.5, 5.0)
        assert np.array_equal(plus.times, minus.times)
        assert np.max(np.abs(minus.values[:, :3].sum(axis=1) - 1.0)) <= 1e-12

    def test_population_sum_conserved(self):
        traj = sl_ode_populations(np.full(5, 0.2), 0.8, 1.0, 20.0)
        drift = np.max(np.abs(traj.values.sum(axis=1) - 1.0))
        assert drift <= 1e-10

    def test_coherences_zero_temperature_closed_form(self):
        gamma = 1.0
        c0 = (0.1 + 0.0j, 0.2 - 0.1j, 0.25 + 0.05j)
        traj = sl_ode_coherences_d3(c0, 1.0, gamma, 4.0)
        t = traj.times
        e_half = np.exp(-gamma * t / 2)
        e_full = np.exp(-gamma * t)
        expected = np.column_stack(
            [
                e_half * c0[0] + 2 * (e_half - e_full) * c0[2],
                e_half * c0[1],
                e_full * c0[2],
            ]
        )
        assert np.max(np.abs(traj.values - expected)) <= 1e-8

    def test_coherence_ode_tracks_discrete_map(self):
        # J = 10, tau = 0.01, Gamma = 1: the discrete psi map should follow
        # the ODE to O(J tau); the printed-sign variant fails this by ~0.06.
        j, tau, p_a = 10.0, 0.01, 0.7
        c0 = (0.1 + 0.05j, 0.0j, 0.2 - 0.1j)
        n = 300
        discrete = evolve_coherences_d3(c0, p_a, j * tau, 0.0, n)
        ode = sl_ode_coherences_d3(c0, p_a, j * j * tau, n * tau, dt=tau)
        assert np.max(np.abs(discrete[n] - ode.values[-1])) <= 5e-4

    def test_nonconserving_reduces_to_conserving(self):
        p_a = 0.8
        p0 = np.array([0.5, 0.3, 0.2])
        full = sl_ode_nonconserving_d3(p0, 0.1 + 0.2j, p_a, 1.0, 0.0, 0.0, 5.0)
        plain = sl_ode_populations(p0, p_a, 1.0, 5.0)
        assert np.max(np.abs(full.values[:, :3] - plain.values)) <= 1e-12
        # c13 decays at Gamma/2, matching the conserving coherence equation
        expected = (0.1 + 0.2j) * np.exp(-0.5 * full.times)
        got = full.values[:, 3] + 1j * full.values[:, 4]
        assert np.max(np.abs(got - expected)) <= 1e-8

    def test_nonconserving_steady_state(self):
        p_a = 1 / (1 + math.exp(-1.0))
        p0 = gibbs_populations(3, 1.0, 1.0)
        traj = sl_ode_nonconserving_d3(p0, 0.0j, p_a, 1.0, 0.25, 0.5, 200.0)
        y = traj.values[-1]
        assert abs(y[:3].sum() - 1.0) <= 1e-10
        target = c13_steady_state(1.0, 0.25, 0.5, y[:3])
        assert abs(y[3] - target) <= 1e-9
        assert abs(y[4]) <= 1e-12


class TestCounterRotating:
    def test_long_weak_collisions_still_thermalize(self):
        # energy conservation broken, yet the J*tau ~ 1 protocol reaches Gibbs
        model = ModelSpec(
            system=SystemSpec(d=3, omega=1.0),
            ancilla=AncillaSpec(omega=1.0, beta=1.0),
            interaction=CounterRotating(j=1e-3, j_prime=5e-4),
        )
        cfg = CollisionConfig(tau=1e3, n_max=500, epsilon=1e-4)
        rec = evolve(np.eye(3, dtype=complex) / 3, model, cfg, 400)
        assert rec.distances[-1] < 1e-4

    def test_sl_regime_reaches_nonequilibrium_state(self):
        # short strong collisions: no Gibbs, nearest-neighbor coherences die,
        # the long-range c13 survives
        model = ModelSpec(
            system=SystemSpec(d=3, omega=1.0),
            ancilla=AncillaSpec(omega=1.0, beta=1.0),
            interaction=CounterRotating(j=10.0, j_prime=5.0),
        )
        cfg = CollisionConfig(tau=0.01, n_max=10000, epsilon=1e-6)
        rec = evolve(np.eye(3, dtype=complex) / 3, model, cfg, 6000)
        rho = rec.states[-1]
        assert rec.distances[-1] > 0.05
        assert abs(rec.distances[-1] - rec.distances[-500]) < 1e-3
        assert abs(rho[0, 1]) < 1e-6 and abs(rho[1, 2]) < 1e-6
        assert abs(rho[0, 2]) > 1e-3

    def test_sl_ode_matches_brute_force_at_small_splitting(self):
        # the coupled (populations, c13) ODE assumes omega << J; at
        # omega = 1e-3 the full unitary path lands on its fixed point
        omega = 1e-3
        model = ModelSpec(
            system=SystemSpec(d=3, omega=omega),
            ancilla=AncillaSpec(omega=omega, beta=1.0 / omega),  # beta*omega = 1
            interaction=CounterRotating(j=10.0, j_prime=5.0),
        )
        cfg = CollisionConfig(tau=0.01, n_max=10000, epsilon=1e-6)
        rec = evolve(np.eye(3, dtype=complex) / 3, model, cfg, 6000)
        rho = rec.states[-1]
        p_a = 1 / (1 + math.exp(-1.0))
        ode = sl_ode_nonconserving_d3(np.full(3, 1 / 3), 0.0j, p_a, 1.0, 0.25, 0.5, 60.0)
        y = ode.values[-1]
        assert np.max(np.abs(np.diag(rho).real - y[:3])) < 2e-3
        assert abs(rho[0, 2] - (y[3] + 1j * y[4])) < 2e-3


class TestInvariants:
    def test_population_coherence_decoupling(self):
        rng = np.random.default_rng(8)
        model = flip_flop_model(3, omega=1.0, beta=1.2, j=0.8)
        cfg = CollisionConfig(tau=0.9, n_max=50, epsilon=1e-4)
        p = rng.dirichlet(np.ones(3))
        rho_plain = np.diag(p).astype(complex)
        rho_pert = density_matrix_d3(p, 0.05 + 0.02j, -0.03j, 0.04 - 0.01j)
        a, b = rho_plain, rho_pert
        for _ in range(20):
            a = collide_once(a, model, cfg)
            b = collide_once(b, model, cfg)
            assert np.max(np.abs(np.diag(a).real - np.diag(b).real)) <= 1e-12

    def test_transient_c12_growth_from_zero(self):
        # c12(0) = 0 with c23(0) != 0 feeds |c12| above its initial value
        traj = evolve_coherences_d3((0j, 0j, 0.3 + 0.0j), 1.0, 1.0, 0.9, 40)
        assert np.max(np.abs(traj[:, 0])) > abs(traj[0, 0])
        assert np.max(np.abs(traj[:, 0])) > 1e-3

    def test_sl_limit_consistency(self):
        # J = 10, tau = 1e-2, Gamma = J^2 tau = 1 over t in [0, 5]
        model = flip_flop_model(3, omega=1.0, beta=2.0, j=10.0)
        p_a = model.ancilla.ground_population
        p0 = np.full(3, 1 / 3)
        discrete = evolve_populations(p0, p_a, 0.1, 500)
        ode = sl_ode_populations(p0, p_a, 1.0, 5.0, dt=1e-2)
        assert np.max(np.abs(discrete - ode.values)) <= 5e-2


# every one-collision rate reads J*tau through the check flip_flop_rates uses
J_TAU_FUNCTIONS = {
    "eta_coefficients": lambda j_tau: eta_coefficients(0.8, j_tau),
    "psi_coefficients": lambda j_tau: psi_coefficients(0.8, j_tau),
    "population_step_matrix": lambda j_tau: population_step_matrix(3, 0.8, j_tau),
    "evolve_populations": lambda j_tau: evolve_populations(np.full(3, 1 / 3), 0.8, j_tau, 2),
    "step_coherences_d3": lambda j_tau: step_coherences_d3(0.1j, 0.0j, 0.05, 0.8, j_tau, 1.0),
}


@pytest.mark.parametrize("name", J_TAU_FUNCTIONS)
@pytest.mark.parametrize("j_tau", [math.nan, math.inf, -math.inf])
def test_the_rates_reject_a_j_tau_that_is_not_finite(name, j_tau):
    # NaN used to give an all-NaN population row, inf a bare math domain error
    with pytest.raises(ValueError, match=r"J\*tau must be finite"):
        J_TAU_FUNCTIONS[name](j_tau)
