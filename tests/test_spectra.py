"""Unit tests for closed-form spectra and slow-mode analytics."""

import math

import numpy as np
import pytest

from ri_thermalizer.collisions import evolve_populations, population_step_matrix, sl_ode_populations
from ri_thermalizer.errors import (
    AmplitudeTooSmall,
    DegenerateTemperature,
    FrozenDynamics,
    SumNotZero,
)
from ri_thermalizer.linalg import hermitian_eigen
from ri_thermalizer.models import gibbs_populations
from ri_thermalizer.spectra import (
    c13_steady_state,
    lambda_closed,
    left_slow_eigenvector_d3,
    liouvillian_matrix,
    nstar_estimate_discrete,
    right_eigenvectors_d3,
    slow_mode_projection,
    slow_mode_validity,
    stationary_populations_d3,
    stochastic_matrix,
    theta,
    tsim_estimate_sl,
    xi_closed,
)


def eta(p_a, j_tau):
    lam = math.cos(2 * j_tau)
    return {
        "11": 0.5 * ((1 + p_a) + (1 - p_a) * lam),
        "12": 0.5 * p_a * (1 - lam),
        "21": 0.5 * (1 - p_a) * (1 - lam),
        "22": 0.5 * (1 + lam),
        "33": 1 - 0.5 * p_a * (1 - lam),
    }


class TestStochasticMatrix:
    def test_three_level_verbatim(self):
        p_a, j_tau = 0.7, 0.9
        e = eta(p_a, j_tau)
        expected = np.array(
            [
                [e["11"], e["12"], 0.0],
                [e["21"], e["22"], e["12"]],
                [0.0, e["21"], e["33"]],
            ]
        )
        assert np.allclose(stochastic_matrix(3, p_a, j_tau), expected, atol=0)

    def test_zero_interaction_identity(self):
        assert np.array_equal(stochastic_matrix(5, 0.8, 0.0), np.eye(5))

    def test_columns_sum_to_one(self):
        m = stochastic_matrix(7, 0.64, 1.21)
        assert np.max(np.abs(m.sum(axis=0) - 1.0)) <= 1e-14

    def test_gibbs_is_fixed_point(self):
        beta = 1.3
        p_a = 1 / (1 + math.exp(-beta))
        p = gibbs_populations(6, 1.0, beta)
        m = stochastic_matrix(6, p_a, 0.8)
        assert np.max(np.abs(m @ p - p)) <= 1e-14


class TestLiouvillianMatrix:
    def test_three_level_matrix(self):
        p_a, gamma = 0.73, 1.7
        expected = gamma * np.array(
            [
                [-(1 - p_a), p_a, 0.0],
                [1 - p_a, -1.0, p_a],
                [0.0, 1 - p_a, -p_a],
            ]
        )
        assert np.allclose(liouvillian_matrix(3, p_a, gamma), expected, atol=1e-15)

    def test_zero_temperature_cascade(self):
        gamma = 2.0
        expected = gamma * np.array(
            [[0.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]]
        )
        assert np.allclose(liouvillian_matrix(3, 1.0, gamma), expected, atol=0)

    def test_five_level_structure(self):
        p_a, gamma = 0.81, 0.9
        m = liouvillian_matrix(5, p_a, gamma)
        assert np.max(np.abs(m.sum(axis=0))) <= 1e-14
        for k in range(4):
            assert m[k, k + 1] == pytest.approx(gamma * p_a, abs=1e-15)
            assert m[k + 1, k] == pytest.approx(gamma * (1 - p_a), abs=1e-15)
        assert m[0, 0] == pytest.approx(-gamma * (1 - p_a), abs=1e-15)
        assert m[4, 4] == pytest.approx(-gamma * p_a, abs=1e-15)

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError, match="Gamma must be positive"):
            liouvillian_matrix(3, 0.8, 0.0)


class TestClosedSpectra:
    def test_three_level_xi(self):
        p_a, j_tau = 0.77, 0.66
        lp = math.cos(j_tau) ** 2
        lm = math.sin(j_tau) ** 2
        th = theta(p_a)
        xi = xi_closed(3, p_a, j_tau)
        assert xi[0] == 1.0
        assert xi[1] == pytest.approx(lp + th * lm, abs=1e-15)
        assert xi[2] == pytest.approx(lp - th * lm, abs=1e-15)

    def test_four_and_five_level_xi2(self):
        p_a, j_tau = 0.7, 1.0
        lp = math.cos(j_tau) ** 2
        lm = math.sin(j_tau) ** 2
        th = theta(p_a)
        assert xi_closed(4, p_a, j_tau)[1] == pytest.approx(lp + math.sqrt(2) * th * lm, abs=1e-14)
        golden = (1 + math.sqrt(5)) / 2
        assert xi_closed(5, p_a, j_tau)[1] == pytest.approx(lp + golden * th * lm, abs=1e-14)

    def test_three_level_lambda(self):
        p_a, gamma = 0.85, 1.4
        th = theta(p_a)
        lam = lambda_closed(3, p_a, gamma)
        assert lam[0] == 0.0
        assert lam[1] == pytest.approx(-gamma * (1 - th), abs=1e-15)
        assert lam[2] == pytest.approx(-gamma * (1 + th), abs=1e-15)

    def test_zero_temperature_degeneracy(self):
        lam = lambda_closed(6, 1.0, 0.8)
        assert np.allclose(lam[1:], -0.8, atol=0)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_match_numerical_spectra(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(20):
            p_a = rng.uniform(0.52, 0.98)
            j_tau = rng.uniform(0.05, 1.5)
            gamma = rng.uniform(0.2, 3.0)
            xi_num = np.sort(np.linalg.eigvals(stochastic_matrix(d, p_a, j_tau)).real)
            assert np.max(np.abs(xi_num - np.sort(xi_closed(d, p_a, j_tau)))) <= 1e-10
            lam_num = np.sort(np.linalg.eigvals(liouvillian_matrix(d, p_a, gamma)).real)
            assert np.max(np.abs(lam_num - np.sort(lambda_closed(d, p_a, gamma)))) <= 1e-10

    def test_symmetrized_similarity_matches_closed_roots(self):
        # the population map is similar to a symmetric tridiagonal matrix,
        # whose Hermitian eigenvalues must equal the closed-form spectrum
        p_a, j_tau = 0.72, 0.95
        e = eta(p_a, j_tau)
        off = math.sqrt(e["12"] * e["21"])
        sym = np.array(
            [
                [e["11"], off, 0.0],
                [off, e["22"], off],
                [0.0, off, e["33"]],
            ],
            dtype=complex,
        )
        dec = hermitian_eigen(sym)
        assert np.max(np.abs(dec.eigenvalues - np.sort(xi_closed(3, p_a, j_tau)))) <= 1e-12

    def test_dimension_trends(self):
        p_a, j_tau, gamma = 0.8, 1.0, 1.0
        xi2 = [xi_closed(d, p_a, j_tau)[1] for d in range(3, 11)]
        assert all(a < b for a, b in zip(xi2, xi2[1:]))
        lam2 = [abs(lambda_closed(d, p_a, gamma)[1]) for d in range(3, 11)]
        assert all(a > b for a, b in zip(lam2, lam2[1:]))

    def test_temperature_trend(self):
        gamma = 1.0
        grid = np.linspace(0.55, 0.99, 12)
        for d in (3, 5, 8):
            mags = [abs(lambda_closed(d, p_a, gamma)[1]) for p_a in grid]
            assert all(a < b for a, b in zip(mags, mags[1:]))
        qubit = [abs(lambda_closed(2, p_a, gamma)[1]) for p_a in grid]
        assert np.max(np.abs(np.array(qubit) - gamma)) <= 1e-15


class TestSlowMode:
    def test_zero_deviation(self):
        s = slow_mode_projection(np.zeros(3), 0.8)
        assert s.alpha2 == 0.0 and s.amplitude == 0.0

    def test_biorthogonality(self):
        p_a = 0.74
        v1, v2, v3 = right_eigenvectors_d3(p_a)
        u2 = left_slow_eigenvector_d3(p_a)
        assert abs(u2 @ v1) <= 1e-12
        assert u2 @ v2 == pytest.approx(1.0, abs=1e-12)
        assert abs(u2 @ v3) <= 1e-12

    def test_eigenvector_reconstruction(self):
        beta = 1.0
        p_a = 1 / (1 + math.exp(-beta))
        p_star = stationary_populations_d3(p_a)
        dp0 = np.full(3, 1 / 3) - p_star
        v1, v2, v3 = right_eigenvectors_d3(p_a)
        s = slow_mode_projection(dp0, p_a)
        coeffs = np.linalg.solve(np.column_stack([v1, v2, v3]), dp0)
        assert abs(coeffs[0]) <= 1e-12
        assert s.alpha2 == pytest.approx(coeffs[1], abs=1e-12)
        assert s.alpha3 == pytest.approx(coeffs[2], abs=1e-12)
        rebuilt = coeffs[1] * v2 + coeffs[2] * v3
        assert np.max(np.abs(rebuilt - dp0)) <= 1e-12

    def test_right_vectors_are_eigenvectors_of_both_maps(self):
        p_a, j_tau, gamma = 0.7, 0.8, 1.3
        _, v2, v3 = right_eigenvectors_d3(p_a)
        lam = stochastic_matrix(3, p_a, j_tau)
        xi = xi_closed(3, p_a, j_tau)
        assert np.max(np.abs(lam @ v2 - xi[1] * v2)) <= 1e-12
        assert np.max(np.abs(lam @ v3 - xi[2] * v3)) <= 1e-12
        lio = liouvillian_matrix(3, p_a, gamma)
        ev = lambda_closed(3, p_a, gamma)
        assert np.max(np.abs(lio @ v2 - ev[1] * v2)) <= 1e-12
        assert np.max(np.abs(lio @ v3 - ev[2] * v3)) <= 1e-12

    def test_amplitude_formulas_agree(self):
        # SL form |a2| (p2* + 2 theta/(1-pA)) equals the discrete form
        # |a2| (p2* + |-1 + pA/theta| + |-1 - pA/theta|) identically
        p_a = 0.88
        dp0 = np.array([-0.3, 0.1, 0.2])
        s = slow_mode_projection(dp0, p_a)
        th = theta(p_a)
        p2_star = stationary_populations_d3(p_a)[1]
        k_form = abs(s.alpha2) * (p2_star + abs(-1 + p_a / th) + abs(-1 - p_a / th))
        assert s.amplitude == pytest.approx(k_form, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(SumNotZero):
            slow_mode_projection(np.array([0.1, 0.0, 0.0]), 0.8)
        with pytest.raises(DegenerateTemperature):
            slow_mode_projection(np.zeros(3), 1.0)
        with pytest.raises(DegenerateTemperature):
            slow_mode_projection(np.zeros(3), 0.5)
        with pytest.raises(ValueError, match="d = 3 only"):
            slow_mode_projection(np.zeros(4), 0.8)
        with pytest.raises(ValueError, match=r"p_A must lie in \(1/2, 1\)"):
            right_eigenvectors_d3(0.3)


class TestEstimates:
    def test_tsim_epsilon_halving_shift(self):
        p_a, gamma, eps = 0.8, 1.3, 1e-4
        p_star = stationary_populations_d3(p_a)
        dp0 = np.full(3, 1 / 3) - p_star
        t1 = tsim_estimate_sl(dp0, p_a, gamma, eps)
        t2 = tsim_estimate_sl(dp0, p_a, gamma, eps / 2)
        assert t2 - t1 == pytest.approx(math.log(2) / (gamma * (1 - theta(p_a))), rel=1e-10)

    def test_tsim_amplitude_guard(self):
        dp0 = 1e-9 * np.array([1.0, -2.0, 1.0])
        with pytest.raises(AmplitudeTooSmall):
            tsim_estimate_sl(dp0, 0.8, 1.0, 1e-4)

    def test_nstar_epsilon_doubling_shift(self):
        p_a, j_tau, eps = 0.77, math.pi / 8, 1e-4
        p_star = stationary_populations_d3(p_a)
        dp0 = np.full(3, 1 / 3) - p_star
        n1 = nstar_estimate_discrete(dp0, p_a, j_tau, eps)
        n2 = nstar_estimate_discrete(dp0, p_a, j_tau, 2 * eps)
        xi2 = xi_closed(3, p_a, j_tau)[1]
        assert n1 - n2 == pytest.approx(math.log(2) / abs(math.log(xi2)), rel=1e-10)

    def test_nstar_small_at_low_temperature_optimal_point(self):
        # beta -> inf at J tau = pi/2: xi2 -> 0, estimate consistent with n* = 2
        p_a = 1 / (1 + math.exp(-30.0))
        p_star = stationary_populations_d3(p_a)
        dp0 = np.full(3, 1 / 3) - p_star
        n = nstar_estimate_discrete(dp0, p_a, math.pi / 2, 1e-4)
        assert 0 < n < 3

    def test_nstar_frozen_guard(self):
        p_a = 0.8
        p_star = stationary_populations_d3(p_a)
        dp0 = np.full(3, 1 / 3) - p_star
        with pytest.raises(FrozenDynamics):
            nstar_estimate_discrete(dp0, p_a, math.pi, 1e-4)


def discrete_rates(p_a, j_tau):
    xi = xi_closed(3, p_a, j_tau)
    return -math.log(xi[1]), -math.log(abs(xi[2]))


class TestSlowModeValidity:
    def test_pure_slow_mode_collapses_bracket(self):
        p_a, j_tau, eps = 0.8, 0.5, 1e-4
        _, v2, _ = right_eigenvectors_d3(p_a)
        dp0 = 0.05 * v2
        s = slow_mode_projection(dp0, p_a)
        assert s.alpha3 == 0.0
        rate2, rate3 = discrete_rates(p_a, j_tau)
        v = slow_mode_validity(dp0, p_a, eps, rate2, rate3)
        assert v.residual == 0.0
        single = math.log(0.5 * abs(s.alpha2) * np.abs(v2).sum() / eps) / rate2
        assert v.lo == pytest.approx(single, rel=1e-13)
        assert v.hi == pytest.approx(single, rel=1e-13)
        assert v.lo <= v.hi

    @pytest.mark.parametrize("beta", [0.7, 2.0, 5.0, 8.0])
    @pytest.mark.parametrize("j_tau", [0.2, math.pi / 8, 1.0, 1.45, math.pi / 2 - 1e-3])
    def test_bracket_contains_simulated_crossing(self, beta, j_tau):
        p_a = 1 / (1 + math.exp(-beta))
        p_star = stationary_populations_d3(p_a)
        for p0 in (np.full(3, 1 / 3), np.array([0.0, 0.0, 1.0]), np.array([0.1, 0.6, 0.3])):
            for eps in (1e-3, 1e-5):
                v = slow_mode_validity(p0 - p_star, p_a, eps, *discrete_rates(p_a, j_tau))
                traj = evolve_populations(p0, p_a, j_tau, math.ceil(v.hi) + 1)
                dist = 0.5 * np.abs(traj - p_star).sum(axis=1)
                n_star = int(np.argmax(dist <= eps))
                assert dist[n_star] <= eps
                assert math.ceil(v.lo) <= n_star <= math.ceil(v.hi)

    def test_grid_reaches_negative_xi3(self):
        # the two largest J*tau of the grid above flip the sign of mode 3
        for beta in (0.7, 8.0):
            p_a = 1 / (1 + math.exp(-beta))
            assert xi_closed(3, p_a, 1.45)[2] < 0
            assert xi_closed(3, p_a, math.pi / 2 - 1e-3)[2] < 0

    def test_residual_grows_toward_degenerate_modes(self):
        residuals = []
        for beta in np.linspace(2.0, 8.0, 5):
            p_a = 1 / (1 + math.exp(-beta))
            dp0 = np.full(3, 1 / 3) - stationary_populations_d3(p_a)
            v = slow_mode_validity(dp0, p_a, 1e-4, *discrete_rates(p_a, math.pi / 8))
            residuals.append(v.residual)
        assert all(a < b for a, b in zip(residuals, residuals[1:]))
        assert residuals[0] < 1e-3 and residuals[-1] > 0.5

    def test_sl_bracket_contains_ode_crossing(self):
        gamma, eps = 1.0, 1e-4
        for beta in (2.0, 8.0):
            p_a = 1 / (1 + math.exp(-beta))
            p_star = stationary_populations_d3(p_a)
            lam = lambda_closed(3, p_a, gamma)
            v = slow_mode_validity(np.full(3, 1 / 3) - p_star, p_a, eps, -lam[1], -lam[2])
            traj = sl_ode_populations(np.full(3, 1 / 3), p_a, gamma, v.hi + 0.5)
            dist = 0.5 * np.abs(traj.values - p_star).sum(axis=1)
            t_cross = traj.times[int(np.argmax(dist <= eps))]
            step = traj.times[1] - traj.times[0]
            assert v.lo - step <= t_cross <= v.hi + step

    def test_discrete_estimate_unchanged_at_beta_8(self):
        beta = 8.0
        p_a = 1 / (1 + math.exp(-beta))
        dp0 = np.full(3, 1 / 3) - gibbs_populations(3, 1.0, beta)
        assert nstar_estimate_discrete(dp0, p_a, math.pi / 8, 1e-4) == 73.79995421745686

    def test_rejects_bad_rates(self):
        dp0 = np.full(3, 1 / 3) - stationary_populations_d3(0.8)
        with pytest.raises(ValueError):
            slow_mode_validity(dp0, 0.8, 1e-4, 0.0, 1.0)
        with pytest.raises(ValueError):
            slow_mode_validity(dp0, 0.8, 1e-4, 0.5, 0.4)
        with pytest.raises(AmplitudeTooSmall):
            slow_mode_validity(1e-9 * np.array([1.0, -2.0, 1.0]), 0.8, 1e-4, 0.5, 1.5)


# the three slow-mode functions, each at an epsilon it is handed
SLOW_MODE_FUNCTIONS = {
    "tsim_estimate_sl": lambda dp0, eps: tsim_estimate_sl(dp0, 0.8, 1.0, eps),
    "nstar_estimate_discrete": lambda dp0, eps: nstar_estimate_discrete(dp0, 0.8, math.pi / 8, eps),
    "slow_mode_validity": lambda dp0, eps: slow_mode_validity(dp0, 0.8, eps, 0.1, 0.3),
}


@pytest.mark.parametrize("name", SLOW_MODE_FUNCTIONS)
@pytest.mark.parametrize("epsilon", [math.nan, 0.0, -1.0])
def test_slow_mode_functions_reject_epsilon_outside_unit_interval(name, epsilon):
    # each used to return NaN, or end in a ZeroDivisionError or a math domain error
    dp0 = np.full(3, 1 / 3) - stationary_populations_d3(0.8)
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
        SLOW_MODE_FUNCTIONS[name](dp0, epsilon)


class TestDipProperty:
    def test_alpha2_free_state_relaxes_at_lambda3(self):
        beta, gamma = 1.0, 1.0
        p_a = 1 / (1 + math.exp(-beta))
        p_star = stationary_populations_d3(p_a)
        _, _, v3 = right_eigenvectors_d3(p_a)
        p0 = p_star + 0.02 * v3
        assert np.all(p0 > 0)
        assert abs(slow_mode_projection(p0 - p_star, p_a).alpha2) <= 1e-12
        traj = sl_ode_populations(p0, p_a, gamma, 4.0)
        dist = 0.5 * np.abs(traj.values - p_star).sum(axis=1)
        mask = (traj.times >= 1.0) & (traj.times <= 3.0)
        slope = np.polyfit(traj.times[mask], np.log(dist[mask]), 1)[0]
        lam3 = lambda_closed(3, p_a, gamma)[2]
        assert abs(slope - lam3) <= 0.02 * abs(lam3)


class TestC13SteadyState:
    def test_zero_cross_rate(self):
        assert c13_steady_state(1.0, 0.5, 0.0, np.array([0.5, 0.3, 0.2])) == 0.0

    def test_balanced_populations(self):
        assert c13_steady_state(1.0, 0.5, 0.7, np.array([0.3, 0.35, 0.4])) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_requires_positive_total_rate(self):
        with pytest.raises(ValueError):
            c13_steady_state(0.0, 0.0, 0.5, np.array([0.5, 0.3, 0.2]))


# the functions of p_A that used to take any value: at p_A = 1.7 the step
# matrix has a negative entry and xi_closed returns a spectrum
P_A_FUNCTIONS = {
    "population_step_matrix": lambda p_a: population_step_matrix(3, p_a, 0.5),
    "xi_closed": lambda p_a: xi_closed(3, p_a, 0.5),
    "lambda_closed": lambda p_a: lambda_closed(3, p_a, 1.0),
    "liouvillian_matrix": lambda p_a: liouvillian_matrix(3, p_a, 1.0),
}


@pytest.mark.parametrize("name", P_A_FUNCTIONS)
@pytest.mark.parametrize("p_a", [1.7, 0.0, math.nan, math.inf])
def test_every_function_of_p_a_rejects_a_value_outside_zero_to_one(name, p_a):
    with pytest.raises(ValueError, match=r"p_A must lie in \(0, 1\]"):
        P_A_FUNCTIONS[name](p_a)
