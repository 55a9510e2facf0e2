"""Spectral analysis of the discrete population map and its SL generator.

Both matrices are tridiagonal with constant bands, so their full spectra
are closed-form: after the stationary eigenvalue, the remaining ones sit
on a cosine ladder scaled by theta = sqrt(p_A (1 - p_A)).  The three-level
slow-mode machinery (biorthogonal eigenvectors, projections alpha_2 and
alpha_3, the amplitude entering the simulation-time estimates, and the
bracket that says how far those estimates can be trusted) lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collisions import (
    _check_epsilon,
    _check_gamma,
    _check_p_a,
    _check_rates,
    check_deviation_sum,
    flip_flop_rates,
    population_step_matrix,
    sl_population_generator,
)
from .errors import AmplitudeTooSmall, DegenerateTemperature, FrozenDynamics
from .models import _check_d
from .simtime import bisect_crossing, bracket_crossing


def theta(p_a: float) -> float:
    """Temperature factor sqrt(p_A (1 - p_A)), in [0, 1/2]."""
    _check_p_a(p_a)
    return math.sqrt(p_a * (1.0 - p_a))


# the column-stochastic one-collision population map, under its spectral name
stochastic_matrix = population_step_matrix


def liouvillian_matrix(d: int, p_a: float, gamma: float) -> np.ndarray:
    """Tridiagonal SL population generator; columns sum to zero."""
    _check_gamma(gamma)
    return sl_population_generator(d, p_a, gamma)


def xi_closed(d: int, p_a: float, j_tau: float) -> np.ndarray:
    """Eigenvalues of the stochastic map: 1, then lambda_+ + 2 theta lambda_- cos(m pi / d)."""
    _check_d(d)
    lp, lm = flip_flop_rates(j_tau)
    th = theta(p_a)
    tail = lp + 2.0 * th * lm * np.cos(np.arange(1, d) * math.pi / d)
    return np.concatenate(([1.0], tail))


def lambda_closed(d: int, p_a: float, gamma: float) -> np.ndarray:
    """Eigenvalues of the SL generator: 0, then -Gamma (1 - 2 theta cos(m pi / d))."""
    _check_d(d)
    _check_gamma(gamma)
    th = theta(p_a)
    tail = -gamma * (1.0 - 2.0 * th * np.cos(np.arange(1, d) * math.pi / d))
    return np.concatenate(([0.0], tail))


# ---------------------------------------------------------------------------
# Three-level slow-mode machinery
# ---------------------------------------------------------------------------


def stationary_populations_d3(p_a: float) -> np.ndarray:
    """Thermal fixed point (p1*, p2*, p3*) expressed through p_A."""
    _check_p_a(p_a)
    z = 1.0 - p_a + p_a * p_a
    return np.array([p_a * p_a, p_a * (1.0 - p_a), (1.0 - p_a) ** 2]) / z


def _check_projection_domain(p_a: float) -> float:
    if p_a == 1.0 or p_a == 0.5:
        raise DegenerateTemperature(
            "slow-mode projection undefined at p_A exactly 1 or 1/2"
        )
    if not 0.5 < p_a < 1.0:
        raise ValueError("p_A must lie in (1/2, 1)")
    return theta(p_a)


def right_eigenvectors_d3(p_a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right eigenvectors (v1, v2, v3) shared by the stochastic map and the
    SL generator; v1 is the fixed point, v2/v3 are normalized to last entry 1."""
    th = _check_projection_domain(p_a)
    v1 = stationary_populations_d3(p_a)
    v2 = np.array([-th / (1.0 - p_a), (th - 1.0 + p_a) / (1.0 - p_a), 1.0])
    v3 = np.array([th / (1.0 - p_a), (-th - 1.0 + p_a) / (1.0 - p_a), 1.0])
    return v1, v2, v3


def left_slow_eigenvector_d3(p_a: float) -> np.ndarray:
    """Left eigenvector u2 dual to v2 (u2 . v_j = delta_2j)."""
    th = _check_projection_domain(p_a)
    return (
        np.array([-(1.0 - p_a) * th / p_a, -1.0 + p_a + th, p_a])
        / (2.0 * (1.0 - th))
    )


@dataclass(frozen=True)
class SlowModeSummary:
    """Projection of an initial deviation onto the slow relaxation mode.

    ``amplitude`` is the coefficient entering both simulation-time
    estimates; the SL-limit form |alpha2| (p2* + 2 theta/(1-p_A)) and the
    discrete-map form |alpha2| (p2* + 2 p_A/theta) are algebraically equal
    because theta^2 = p_A (1 - p_A).

    ``alpha3`` is the projection onto the subleading mode v3, which the
    single-mode estimates neglect; :func:`slow_mode_validity` uses it.

    The associated spectra come from :func:`lambda_closed` (SL) and
    :func:`xi_closed` (discrete).
    """

    theta: float
    alpha2: float
    amplitude: float
    alpha3: float


def slow_mode_projection(delta_p0: np.ndarray, p_a: float) -> SlowModeSummary:
    """Project a three-level initial deviation onto the slow mode."""
    delta_p0 = np.asarray(delta_p0, dtype=float)
    if delta_p0.shape != (3,):
        raise ValueError("slow-mode projection is derived for d = 3 only")
    check_deviation_sum(delta_p0)
    th = _check_projection_domain(p_a)
    alpha2 = float(left_slow_eigenvector_d3(p_a) @ delta_p0)
    p2_star = stationary_populations_d3(p_a)[1]
    amplitude = abs(alpha2) * (p2_star + 2.0 * th / (1.0 - p_a))
    # alpha1 = 0 and v2, v3 both end in 1, so the last entry fixes alpha3
    alpha3 = float(delta_p0[2]) - alpha2
    return SlowModeSummary(theta=th, alpha2=alpha2, amplitude=amplitude, alpha3=alpha3)


def _projection_above(
    delta_p0: np.ndarray, p_a: float, epsilon: float, name: str
) -> SlowModeSummary:
    _check_epsilon(epsilon)
    summary = slow_mode_projection(delta_p0, p_a)
    if summary.amplitude <= 2.0 * epsilon:
        raise AmplitudeTooSmall(
            f"{name} = {summary.amplitude:.3e} must exceed 2*epsilon = {2 * epsilon:.3e}"
        )
    return summary


def tsim_estimate_sl(
    delta_p0: np.ndarray, p_a: float, gamma: float, epsilon: float
) -> float:
    """Slow-mode simulation-time estimate ln(2 eps / C) / lambda_2."""
    _check_gamma(gamma)
    summary = _projection_above(delta_p0, p_a, epsilon, "C")
    lam2 = -gamma * (1.0 - summary.theta)
    return math.log(2.0 * epsilon / summary.amplitude) / lam2


def nstar_estimate_discrete(
    delta_p0: np.ndarray, p_a: float, j_tau: float, epsilon: float
) -> float:
    """Slow-mode collision-count estimate ln(2 eps / K) / ln(xi_2)."""
    summary = _projection_above(delta_p0, p_a, epsilon, "K")
    lp, lm = flip_flop_rates(j_tau)
    # xi_closed(3, ...)[1] is the same eigenvalue, but its 2 cos(pi/3) rounds
    # to 1.0000000000000002, so the two differ in the last bit at some beta
    xi2 = lp + summary.theta * lm
    if xi2 >= 1.0:
        raise FrozenDynamics("xi_2 = 1: J*tau is a multiple of pi")
    return math.log(2.0 * epsilon / summary.amplitude) / math.log(xi2)


@dataclass(frozen=True)
class SlowModeValidity:
    """Where the single-mode estimate of the crossing can be trusted.

    With A = |alpha2| |v2|_1 / 2, B = |alpha3| |v3|_1 / 2 and decay rates
    r2 <= r3, the distance to the target is bounded on both sides by the
    envelopes A e^{-r2 x} -/+ B e^{-r3 x} (triangle inequality).

    ``residual`` is B e^{-r3 x} / (A e^{-r2 x}) at the estimated crossing
    x = ln(K / 2 eps) / r2: near 0 the neglected mode is gone and the
    estimate is exact up to the amplitude K; near 1 the two modes can
    cancel and the true crossing moves away from the estimate.

    ``lo`` is the first x where the lower envelope drops to epsilon or
    below and ``hi`` the x where the upper envelope does, so the true
    first crossing lies in [lo, hi] (in collisions: ceil(lo) <= n* <=
    ceil(hi)).  A caller judges the width against its own tolerance.
    """

    residual: float
    lo: float
    hi: float


def _decay(rate: float, x: float) -> float:
    # e^{-rate x}, with e^0 = 1 also for an infinite rate (xi_3 = 0)
    return math.exp(-rate * x) if x > 0 else 1.0


def slow_mode_validity(
    delta_p0: np.ndarray, p_a: float, epsilon: float, rate2: float, rate3: float
) -> SlowModeValidity:
    """Residual of the neglected mode and a rigorous bracket on the crossing.

    Serves both estimates: pass rate2 = -ln xi_2, rate3 = -ln|xi_3| for
    :func:`nstar_estimate_discrete` (x counts collisions; a negative xi_3
    only flips the sign of mode 3) and rate2 = -lambda_2, rate3 =
    -lambda_3 for :func:`tsim_estimate_sl` (x is time).  The estimates
    themselves are unchanged; see :class:`SlowModeValidity`.
    """
    rate2, rate3 = float(rate2), float(rate3)
    if not 0.0 < rate2 < math.inf:
        raise ValueError("rate2 must be positive and finite")
    if not rate3 >= rate2:
        raise ValueError("rate3 must be at least rate2")
    summary = _projection_above(delta_p0, p_a, epsilon, "K")
    _, v2, v3 = right_eigenvectors_d3(p_a)
    a = 0.5 * abs(summary.alpha2) * float(np.abs(v2).sum())
    b = 0.5 * abs(summary.alpha3) * float(np.abs(v3).sum())
    x_est = math.log(summary.amplitude / (2.0 * epsilon)) / rate2
    residual = b * _decay(rate3 - rate2, x_est) / a

    def upper(x):
        return a * _decay(rate2, x) + b * _decay(rate3, x)

    def lower(x):
        return abs(a * _decay(rate2, x) - b * _decay(rate3, x))

    # upper envelope: strictly decreasing, so one crossing
    hi = 0.0
    if upper(0.0) > epsilon:
        start = math.log((a + b) / epsilon) / rate2
        hi = bisect_crossing(upper, epsilon, *bracket_crossing(upper, epsilon, start, math.inf))[1]
    # lower envelope: for a > b (or r2 = r3) it stays above epsilon until
    # its one crossing, which lies before hi (it may first rise); for
    # a < b it falls to zero at x0 = ln(b/a)/(r3 - r2) and crosses
    # epsilon before x0
    lo = 0.0
    if lower(0.0) > epsilon:
        end = math.log(b / a) / (rate3 - rate2) if a < b and rate3 > rate2 else hi
        lo = bisect_crossing(lower, epsilon, 0.0, end)[0]
    return SlowModeValidity(residual=residual, lo=lo, hi=hi)


def c13_steady_state(
    gamma1: float, gamma2: float, gamma12: float, p_star: np.ndarray
) -> float:
    """Stationary long-range coherence of the non-energy-conserving SL system.

    Setting dc13/dt = 0 with the recursion-derived damping (Gamma1+Gamma2)/2
    gives Gamma12/(Gamma1+Gamma2) * (2 p2* - p1* - p3*).
    """
    _check_rates((gamma1, gamma2, abs(gamma12)))
    if gamma1 + gamma2 <= 0:
        raise ValueError("Gamma1 + Gamma2 must be positive")
    p1, p2, p3 = p_star
    return gamma12 / (gamma1 + gamma2) * (2.0 * p2 - p1 - p3)
