"""Repeated-interaction dynamics.

Three execution paths compute the same physics at different cost:

* the brute-force CPTP map (one joint unitary + partial trace per
  collision), valid for every interaction variant;
* exact recursion maps for the energy-conserving resonant model, where
  populations evolve under a tridiagonal stochastic matrix built from the
  eta rates and the three-level coherences under the psi rates;
* fixed-step RK4 integration of the stroboscopic-Lindblad (SL) ODEs that
  the discrete map converges to when J*tau -> 0 at fixed Gamma = J^2 tau.

Population and coherence dynamics decouple for the energy-conserving
interaction, so diagonal initial states stay diagonal and can be evolved
as plain probability vectors.

Each path is one step ``step(state)`` applied over and over: the
population matrix to a probability vector (plus :func:`step_coherences_d3`
for three levels), :func:`collide_once` to a density matrix and an
:func:`rk4_stepper` step to an SL state.  Each trajectory is the
:func:`_orbit` of its step; :mod:`.simtime` scans them for the first crossing.

A brute-force collision fills only rho_A's two diagonal blocks of the
joint state, bit-identical to the Kronecker product (:func:`_collide`).
A stack of states collides in one call, each under its own unitary and
rho_A: :mod:`.simtime` steps its stacked scans so, and a ``RandomFull``
stack with new unitaries from one :func:`.linalg.unitary_from_hamiltonian`
call every collision.

A note on two SL equations transcribed from one-collision recursions
rather than from their printed ODE forms: the c23 equation carries a
+Gamma*(1-p_A)*c12 feed (the printed sign disagrees with the exact
recursion and fails to track the discrete map), and in the
non-energy-conserving system the p1 equation keeps the p_A*p2 and p_A*p1
cross terms (dropping them breaks probability conservation) while c13 is
damped at (Gamma1+Gamma2)/2, the rate the recursion actually yields.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, EpsilonTooLarge, StepTooLarge, SumNotZero
from .linalg import partial_trace_second, trace_distance, unitary_from_hamiltonian
from .models import (
    ModelSpec,
    RandomFull,
    _check_d,
    _random_couplings,
    ancilla_thermal_state,
    bare_hamiltonian,
    total_hamiltonian,
)

DEVIATION_SUM_TOL = 1e-12
# a RandomFull trajectory draws as many collisions at once as fill this many
# (2d, 2d) entries: 455 at d = 3, one at d = 128
_DRAW_CHUNK_ENTRIES = 2**14


@dataclass(frozen=True)
class CollisionConfig:
    """Collision duration, collision cap, and trace-distance target."""

    tau: float
    n_max: int
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if not (isinstance(self.n_max, numbers.Integral) and self.n_max >= 1):
            raise ValueError("n_max must be an integer >= 1")
        _check_epsilon(self.epsilon)


@dataclass
class TrajectoryRecord:
    """Per-collision states and trace distances to the target state."""

    states: list
    distances: list


def _orbit(step, state, n: int):
    """Yield state, step(state), step(step(state)), ...: the n + 1 states
    of an n-step trajectory."""
    yield state
    for _ in range(n):
        state = step(state)
        yield state


# ---------------------------------------------------------------------------
# Exact one-collision rates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EtaCoefficients:
    """Dimensionless population rates of the energy-conserving collision."""

    eta11: float
    eta12: float
    eta21: float
    eta22: float
    eta33: float


@dataclass(frozen=True)
class PsiCoefficients:
    """Dimensionless three-level coherence rates of the same collision."""

    psi11: float
    psi13: float
    psi22: float
    psi31: float
    psi33: float


def _check_j_tau(j_tau: float) -> None:
    # the one-collision rates read J*tau through cos and sin
    if not math.isfinite(j_tau):
        raise ValueError("J*tau must be finite")


def _check_omega_tau(omega_tau: float) -> None:
    # the coherences turn by the phase exp(i omega*tau) each collision
    if not math.isfinite(omega_tau):
        raise ValueError("omega*tau must be finite")


def _check_p_a(p_a: float) -> None:
    # the ancilla's ground population, 1 / (1 + exp(-beta omega)) for beta >= 0
    if not 0.0 < p_a <= 1.0:
        raise ValueError("p_A must lie in (0, 1]")


def _check_epsilon(epsilon: float) -> None:
    # a population distance never exceeds 1, and at 1 and above the Lambert
    # forms return negative times; EpsilonTooLarge is a ValueError
    if not epsilon > 0.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not epsilon < 1.0:
        raise EpsilonTooLarge("epsilon must lie in (0, 1)")


def _check_gamma(gamma: float) -> None:
    # the SL crossings and spectra; the sl_ode_* integrators take Gamma = 0
    if not 0.0 < gamma < math.inf:
        raise ValueError("Gamma must be positive and finite")


def _check_rates(rates) -> None:
    # the SL rates of the integrators and the steady state, where Gamma = 0 is allowed
    if not all(0.0 <= rate < math.inf for rate in rates):
        raise ValueError("rates must be >= 0 and finite")


def _check_finite(array, dtype=complex) -> np.ndarray:
    """array as a dtype array, after checking that its entries are finite."""
    if not np.isfinite(array := np.asarray(array, dtype=dtype)).all():
        raise ValueError(f"expected finite entries, not {array!r}")
    return array


def _check_collisions(n) -> None:
    # the collision count of a trajectory or a closed form
    if not (isinstance(n, numbers.Integral) and n >= 0):
        raise ValueError("n must be an integer >= 0")


def flip_flop_rates(j_tau: float) -> tuple[float, float]:
    """(lambda_+, lambda_-) = (cos^2 J*tau, sin^2 J*tau): the probabilities
    that one collision leaves an excitation in place or swaps it; raises
    ValueError for a J*tau that is not finite."""
    _check_j_tau(j_tau)
    return math.cos(j_tau) ** 2, math.sin(j_tau) ** 2


def eta_coefficients(p_a: float, j_tau: float) -> EtaCoefficients:
    """Population rates; eta12 doubles as eta23 and eta21 as eta32.
    Raises ValueError for a p_A or J*tau outside its domain."""
    _check_p_a(p_a)
    _check_j_tau(j_tau)
    lam = math.cos(2.0 * j_tau)
    return EtaCoefficients(
        eta11=0.5 * ((1.0 + p_a) + (1.0 - p_a) * lam),
        eta12=0.5 * p_a * (1.0 - lam),
        eta21=0.5 * (1.0 - p_a) * (1.0 - lam),
        eta22=0.5 * (1.0 + lam),
        eta33=1.0 - 0.5 * p_a * (1.0 - lam),
    )


def psi_coefficients(p_a: float, j_tau: float) -> PsiCoefficients:
    """Coherence rates; at p_A = 1 they reduce to (mu, lambda-, mu, 0, lambda+).
    Raises ValueError for a p_A or J*tau outside its domain."""
    _check_p_a(p_a)
    _check_j_tau(j_tau)
    lam = math.cos(2.0 * j_tau)
    mu = math.cos(j_tau)
    return PsiCoefficients(
        psi11=0.5 * (1.0 - p_a + 2.0 * p_a * mu + (1.0 - p_a) * lam),
        psi13=0.5 * p_a * (1.0 - lam),
        psi22=mu,
        psi31=0.5 * (1.0 - p_a - (1.0 - p_a) * lam),
        psi33=0.5 * (p_a + 2.0 * (1.0 - p_a) * mu + p_a * lam),
    )


def population_step_matrix(d: int, p_a: float, j_tau: float) -> np.ndarray:
    """Tridiagonal one-collision map acting on population vectors.

    Column-stochastic; fixes the Gibbs populations and acts identically on
    raw populations and on deviations from them; the one-row case of
    ``_population_maps``.  Raises ValueError for a d, p_A or J*tau out of domain.
    """
    return _population_maps(d, [p_a], [j_tau])[0]


def _population_maps(d: int, p_as, j_taus) -> np.ndarray:
    """``population_step_matrix`` of each (p_A, J tau) pair, stacked on axis
    0 and filled by flat slices, after checking every pair."""
    _check_d(d)
    etas = [eta_coefficients(p_a, j_tau) for p_a, j_tau in zip(p_as, j_taus, strict=True)]
    eta11, eta12, eta21, eta22, eta33 = np.array([(e.eta11, e.eta12, e.eta21, e.eta22, e.eta33) for e in etas]).T[:, :, None]
    flat = np.zeros((len(etas), d * d))
    # every (d + 1)-th entry from 1, d and 0, then the corners m[0, 0] and m[d - 1, d - 1]
    flat[:, 1 :: d + 1] = eta12
    flat[:, d :: d + 1] = eta21
    flat[:, :: d + 1] = eta22
    flat[:, :: d * d - 1] = np.concatenate([eta11, eta33], axis=1)
    return flat.reshape(-1, d, d)


def check_deviation_sum(delta_p: np.ndarray) -> None:
    """Reject a deviation-from-equilibrium vector whose sum is not within
    DEVIATION_SUM_TOL of zero; a sum over a NaN or infinite entry never is."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or finite entries whose sum overflows
        total = float(delta_p.sum())
    if not abs(total) <= DEVIATION_SUM_TOL:
        raise SumNotZero(f"deviations sum to {total:.3e}")


def step_populations_recursive(
    delta_p: np.ndarray, p_a: float, j_tau: float
) -> np.ndarray:
    """Advance a deviation-from-equilibrium vector by one collision."""
    delta_p = np.asarray(delta_p, dtype=float)
    check_deviation_sum(delta_p)
    return population_step_matrix(delta_p.size, p_a, j_tau) @ delta_p


def evolve_populations(
    p0: np.ndarray, p_a: float, j_tau: float, n: int
) -> np.ndarray:
    """Iterate the population map; returns an (n+1, d) trajectory array."""
    _check_collisions(n)
    p = np.asarray(p0, dtype=float)
    m = population_step_matrix(p.size, p_a, j_tau)
    return np.fromiter(_orbit(lambda p: m @ p, p, n), dtype=(float, p.shape), count=n + 1)


def step_coherences_d3(
    c12: complex,
    c13: complex,
    c23: complex,
    p_a: float,
    j_tau: float,
    omega_tau: float,
) -> tuple[complex, complex, complex]:
    """One collision acting on the three-level coherences (c12, c13, c23).
    Raises ValueError for a p_A, J*tau or omega*tau outside its domain."""
    return _coherence_step(p_a, j_tau, omega_tau)(c12, c13, c23)


def _coherence_step(p_a: float, j_tau: float, omega_tau: float):
    """The one-collision coherence map, after checking its three values."""
    psi = psi_coefficients(p_a, j_tau)
    _check_omega_tau(omega_tau)
    phase = complex(math.cos(omega_tau), math.sin(omega_tau))
    return lambda c12, c13, c23: (
        phase * (c12 * psi.psi11 + c23 * psi.psi13),
        phase * phase * c13 * psi.psi22,
        phase * (c12 * psi.psi31 + c23 * psi.psi33),
    )


def evolve_coherences_d3(
    c0: tuple[complex, complex, complex],
    p_a: float,
    j_tau: float,
    omega_tau: float,
    n: int,
) -> np.ndarray:
    """Iterate the coherence map; returns an (n+1, 3) complex array."""
    _check_collisions(n)
    step = _coherence_step(p_a, j_tau, omega_tau)
    return np.fromiter(_orbit(lambda c: step(*c), c0, n), dtype=(complex, (3,)), count=n + 1)


def density_matrix_d3(p: np.ndarray, c12: complex, c13: complex, c23: complex) -> np.ndarray:
    """Assemble a three-level density matrix from populations and coherences."""
    return np.array(
        [
            [p[0], c12, c13],
            [np.conj(c12), p[1], c23],
            [np.conj(c13), np.conj(c23), p[2]],
        ],
        dtype=complex,
    )


# ---------------------------------------------------------------------------
# Brute-force CPTP map
# ---------------------------------------------------------------------------


def collision_unitary(model: ModelSpec, tau: float, collision: int = 0) -> np.ndarray:
    """Joint unitary exp(-i H_tot tau) for the given collision index."""
    h_tot = total_hamiltonian(model.system, model.ancilla, model.interaction, collision)
    return unitary_from_hamiltonian(h_tot, tau)


def _random_unitaries(model: ModelSpec, tau: float, n: int):
    """Yield collision_unitary(model, tau, k) for k = 0..n-1, bit for bit,
    a chunk of collisions' couplings drawn as one stack and their
    unitaries built in one stacked eigh."""
    d, h0 = model.system.d, bare_hamiltonian(model.system, model.ancilla)
    chunk = max(1, _DRAW_CHUNK_ENTRIES // (2 * d) ** 2)
    for start in range(0, n, chunk):
        ks = range(start, min(start + chunk, n))
        yield from unitary_from_hamiltonian(h0 + _random_couplings(d, [model.interaction] * len(ks), ks), tau)


def collide_once(rho_s: np.ndarray, model: ModelSpec, cfg: CollisionConfig, collision: int = 0) -> np.ndarray:
    """Apply one CPTP collision: Tr_A[U (rho_S x rho_A) U^dagger].

    The one way in from a model: builds this collision's unitary and
    rho_A and hands them to :func:`_collide`, the kernel :func:`evolve`
    and the scans run with theirs.  rho_s may be a (..., d, d) stack.
    """
    return _collide(_check_finite(rho_s), collision_unitary(model, cfg.tau, collision), ancilla_thermal_state(model.ancilla).diagonal())


def _collide(rho_s: np.ndarray, unitary: np.ndarray, p_a: np.ndarray) -> np.ndarray:
    """Tr_A[U (rho_S x rho_A) U^dagger] for a finite complex state or a
    (..., d, d) stack, each with its own (..., 2d, 2d) unitary and (..., 2)
    populations p_a, ``ancilla_thermal_state``'s diagonal.  The products are
    stacked matmuls, so each state comes out as it alone would, bit for bit."""
    d = rho_s.shape[-1]
    # rho_S p_a[a] at (2k + a, 2l + a), zero elsewhere: rho_S (x) rho_A's bits up to signs of zeros,
    # as (x + iy)(p + 0i) rounds to round(xp) + i round(yp) in numpy's scalar and FMA loops alike;
    # those signs reach only zero entries of the two products, which partial_trace_second's 0.0 + clears
    joint = np.zeros((*rho_s.shape[:-2], 2 * d, 2 * d), dtype=complex)
    for a in range(2):
        joint[..., a::2, a::2] = rho_s * p_a[..., a, None, None]
    evolved = unitary @ joint
    del joint  # a stack then holds three (2d, 2d) arrays per state at once, not four
    return partial_trace_second(evolved @ unitary.conj().swapaxes(-1, -2), d, 2)


def evolve(
    rho0: np.ndarray,
    model: ModelSpec,
    cfg: CollisionConfig,
    n: int,
    target: np.ndarray | None = None,
) -> TrajectoryRecord:
    """Run n brute-force collisions, recording states and distances to target.

    The target defaults to the model's cached ``gibbs_target``.  RandomFull
    interactions re-draw couplings (and hence the unitary) before every
    collision, those of collision k at index k, as ``collide_once(...,
    collision=k)`` draws them, a chunk at a time; all other variants reuse one unitary.
    """
    _check_collisions(n)
    rho0 = _check_finite(rho0)
    if n > cfg.n_max:
        raise CapExceeded(f"n = {n} exceeds cap {cfg.n_max}")
    target = model.gibbs_target if target is None else target
    if isinstance(model.interaction, RandomFull):
        unitaries = _random_unitaries(model, cfg.tau, n)
    else:
        unitaries = itertools.repeat(collision_unitary(model, cfg.tau))
    p_a = ancilla_thermal_state(model.ancilla).diagonal()
    step = lambda rho: _collide(rho, next(unitaries), p_a)
    states = list(_orbit(step, rho0, n))
    return TrajectoryRecord(states, [trace_distance(rho, target) for rho in states])


# ---------------------------------------------------------------------------
# Zero-temperature closed forms
# ---------------------------------------------------------------------------


def zero_temp_populations_closed(p0: np.ndarray, n: int, j_tau: float) -> np.ndarray:
    """Populations after n collisions at p_A = 1, any dimension.

    Level d-k (1-based) collects binomially weighted decay from the levels
    above it; the ground population follows from normalization.
    """
    _check_collisions(n)
    p0 = np.asarray(p0, dtype=float)
    d = p0.size
    lp, lm = flip_flop_rates(j_tau)
    p = np.empty(d)
    for k in range(d - 1):
        acc = 0.0
        for j in range(min(k, n) + 1):
            acc += math.comb(n, j) * lm**j * lp ** (n - j) * p0[d - 1 - k + j]
        p[d - 1 - k] = acc
    p[0] = 1.0 - p[1:].sum()
    return p


def zero_temp_coherences_d3_closed(
    c0: tuple[complex, complex, complex],
    n: int,
    j_tau: float,
    omega_tau: float,
) -> tuple[complex, complex, complex]:
    """Three-level coherences after n collisions at p_A = 1.

    c12 mixes a mu^n and a lambda_+^n mode; at the degenerate point
    lambda_+ = mu the coefficient collapses to the analytic limit
    n * mu^(n-1) * lambda_- instead of a 0/0 cancellation.
    """
    _check_collisions(n)
    lp, lm = flip_flop_rates(j_tau)
    _check_omega_tau(omega_tau)
    if n == 0:
        return tuple(c0)
    c12_0, c13_0, c23_0 = c0
    mu = math.cos(j_tau)
    phase = complex(math.cos(omega_tau), math.sin(omega_tau))
    c13 = phase ** (2 * n) * mu**n * c13_0
    c23 = phase**n * lp**n * c23_0
    if abs(lp - mu) < 1e-12:
        c12 = phase**n * (mu**n * c12_0 + n * mu ** (n - 1) * lm * c23_0)
    else:
        b = lm * c23_0 / (lp - mu)
        c12 = phase**n * ((c12_0 - b) * mu**n + b * lp**n)
    return c12, c13, c23


# ---------------------------------------------------------------------------
# Stroboscopic-Lindblad ODEs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OdeTrajectory:
    """Fixed-step integration output; values holds one state row per time."""

    times: np.ndarray
    values: np.ndarray


def _resolve_step(t_end: float, dt: float | None, rates) -> float:
    """Check an SL integration's inputs and return its step, by default
    0.01 over the largest rate, or with every rate 0 t_end / 100 (1 where
    that is 0, so t_end = 0 takes one step of length 0, as at any rate); a
    signed rate (Gamma12) comes as |Gamma12|."""
    _check_rates(rates)
    if not 0.0 <= t_end < math.inf:
        raise ValueError("t_end must be finite and >= 0")
    gamma_max = max(rates)
    if dt is None:
        dt = 0.01 / gamma_max if gamma_max > 0 else (t_end / 100.0 or 1.0)
    if not dt > 0:
        raise ValueError("dt must be positive")
    if dt * gamma_max > 0.1:
        raise StepTooLarge(f"dt * Gamma_max = {dt * gamma_max:.3g} exceeds 0.1")
    return dt


def rk4_stepper(h):
    """``step(y, gen)``: one classical Runge-Kutta step over h of the linear
    ODE y' = gen @ y, where h is a float or an array broadcasting against y."""
    half, full, sixth, two = (np.asarray(c, dtype=float) for c in (0.5 * h, h, h / 6.0, 2.0))  # numpy multiplies by a 0-d array faster than by a float, to the same bits
    def step(y, gen):
        k1 = gen @ y
        k2 = gen @ (y + half * k1)
        k3 = gen @ (y + half * k2)
        k4 = gen @ (y + full * k3)
        return y + sixth * (k1 + two * k2 + two * k3 + k4)
    return step


def _rk4(gen: np.ndarray, y0: np.ndarray, t_end: float, dt: float) -> OdeTrajectory:
    steps = max(1, math.ceil(t_end / dt - 1e-12))
    step = rk4_stepper(t_end / steps)
    y = np.array(y0)
    orbit = _orbit(lambda y: step(y, gen), y, steps)
    values = np.fromiter(orbit, dtype=(y.dtype, y.shape), count=steps + 1)
    return OdeTrajectory(times=np.linspace(0.0, t_end, steps + 1), values=values)


def sl_population_generator(d: int, p_a: float, gamma: float) -> np.ndarray:
    """Tridiagonal SL rate matrix: upward rate Gamma*p_A, downward Gamma*(1-p_A)."""
    return _sl_generators(d, [p_a], gamma)[0]


def _sl_generators(d: int, p_as, gamma: float) -> np.ndarray:
    """``sl_population_generator`` of each p_A in p_as, stacked on axis 0."""
    _check_d(d)
    for p_a in p_as:
        _check_p_a(p_a)
    _check_rates((gamma,))
    p_as = np.asarray(p_as, dtype=float)[:, None]
    flat = np.zeros((len(p_as), d * d))
    # every (d + 1)-th entry from 1, d and 0: up and down rates, minus column sums
    flat[:, 1 :: d + 1] = gamma * p_as
    flat[:, d :: d + 1] = gamma * (1.0 - p_as)
    flat[:, :: d + 1] = -flat.reshape(-1, d, d).sum(axis=1)
    return flat.reshape(-1, d, d)


def sl_ode_populations(
    p0: np.ndarray, p_a: float, gamma: float, t_end: float, dt: float | None = None
) -> OdeTrajectory:
    """Integrate the population SL ODE for any dimension (RK4, fixed step)."""
    p0 = np.asarray(p0, dtype=float)
    dt = _resolve_step(t_end, dt, (gamma,))
    gen = sl_population_generator(p0.size, p_a, gamma)
    return _rk4(gen, p0, t_end, dt)


def sl_ode_coherences_d3(
    c0: tuple[complex, complex, complex],
    p_a: float,
    gamma: float,
    t_end: float,
    dt: float | None = None,
) -> OdeTrajectory:
    """Integrate the three-level coherence SL ODE for (c12, c13, c23)."""
    _check_p_a(p_a)
    dt = _resolve_step(t_end, dt, (gamma,))
    # c12 feed into c23 enters with +(1-p_A), per the exact recursion expansion
    gen = gamma * np.array(
        [
            [-0.5 * (2.0 - p_a), 0.0, p_a],
            [0.0, -0.5, 0.0],
            [1.0 - p_a, 0.0, -0.5 * (1.0 + p_a)],
        ],
        dtype=complex,
    )
    return _rk4(gen, np.asarray(c0, dtype=complex), t_end, dt)


def sl_ode_nonconserving_d3(
    p0: np.ndarray,
    c13_0: complex,
    p_a: float,
    gamma1: float,
    gamma2: float,
    gamma12: float,
    t_end: float,
    dt: float | None = None,
) -> OdeTrajectory:
    """Integrate the coupled (populations, c13) system of the counter-rotating
    SL limit.  State rows are (p1, p2, p3, Re c13, Im c13); c12/c23 decouple
    from this subsystem and are not propagated.
    """
    _check_p_a(p_a)
    g1, g2, g12 = gamma1, gamma2, gamma12
    dt = _resolve_step(t_end, dt, (g1, g2, abs(g12)))
    damp = 0.5 * (g1 + g2)
    gen = np.array(
        [
            [-(g1 * (1 - p_a) + g2 * p_a), g1 * p_a + g2 * (1 - p_a), 0.0, -g12, 0.0],
            [g2 * p_a + g1 * (1 - p_a), -(g1 + g2), g2 * (1 - p_a) + g1 * p_a, 2 * g12, 0.0],
            [0.0, g1 * (1 - p_a) + g2 * p_a, -(g1 * p_a + g2 * (1 - p_a)), -g12, 0.0],
            [-0.5 * g12, g12, -0.5 * g12, -damp, 0.0],
            [0.0, 0.0, 0.0, 0.0, -damp],
        ]
    )
    y0 = np.array([p0[0], p0[1], p0[2], c13_0.real, c13_0.imag], dtype=float)
    return _rk4(gen, y0, t_end, dt)
