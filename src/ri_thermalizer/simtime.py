"""Simulation cost: minimal collision counts and crossing times.

The discrete count n* is the first collision after which the trace
distance to the target Gibbs state drops to epsilon; T_sim = n* tau.  At
zero temperature both admit closed forms through the lower branch of the
Lambert-W function (three levels) or through one-dimensional
transcendental equations (any dimension), solved here by doubling
brackets plus bisection on their eventually-decreasing tails.

Every simulated crossing is one search, ``_first_crossings``, over runs
stacked on axis 0 of one state array, each with its own epsilon; a
single run is one row.  An engine supplies ``step(states, params)``, one
step of every row, and ``distance(states, targets)``, one value per row
against the targets that end params: ``_sl_step`` and
``_column_distances`` for SL ((B, d, 1) columns, so each RK4 derivative
is one ``gens @ y``), the step of ``_cptp_scan`` and
``linalg._trace_distances`` for the CPTP map, and the coherence
recursion for a coherent three-level row.  Population rows are checked
once per chunk of up to ``_CHECK_EVERY`` steps, the whole trail in one
distance call; density-matrix rows every step, so no crossed row steps
on.  A stacked product, ``eigh`` or ``eigvalsh`` gives each row, bit for
bit, what the row alone gives.  CPTP rows of one model share H_0, rho_A
and the target, RandomFull rows those of one (system, ancilla).  A
``RandomFull`` row draws H_I(seed, k) for collision k, the draws of
``default_rng([seed, k])``, every row's into one stack
(``models._random_couplings``, by PCG64 jump-ahead with no generator),
and builds every row's next unitary in one stacked ``eigh``.  States
carry no clock: an SL row's time after n steps is ``_sl_clock(h, n)``, a
CPTP row's collision index the first one plus the steps taken.

A single run is its engine's one search on one row: ``_nstar_searches``
for n*, ``_sl_crossings`` (an RK4 scan, then one stacked bisection of the
crossing steps) for T_sim.  The batches search a sweep's rows together
and answer every crossed row from that search, bit for bit as one run at
a time: a scanned row from its trail, an SL row from the bisection, and a
powered row from its last rejected lift.  Stacking saves the per-step
overhead, which dominates a step at small d; it does not split the work
across processes.  Each row still makes the single-run call perfbench's
tracer counts as its task (``TASK_ROOTS``), a zero-step report from a
crossed row's state at its crossing; an unreachable row takes its last
step again, or, powered, runs again from rho0.

The diagonal population recursion does not scan.  Its one-collision map
m is column-stochastic, so the L1 distance to the Gibbs populations
never grows, and ``_powered_crossings`` finds each row's first crossing
by binary lifting over the squared powers m^(2^k): O(log n_max) stacked
matrix products instead of n* matrix-vector steps.  A rounding guard
keeps n* equal to the scan's: when a row's distance just before or at
the crossing it found lies within a forward-error bound of epsilon, it
hands the row to one scan of all handed rows, which stops at
``MAX_STEPS`` collisions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .collisions import (
    CollisionConfig,
    _check_epsilon,
    _check_gamma,
    _check_p_a,
    _coherence_step,
    _collide,
    _population_maps,
    _resolve_step,
    _sl_generators,
    density_matrix_d3,
    flip_flop_rates,
    rk4_step,
)
from .errors import (
    EpsilonTooLarge,
    FrozenDynamics,
    NoConvergence,
    NoRootBelowCap,
    OutOfDomain,
)
from .linalg import _trace_distances, unitary_from_hamiltonian
from .models import (
    IsotropicFlipFlop,
    ModelSpec,
    RandomFull,
    _gibbs_stack,
    _random_couplings,
    ancilla_thermal_state,
    bare_hamiltonian,
    gibbs_populations,
    interaction_hamiltonian,
    system_gibbs_state,
)

_NEG_INV_E = -math.exp(-1.0)
_TINY = float(np.finfo(float).tiny)

# most steps a scan may take per run: a sweep checks OdeSL's RK4 steps and
# BruteForce's n_max, not Recursion's, whose powered search takes O(log
# n_max) products and whose scan of the rows its guard hands over stops here
MAX_STEPS = 10**8
# steps a scan of real rows takes between checks of their distances
_CHECK_EVERY = 32
# where the general-dimension zero-temperature solvers give up
_NSTAR_ZEROT_CAP, _TSIM_ZEROT_CAP = 2.0**60, 1e12

# a batched scan stacks rows until their matrices fill this many bytes:
# 256 SL generators, or 8 CPTP rows, at d = 128
_BLOCK_BYTES = 32 * 2**20
# a CPTP row holds its (2d, 2d) unitary (or H_0), and a stacked step three
# more arrays of that shape per row at once
_CPTP_ROW_ARRAYS = 4
# a scan's trail of real states holds at most 1 / _TRAIL_SHARE of a block,
# since its one distance call makes about four more arrays of that size
_TRAIL_SHARE = 16


@dataclass(frozen=True)
class ThermalizationResult:
    """Outcome of a thermalization run; unreachable targets leave the
    count/time fields at None instead of raising.

    final_distance is the distance at the crossing, or at the cap when
    the target is unreachable.  On the diagonal population recursion it
    is that of the powered state, which lies within the rounding guard of
    ``_powered_crossings``, 4 (n + d) (d + 2) u for a probability vector
    (u the unit roundoff), of the value a one-collision-at-a-time scan
    gives; n* itself is the scan's.

    engine is the engine that actually ran: "recursion", "brute_force"
    (the CPTP map, also where "auto" falls back to it) or "ode_sl".
    """

    n_star: int | None
    t_sim: float | None
    final_distance: float
    engine: str

    @property
    def reachable(self) -> bool:
        return self.t_sim is not None


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------


def _branch_point_series(z: float, sign: float) -> float:
    # expansion in p = +-sqrt(2 (1 + e z)) around the branch point (-1/e, -1)
    p2 = max(2.0 * (1.0 + math.e * z), 0.0)
    p = sign * math.sqrt(p2)
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (-43.0 / 540.0))))


def lambert_w(z: float, branch: int = 0) -> float:
    """Real Lambert-W branches: W0 on z >= -1/e, W-1 on -1/e <= z < 0.

    Halley iteration from an asymptotic initial guess; within 1e-6 of the
    branch point the square-root series is used instead, where the
    iteration's denominator degenerates.
    """
    if branch not in (0, -1):
        raise ValueError("branch must be 0 or -1")
    if not math.isfinite(z):
        raise OutOfDomain(f"z = {z!r} is not finite")
    if z < _NEG_INV_E - 1e-15:
        raise OutOfDomain(f"z = {z!r} below the branch point -1/e")
    if branch == -1 and z >= 0.0:
        raise OutOfDomain("W_-1 requires -1/e <= z < 0")
    sign = 1.0 if branch == 0 else -1.0
    if z - _NEG_INV_E < 1e-6:
        return _branch_point_series(z, sign)

    if branch == -1:
        log_neg_z = math.log(-z)
        w = log_neg_z - math.log(-log_neg_z)
    elif z > math.e:
        w = math.log(z) - math.log(math.log(z))
    elif z - _NEG_INV_E < 0.3:
        w = _branch_point_series(z, sign)
    else:
        w = math.log1p(z)

    # relative to z (down to the smallest normal float): on W-1 near z = 0-,
    # w e^w is tiny wherever w lands, so an absolute tolerance stops at once
    tol = 1e-13 * max(abs(z), _TINY)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - z
        if abs(f) <= tol:
            return w
        wp1 = w + 1.0
        denominator = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if not math.isfinite(denominator):  # from z = 2.76e307: the same step over e^w
            f = w - z / ew
            denominator = wp1 - (w + 2.0) * f / (2.0 * wp1)
        w -= f / denominator
    if abs(w * math.exp(w) - z) <= 10.0 * tol:
        return w
    raise NoConvergence(f"Halley iteration stalled for z = {z!r}, branch {branch}")


# ---------------------------------------------------------------------------
# Simulated crossings
# ---------------------------------------------------------------------------


def population_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Trace distance restricted to diagonal states: 0.5 * sum |p - q|."""
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def _first_crossings(step, states, params, distance, epsilons, n_max: int):
    """Scan a batch of runs stacked on axis 0 for the first of at most
    n_max steps that brings each run within its epsilon: row i of
    ``states`` and of every array in the tuple ``params`` belongs to run
    i, which stops at its own epsilons[i].  A single run is one row.

    states = step(states, params) advances the rows; params holds their
    fixed data, their targets last, and distance(states, targets) gives
    one value per row.  Real rows (populations) take up to _CHECK_EVERY
    steps between checks, a trail of at most 1 / _TRAIL_SHARE of a block,
    and one distance call checks the whole trail, flattened to rows
    against the targets repeated.  Complex rows (density matrices) are
    checked every step, so a crossed row takes no further step (a
    RandomFull row no further draw).  The rows still above their epsilon
    are compacted after a check where some row finished.  A real row whose
    last step returned its state leaves then, unreachable with the cap's
    bits, as every later state equals it.  Returns per row
    (n, distance, previous, state): the steps taken (None when none
    crosses), the distance there, and copies of the row's state before
    the last step and at n, so no result keeps a stacked array alive.
    """
    epsilons = np.asarray(epsilons, dtype=float)
    results = [None] * epsilons.size
    rows = np.arange(epsilons.size)
    real = np.isrealobj(states)
    # rows only leave, so the first stack bounds every trail
    chunk = max(1, min(_CHECK_EVERY, _BLOCK_BYTES // (_TRAIL_SHARE * states.nbytes))) if real else 1
    # the states from the last check on, and the distances at all but the
    # first of them (at step 0, at that state alone), the last at step n
    n, trail, dists = 0, [states], distance(states, params[-1])[None]
    while True:
        crossed = dists <= epsilons
        frozen = real and n > 0 and (trail[-1] == trail[-2]).reshape(len(rows), -1).all(axis=1)
        if n == n_max or np.count_nonzero(crossed) or real and np.count_nonzero(frozen):  # cheaper than .any() on a few rows
            hit = crossed.any(axis=0)
            # each row's first crossing in the trail, else its last state
            last = np.where(hit, crossed.argmax(axis=0), len(dists) - 1)
            done = hit | frozen | (n == n_max)
            for j in np.flatnonzero(done):
                i = int(last[j])
                results[rows[j]] = (n - len(dists) + 1 + i if hit[j] else None, float(dists[i, j]), trail[i][j].copy(), trail[len(trail) - len(dists) + i][j].copy())
            if done.all():
                return results
            keep = ~done
            rows, epsilons = rows[keep], epsilons[keep]
            trail[-1], params = trail[-1][keep], tuple(a[keep] for a in params)
        k = min(chunk, n_max - n)
        trail = [trail[-1]]
        for _ in range(k):
            trail.append(step(trail[-1], params))
        n += k
        if k == 1:
            dists = distance(trail[1], params[-1])[None]
        else:
            dists = distance(np.concatenate(trail[1:]), np.concatenate([params[-1]] * k)).reshape(k, -1)


def _matvecs(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a[i] @ y[i] for every row i, as one (B, d, d) @ (B, d, 1) product."""
    return (a @ y[:, :, None])[:, :, 0]


def _population_distances(states, targets) -> np.ndarray:
    """``population_distance`` of each row to its target."""
    return 0.5 * np.abs(states - targets).sum(axis=1)


def _column_distances(states, targets) -> np.ndarray:
    """``_population_distances`` of (B, d, 1) column states to row targets."""
    return _population_distances(states[:, :, 0], targets)


def _sl_step(h: float):
    """The RK4 step over h of (B, d, 1) column SL states under their
    generators params[0], each derivative one stacked ``gens @ y``."""
    return lambda states, params: rk4_step(lambda y: params[0] @ y, states, h)


def _sl_clock(h: float, n: int) -> float:
    """h added n times from 0.0, left to right: the time after n SL steps
    (0.0 for n <= 0), summed in chunks that hold no n-element array."""
    t = 0.0
    for start in range(0, n, 2**16):
        t = float(np.add.accumulate(np.r_[t, np.full(min(n - start, 2**16), h)])[-1])
    return t


def _powered_crossings(ms: np.ndarray, ps: np.ndarray, targets: np.ndarray, epsilons, n_max: int):
    """The first crossing along p, m p, m^2 p, ... of every row (m, p,
    target, epsilon) stacked on axis 0, for nonnegative column-stochastic
    maps m, in O(log n_max) stacked matrix products; a single run is one
    row.

    Binary lifting over P_k = m^(2^k): from n = 0, each power, largest
    first, advances a row when the distance after it is still above the
    row's epsilon.  The exact distance never grows, so a row ends at its
    last n above epsilon, and its crossing is n + 1 unless n = n_max: the
    row's last rejected lift, by 2^t with t the trailing zero bits of n +
    1, whose product is the state there.  The rows the rounding guard hands
    over take one scan from p, cut at MAX_STEPS, where a row still moving
    raises NoConvergence if n_max lies beyond.  Returns per row (n,
    distance, state) at the crossing, n and state None when none comes.
    """
    epsilons = np.asarray(epsilons, dtype=float)
    first = _population_distances(ps, targets)
    powers = [ms]
    while 2 ** len(powers) <= n_max:
        powers.append(powers[-1] @ powers[-1])
    # an n_max past int64 keeps the counts exact as Python ints
    n = np.zeros(len(ps), dtype=np.int64 if n_max < 2**62 else object)
    # each power's products and their distances
    states, aheads, probes = ps, [None] * len(powers), [None] * len(powers)
    for k in reversed(range(len(powers))):
        aheads[k] = _matvecs(powers[k], states)
        probes[k] = _population_distances(aheads[k], targets)
        lift = (probes[k] > epsilons) & (n <= n_max - 2**k)
        n = np.where(lift, n + 2**k, n)
        states = np.where(lift[:, None], aheads[k], states)

    # Rounding guard, row by row.  u is the unit roundoff and gamma_d = d u
    # / (1 - d u).  m rounds, entry by entry in a few operations, an exactly
    # column-stochastic nonnegative M (the eta formulas evaluated on the
    # stored p_A and cos 2 J tau), so ||m - M||_1 <= 6u.  The exact distance
    # D(n) = |M^n p - g|_1 / 2 to the stored target g never grows by more
    # than |g - g*|_1 <= d (d + 8) u, the rounding of M's fixed point g*.
    # A product with a nonnegative matrix of unit column sums adds at most
    # gamma_d |s|_1 in L1, and M never expands an earlier error.  So the
    # scan's n-fold m @ p stays within n (gamma_d + 6u) a of M^n p, with
    # a = max(1, |p|_1).  The powers obey ||P_k - M^(2^k)||_1 <= 2^k (gamma_d
    # + 6u) - gamma_d, so one lift by 2^k costs at most 2^k (gamma_d + 6u),
    # and the powered state at n obeys the same bound.  Adding the rounding
    # of each distance (gamma_d a) and the growth term, the scan's computed
    # distance at every k <= n is above the powered one at n, and the
    # scan's at n below the powered one at n, each up to
    #     delta(n) = 4 (n + d) (d + 2) u a.
    # Hence dist(n) > epsilon + delta(n) keeps the scan above epsilon up to
    # n, and dist(n + 1) < epsilon - delta(n + 1) brings it to epsilon at
    # n + 1: the scan stops at exactly n + 1.  Anything closer to epsilon,
    # or a NaN, goes to the scan itself.  A stacked product or distance
    # gives each row, bit for bit, what the row alone gives.
    d = ps.shape[1]
    unit = 4.0 * (d + 2) * (0.5 * np.finfo(float).eps)
    rows = zip(n.tolist(), first.tolist(), epsilons.tolist(), np.abs(ps).sum(axis=1).tolist())
    results = []
    for i, (n, first, epsilon, norm) in enumerate(rows):
        delta = lambda n: (n + d) * (unit * max(1.0, norm))
        # the distance at n is that of the row's last lift, by n's lowest set bit
        dist = float(probes[(n & -n).bit_length() - 1][i]) if n else first
        if first <= epsilon:
            results.append((0, first, ps[i]))
        elif n == n_max:
            results.append((None, dist, None) if dist - epsilon > delta(n) else None)
        else:
            t = ((n + 1) & -(n + 1)).bit_length() - 1
            crossed = float(probes[t][i])
            guarded = dist - epsilon > delta(n) and epsilon - crossed > delta(n + 1)
            results.append((n + 1, crossed, aheads[t][i]) if guarded else None)

    # the rows handed over: one scan from p of (F, d, 1) columns, up to MAX_STEPS
    handed = [i for i, found in enumerate(results) if found is None]
    step = lambda states, params: params[0] @ states
    scan = _first_crossings(step, ps[handed][:, :, None], (ms[handed], targets[handed]), _column_distances, epsilons[handed], min(n_max, MAX_STEPS)) if handed else []
    for i, (n, dist, _, state) in zip(handed, scan):
        # a row at the cap that the next collision still moves
        if n is None and n_max > MAX_STEPS and not np.array_equal(step(state[None], (ms[i : i + 1],))[0], state):
            raise NoConvergence(f"the powered search's fallback scan does not reach epsilon = {epsilons[i]:.3g} within MAX_STEPS = {MAX_STEPS} collisions")
        results[i] = (n, dist, None if n is None else state[:, 0])
    return results


def nstar_simulated(rho0: np.ndarray, model: ModelSpec, cfg: CollisionConfig, engine: str = "auto", collision: int = 0) -> ThermalizationResult:
    """First collision count n with D(rho^(n), Gibbs target) <= epsilon.

    engine is one of "auto", "recursion", "brute_force".  The recursion
    path requires the resonant energy-conserving model; "auto" selects it
    when valid (falling back to the full CPTP map for coherent initial
    states above d = 3, where no coherence recursion is implemented).
    collision is the index of the run's first collision, on which only
    RandomFull draws depend.  A start within epsilon returns n* = 0 before
    any map, unitary or draw, so nothing only they would reject raises.
    """
    d = model.system.d
    rho0 = _checked_state(rho0, d)
    # the recursion needs the resonant flip-flop, and a diagonal state or d = 3;
    # a forced brute_force run never looks at the state
    diagonal = engine != "brute_force" and _is_diagonal(rho0)
    recursion_ok = _resonant(model) and (diagonal or d == 3)
    if engine == "auto":
        engine = "recursion" if recursion_ok else "brute_force"
    elif engine == "recursion" and not recursion_ok:
        raise ValueError("recursion engine unavailable for this model/state")
    elif engine not in ("recursion", "brute_force"):
        raise ValueError(f"unknown engine {engine!r}")

    if engine == "recursion" and diagonal:
        p, target = np.diag(rho0).real, gibbs_populations(d, model.system.omega, model.ancilla.beta)
        (dist,) = _population_distances(p[None], target[None]).tolist()
    else:
        target = system_gibbs_state(model.system, model.ancilla.beta)
        (dist,) = _trace_distances(rho0[None], target[None]).tolist()
    if dist <= cfg.epsilon:
        return ThermalizationResult(0, 0 * cfg.tau, dist, engine)
    ((n, dist, _),) = _nstar_searches(rho0, [(model, cfg)], engine, collision)
    return ThermalizationResult(n, None if n is None else n * cfg.tau, dist, engine)


def _nstar_searches(rho0: np.ndarray, runs, engine: str, collision: int = 0):
    """(n*, distance, start) of every run (model, cfg) from rho0, stacked
    on axis 0, by its engine's search: the CPTP scan from collision index
    ``collision``, the powered recursion, or the scan of one coherent d = 3
    run.  n* is None when none comes by the runs' shared n_max; start is
    the state the batch's report call starts from, the state at n*, or at
    the cap the CPTP state a collision before it and the recursion's rho0."""
    d, n_max, epsilons = rho0.shape[0], runs[0][1].n_max, [cfg.epsilon for _, cfg in runs]
    if engine == "brute_force":
        step, states, params = _cptp_scan(runs, rho0, collision)
    else:
        ms = _population_maps(d, [m.ancilla.ground_population for m, _ in runs], [m.interaction.j * cfg.tau for m, cfg in runs])
        if _is_diagonal(rho0):
            targets = _gibbs_stack(d, [m.system.omega for m, _ in runs], [m.ancilla.beta for m, _ in runs])
            crossings = _powered_crossings(ms, np.tile(np.diag(rho0).real, (len(runs), 1)), targets, epsilons, n_max)
            return [(n, dist, rho0 if n is None else np.diag(state)) for n, dist, state in crossings]

        # one coherent d = 3 run, against a one-row stack of its Gibbs target
        ((model, cfg),) = runs
        states, params = rho0[None], (system_gibbs_state(model.system, model.ancilla.beta)[None],)
        coherence_step = _coherence_step(model.ancilla.ground_population, model.interaction.j * cfg.tau, model.system.omega * cfg.tau)

        def step(states, _):
            rho = states[0]
            c = coherence_step(rho[0, 1], rho[0, 2], rho[1, 2])
            return density_matrix_d3(ms[0] @ rho.diagonal().real, *c)[None]

    crossings = _first_crossings(step, states, params, _trace_distances, epsilons, n_max)
    return [(n, dist, previous if n is None else state) for n, dist, previous, state in crossings]


def _checked_state(rho0, d: int) -> np.ndarray:
    """rho0 as a complex array, after checking that it is (d, d)."""
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (d, d):
        raise ValueError(f"rho0 has shape {rho0.shape}, the model's system needs {(d, d)}")
    return rho0


def _is_diagonal(rho0: np.ndarray) -> bool:
    return float(np.abs(rho0 - np.diag(rho0.diagonal())).max()) < 1e-14


def _resonant(model: ModelSpec) -> bool:
    """Whether the recursion holds: the flip-flop at the system's own frequency."""
    return isinstance(model.interaction, IsotropicFlipFlop) and model.system.omega == model.ancilla.omega


def _cptp_scan(runs, rho0: np.ndarray, collision: int = 0):
    """The step, start states and params of a CPTP scan of runs (model,
    cfg) from rho0, stacked on axis 0; params ends with the rows' rho_A
    and Gibbs targets.  These and H_0 are built once per distinct model,
    or, for RandomFull rows, each with its own seed, once per distinct
    (system, ancilla).

    A fixed-unitary row's params start with its unitary, from H_0 + H_I
    summed per model and indexed out once.  A RandomFull row's start with
    its interaction, H_0 and tau: the step draws every row's H_I at the
    next collision index k as one ``_random_couplings`` stack (a row's
    draws are those of ``default_rng([seed, k])``, bit for bit) and builds
    all their unitaries in one stacked eigh, counting collisions from
    ``collision`` on, one per call, as a scan calls it.  The rows are all
    RandomFull or all of fixed unitary.
    """
    random = isinstance(runs[0][0].interaction, RandomFull)
    index = {}
    rows = [index.setdefault((m.system, m.ancilla) if random else m, (len(index), m))[0] for m, _ in runs]
    models = [m for _, m in index.values()]
    h0 = np.stack([bare_hamiltonian(m.system, m.ancilla) for m in models])
    taus = np.array([cfg.tau for _, cfg in runs])[:, None]
    rho_as = np.stack([ancilla_thermal_state(m.ancilla) for m in models])[rows]
    targets = np.stack([system_gibbs_state(m.system, m.ancilla.beta) for m in models])[rows]
    states = np.tile(rho0, (len(runs), 1, 1))
    if not random:
        h_i = np.stack([interaction_hamiltonian(m.system, m.interaction) for m in models])
        step = lambda states, params: _collide(states, *params[:2])
        return step, states, (unitary_from_hamiltonian((h0 + h_i)[rows], taus), rho_as, targets)
    d, collisions = models[0].system.d, itertools.count(collision)

    def step(states, params):
        interactions, h0, taus, rho_as, _ = params
        h_i = _random_couplings(d, interactions, next(collisions))
        return _collide(states, unitary_from_hamiltonian(h0 + h_i, taus), rho_as)

    return step, states, (np.array([m.interaction for m, _ in runs]), h0[rows], taus, rho_as, targets)


def nstar_simulated_batch(rho0: np.ndarray, models, cfgs, engine: str = "brute_force") -> list[ThermalizationResult]:
    """``nstar_simulated(rho0, models[i], cfgs[i], engine=engine)`` for
    every i, bit for bit, from the single run's ``_nstar_searches`` on a
    block of _BLOCK_BYTES of rows at a time; engine is "brute_force" or
    "recursion", and the rows share d, rho0 and n_max.

    "brute_force" rows are all RandomFull or all of fixed unitary, a row
    holding its (2d, 2d) unitary or H_0 and the ones of that shape a CPTP
    step makes; "recursion" rows need the resonant flip-flop and a
    diagonal rho0, a row holding its floor(log2 n_max) + 1 powers.  Each
    row's ``nstar_simulated`` call, with its own cfg from the start the
    search gives it, reports it: a crossed row's returns n* = 0 and the
    same distance, an unreachable CPTP row takes its last collision again,
    at index n_max - 1, and an unreachable recursion row runs again.
    """
    if engine not in ("recursion", "brute_force"):
        raise ValueError(f"unknown engine {engine!r}")
    rho0 = np.asarray(rho0, dtype=complex)
    runs = list(zip(models, cfgs, strict=True))
    for d in sorted({model.system.d for model, _ in runs}):
        _checked_state(rho0, d)
    for model, cfg in runs:
        if cfg.n_max != runs[0][1].n_max:
            raise ValueError("the rows of a batch share n_max")
        if engine == "recursion" and not _resonant(model):
            raise ValueError("recursion engine unavailable for this model")
        if isinstance(model.interaction, RandomFull) != isinstance(runs[0][0].interaction, RandomFull):
            raise ValueError("the rows of a batch are all RandomFull or all of fixed unitary")
    if not runs:
        return []
    if engine == "recursion" and not _is_diagonal(rho0):
        raise ValueError("the recursion batch needs a diagonal rho0")
    d, n_max = rho0.shape[0], runs[0][1].n_max
    row_bytes = _CPTP_ROW_ARRAYS * 16 * (2 * d) ** 2 if engine == "brute_force" else int(n_max).bit_length() * 8 * d * d

    results = []
    for (model, cfg), (n, _, start) in _blocked_crossings(runs, row_bytes, lambda part: _nstar_searches(rho0, part, engine)):
        # each row's collision offset and the n_max of its call (None: its own)
        offset, span = (n, None) if n is not None else (n_max - 1, 1) if engine == "brute_force" else (0, None)
        res = nstar_simulated(start, model, cfg if span is None else replace(cfg, n_max=span), engine=engine, collision=offset)
        n = None if res.n_star is None else offset + res.n_star
        results.append(res if n is None else ThermalizationResult(n, n * cfg.tau, res.final_distance, engine))
    return results


def _blocked_crossings(runs, row_bytes: int, scan):
    """Yield each run with its crossing from scan(part), one scan of as many
    runs as fill _BLOCK_BYTES at row_bytes each; the scan alone holds the
    stacked systems, so they live one block at a time."""
    block = max(1, _BLOCK_BYTES // row_bytes)
    for start in range(0, len(runs), block):
        part = runs[start : start + block]
        yield from zip(part, scan(part))


def bisect_crossing(f, epsilon: float, lo: float, hi: float) -> tuple[float, float]:
    """Narrow [lo, hi], where f(lo) > epsilon >= f(hi), until no float lies
    strictly between lo and hi; returns the final (lo, hi)."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi
        if f(mid) <= epsilon:
            hi = mid
        else:
            lo = mid


def bracket_crossing(f, epsilon: float, x: float, cap: float) -> tuple[float, float]:
    """Double x until f(x) <= epsilon; returns (x / 2, x), or (0, x) when the
    first x already qualifies.  Raises NoRootBelowCap once x passes cap."""
    lo = 0.0
    while f(x) > epsilon:
        lo, x = x, 2.0 * x
        if x > cap:
            raise NoRootBelowCap(f"no crossing below {cap:.3e}")
    return lo, x


def _sl_steps(p_a: float, gamma: float, epsilon: float, t_max: float, dt: float | None):
    """Check the inputs of an SL crossing; returns the RK4 step h and the
    number of steps up to t_max."""
    _check_p_a(p_a)
    _check_gamma(gamma)
    _check_epsilon(epsilon)
    if not 0.0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    dt = _resolve_step(t_max, dt, (gamma,))
    if not t_max / dt < math.inf:
        raise ValueError("t_max / dt must be a finite number of steps")
    steps = max(1, math.ceil(t_max / dt))
    return t_max / steps, steps


def _sl_systems(d: int, p_as, gamma: float):
    """The SL population generators and Gibbs populations for the ancilla
    ground populations p_as, stacked on axis 0."""
    gens = _sl_generators(d, p_as, gamma)
    ratios = np.array([(1.0 - p_a) / p_a for p_a in p_as])
    targets = ratios[:, None] ** np.arange(d)
    return gens, targets / targets.sum(axis=1, keepdims=True)


def _sl_crossings(p0: np.ndarray, p_as, gamma: float, epsilons, h: float, steps: int):
    """(t, distance, state) of every row (p_a, epsilon) from p0, stacked on
    axis 0: an RK4 scan of at most ``steps`` steps h, then one stacked
    bisection of the rows that cross at a step n > 0.  Each narrows its
    (lo, hi) from (0, h) as ``bisect_crossing`` does, stepping from its
    state at n - 1 (RK4 takes a (B, 1, 1) stack of step sizes): all step
    until no row has a float strictly between, and only those that do
    move.  t = ``_sl_clock(h, n - 1) + hi`` (0.0 at step 0), None at the
    cap, with the state one step before it.  Their generators are built
    again: the scan's, held through its compactions, would double the
    block."""
    if p0.ndim != 1 or not np.isfinite(p0).all():
        raise ValueError(f"p0 must be a finite 1-D vector, not {p0!r}")
    d, epsilons = p0.size, np.asarray(epsilons, dtype=float)
    crossings = _first_crossings(_sl_step(h), np.tile(p0[:, None], (len(p_as), 1, 1)), _sl_systems(d, p_as, gamma), _column_distances, epsilons, steps)
    results = [(None, dist, previous) if n is None else (0.0, dist, state) for n, dist, previous, state in crossings]
    late = [i for i, (n, *_) in enumerate(crossings) if n]
    if not late:
        return results
    # each bisected row's lo and hi, and the distance and state at hi, from the scan's step h
    (gens, targets), epsilons = _sl_systems(d, [p_as[i] for i in late], gamma), epsilons[late]
    los, his, dists = np.zeros(len(late)), np.full(len(late), h), np.array([crossings[i][1] for i in late])
    starts, ends = (np.stack([crossings[i][k] for i in late]) for k in (2, 3))
    while True:
        mid = 0.5 * (los + his)
        moving = (los < mid) & (mid < his)
        if not moving.any():
            break
        after = _sl_step(mid[:, None, None])(starts, (gens,))
        ahead = _column_distances(after, targets)
        below = moving & (ahead <= epsilons)
        his[below], dists[below], ends[below] = mid[below], ahead[below], after[below]
        los[moving & ~below] = mid[moving & ~below]
    for i, x, dist, end in zip(late, his.tolist(), dists.tolist(), ends):
        results[i] = (_sl_clock(h, crossings[i][0] - 1) + x, dist, end)
    return results


def tsim_simulated_sl(p0: np.ndarray, p_a: float, gamma: float, epsilon: float, t_max: float, dt: float | None = None) -> ThermalizationResult:
    """Crossing time of the SL population ODE below trace distance epsilon.

    Fixed-step RK4 scan; the bracketing step is then refined by bisection,
    re-stepping from the last pre-crossing state, so the reported time is
    far more accurate than the scan resolution.  dt defaults to 0.01 /
    Gamma; a step with dt Gamma > 0.1 raises StepTooLarge.
    """
    p0 = np.asarray(p0, dtype=float)
    h, steps = _sl_steps(p_a, gamma, epsilon, t_max, dt)
    ((t, dist, _),) = _sl_crossings(p0, [p_a], gamma, [epsilon], h, steps)
    return ThermalizationResult(None, t, dist, "ode_sl")


def tsim_simulated_sl_batch(p0: np.ndarray, p_as, gamma: float, epsilons, t_max: float) -> list[ThermalizationResult]:
    """``tsim_simulated_sl(p0, p_as[i], gamma, epsilons[i], t_max)`` for
    every i, bit for bit, from one stacked RK4 scan and bisection.

    The rows share p0, gamma and t_max, and so the step h, and step as a
    single run does, a block of _BLOCK_BYTES of generators at a time.
    ``_sl_crossings`` answers each crossed row; its ``tsim_simulated_sl``
    call over one step h, from its state at the crossing, is within
    epsilon at once and adds time 0.0.  A row unreachable by t_max takes
    its last step again from its state before it.
    """
    p0, runs = np.asarray(p0, dtype=float), list(zip(p_as, epsilons, strict=True))
    for p_a, eps in runs:
        h, steps = _sl_steps(p_a, gamma, eps, t_max, None)
    scan = lambda part: _sl_crossings(p0, [p_a for p_a, _ in part], gamma, [eps for _, eps in part], h, steps)
    results = []
    for (p_a, eps), (t, _, start) in _blocked_crossings(runs, 8 * p0.size**2, scan):
        res = tsim_simulated_sl(start[:, 0], p_a, gamma, eps, h, dt=h)
        results.append(res if res.t_sim is None else replace(res, t_sim=t + res.t_sim))
    return results


# ---------------------------------------------------------------------------
# Zero-temperature closed forms (three levels)
# ---------------------------------------------------------------------------


def _lambdas(j_tau: float) -> tuple[float, float]:
    lp, lm = flip_flop_rates(j_tau)
    if lp >= 1.0:
        raise FrozenDynamics("J*tau is a multiple of pi; populations frozen")
    return lp, lm


def _excited_d3(p0: np.ndarray) -> tuple[float, float]:
    """(p2, p3) of a three-level population vector."""
    if np.shape(p0) != (3,):
        raise ValueError(f"the Lambert closed forms are derived for d = 3 only, not p0 of shape {np.shape(p0)}")
    return float(p0[1]), float(p0[2])


def nstar_closed_d3_zeroT(p0: np.ndarray, j_tau: float, epsilon: float) -> float:
    """Real-valued n* from the Lambert closed form at p_A = 1, d = 3.

    Callers round up to an integer collision count.  The p3 -> 0 limit
    degrades to single-mode decay ln(eps/p2)/ln(lambda_+).
    """
    _check_epsilon(epsilon)
    lp, lm = _lambdas(j_tau)
    p2, p3 = _excited_d3(p0)
    log_lp = math.log(lp)
    if p3 > 0.0:
        z = log_lp * (lp * epsilon / (lm * p3)) * lp ** (lp * (p2 + p3) / (lm * p3))
        if z < _NEG_INV_E:
            raise EpsilonTooLarge(
                f"Lambert argument {z:.3e} below -1/e; epsilon too large for the closed form"
            )
        if z < 0.0:
            return -(lp / lm) * ((p2 + p3) / p3) + lambert_w(z, -1) / log_lp
        # z underflowed to zero: p3 is negligibly small, fall through
    if p2 <= 0.0:
        return 0.0
    return math.log(epsilon / p2) / log_lp


def tsim_closed_sl_zeroT(p0: np.ndarray, gamma: float, epsilon: float) -> float:
    """Simulation time from the Lambert closed form in the SL limit, p_A = 1."""
    _check_epsilon(epsilon)
    _check_gamma(gamma)
    p2, p3 = _excited_d3(p0)
    if p3 > 0.0:
        z = -(epsilon / p3) * math.exp(-(1.0 + p2 / p3))
        if z < _NEG_INV_E:
            raise EpsilonTooLarge(
                f"epsilon exceeds the validity bound p3(0) e^(p2(0)/p3(0)) = "
                f"{p3 * math.exp(p2 / p3):.3e}"
            )
        if z < 0.0:
            return -(1.0 + p2 / p3 + lambert_w(z, -1)) / gamma
    if p2 <= 0.0:
        return 0.0
    return math.log(p2 / epsilon) / gamma


# ---------------------------------------------------------------------------
# General-dimension transcendental equations at p_A = 1
# ---------------------------------------------------------------------------


def nstar_general_zeroT_solve(p0: np.ndarray, j_tau: float, epsilon: float) -> float:
    """Real n* for any dimension at p_A = 1 from the binomial-sum equation.

    At lambda_+ = 0 (J*tau an odd multiple of pi/2, below float resolution
    of the formula) the populations cascade down one level per collision
    and the integer crossing is returned directly.  NoRootBelowCap past 2^60.
    """
    _check_epsilon(epsilon)
    p0 = np.asarray(p0, dtype=float)
    d = p0.size
    lp, lm = _lambdas(j_tau)
    if lp < 1e-30:
        # after n collisions the excited weight is p0[n+1:], zero from n = d-1 on
        return float(next(n for n in range(d) if p0[n + 1 :].sum() <= epsilon))
    # S_j = sum_{k=j}^{d-2} p_{d-k+j}(0); the j-th binomial term feeds on it
    tail = [float(np.sum(p0[[d - k + j - 1 for k in range(j, d - 1)]])) for j in range(d - 1)]

    def f(n: float) -> float:
        total = 0.0
        for j, s_j in enumerate(tail):
            if s_j == 0.0:
                continue
            term = 1.0
            for i in range(j):
                term *= (n - i) * lm / (i + 1)
            total += s_j * term * lp ** (n - j)
        return total

    if f(0.0) <= epsilon:
        return 0.0
    return bisect_crossing(f, epsilon, *bracket_crossing(f, epsilon, 1.0, _NSTAR_ZEROT_CAP))[1]


def tsim_general_sl_zeroT_solve(p0: np.ndarray, gamma: float, epsilon: float) -> float:
    """Simulation time for any dimension at p_A = 1 in the SL limit;
    NoRootBelowCap past 1e12 / Gamma."""
    _check_epsilon(epsilon)
    _check_gamma(gamma)
    p0 = np.asarray(p0, dtype=float)
    d = p0.size
    tail = [float(p0[k + 1 :].sum()) for k in range(d - 1)]

    def f(t: float) -> float:
        gt = gamma * t
        total = 0.0
        power = 1.0
        for k, q_k in enumerate(tail):
            if k > 0:
                power *= gt / k
            total += q_k * power
        return math.exp(-gt) * total

    if f(0.0) <= epsilon:
        return 0.0
    return bisect_crossing(f, epsilon, *bracket_crossing(f, epsilon, 1.0 / gamma, _TSIM_ZEROT_CAP / gamma))[1]


def ceil_collisions(n_real: float) -> int:
    """Integer collision count from a real-valued closed-form n*."""
    if not math.isfinite(n_real):
        raise ValueError("n* must be finite")
    return max(0, math.ceil(n_real - 1e-9))
