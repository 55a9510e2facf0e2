"""A fuzz over the public API's input contract.

Each checked value of each public function (d, omega, beta, the
couplings, p_A, J*tau, omega*tau, tau, n_max, epsilon, Gamma, lo, hi,
seed and the collision counts) is set in turn to NaN, +-inf, 0, -1, a
value just past its bound and a drawn value.  The call must raise a
ValueError or a package error, or return a finite result: never another
exception, and never a NaN or an infinity.
"""

import dataclasses
import math
import numbers

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ri_thermalizer as rt
from ri_thermalizer.collisions import sl_population_generator
from ri_thermalizer.errors import RIThermalizerError

P3 = np.full(3, 1 / 3)
DP3 = P3 - rt.stationary_populations_d3(0.8)
C3 = (0.1 + 0.05j, 0.02j, 0.05)
MODEL = rt.flip_flop_model(3, 1.0, 2.0, 1.0)

# each function with valid arguments; the fuzz replaces one keyword at a time
CASES = {
    "SystemSpec": (rt.SystemSpec, dict(d=3, omega=1.0)),
    "AncillaSpec": (rt.AncillaSpec, dict(omega=1.0, beta=2.0)),
    "IsotropicFlipFlop": (rt.IsotropicFlipFlop, dict(j=1.0)),
    "CounterRotating": (rt.CounterRotating, dict(j=1.0, j_prime=0.5)),
    "RandomFull": (rt.RandomFull, dict(lo=0.1, hi=0.9, seed=3)),
    "flip_flop_model": (rt.flip_flop_model, dict(d=3, omega=1.0, beta=2.0, j=1.0)),
    "gibbs_populations": (rt.gibbs_populations, dict(d=3, omega=1.0, beta=2.0)),
    "CollisionConfig": (rt.CollisionConfig, dict(tau=1.0, n_max=10, epsilon=1e-3)),
    "collision_unitary": (lambda tau: rt.collision_unitary(MODEL, tau), dict(tau=0.5)),
    "eta_coefficients": (rt.eta_coefficients, dict(p_a=0.8, j_tau=0.5)),
    "psi_coefficients": (rt.psi_coefficients, dict(p_a=0.8, j_tau=0.5)),
    "population_step_matrix": (rt.population_step_matrix, dict(d=3, p_a=0.8, j_tau=0.5)),
    "evolve_populations": (lambda p_a, j_tau, n: rt.evolve_populations(P3, p_a, j_tau, n), dict(p_a=0.8, j_tau=0.5, n=3)),
    "step_coherences_d3": (
        lambda p_a, j_tau, omega_tau: rt.step_coherences_d3(*C3, p_a, j_tau, omega_tau),
        dict(p_a=0.8, j_tau=0.5, omega_tau=1.0),
    ),
    "evolve_coherences_d3": (
        lambda p_a, j_tau, omega_tau, n: rt.evolve_coherences_d3(C3, p_a, j_tau, omega_tau, n),
        dict(p_a=0.8, j_tau=0.5, omega_tau=1.0, n=3),
    ),
    "evolve": (lambda n: rt.evolve(np.eye(3) / 3, MODEL, rt.CollisionConfig(1.0, 50, 1e-3), n), dict(n=3)),
    "zero_temp_populations_closed": (lambda n, j_tau: rt.zero_temp_populations_closed(P3, n, j_tau), dict(n=4, j_tau=0.5)),
    "zero_temp_coherences_d3_closed": (
        lambda n, j_tau, omega_tau: rt.zero_temp_coherences_d3_closed(C3, n, j_tau, omega_tau),
        dict(n=4, j_tau=0.5, omega_tau=1.0),
    ),
    "sl_population_generator": (sl_population_generator, dict(d=3, p_a=0.8, gamma=1.0)),
    "sl_ode_populations": (lambda p_a, gamma: rt.sl_ode_populations(P3, p_a, gamma, 1.0), dict(p_a=0.8, gamma=1.0)),
    "sl_ode_coherences_d3": (lambda p_a, gamma: rt.sl_ode_coherences_d3(C3, p_a, gamma, 1.0), dict(p_a=0.8, gamma=1.0)),
    "sl_ode_nonconserving_d3": (
        lambda p_a, gamma1, gamma2, gamma12: rt.sl_ode_nonconserving_d3(P3, 0.1j, p_a, gamma1, gamma2, gamma12, 1.0),
        dict(p_a=0.8, gamma1=1.0, gamma2=0.25, gamma12=0.5),
    ),
    "nstar_closed_d3_zeroT": (lambda j_tau, epsilon: rt.nstar_closed_d3_zeroT(P3, j_tau, epsilon), dict(j_tau=0.5, epsilon=1e-3)),
    "nstar_general_zeroT_solve": (lambda j_tau, epsilon: rt.nstar_general_zeroT_solve(P3, j_tau, epsilon), dict(j_tau=0.5, epsilon=1e-3)),
    "tsim_closed_sl_zeroT": (lambda gamma, epsilon: rt.tsim_closed_sl_zeroT(P3, gamma, epsilon), dict(gamma=1.0, epsilon=1e-3)),
    "tsim_general_sl_zeroT_solve": (lambda gamma, epsilon: rt.tsim_general_sl_zeroT_solve(P3, gamma, epsilon), dict(gamma=1.0, epsilon=1e-3)),
    # dt fixed, so a large valid Gamma is StepTooLarge and not a long scan
    "tsim_simulated_sl": (
        lambda p_a, gamma, epsilon: rt.tsim_simulated_sl(P3, p_a, gamma, epsilon, 1.0, dt=0.01),
        dict(p_a=0.8, gamma=1.0, epsilon=1e-3),
    ),
    "tsim_simulated_sl_batch": (
        lambda p_a, gamma, epsilon: rt.tsim_simulated_sl_batch(P3, [0.9, p_a], gamma, [1e-3, epsilon], 1.0),
        dict(p_a=0.8, gamma=1.0, epsilon=1e-3),
    ),
    "ceil_collisions": (rt.ceil_collisions, dict(n_real=2.5)),
    "theta": (rt.theta, dict(p_a=0.8)),
    "stationary_populations_d3": (rt.stationary_populations_d3, dict(p_a=0.8)),
    "stochastic_matrix": (rt.stochastic_matrix, dict(d=3, p_a=0.8, j_tau=0.5)),
    "liouvillian_matrix": (rt.liouvillian_matrix, dict(d=3, p_a=0.8, gamma=1.0)),
    "xi_closed": (rt.xi_closed, dict(d=3, p_a=0.8, j_tau=0.5)),
    "lambda_closed": (rt.lambda_closed, dict(d=3, p_a=0.8, gamma=1.0)),
    "right_eigenvectors_d3": (rt.right_eigenvectors_d3, dict(p_a=0.8)),
    "left_slow_eigenvector_d3": (rt.left_slow_eigenvector_d3, dict(p_a=0.8)),
    "slow_mode_projection": (lambda p_a: rt.slow_mode_projection(DP3, p_a), dict(p_a=0.8)),
    "tsim_estimate_sl": (
        lambda p_a, gamma, epsilon: rt.tsim_estimate_sl(DP3, p_a, gamma, epsilon),
        dict(p_a=0.8, gamma=1.0, epsilon=1e-4),
    ),
    "nstar_estimate_discrete": (
        lambda p_a, j_tau, epsilon: rt.nstar_estimate_discrete(DP3, p_a, j_tau, epsilon),
        dict(p_a=0.8, j_tau=0.5, epsilon=1e-4),
    ),
    "slow_mode_validity": (lambda p_a, epsilon: rt.slow_mode_validity(DP3, p_a, epsilon, 0.3, 1.2), dict(p_a=0.8, epsilon=1e-4)),
    "c13_steady_state": (
        lambda gamma1, gamma2, gamma12: rt.c13_steady_state(gamma1, gamma2, gamma12, rt.stationary_populations_d3(0.8)),
        dict(gamma1=1.0, gamma2=0.25, gamma12=0.5),
    ),
}
# a value just past each argument's bound; -5e-324 for a bound at 0
PAST = {
    "d": [1],
    "p_a": [math.nextafter(1.0, 2.0)],
    "epsilon": [1.0, math.nextafter(1.0, 2.0)],
    "j_tau": [1e308, -1e308],
    "n_real": [1e308],
    "hi": [0.1],
    "lo": [0.9],
}
INTEGERS = {"d", "n", "n_max", "seed"}


def _finite(out) -> bool:
    if dataclasses.is_dataclass(out):
        fields = {field.name: getattr(out, field.name) for field in dataclasses.fields(out)}
        if fields.get("beta") == math.inf:  # the zero-temperature sentinel
            del fields["beta"]
        return _finite(list(fields.values()))
    if isinstance(out, (tuple, list)):
        return all(_finite(item) for item in out)
    # None is an unreached count or time, an int a count of any size
    if out is None or isinstance(out, (str, numbers.Integral)):
        return True
    return bool(np.all(np.isfinite(out)))


@pytest.mark.parametrize(
    "name, arg", [pytest.param(name, arg, id=f"{name}-{arg}") for name, (_, kwargs) in CASES.items() for arg in kwargs]
)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(drawn=st.integers(-3, 40) | st.floats(-2.0, 2.0))
def test_a_checked_value_raises_or_gives_a_finite_result(name, arg, drawn):
    call, kwargs = CASES[name]
    if arg in INTEGERS:
        drawn = int(drawn)
    for value in (drawn, math.nan, math.inf, -math.inf, 0, -1, *PAST.get(arg, [-5e-324])):
        try:
            out = call(**{**kwargs, arg: value})
        except (ValueError, RIThermalizerError):
            continue
        assert _finite(out), f"{name}({arg}={value!r}) returned {out!r}"


# n = 0 collisions, with one value out of its domain: a trajectory or closed
# form checks its values before the first collision, whatever n is
NO_COLLISIONS = {
    "evolve_coherences_d3-p_a": lambda: rt.evolve_coherences_d3(C3, 2.0, 0.5, 0.3, 0),
    "evolve_coherences_d3-j_tau": lambda: rt.evolve_coherences_d3(C3, 0.8, math.nan, 0.3, 0),
    "evolve_coherences_d3-omega_tau": lambda: rt.evolve_coherences_d3(C3, 0.8, 0.5, math.inf, 0),
    "zero_temp_coherences_d3_closed-j_tau": lambda: rt.zero_temp_coherences_d3_closed(C3, 0, math.nan, 0.3),
    "zero_temp_coherences_d3_closed-omega_tau": lambda: rt.zero_temp_coherences_d3_closed(C3, 0, 0.5, math.nan),
}


@pytest.mark.parametrize("name", NO_COLLISIONS)
def test_no_collisions_still_check_their_values(name):
    with pytest.raises(ValueError):
        NO_COLLISIONS[name]()


@pytest.mark.parametrize("gamma", [math.nan, -1.0])
def test_an_sl_generator_rejects_a_rate_that_is_not_finite_and_nonnegative(gamma):
    # NaN gave a NaN matrix and -1 negative rates; Gamma = 0 is the zero generator
    with pytest.raises(ValueError, match="rates must be >= 0 and finite"):
        sl_population_generator(3, 0.9, gamma)
    assert not sl_population_generator(3, 0.9, 0.0).any()


SL_CROSSINGS = {
    "tsim_simulated_sl": lambda p0: rt.tsim_simulated_sl(p0, 0.9, 1.0, 1e-3, 1e4),
    "tsim_simulated_sl_batch": lambda p0: rt.tsim_simulated_sl_batch(p0, [0.9, 0.8], 1.0, [1e-3, 1e-3], 1e4),
}


@pytest.mark.parametrize("name", SL_CROSSINGS)
@pytest.mark.parametrize("p0", [[math.nan, 0.5, 0.5], [math.inf, 0.0, 0.0], np.eye(3) / 3], ids=["nan", "inf", "2-d"])
def test_an_sl_crossing_rejects_a_start_that_is_not_a_finite_vector(monkeypatch, name, p0):
    # a NaN start scanned all 10^6 RK4 steps to the cap; a 2-D one failed in matmul
    built = []
    monkeypatch.setattr(rt.simtime, "_sl_generators", lambda *args: built.append(args))
    with pytest.raises(ValueError, match="p0 must be a finite 1-D vector"):
        SL_CROSSINGS[name](np.array(p0))
    assert built == []


def _with_entry(value, where):
    """The maximally mixed three-level state with one entry set to value."""
    rho = np.eye(3, dtype=complex) / 3
    rho[(1, 1) if where == "diagonal" else (0, 2)] = value
    return rho


def _model():
    # a fresh spec per call, so no Gibbs target cached by an earlier test hides a build
    return rt.flip_flop_model(3, 1.0, 2.0, 1.0)


CFG = rt.CollisionConfig(tau=1.0, n_max=10, epsilon=1e-3)
RANDOM = [rt.ModelSpec(rt.SystemSpec(3), rt.AncillaSpec(1.0, 2.0), rt.RandomFull(0.1, 0.9, seed)) for seed in (1, 2)]
# every simulated run from a density matrix, on each engine it takes
STATE_RUNS = {
    "nstar_simulated-auto": lambda rho0: rt.nstar_simulated(rho0, _model(), CFG),
    "nstar_simulated-recursion": lambda rho0: rt.nstar_simulated(rho0, _model(), CFG, engine="recursion"),
    "nstar_simulated-brute_force": lambda rho0: rt.nstar_simulated(rho0, _model(), CFG, engine="brute_force"),
    "nstar_simulated_batch-recursion": lambda rho0: rt.nstar_simulated_batch(rho0, [_model()] * 2, [CFG] * 2, engine="recursion"),
    "nstar_simulated_batch-brute_force": lambda rho0: rt.nstar_simulated_batch(rho0, [_model()] * 2, [CFG] * 2),
    "nstar_simulated_batch-RandomFull": lambda rho0: rt.nstar_simulated_batch(rho0, RANDOM, [CFG] * 2),
    "collide_once": lambda rho0: rt.collide_once(rho0, _model(), CFG),
    "evolve": lambda rho0: rt.evolve(rho0, _model(), CFG, 3),
}
# what a run builds from its model: Gibbs targets, population maps, unitaries
BUILDERS = [
    (rt.models, "_gibbs_stack"),
    (rt.simtime, "_gibbs_rows"),
    (rt.simtime, "_population_maps"),
    (rt.collisions, "unitary_from_hamiltonian"),
    (rt.simtime, "unitary_from_hamiltonian"),
]


def _recorded(function, name, calls):
    def recorded(*args):
        calls.append(name)
        return function(*args)

    return recorded


@pytest.mark.parametrize("name", STATE_RUNS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.1, math.nan)], ids=["nan", "inf", "-inf", "nan-imag"])
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
def test_a_state_with_an_entry_that_is_not_finite_raises_before_any_build(monkeypatch, name, value, where):
    # inf ended in a RuntimeWarning (from _is_diagonal or the joint state's
    # multiply) and NaN in NoConvergence from eigvalsh, or, from collide_once,
    # in an all-NaN state
    built = []
    for module, attr in BUILDERS:
        monkeypatch.setattr(module, attr, _recorded(getattr(module, attr), attr, built))
    with pytest.raises(ValueError, match="expected finite entries"):
        STATE_RUNS[name](_with_entry(value, where))
    assert built == []


# each zero-temperature closed form, with one entry of its p0 set to a value
CLOSED_FORMS = {
    "nstar_closed_d3_zeroT": lambda p0: rt.nstar_closed_d3_zeroT(p0, 0.3, 1e-3),
    "tsim_closed_sl_zeroT": lambda p0: rt.tsim_closed_sl_zeroT(p0, 1.0, 1e-3),
    "nstar_general_zeroT_solve": lambda p0: rt.nstar_general_zeroT_solve(p0, 0.3, 1e-3),
    "tsim_general_sl_zeroT_solve": lambda p0: rt.tsim_general_sl_zeroT_solve(p0, 1.0, 1e-3),
}


@pytest.mark.parametrize("name", CLOSED_FORMS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", [0, 1, 2])
def test_a_closed_form_rejects_a_p0_entry_that_is_not_finite(name, value, entry):
    # each returned a number: tsim_general_sl_zeroT_solve([0.2, nan, 0.5], 1,
    # 1e-3) gave 1.0 and nstar_general_zeroT_solve([0.2, 0.3, inf], 0.3, 1e-3)
    # 8192.0; an unused p1 was never read
    p0 = [0.2, 0.3, 0.5]
    p0[entry] = value
    with pytest.raises(ValueError, match="expected finite entries"):
        CLOSED_FORMS[name](p0)
