"""A fuzz over the public API's input contract.

Each checked value of each public function (d, omega, beta, the
couplings, p_A, J*tau, tau, n_max, epsilon, Gamma, lo, hi, seed and the
collision counts) is set in turn to NaN, +-inf, 0, -1, a value just past
its bound and a drawn value.  The call must raise a ValueError or a
package error, or return a finite result: never another exception, and
never a NaN or an infinity.
"""

import dataclasses
import math
import numbers

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ri_thermalizer as rt
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
    "step_coherences_d3": (lambda p_a, j_tau: rt.step_coherences_d3(*C3, p_a, j_tau, 1.0), dict(p_a=0.8, j_tau=0.5)),
    "evolve_coherences_d3": (lambda p_a, j_tau, n: rt.evolve_coherences_d3(C3, p_a, j_tau, 1.0, n), dict(p_a=0.8, j_tau=0.5, n=3)),
    "evolve": (lambda n: rt.evolve(np.eye(3) / 3, MODEL, rt.CollisionConfig(1.0, 50, 1e-3), n), dict(n=3)),
    "zero_temp_populations_closed": (lambda n, j_tau: rt.zero_temp_populations_closed(P3, n, j_tau), dict(n=4, j_tau=0.5)),
    "zero_temp_coherences_d3_closed": (lambda n, j_tau: rt.zero_temp_coherences_d3_closed(C3, n, j_tau, 1.0), dict(n=4, j_tau=0.5)),
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
