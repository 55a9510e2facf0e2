"""Thermal state preparation by repeated qubit-ancilla interactions.

A d-level system collides with a stream of fresh thermal qubits.  The
package provides the exact collision dynamics (CPTP map and recursion
maps), the stroboscopic-Lindblad ODE limit, closed-form spectra and
slow-mode estimates that explain the Mpemba-like nonmonotonicity of the
preparation time, and Lambert-W closed forms for the zero-temperature
simulation cost.
"""

from .collisions import (
    CollisionConfig,
    EtaCoefficients,
    OdeTrajectory,
    PsiCoefficients,
    TrajectoryRecord,
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
from .linalg import (
    HermitianEigenDecomposition,
    hermitian_eigen,
    partial_trace_second,
    trace_distance,
    unitary_from_hamiltonian,
)
from .models import (
    AncillaSpec,
    CounterRotating,
    IsotropicFlipFlop,
    ModelSpec,
    RandomFull,
    SystemSpec,
    ancilla_thermal_state,
    flip_flop_model,
    gibbs_populations,
    interaction_hamiltonian,
    random_density_matrix,
    system_gibbs_state,
    system_hamiltonian,
    total_hamiltonian,
)
from .simtime import (
    ThermalizationResult,
    ceil_collisions,
    lambert_w,
    nstar_closed_d3_zeroT,
    nstar_general_zeroT_solve,
    nstar_simulated,
    nstar_simulated_batch,
    population_distance,
    tsim_closed_sl_zeroT,
    tsim_general_sl_zeroT_solve,
    tsim_simulated_sl,
    tsim_simulated_sl_batch,
)
from .spectra import (
    SlowModeSummary,
    SlowModeValidity,
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
from .sweeps import (
    SweepRecord,
    SweepSpec,
    emit_csv,
    format_csv,
    parse_config,
    parse_csv,
    run_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
