"""Model builders: Hamiltonians, thermal states, and interaction variants.

Conventions.  The system has d equidistant levels with energies
omega*(k - s), k = 0..d-1 and s = (d-1)/2, so index 0 is the ground
state.  The ancilla is a qubit whose ground state comes first:
H_A = diag(-omega/2, +omega/2) and rho_A = diag(p_A, 1-p_A) with
p_A = 1/(1 + exp(-beta*omega)).  Zero temperature is the explicit
sentinel beta = math.inf, which maps to p_A = 1 exactly.

Joint-space indices are system-major: |k>_S |j>_A sits at 2*k + j.
The flip-flop interaction couples |k+1, down> with |k, up>, i.e. joint
indices 2k+2 and 2k+1, which reproduces the 6x6 three-level collision
Hamiltonian used throughout.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np


# each model parameter's domain, for the specs and the functions taking it bare

def _check_d(d) -> None:
    if not (isinstance(d, numbers.Integral) and d >= 2):
        raise ValueError("need an integer d >= 2")


def _check_omega(omega: float) -> None:
    if not 0 < omega < math.inf:
        raise ValueError("omega must be positive and finite")


def _check_beta(beta: float) -> None:
    if not beta >= 0:
        raise ValueError("beta must be >= 0 (use math.inf for zero temperature)")


def _check_coupling(j: float) -> None:
    if not 0 <= j < math.inf:
        raise ValueError("couplings must be finite and >= 0")


@dataclass(frozen=True)
class SystemSpec:
    """d-level system with splitting omega (d = 2s+1, energies omega*(k-s))."""

    d: int
    omega: float = 1.0

    def __post_init__(self):
        _check_d(self.d)
        _check_omega(self.omega)


@dataclass(frozen=True)
class AncillaSpec:
    """Qubit ancilla at inverse temperature beta (math.inf = zero temperature)."""

    omega: float
    beta: float

    def __post_init__(self):
        _check_omega(self.omega)
        _check_beta(self.beta)

    @property
    def ground_population(self) -> float:
        # exp(-inf) == 0.0, so beta = inf yields exactly 1.0
        return 1.0 / (1.0 + math.exp(-self.beta * self.omega))


@dataclass(frozen=True)
class IsotropicFlipFlop:
    """Energy-conserving nearest-level flip-flop with a single coupling J."""

    j: float

    def __post_init__(self):
        _check_coupling(self.j)


@dataclass(frozen=True)
class CounterRotating:
    """Flip-flop plus the non-conserving |k+1,up><k,down| term with strength J'."""

    j: float
    j_prime: float

    def __post_init__(self):
        _check_coupling(self.j)
        _check_coupling(self.j_prime)


@dataclass(frozen=True)
class RandomFull:
    """All joint-space off-diagonal couplings drawn fresh from U(lo, hi).

    Draws are re-derived per collision k from the generator
    ``default_rng([seed, k])``, so a given seed reproduces the whole
    coupling sequence bitwise.
    """

    lo: float
    hi: float
    seed: int

    def __post_init__(self):
        if not (self.lo < self.hi and math.isfinite(self.hi - self.lo)):
            raise ValueError("need finite lo < hi, with a finite hi - lo")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError("seed must be an integer >= 0")


Interaction = Union[IsotropicFlipFlop, CounterRotating, RandomFull]


@dataclass(frozen=True)
class ModelSpec:
    """System + ancilla + interaction bundle driving one collision stream."""

    system: SystemSpec
    ancilla: AncillaSpec
    interaction: Interaction


def flip_flop_model(d: int, omega: float, beta: float, j: float) -> ModelSpec:
    """Resonant energy-conserving model, the paper's default configuration."""
    return ModelSpec(
        system=SystemSpec(d=d, omega=omega),
        ancilla=AncillaSpec(omega=omega, beta=beta),
        interaction=IsotropicFlipFlop(j=j),
    )


def _level_energies(d: int, omega: float) -> np.ndarray:
    """The system's level energies omega*(k - s), k = 0..d-1, ground first."""
    return omega * (np.arange(d) - (d - 1) / 2)


def system_hamiltonian(spec: SystemSpec) -> np.ndarray:
    """Diagonal d x d Hamiltonian with entries omega*(k - s)."""
    return np.diag(_level_energies(spec.d, spec.omega).astype(complex))


def ancilla_thermal_state(spec: AncillaSpec) -> np.ndarray:
    """Gibbs state diag(p_A, 1 - p_A) of the ancilla qubit."""
    p_a = spec.ground_population
    return np.diag(np.array([p_a, 1.0 - p_a], dtype=complex))


def system_gibbs_state(spec: SystemSpec, beta: float) -> np.ndarray:
    """Canonical thermal state of the system at inverse temperature beta."""
    return np.diag(gibbs_populations(spec.d, spec.omega, beta).astype(complex))


def gibbs_populations(d: int, omega: float, beta: float) -> np.ndarray:
    """Thermal populations exp(-beta E_k)/Z as a real vector."""
    _check_d(d)
    _check_omega(omega)
    _check_beta(beta)
    if math.isinf(beta):
        p = np.zeros(d)
        p[0] = 1.0
        return p
    energies = _level_energies(d, omega)
    weights = np.exp(-beta * (energies - energies[0]))
    return weights / weights.sum()


def _flip_flop_pairs(d: int):
    # |k+1, down> <-> |k, up>: joint indices (2k+2, 2k+1)
    return [(2 * k + 2, 2 * k + 1) for k in range(d - 1)]


def _counter_rotating_pairs(d: int):
    # |k+1, up> <-> |k, down>: joint indices (2k+3, 2k)
    return [(2 * k + 3, 2 * k) for k in range(d - 1)]


@functools.lru_cache(maxsize=64)
def _upper_triangle(dim: int) -> tuple[np.ndarray, np.ndarray]:
    # np.triu_indices(dim, 1), made once per dim; read-only, as every caller shares it
    rows, cols = np.triu_indices(dim, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _entropy_words(n) -> list[int]:
    """The int n as numpy's SeedSequence reads it: little-endian 32-bit
    words, one word for 0.  A non-integer raises TypeError and a negative
    n ValueError, as SeedSequence does."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def _random_couplings(d: int, interactions, collision: int) -> np.ndarray:
    """The (B, 2d, 2d) H_I stack of RandomFull interactions at one collision.

    Row b holds ``default_rng([seed_b, collision]).uniform(lo_b, hi_b)``,
    one draw per strict upper-triangle entry in row-major order, mirrored
    below the diagonal.  Each generator is built as
    ``Generator(PCG64(SeedSequence(words)))`` from the uint32 words numpy
    itself makes of the list [seed, collision] (``_entropy_words``), so
    its pool, and every draw, is default_rng's bit for bit, without the
    per-call coercion of the list.
    """
    dim = 2 * d
    rows, cols = _upper_triangle(dim)
    collision_words = _entropy_words(collision)
    draws = np.empty((len(interactions), rows.size))
    for draw, ispec in zip(draws, interactions):
        words = np.array(_entropy_words(ispec.seed) + collision_words, dtype=np.uint32)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
        draw[:] = rng.uniform(ispec.lo, ispec.hi, rows.size)
    h_i = np.zeros((len(interactions), dim, dim), dtype=complex)
    h_i[:, rows, cols] = draws
    h_i[:, cols, rows] = draws
    return h_i


def interaction_hamiltonian(
    sys: SystemSpec, ispec: Interaction, collision: int = 0
) -> np.ndarray:
    """Interaction Hamiltonian on the 2d-dimensional joint space.

    For RandomFull the couplings are drawn from ``default_rng([seed,
    collision])``, one draw per strict upper-triangle entry in row-major
    order: the one-row case of ``_random_couplings``.
    """
    if isinstance(ispec, RandomFull):
        return _random_couplings(sys.d, [ispec], collision)[0]
    if not isinstance(ispec, (IsotropicFlipFlop, CounterRotating)):
        raise TypeError(f"unknown interaction spec {type(ispec).__name__}")
    dim = 2 * sys.d
    h_i = np.zeros((dim, dim), dtype=complex)
    for i, j in _flip_flop_pairs(sys.d):
        h_i[i, j] = h_i[j, i] = ispec.j
    if isinstance(ispec, CounterRotating):
        for i, j in _counter_rotating_pairs(sys.d):
            h_i[i, j] = h_i[j, i] = ispec.j_prime
    return h_i


def bare_hamiltonian(sys: SystemSpec, anc: AncillaSpec) -> np.ndarray:
    """Non-interacting part H_S (x) I_A + I_S (x) H_A: the diagonal E_k + e_a
    at joint index 2k + a, built without a Kronecker product."""
    levels = _level_energies(sys.d, sys.omega)
    return np.diag(np.add.outer(levels, [-anc.omega / 2, anc.omega / 2]).ravel().astype(complex))


def total_hamiltonian(
    sys: SystemSpec, anc: AncillaSpec, ispec: Interaction, collision: int = 0
) -> np.ndarray:
    """Full collision Hamiltonian H_0 + H_I on the joint space."""
    return bare_hamiltonian(sys, anc) + interaction_hamiltonian(sys, ispec, collision)


def random_density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (Ginibre construction).

    Convention for "random initial state" runs; the underlying ensemble is
    not pinned by the physics.
    """
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
