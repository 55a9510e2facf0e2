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


def _check_levels(d, omega: float) -> None:
    """d levels omega apart, whose span omega * (d - 1) is a finite float."""
    _check_d(d)
    _check_omega(omega)
    if not omega * (d - 1) < math.inf:
        raise ValueError(f"the level span omega * (d - 1) = {omega!r} * {d - 1} is not finite")


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
        _check_levels(self.d, self.omega)


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
    """Thermal populations exp(-beta E_k)/Z, the one-row case of ``_gibbs_stack``."""
    return _gibbs_stack(d, [omega], [beta])[0]


def _gibbs_stack(d: int, omegas, betas) -> np.ndarray:
    """``gibbs_populations`` of each (omega, beta) pair, stacked on axis 0,
    after checking every pair.  The ground weight is exp(0) = 1 exactly;
    at zero temperature every excited exponent stays -inf, also where a
    subnormal omega rounds an excited energy onto the ground's."""
    for omega, beta in zip(omegas, betas, strict=True):
        _check_levels(d, omega)
        _check_beta(beta)
    omegas, betas = np.array(omegas, dtype=float)[:, None], np.array(betas, dtype=float)[:, None]
    energies = _level_energies(d, omegas)
    exponents = np.full((len(betas), d), -math.inf)
    exponents[:, 0] = 0.0
    with np.errstate(over="ignore"):  # -beta times a huge span may round to -inf, of weight 0
        np.multiply(-betas, energies[:, 1:] - energies[:, :1], out=exponents[:, 1:], where=betas < math.inf)
    weights = np.exp(exponents)
    return weights / weights.sum(axis=1, keepdims=True)


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


# numpy's SeedSequence hash (numpy.random.bit_generator), on uint32 arrays that
# wrap as its C code does; PCG64 seeds from 128-bit (seed, stream) with
# inc = 2 stream + 1 and state = ((inc + seed) * MULT + inc) mod 2^128
_POOL, _INIT_A, _MULT_A, _INIT_B, _MULT_B = 4, 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG64_MULT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), 0x2360ED051FC65DA44385DF649FCCF645


@functools.lru_cache(maxsize=64)
def _hash_pairs(hash_const: int, mult: int, n: int) -> np.ndarray:
    """The (2, n) uint32 (xor, mul) pairs of n successive hashmix calls."""
    pairs = [(hash_const, hash_const := hash_const * mult & 0xFFFFFFFF) for _ in range(n)]
    return np.array(pairs, dtype=np.uint32).T


@functools.lru_cache(maxsize=64)
def _pool_pairs(width: int) -> np.ndarray:
    """mix_entropy's pairs for width >= 4 words, (2, width + 1, 4) by step
    and pool word: the first four words, each pool word mixed into the
    others (a dummy pair in its own lane), then each further word."""
    return np.insert(_hash_pairs(_INIT_A, _MULT_A, 4 * width), [4, 8, 12, 16], 0, axis=1).reshape(2, width + 1, 4)


def _hashmix(value: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    value = (value ^ pairs[0]) * pairs[1]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> 16)


def _seed_states(entropy, n_words: int) -> np.ndarray:
    """``np.random.SeedSequence(words).generate_state(n_words, np.uint64)``
    of each list of uint32 words in entropy, as one (B, n_words) stack.  A
    row hashes as if zero-padded to the pool, as in numpy, and its words
    past the pool are mixed in under a mask of the rows that have them."""
    lengths = [len(words) for words in entropy]
    width = max([_POOL, *lengths])
    words = np.array([w + [0] * (width - len(w)) for w in entropy], dtype=np.uint32).reshape(len(entropy), width)
    pairs = _pool_pairs(width)
    pool = _hashmix(words[:, :_POOL], pairs[:, 0])
    for src in range(_POOL):
        mixed = _mix(pool, _hashmix(pool[:, src, None], pairs[:, 1 + src]))
        mixed[:, src] = pool[:, src]
        pool = mixed
    for src in range(_POOL, width):
        pool = np.where(np.greater(lengths, src)[:, None], _mix(pool, _hashmix(words[:, src, None], pairs[:, 1 + src])), pool)
    n = 2 * n_words
    state = _hashmix(np.concatenate([pool] * -(-n // _POOL), axis=1)[:, :n], _hash_pairs(_INIT_B, _MULT_B, n))
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)  # as numpy reads the words


# 0-d uint64 arrays, which a ufunc takes about 0.7 us faster than Python ints
_U1, _U11, _U32, _U58, _U63, _U64, _LOW32 = (np.array(x, dtype=np.uint64) for x in (1, 11, 32, 58, 63, 64, 2**32 - 1))


@functools.lru_cache(maxsize=64)
def _jump_constants(n: int) -> np.ndarray:
    """The read-only (4, 2, 1, n) hi and lo words, and lo's 32-bit limbs, of
    (P_j, Q_j) for draws j = 1..n, P_j = M^(j+1) and Q_j = M^(j+1) + M^j + S_j
    with S_j = sum_{i<j} M^i: after draw j, PCG64 seeded from SeedSequence
    words (s, i) is in state P_j s + Q_j c mod 2^128, with c = 2i + 1."""
    pairs, m_j, s_j = [], 1, 0  # M^j and S_j, from j = 0
    for _ in range(n):
        m_j, s_j = m_j * _PCG64_MULT % 2**128, s_j + m_j
        pairs.append((p_j := m_j * _PCG64_MULT % 2**128, (p_j + m_j + s_j) % 2**128))
    words = [[[x >> shift & 2**width - 1 for x in col] for shift, width in ((64, 64), (0, 64), (0, 32), (32, 32))] for col in zip(*pairs)]
    words = np.array(words, dtype=np.uint64).swapaxes(0, 1)[:, :, None]
    words.flags.writeable = False
    return words


def _jump_draws(states: np.ndarray, interactions, n: int) -> np.ndarray:
    """The (B, n) ``uniform(lo, hi, n)`` draws of interactions' PCG64s from
    their (B, 4) SeedSequence states: each draw's state in closed form, then
    XSL-RR and lo + (hi - lo) u, u = (out >> 11) 2^-53, as numpy's C where it
    does not fuse that into an FMA (x86-64); the default_rng tests check it."""
    words = states.T.copy()  # (s_hi, s_lo, i_hi, i_lo), then i -> c = 2i + 1
    words[2], words[3] = words[2] << _U1 | words[3] >> _U63, words[3] << _U1 | _U1
    b_hi, b_lo = words.reshape(2, 2, -1, 1).swapaxes(0, 1)
    a_hi, a_lo, a0, a1 = _jump_constants(n)
    # (P_j s, Q_j c) mod 2^128 as (hi, lo): the carries out of the low words'
    # product come from 32-bit limbs, the rest wraps mod 2^64 as arrays do
    b0, b1 = b_lo & _LOW32, b_lo >> _U32
    mid = a1 * b0 + (a0 * b0 >> _U32)
    mid2 = a0 * b1 + (mid & _LOW32)
    prod_hi, prod_lo = a1 * b1 + (mid >> _U32) + (mid2 >> _U32) + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo
    low = prod_lo[0] + prod_lo[1]
    high = prod_hi[0] + prod_hi[1] + (low < prod_lo[0])
    out, rot = high ^ low, high >> _U58
    out = out >> rot | out << (_U64 - rot & _U63)
    lo, hi = np.array([(ispec.lo, ispec.hi) for ispec in interactions], dtype=float).reshape(-1, 2).T[:, :, None]
    return lo + (hi - lo) * ((out >> _U11) * 2.0**-53)


def _random_couplings(d: int, interactions, collision) -> np.ndarray:
    """The (B, 2d, 2d) H_I stack of RandomFull interactions at collision
    index collision, or at collision[b] for row b if it is a list, tuple
    or range.

    Row b holds ``default_rng([seed_b, k_b]).uniform(lo_b, hi_b)``, one
    draw per strict upper-triangle entry in row-major order, mirrored
    below the diagonal: the SeedSequence hashes of every row's [seed, k]
    (``_entropy_words``) run as one stack, and ``_jump_draws`` draws in
    stacks of whole rows, about 2^12 draws, whose temporaries stay in cache.
    """
    dim = 2 * d
    rows, cols = _upper_triangle(dim)
    if isinstance(collision, (list, tuple, range)):
        collision_words = [_entropy_words(k) for k in collision]
    else:
        collision_words = [_entropy_words(collision)] * len(interactions)
    entropy = [_entropy_words(ispec.seed) + words for ispec, words in zip(interactions, collision_words, strict=True)]
    states, step = _seed_states(entropy, 4), max(1, 2**12 // rows.size)
    h_i = np.zeros((len(interactions), dim, dim), dtype=complex)
    for b in range(0, len(interactions), step):
        h_i[b:b + step, rows, cols] = h_i[b:b + step, cols, rows] = _jump_draws(states[b:b + step], interactions[b:b + step], rows.size)
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
    _check_d(d)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
