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

    @functools.cached_property
    def gibbs_populations(self) -> np.ndarray:
        """``gibbs_populations`` at the ancilla's beta, read-only, built once per spec (here or by ``_gibbs_rows``)."""
        return _read_only(gibbs_populations(self.system.d, self.system.omega, self.ancilla.beta))

    @functools.cached_property
    def gibbs_target(self) -> np.ndarray:
        """``system_gibbs_state`` at the ancilla's beta, read-only: the diagonal of the cached ``gibbs_populations``."""
        return _read_only(_diagonal_state(self.gibbs_populations))

    def __setstate__(self, state: dict) -> None:  # numpy unpickles the cached arrays writeable
        vars(self).update(state)
        for name in state.keys() & {"gibbs_populations", "gibbs_target"}:
            state[name].flags.writeable = False


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _gibbs_rows(models) -> np.ndarray:
    """The (B, d) stack of the ``gibbs_populations`` of models of one d: those
    lacking theirs (each once, by identity) fill them from one ``_gibbs_stack``."""
    lacking = list({id(m): m for m in models if "gibbs_populations" not in vars(m)}.values())
    stack = _read_only(_gibbs_stack(lacking[0].system.d, [m.system.omega for m in lacking], [m.ancilla.beta for m in lacking])) if lacking else []
    for m, row in zip(lacking, stack):
        vars(m)["gibbs_populations"] = row
    return np.stack([m.gibbs_populations for m in models])


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
    return _diagonal_state(gibbs_populations(spec.d, spec.omega, beta))


def _diagonal_state(populations: np.ndarray) -> np.ndarray:
    return np.diag(populations.astype(complex))


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


@functools.lru_cache(maxsize=64)
def _upper_triangle(dim: int) -> tuple[np.ndarray, np.ndarray]:
    # np.triu_indices(dim, 1), made once per dim; read-only, as every caller shares it
    rows, cols = np.triu_indices(dim, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _check_index(n) -> int:
    """n as an int, checked as SeedSequence checks a seed or collision index."""
    if (n := operator.index(n)) < 0:
        raise ValueError("expected non-negative integer")
    return n


def _entropy_array(ints) -> tuple[np.ndarray, np.ndarray]:
    """Each int's little-endian 32-bit words (one for 0), as SeedSequence reads
    and checks them, zero-padded to one (N, W) uint32 array, and their counts."""
    ints = [_check_index(n) for n in ints]
    counts = [(n.bit_length() + 31) // 32 or 1 for n in ints]
    shifts = range(0, 32 * max(counts, default=1), 32)
    return np.array([n >> s & 0xFFFFFFFF for n in ints for s in shifts], dtype=np.uint32).reshape(-1, len(shifts)), np.array(counts, dtype=int)


# RandomFull rows draw as many collisions ahead as fill this many (2d, 2d)
# entries: 455 of one row at d = 3, 7 of 64 rows, one of 64 rows at d = 12
_DRAW_CHUNK_ENTRIES = 2**14
# numpy's SeedSequence hash (numpy.random.bit_generator), on uint32 arrays that
# wrap as its C code does; PCG64 seeds from 128-bit (seed, stream) with
# inc = 2 stream + 1 and state = ((inc + seed) * MULT + inc) mod 2^128
_POOL, _INIT_A, _MULT_A, _INIT_B, _MULT_B = 4, 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _U16 = (np.array(x, dtype=np.uint32) for x in (0xCA01F9DD, 0x4973F715, 16))  # 0-d, as _U1 below
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
    return value ^ (value >> _U16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> _U16)


def _seed_states(words: np.ndarray, lengths, n_words: int) -> np.ndarray:
    """``SeedSequence(row[:length]).generate_state(n_words, np.uint64)`` of
    each row of the (B, W) uint32 words, zero past its length, as one (B,
    n_words) stack.  A row hashes as if zero-padded to the pool, as in numpy,
    and its words past the pool are mixed in under a mask of the rows."""
    words = words if words.shape[1] >= _POOL else np.concatenate([words, np.zeros((len(words), _POOL - words.shape[1]), np.uint32)], axis=1)
    pairs = _pool_pairs(words.shape[1])
    pool = _hashmix(words[:, :_POOL], pairs[:, 0])
    for src in range(_POOL):
        mixed = _mix(pool, _hashmix(pool[:, src, None], pairs[:, 1 + src]))
        mixed[:, src] = pool[:, src]
        pool = mixed
    for src in range(_POOL, words.shape[1]):
        pool = np.where(np.greater(lengths, src)[:, None], _mix(pool, _hashmix(words[:, src, None], pairs[:, 1 + src])), pool)
    n = 2 * n_words
    state = _hashmix(np.concatenate([pool] * -(-n // _POOL), axis=1)[:, :n], _hash_pairs(_INIT_B, _MULT_B, n))
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)  # as numpy reads the words


# 0-d uint64 arrays, which a ufunc takes about 0.7 us faster than Python ints, 0.2-0.4 us than numpy scalars
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


def _jump_draws(states: np.ndarray, lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """The (B, n) ``uniform(lo, hi, n)`` draws of B PCG64s from their (B, 4)
    SeedSequence states and (B, 1) lo and hi: each draw's state in closed form, then
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
    return lo + (hi - lo) * ((out >> _U11) * 2.0**-53)


def _draw_inputs(interactions) -> tuple[np.ndarray, ...]:
    """The seeds' ``_entropy_array`` and (B, 1) lo and hi of B RandomFull rows."""
    return *_entropy_array([i.seed for i in interactions]), *np.array([[i.lo for i in interactions], [i.hi for i in interactions]], dtype=float)[:, :, None]


def _draw_couplings(d: int, inputs, ks) -> np.ndarray:
    """The (B, K, 2d, 2d) H_I of B RandomFull rows (``_draw_inputs``) at K
    collision indices k, ``default_rng([seed, k]).uniform(lo, hi)`` on the
    strict upper triangle, row-major, mirrored.  ks is a range, whose first
    collisions that fill _DRAW_CHUNK_ENTRIES entries (at least one) all rows
    draw, or each row's (B, K, W) and (B, K) ``_entropy_array``.  The B K
    SeedSequence hashes, k's words after the seed's at the row's own column,
    run as one stack, then ``_jump_draws`` in stacks of about 2^12 draws."""
    (seed_words, seed_counts, lo, hi), (b, width), dim = inputs, inputs[0].shape, 2 * d
    ks = _entropy_array(ks[: max(1, _DRAW_CHUNK_ENTRIES // (b * dim**2))]) if isinstance(ks, range) else ks
    (k_words, k_counts), k = ks, ks[0].shape[-2]
    entropy = np.zeros((b, k, max(_POOL, width + k_words.shape[-1])), dtype=np.uint32)
    entropy[:, :, :width] = seed_words[:, None]
    entropy[np.arange(b)[:, None], :, seed_counts[:, None] + np.arange(k_words.shape[-1])] = k_words.swapaxes(-1, -2)
    states = _seed_states(entropy.reshape(-1, entropy.shape[-1]), (seed_counts[:, None] + k_counts).ravel(), 4)
    lo, hi = (lo, hi) if k == 1 else (lo.repeat(k, axis=0), hi.repeat(k, axis=0))
    (rows, cols), h_i = _upper_triangle(dim), np.zeros((b * k, dim, dim), dtype=complex)
    for r in range(0, b * k, step := max(1, 2**12 // rows.size)):
        h_i[r:r + step, rows, cols] = h_i[r:r + step, cols, rows] = _jump_draws(states[r:r + step], lo[r:r + step], hi[r:r + step], rows.size)
    return h_i.reshape(b, k, dim, dim)


def _random_couplings(d: int, interactions, collision) -> np.ndarray:
    """The (B, 2d, 2d) H_I stack of ``_draw_couplings`` at collision index
    collision, or at collision[b] for row b if it is a list, tuple or range."""
    per_row = isinstance(collision, (list, tuple, range))
    k_words, k_counts = _entropy_array(collision if per_row else [collision])
    if per_row and len(k_counts) != len(interactions):
        raise ValueError(f"{len(k_counts)} collision indices for {len(interactions)} interactions")
    return _draw_couplings(d, _draw_inputs(interactions), (k_words[:, None], k_counts[:, None]))[:, 0]


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
    _check_index(collision)  # unused here, but checked as a RandomFull draw checks it
    dim = 2 * sys.d
    h_i = np.zeros((dim, dim), dtype=complex)
    for k in range(sys.d - 1):  # joint indices: |k+1, down> is 2k+2, |k, up> 2k+1
        h_i[2 * k + 2, 2 * k + 1] = h_i[2 * k + 1, 2 * k + 2] = ispec.j
        if isinstance(ispec, CounterRotating):  # |k+1, up> <-> |k, down>
            h_i[2 * k + 3, 2 * k] = h_i[2 * k, 2 * k + 3] = ispec.j_prime
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
