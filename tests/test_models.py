"""Unit tests for Hamiltonian and state construction."""

import math
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ri_thermalizer.collisions import CollisionConfig
from ri_thermalizer.linalg import unitary_from_hamiltonian
from ri_thermalizer.models import (
    AncillaSpec,
    CounterRotating,
    IsotropicFlipFlop,
    RandomFull,
    SystemSpec,
    _PCG64_MULT,
    _random_couplings,
    _seed_states,
    ancilla_thermal_state,
    bare_hamiltonian,
    flip_flop_model,
    gibbs_populations,
    interaction_hamiltonian,
    random_density_matrix,
    system_gibbs_state,
    system_hamiltonian,
    total_hamiltonian,
)
from ri_thermalizer.sweeps import MAX_D


class TestSystemHamiltonian:
    @pytest.mark.parametrize(
        "d,omega,expected",
        [
            (3, 1.0, [-1.0, 0.0, 1.0]),
            (2, 1.0, [-0.5, 0.5]),
            (5, 1.0, [-2.0, -1.0, 0.0, 1.0, 2.0]),
        ],
    )
    def test_equidistant_diagonal(self, d, omega, expected):
        h = system_hamiltonian(SystemSpec(d=d, omega=omega))
        assert np.allclose(h, np.diag(expected), atol=0)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            SystemSpec(d=1)
        with pytest.raises(ValueError):
            SystemSpec(d=3, omega=0.0)


# NaN slips through a plain `x < 0` check; inf is meaningless everywhere
# except as the zero-temperature beta; d, n_max and seed are integers
@pytest.mark.parametrize(
    "make, kwargs",
    [
        (SystemSpec, dict(d=3, omega=math.nan)),
        (SystemSpec, dict(d=3, omega=math.inf)),
        (AncillaSpec, dict(omega=math.nan, beta=1.0)),
        (AncillaSpec, dict(omega=math.inf, beta=1.0)),
        (AncillaSpec, dict(omega=1.0, beta=math.nan)),
        (IsotropicFlipFlop, dict(j=math.nan)),
        (IsotropicFlipFlop, dict(j=math.inf)),
        (CounterRotating, dict(j=1.0, j_prime=math.nan)),
        (CounterRotating, dict(j=math.inf, j_prime=0.5)),
        (RandomFull, dict(lo=0.1, hi=math.inf, seed=0)),
        (RandomFull, dict(lo=-math.inf, hi=0.1, seed=0)),
        (RandomFull, dict(lo=-1e308, hi=1e308, seed=0)),
        (CollisionConfig, dict(tau=math.nan, n_max=10, epsilon=1e-4)),
        (CollisionConfig, dict(tau=math.inf, n_max=10, epsilon=1e-4)),
        (CollisionConfig, dict(tau=1.0, n_max=math.nan, epsilon=1e-4)),
        (CollisionConfig, dict(tau=1.0, n_max=math.inf, epsilon=1e-3)),
        (CollisionConfig, dict(tau=1.0, n_max=1.5, epsilon=1e-3)),
        (CollisionConfig, dict(tau=1.0, n_max=10.0, epsilon=1e-3)),
        (SystemSpec, dict(d=math.inf)),
        (SystemSpec, dict(d=2.5)),
        (SystemSpec, dict(d=3.0)),
        (RandomFull, dict(lo=0.1, hi=0.9, seed=-1)),
        (RandomFull, dict(lo=0.1, hi=0.9, seed=1.5)),
        (RandomFull, dict(lo=0.1, hi=0.9, seed=math.nan)),
        (flip_flop_model, dict(d=3, omega=1.0, beta=math.nan, j=1e-3)),
        (gibbs_populations, dict(d=0, omega=1.0, beta=1.0)),
        (gibbs_populations, dict(d=3, omega=1.0, beta=math.nan)),
        (gibbs_populations, dict(d=3, omega=-1.0, beta=1.0)),
        # a level span omega * (d - 1) past the float range
        (SystemSpec, dict(d=3, omega=1e308)),
        (SystemSpec, dict(d=128, omega=1e307)),
        (gibbs_populations, dict(d=3, omega=1e308, beta=0.0)),
        (gibbs_populations, dict(d=128, omega=1e307, beta=0.0)),
    ],
    ids=lambda x: x.__name__ if callable(x) else ",".join(f"{k}={v}" for k, v in x.items()),
)
def test_rejects_nan_and_meaningless_inf(make, kwargs):
    with pytest.raises(ValueError):
        make(**kwargs)


@pytest.mark.parametrize("d, omega", [(2, 1e308), (3, 8e307), (128, 1.4e306)])
def test_a_wide_finite_level_span_is_valid(d, omega):
    # at beta = 0 the populations are uniform, where a span past the float
    # range gave NaN
    assert omega * (d - 1) < sys.float_info.max
    assert SystemSpec(d, omega).omega == omega
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(gibbs_populations(d, omega, 0.0), np.full(d, 1.0 / d))


def test_an_exponent_past_the_float_range_gives_weight_0_without_a_warning():
    # -beta times the span 1e308 overflows to -inf, whose weight is exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gibbs_populations(2, 1e308, 10.0).tolist() == [1.0, 0.0]


def test_integer_fields_take_numpy_integers():
    assert SystemSpec(d=np.int64(3)).d == 3
    assert CollisionConfig(tau=1.0, n_max=np.int32(5), epsilon=1e-3).n_max == 5
    assert RandomFull(lo=0.1, hi=0.9, seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


class TestAncillaState:
    def test_infinite_temperature(self):
        rho = ancilla_thermal_state(AncillaSpec(omega=1.0, beta=0.0))
        assert np.allclose(rho, np.eye(2) / 2, atol=0)

    def test_zero_temperature_sentinel(self):
        rho = ancilla_thermal_state(AncillaSpec(omega=1.0, beta=math.inf))
        assert np.array_equal(rho.real, np.diag([1.0, 0.0]))

    def test_unit_beta(self):
        spec = AncillaSpec(omega=1.0, beta=1.0)
        assert spec.ground_population == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-15)
        assert spec.ground_population == pytest.approx(0.7310585786300049, abs=1e-12)


class TestGibbsState:
    def test_three_level_matches_pa_formula(self):
        beta, omega = 1.7, 1.0
        p_a = 1 / (1 + math.exp(-beta * omega))
        z = 1 - p_a + p_a**2
        expected = np.array([p_a**2, p_a * (1 - p_a), (1 - p_a) ** 2]) / z
        rho = system_gibbs_state(SystemSpec(d=3, omega=omega), beta)
        assert np.allclose(np.diag(rho).real, expected, atol=1e-14)

    def test_infinite_temperature_maximally_mixed(self):
        rho = system_gibbs_state(SystemSpec(d=4), 0.0)
        assert np.allclose(rho, np.eye(4) / 4, atol=0)

    def test_zero_temperature_ground_projector(self):
        rho = system_gibbs_state(SystemSpec(d=5), math.inf)
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        assert np.array_equal(rho.real, expected)

    @pytest.mark.parametrize("d, omega", [(2, 5e-324), (3, 5e-324), (128, 5e-324)])
    def test_zero_temperature_is_the_ground_state_where_levels_round_together(self, d, omega):
        # the excited energies of a subnormal omega round onto the ground's,
        # so only the zero-temperature sentinel can tell the levels apart
        assert np.array_equal(gibbs_populations(d, omega, math.inf), np.eye(1, d)[0])

    def test_populations_sum_to_one(self):
        for beta in (0.0, 0.3, 2.0, 50.0, math.inf):
            p = gibbs_populations(6, 1.0, beta)
            assert p.sum() == pytest.approx(1.0, abs=1e-15)
            assert np.all(p >= 0)


class TestInteractionHamiltonian:
    def test_flip_flop_pattern_d3(self):
        h = interaction_hamiltonian(SystemSpec(d=3), IsotropicFlipFlop(j=0.8))
        expected = np.zeros((6, 6))
        expected[1, 2] = expected[2, 1] = 0.8
        expected[3, 4] = expected[4, 3] = 0.8
        assert np.allclose(h, expected, atol=0)

    def test_counter_rotating_adds_corner_entries(self):
        h = interaction_hamiltonian(SystemSpec(d=3), CounterRotating(j=0.8, j_prime=0.3))
        assert h[0, 3] == 0.3 and h[3, 0] == 0.3
        assert h[2, 5] == 0.3 and h[5, 2] == 0.3
        assert h[1, 2] == 0.8 and h[3, 4] == 0.8

    def test_zero_coupling_zero_matrix(self):
        h = interaction_hamiltonian(SystemSpec(d=4), IsotropicFlipFlop(j=0.0))
        assert np.count_nonzero(h) == 0

    def test_random_full_seed_reproducible(self):
        spec = SystemSpec(d=3)
        ispec = RandomFull(lo=0.1, hi=0.9, seed=42)
        a = interaction_hamiltonian(spec, ispec, collision=5)
        b = interaction_hamiltonian(spec, ispec, collision=5)
        assert np.array_equal(a, b)

    def test_random_full_fresh_per_collision(self):
        spec = SystemSpec(d=3)
        ispec = RandomFull(lo=0.1, hi=0.9, seed=42)
        a = interaction_hamiltonian(spec, ispec, collision=0)
        b = interaction_hamiltonian(spec, ispec, collision=1)
        assert not np.array_equal(a, b)

    def test_unknown_spec_raises_type_error(self):
        with pytest.raises(TypeError, match="unknown interaction spec"):
            interaction_hamiltonian(SystemSpec(d=3), object())

    def test_random_full_fills_whole_upper_triangle(self):
        h = interaction_hamiltonian(SystemSpec(d=3), RandomFull(lo=0.5, hi=0.9, seed=1))
        rows, cols = np.triu_indices(6, k=1)
        vals = h[rows, cols].real
        assert np.all((vals >= 0.5) & (vals <= 0.9))
        assert np.allclose(np.diag(h), 0.0, atol=0)


# seeds and collision indices at the edges of numpy's 32-bit seed words
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 7, 2**64 - 1, 2**70, np.uint64(2**64 - 1), np.int64(7), np.uint32(2**32 - 1)]
EDGE_INDICES = [0, 1, 2**32 - 1, 2**32, 2**40, np.int64(2**40), np.uint32(2**32 - 1)]


def _default_rng_couplings(d, interactions, collision):
    """The H_I stack as one default_rng([seed, collision]) per row draws it."""
    rows, cols = np.triu_indices(2 * d, k=1)
    stack = []
    for ispec in interactions:
        couplings = np.random.default_rng([ispec.seed, collision]).uniform(ispec.lo, ispec.hi, size=rows.size)
        h_i = np.zeros((2 * d, 2 * d), dtype=complex)
        h_i[rows, cols] = couplings
        h_i[cols, rows] = couplings
        stack.append(h_i)
    return np.stack(stack)


# (seed, k) whose d = 2 row hits one edge of the jump-ahead draw (_jump_draws)
# in one of its six draws: an XSL-RR rotation of 0 or 63, or a carry out of
# the low word of P_j s + Q_j c
JUMP_EDGES = {
    "rotation 0": (2**96 - 26, 2**64 - 1),
    "rotation 63": (2**96 - 8, 2**64 - 1),
    "low-word carry": (2**96 - 13, 2**64 - 1),
}


class TestRandomCouplings:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        d=st.integers(2, 12),
        rows=st.lists(
            st.tuples(
                st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**96)),
                st.floats(-10.0, 10.0),
                st.floats(1e-6, 10.0),
            ),
            min_size=1,
            max_size=70,
        ),
        collision=st.one_of(st.sampled_from(EDGE_INDICES), st.integers(0, 2**64)),
    )
    def test_the_stack_is_default_rngs_draws_byte_for_byte(self, d, rows, collision):
        interactions = [RandomFull(lo=lo, hi=lo + width, seed=seed) for seed, lo, width in rows]
        expected = _default_rng_couplings(d, interactions, collision)
        assert _random_couplings(d, interactions, collision).tobytes() == expected.tobytes()
        one = interaction_hamiltonian(SystemSpec(d=d), interactions[0], collision)
        assert one.tobytes() == expected[0].tobytes()

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("collision", EDGE_INDICES)
    def test_every_word_edge(self, seed, collision):
        interactions = [RandomFull(lo=1e-3, hi=math.pi * 1e-3, seed=seed)] * 2
        expected = _default_rng_couplings(3, interactions, collision)
        assert _random_couplings(3, interactions, collision).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("edge", JUMP_EDGES)
    def test_each_edge_of_the_jump_ahead_draw(self, edge):
        seed, k = JUMP_EDGES[edge]
        s_hi, s_lo, _, _ = np.random.SeedSequence([seed, k]).generate_state(4, np.uint64).tolist()
        bit_generator = np.random.default_rng([seed, k]).bit_generator
        hits = []
        for j in range(1, 7):
            bit_generator.random_raw()
            state = bit_generator.state["state"]["state"]
            # a carry: the low word of P_j s (P_j = M^(j+1)) exceeds the state's
            p_s = pow(_PCG64_MULT, j + 1, 2**64) * s_lo % 2**64
            hits.append({"rotation 0": state >> 122 == 0, "rotation 63": state >> 122 == 63,
                         "low-word carry": p_s > state % 2**64}[edge])
        assert any(hits)
        interactions = [RandomFull(lo=-1.0, hi=3.0, seed=s) for s in (seed, 1, seed)]
        expected = _default_rng_couplings(2, interactions, k)
        assert _random_couplings(2, interactions, k).tobytes() == expected.tobytes()

    def test_long_rows_at_d_32_across_stacks(self):
        # 2,016 draws a row, so the draw takes 2 rows a stack and these 11 in six
        interactions = [RandomFull(lo=0.5, hi=0.75, seed=seed) for seed in (0, 2**64 - 1, 2**96, *range(7, 15))]
        for collision in (0, 2**64):
            expected = _default_rng_couplings(32, interactions, collision)
            assert _random_couplings(32, interactions, collision).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [-1, -(2**70), np.int64(-3), 1.5, np.float64(2.0), None])
    @pytest.mark.parametrize("as_seed", [True, False])
    def test_a_bad_seed_or_index_raises_what_default_rng_raises(self, bad, as_seed):
        # RandomFull rejects a bad seed itself, so the seed comes in a bare namespace
        seed, collision = (bad, 0) if as_seed else (5, bad)
        with pytest.raises((TypeError, ValueError)) as expected:
            np.random.default_rng([seed, collision])
        with pytest.raises(expected.type):
            _random_couplings(3, [SimpleNamespace(lo=0.0, hi=1.0, seed=seed)], collision)


# words at the edges of a uint32, for the stacked SeedSequence hash
EDGE_WORDS = [0, 1, 2**16, 2**31, 2**32 - 1]


class TestStackedSeedHash:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        entropy=st.lists(
            st.lists(st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 2**32 - 1)), min_size=1, max_size=8),
            min_size=1,
            max_size=64,
        ),
        n_words=st.integers(1, 6),
    )
    def test_each_row_is_seed_sequences_state(self, entropy, n_words):
        # rows of 1 to 8 words: short rows hash zero-padded, long ones take
        # the extra-entropy steps under a mask
        expected = np.stack([np.random.SeedSequence(words).generate_state(n_words, np.uint64) for words in entropy])
        states = _seed_states(entropy, n_words)
        assert states.dtype == expected.dtype and states.tobytes() == expected.tobytes()

    def test_an_empty_stack(self):
        assert _seed_states([], 4).shape == (0, 4)
        assert _random_couplings(3, [], 0).shape == (0, 6, 6)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        d=st.integers(2, 12),
        rows=st.lists(
            st.tuples(
                st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**96)),
                st.one_of(st.sampled_from(EDGE_INDICES), st.integers(0, 2**64)),
                st.floats(-10.0, 10.0),
                st.floats(1e-6, 10.0),
            ),
            min_size=1,
            max_size=70,
        ),
        as_tuple=st.booleans(),
    )
    def test_one_collision_index_per_row(self, d, rows, as_tuple):
        interactions = [RandomFull(lo=lo, hi=lo + width, seed=seed) for seed, _, lo, width in rows]
        indices = [k for _, k, _, _ in rows]
        expected = np.concatenate([_default_rng_couplings(d, [ispec], k) for ispec, k in zip(interactions, indices)])
        stack = _random_couplings(d, interactions, tuple(indices) if as_tuple else indices)
        assert stack.tobytes() == expected.tobytes()

    def test_a_range_of_indices_is_one_row_per_collision(self):
        ispec = RandomFull(lo=0.2, hi=0.7, seed=2**40 + 9)
        stack = _random_couplings(3, [ispec] * 5, range(2**32 - 2, 2**32 + 3))
        for h_i, k in zip(stack, range(2**32 - 2, 2**32 + 3)):
            assert h_i.tobytes() == interaction_hamiltonian(SystemSpec(d=3), ispec, k).tobytes()

    def test_indices_and_rows_must_pair_up(self):
        with pytest.raises(ValueError):
            _random_couplings(3, [RandomFull(lo=0.0, hi=1.0, seed=1)] * 2, [0, 1, 2])


class TestBareHamiltonian:
    def test_equals_the_kronecker_sum_byte_for_byte(self):
        # H_S (x) I_2 + I_d (x) H_A as two dense Kronecker products, compared
        # by bytes, since np.array_equal does not see the sign of a zero
        for d in [*range(2, 10), 64, MAX_D]:
            for omega in (5e-324, 1.0, math.pi, 1e300):
                for omega_a in (omega, 2 * omega):
                    h_a = np.diag(np.array([-omega_a / 2, omega_a / 2], dtype=complex))
                    sys = SystemSpec(d=d, omega=omega)
                    kron_sum = np.kron(system_hamiltonian(sys), np.eye(2, dtype=complex)) + np.kron(
                        np.eye(d, dtype=complex), h_a
                    )
                    for beta in (0.0, 1.0, math.inf):
                        h0 = bare_hamiltonian(sys, AncillaSpec(omega=omega_a, beta=beta))
                        assert h0.dtype == kron_sum.dtype and h0.shape == kron_sum.shape
                        assert h0.tobytes() == kron_sum.tobytes(), (d, omega, omega_a, beta)

    def test_three_level_diagonal_part(self):
        h0 = bare_hamiltonian(SystemSpec(d=3, omega=1.0), AncillaSpec(omega=1.0, beta=1.0))
        assert np.array_equal(h0, np.diag([-1.5, -0.5, -0.5, 0.5, 0.5, 1.5]))


class TestTotalHamiltonian:
    def test_three_level_matrix_verbatim(self):
        h = total_hamiltonian(
            SystemSpec(d=3, omega=1.0),
            AncillaSpec(omega=1.0, beta=1.0),
            IsotropicFlipFlop(j=0.4),
        )
        expected = np.diag([-1.5, -0.5, -0.5, 0.5, 0.5, 1.5]).astype(complex)
        expected[1, 2] = expected[2, 1] = 0.4
        expected[3, 4] = expected[4, 3] = 0.4
        assert np.allclose(h, expected, atol=0)

    def test_all_variants_hermitian(self):
        sys = SystemSpec(d=4)
        for ispec in (
            IsotropicFlipFlop(j=0.7),
            CounterRotating(j=0.7, j_prime=0.2),
            RandomFull(lo=-1.0, hi=1.0, seed=9),
        ):
            h = total_hamiltonian(sys, AncillaSpec(omega=1.0, beta=2.0), ispec)
            assert np.max(np.abs(h - h.conj().T)) <= 1e-14

    def test_flip_flop_conserves_energy(self):
        rng = np.random.default_rng(11)
        sys = SystemSpec(d=3, omega=1.0)
        anc = AncillaSpec(omega=1.0, beta=1.0)
        h0 = bare_hamiltonian(sys, anc)
        h = total_hamiltonian(sys, anc, IsotropicFlipFlop(j=0.6))
        for tau in rng.uniform(0.1, 5.0, size=4):
            u = unitary_from_hamiltonian(h, tau)
            comm = u @ h0 - h0 @ u
            assert np.max(np.abs(comm)) <= 1e-10

    def test_collision_unitary_entrywise_d3(self):
        # closed form of exp(-i H_tot tau) for the resonant flip-flop model:
        # phase e^{-i E tau} on each degenerate block, cos/sin mixing inside
        from ri_thermalizer.collisions import collision_unitary
        from ri_thermalizer.models import flip_flop_model

        omega, j, tau = 1.0, 0.4, 0.7
        got = collision_unitary(flip_flop_model(3, omega, 1.0, j), tau)
        c, s = np.cos(j * tau), np.sin(j * tau)
        expected = np.zeros((6, 6), dtype=complex)
        expected[0, 0] = np.exp(1.5j * tau * omega)
        expected[5, 5] = np.exp(-1.5j * tau * omega)
        for base, phase in ((1, np.exp(0.5j * tau * omega)), (3, np.exp(-0.5j * tau * omega))):
            expected[base, base] = expected[base + 1, base + 1] = phase * c
            expected[base, base + 1] = expected[base + 1, base] = -1j * phase * s
        assert np.max(np.abs(got - expected)) <= 1e-14

    def test_no_coupling_is_diagonal(self):
        h = total_hamiltonian(
            SystemSpec(d=3), AncillaSpec(omega=1.0, beta=1.0), CounterRotating(j=0.0, j_prime=0.0)
        )
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0

    def test_gibbs_commutes_with_system_hamiltonian(self):
        sys = SystemSpec(d=5)
        h = system_hamiltonian(sys)
        rho = system_gibbs_state(sys, 0.8)
        assert np.max(np.abs(h @ rho - rho @ h)) == 0.0


@pytest.mark.parametrize("d", [0, 1, -1, 1.5, 3.0])
def test_random_density_matrix_rejects_a_bad_d(d):
    with pytest.raises(ValueError, match="need an integer d >= 2"):
        random_density_matrix(d, np.random.default_rng(12))


def test_random_density_matrix_valid():
    rng = np.random.default_rng(12)
    rho = random_density_matrix(4, rng)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-14
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
