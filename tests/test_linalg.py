"""Unit tests for the dense linear-algebra layer."""

import numpy as np
import pytest

from ri_thermalizer.errors import DimensionMismatch, NoConvergence, NotHermitian
from ri_thermalizer.linalg import (
    hermitian_eigen,
    partial_trace_second,
    trace_distance,
    unitary_from_hamiltonian,
)


def random_hermitian(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_density(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestHermitianEigen:
    def test_diagonal_input(self):
        dec = hermitian_eigen(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)
        assert np.allclose(np.abs(dec.basis), np.eye(3)[:, [1, 2, 0]], atol=1e-14)

    def test_two_by_two_closed_form(self):
        omega, j = 1.3, 0.4
        h = np.array([[-omega / 2, j], [j, -omega / 2]], dtype=complex)
        dec = hermitian_eigen(h)
        assert np.allclose(dec.eigenvalues, [-omega / 2 - j, -omega / 2 + j], atol=1e-14)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(12, rng)
        dec = hermitian_eigen(h)
        rebuilt = (dec.basis * dec.eigenvalues) @ dec.basis.conj().T
        scale = np.max(np.abs(h))
        assert np.max(np.abs(rebuilt - h)) <= 1e-10 * scale
        gram = dec.basis.conj().T @ dec.basis
        assert np.max(np.abs(gram - np.eye(12))) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_a_matrix_eigh_cannot_take_raises_no_convergence(self):
        # numpy's LinAlgError, typed
        with pytest.raises(NoConvergence):
            hermitian_eigen(np.full((3, 3), np.nan, dtype=complex))


class TestUnitary:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(5, rng)
        assert np.allclose(unitary_from_hamiltonian(h, 0.0), np.eye(5), atol=1e-14)

    def test_unitarity_residual(self):
        rng = np.random.default_rng(4)
        u = unitary_from_hamiltonian(random_hermitian(8, rng), 0.37)
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) <= 1e-12

    def test_group_property(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(6, rng)
        for t1, t2 in [(0.2, 0.9), (1.7, 0.05), (3.1, 2.4)]:
            u12 = unitary_from_hamiltonian(h, t1) @ unitary_from_hamiltonian(h, t2)
            u_sum = unitary_from_hamiltonian(h, t1 + t2)
            assert np.max(np.abs(u12 - u_sum)) <= 1e-10

    def test_an_overflowing_phase_raises_no_convergence(self):
        # 1e307 * 1e3 is inf, and exp(-i inf) has no value
        with pytest.raises(NoConvergence, match="overflows"):
            unitary_from_hamiltonian(np.diag([1e307, -1e307]).astype(complex), 1e3)


class TestStackedUnitary:
    """A (..., n, n) stack gives, bit for bit, the one-matrix results."""

    @pytest.mark.parametrize("shape", [(1,), (16,), (5,), (2, 3)])
    @pytest.mark.parametrize("n", [2, 4, 6, 10])
    def test_stack_equals_per_matrix_calls(self, shape, n):
        rng = np.random.default_rng(100 + n)
        hs = np.stack([random_hermitian(n, rng) for _ in range(int(np.prod(shape)))])
        hs = hs.reshape(shape + (n, n))
        tau = 0.37 * n
        stacked = unitary_from_hamiltonian(hs, tau)
        assert stacked.shape == hs.shape
        for index in np.ndindex(*shape):
            assert np.array_equal(stacked[index], unitary_from_hamiltonian(hs[index], tau))

    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_one_matrix_is_the_spectral_formula(self, n):
        # pins the rounding: V diag(exp(-i w tau)) V^dagger, in this order
        rng = np.random.default_rng(200 + n)
        h = random_hermitian(n, rng)
        w, v = np.linalg.eigh(h)
        assert np.array_equal(unitary_from_hamiltonian(h, 0.9), (v * np.exp(-1j * w * 0.9)) @ v.conj().T)

    def test_stacked_eigendecomposition_equals_per_matrix(self):
        rng = np.random.default_rng(11)
        hs = np.stack([random_hermitian(6, rng) for _ in range(7)])
        dec = hermitian_eigen(hs)
        for k, h in enumerate(hs):
            one = hermitian_eigen(h)
            assert np.array_equal(dec.eigenvalues[k], one.eigenvalues)
            assert np.array_equal(dec.basis[k], one.basis)

    @pytest.mark.parametrize("bad", [0, 3, 7])
    def test_one_non_hermitian_matrix_fails_the_stack(self, bad):
        rng = np.random.default_rng(12)
        hs = np.stack([random_hermitian(4, rng) for _ in range(8)])
        hs[bad, 0, 1] += 1e-3
        with pytest.raises(NotHermitian, match=f"matrix {bad} of the stack"):
            unitary_from_hamiltonian(hs, 1.0)

    def test_each_matrix_is_checked_against_its_own_scale(self):
        # a defect of 1e-8 is far above 1e-10 of a unit matrix's scale, but
        # below 1e-10 of the large matrix's; a stack-wide scale would hide it
        rng = np.random.default_rng(13)
        small = random_hermitian(3, rng)
        small[0, 2] += 1e-8
        large = 1e6 * random_hermitian(3, rng)
        with pytest.raises(NotHermitian):
            hermitian_eigen(np.stack([large, small]))
        large[0, 2] += 1e-8
        hermitian_eigen(large)  # relative defect ~1e-14 passes

    def test_zero_matrices_in_a_stack_pass(self):
        u = unitary_from_hamiltonian(np.zeros((3, 4, 4), dtype=complex), 2.0)
        assert np.array_equal(u, np.broadcast_to(np.eye(4, dtype=complex), (3, 4, 4)))

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4), (5,), ()])
    def test_non_square_input_is_a_dimension_mismatch(self, shape):
        with pytest.raises(DimensionMismatch):
            unitary_from_hamiltonian(np.zeros(shape, dtype=complex), 1.0)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(6)
        rho_s = random_density(3, rng)
        rho_a = random_density(2, rng)
        out = partial_trace_second(np.kron(rho_s, rho_a), 3, 2)
        assert np.allclose(out, rho_s, atol=1e-13)

    def test_maximally_entangled(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert np.allclose(partial_trace_second(rho, 2, 2), np.eye(2) / 2, atol=1e-14)

    def test_index_sum_oracle(self):
        rng = np.random.default_rng(7)
        rho = random_density(6, rng)
        out = partial_trace_second(rho, 3, 2)
        expected = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                for k in range(2):
                    expected[i, j] += rho[2 * i + k, 2 * j + k]
        assert np.allclose(out, expected, atol=1e-14)
        assert abs(np.trace(out).real - 1.0) <= 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace_second(np.eye(5, dtype=complex) / 5, 2, 2)

    @pytest.mark.parametrize("d_anc", [1, 2, 3, 4])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_the_bits_of_ndarray_trace(self, d_anc, dtype):
        # the sum partial_trace_second makes must be trace's, bit for bit:
        # signed zeros (a third of the entries), infinities, subnormals and
        # NaN in the same places, on stacks and single matrices
        rng = np.random.default_rng(d_anc)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -2.2e-308, np.nan, 1e308, -1e308])

        def entries(shape):
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
            x = np.where(rng.random(shape) < 0.33, np.where(rng.random(shape) < 0.5, 0.0, -0.0), x)
            return np.where(rng.random(shape) < 0.1, rng.choice(specials, shape), x)

        def bits(a):
            a = np.ascontiguousarray(a).view(float)
            return np.isnan(a), np.where(np.isnan(a), 0.0, a).view(np.uint64)

        with np.errstate(invalid="ignore", over="ignore"):
            for lead in [(), (1,), (7,), (3, 4)]:
                for d_sys in (1, 3, 5):
                    shape = (*lead, d_sys * d_anc, d_sys * d_anc)
                    rho = entries(shape).astype(dtype)
                    if dtype is complex:
                        rho.imag = entries(shape)  # set, since 1j * x loses signed zeros
                    expected = rho.reshape(*lead, d_sys, d_anc, d_sys, d_anc).trace(axis1=-3, axis2=-1)
                    out = partial_trace_second(rho, d_sys, d_anc)
                    assert out.dtype == expected.dtype and out.shape == expected.shape
                    for got, want in zip(bits(out), bits(expected)):
                        assert np.array_equal(got, want)


class TestTraceDistance:
    def test_identical_states(self):
        rng = np.random.default_rng(8)
        rho = random_density(4, rng)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(p0, p1) == pytest.approx(1.0, abs=1e-15)

    def test_diagonal_half_l1(self):
        rng = np.random.default_rng(9)
        p = rng.random(4)
        q = rng.random(4)
        p /= p.sum()
        q /= q.sum()
        expected = 0.5 * np.abs(p - q).sum()
        got = trace_distance(np.diag(p).astype(complex), np.diag(q).astype(complex))
        assert got == pytest.approx(expected, abs=1e-14)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a, b, c = (random_density(3, rng) for _ in range(3))
            assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-14)
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            trace_distance(np.eye(2) / 2, np.eye(3) / 3)

    def test_a_matrix_eigvalsh_cannot_take_raises_no_convergence(self):
        # numpy's LinAlgError, typed by the kernel the scans share
        with pytest.raises(NoConvergence, match="trace distance"):
            trace_distance(np.full((3, 3), np.nan, dtype=complex), np.eye(3) / 3)
