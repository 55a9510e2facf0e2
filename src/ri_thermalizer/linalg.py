"""Dense complex linear algebra for small collision-model matrices.

Everything here acts on plain ``numpy`` arrays (complex square matrices,
at most a few tens of rows).  Matrix functions of Hermitian generators go
through the spectral decomposition only, so collision unitaries stay
unitary to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian

HERMITICITY_RTOL = 1e-10


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Eigenvalues (ascending) and a unitary matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    basis: np.ndarray


# Kronecker product; entry (i_a*d_b + i_b, j_a*d_b + j_b) = a[ia,ja]*b[ib,jb]
kron = np.kron


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {h.shape}")
    scale = np.max(np.abs(h)) or 1.0
    defect = np.max(np.abs(h - h.conj().T))
    if defect > HERMITICITY_RTOL * scale:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds {HERMITICITY_RTOL:.0e} * {scale:.3e}")
    return h


def hermitian_eigen(h: np.ndarray) -> HermitianEigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted ascending."""
    h = _check_hermitian(h)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return HermitianEigenDecomposition(eigenvalues=w, basis=v)


def unitary_from_hamiltonian(h: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i h tau) via the spectral decomposition of Hermitian h."""
    dec = hermitian_eigen(h)
    phases = np.exp(-1j * dec.eigenvalues * tau)
    return (dec.basis * phases) @ dec.basis.conj().T


def partial_trace_second(rho_joint: np.ndarray, d_sys: int, d_anc: int) -> np.ndarray:
    """Trace out the second (ancilla) factor of a d_sys*d_anc joint state."""
    rho_joint = np.asarray(rho_joint)
    dim = d_sys * d_anc
    if rho_joint.shape != (dim, dim):
        raise DimensionMismatch(
            f"joint state has shape {rho_joint.shape}, expected ({dim}, {dim})"
        )
    return rho_joint.reshape(d_sys, d_anc, d_sys, d_anc).trace(axis1=1, axis2=3)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Trace distance 0.5 * sum |eig(rho - sigma)| between two density matrices."""
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"shapes {rho.shape} and {sigma.shape} differ")
    w = np.linalg.eigvalsh(rho - sigma)
    return 0.5 * float(np.sum(np.abs(w)))
