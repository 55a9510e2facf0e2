"""Dense complex linear algebra for small collision-model matrices.

Everything here acts on plain ``numpy`` arrays (complex square matrices,
at most a few tens of rows).  Matrix functions of Hermitian generators go
through the spectral decomposition only, so collision unitaries stay
unitary to machine precision.  The Hermitian routines, the partial trace
and ``_trace_distances`` (``trace_distance`` is its one-pair case) also
take a stack of shape ``(..., n, n)`` and treat each matrix on its own
(one LAPACK call per matrix either way), so a stacked result equals, bit
for bit, the one-matrix calls it replaces; given bounds, ``_trace_distances``
spares ``eigvalsh`` the matrices a certified bound places above theirs.
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


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    """Return h, a square matrix or a (..., n, n) stack of them, after
    checking each matrix against its own largest entry."""
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {h.shape}")
    axes = (-2, -1)
    scale = np.max(np.abs(h), axis=axes)
    scale = np.where(scale == 0.0, 1.0, scale)
    defect = np.max(np.abs(h - h.conj().swapaxes(-1, -2)), axis=axes)
    failed = np.flatnonzero(defect > HERMITICITY_RTOL * scale)
    if failed.size:
        i = failed[0]
        where = f" (matrix {i} of the stack)" if h.ndim > 2 else ""
        raise NotHermitian(
            f"Hermiticity defect {defect.flat[i]:.3e}{where} exceeds "
            f"{HERMITICITY_RTOL:.0e} * {scale.flat[i]:.3e}"
        )
    return h


def _lapack(routine, a: np.ndarray, what: str = ""):
    """routine(a), raising NoConvergence where LAPACK fails (on NaN)."""
    try:
        return routine(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"{what}{exc}") from exc


def hermitian_eigen(h: np.ndarray) -> HermitianEigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each matrix in a
    (..., n, n) stack, eigenvalues sorted ascending."""
    return HermitianEigenDecomposition(*_lapack(np.linalg.eigh, _check_hermitian(h)))


def unitary_from_hamiltonian(h: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i h tau) via the spectral decomposition of Hermitian h.

    h may be one n x n matrix or a (..., n, n) stack, and tau a number or
    an array of shape (..., 1), one time per matrix; each matrix of the
    stack gives the unitary that it alone would give, bit for bit.  Raises
    NoConvergence when an eigenvalue times tau overflows.  Checks h, then
    runs ``_spectral_unitary``, which a caller that checked h calls alone."""
    return _spectral_unitary(_check_hermitian(h), tau)


def _spectral_unitary(h: np.ndarray, tau) -> np.ndarray:
    w, v = _lapack(np.linalg.eigh, h)
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-1j * w * tau)
    if not np.isfinite(phases).all():
        raise NoConvergence("exp(-i h tau): an eigenvalue times tau overflows")
    return (v * phases[..., None, :]) @ v.conj().swapaxes(-1, -2)


def partial_trace_second(rho_joint: np.ndarray, d_sys: int, d_anc: int) -> np.ndarray:
    """Trace out the second (ancilla) factor of a d_sys*d_anc joint state,
    or of each state in a (..., d_sys*d_anc, d_sys*d_anc) stack."""
    rho_joint = np.asarray(rho_joint)
    dim = d_sys * d_anc
    if rho_joint.shape[-2:] != (dim, dim):
        raise DimensionMismatch(
            f"joint state has shape {rho_joint.shape}, expected (..., {dim}, {dim})"
        )
    r = rho_joint.reshape(*rho_joint.shape[:-2], d_sys, d_anc, d_sys, d_anc)
    if d_anc > 3 or r.dtype.kind not in "fc":
        return r.trace(axis1=-3, axis2=-1)
    # the sum ``trace`` makes, bit for bit and about 3x faster: the diagonal
    # blocks added left to right from +0.0, so that -0.0 + -0.0 gives +0.0
    # as there (a plain r0 + r1 gives -0.0).  From d_anc = 4 on trace sums
    # in another order
    out = 0.0 + r[..., 0, :, 0]
    for a in range(1, d_anc):
        out += r[..., a, :, a]
    return out


# The screen: eigvalsh (heevd) reads the Hermitian A of diff's lower triangle
# and real diagonal, and by pinching L = 0.5 sum_k |Re diff_kk| <= D = 0.5 ||A||_1.
# Backward stability, ||E||_2 <= p(n) u ||A||_2 <= 2 p(n) u D (u = 2^-53, p(n) =
# n^3 above the c n^2.5 of worst-case Householder tridiagonalization), and Lidskii
# move the half-sum of moduli by n p(n) u D, its rounding and L's by (n + 1) u:
# L > above (1 + 64 n p(n) u) proves the computed distance above.  That assumes no
# underflow: rows whose L is below tiny / u = 2^-969 or not finite, and a stack
# with an entry that is not finite, take the exact path.
def _trace_distances(rho: np.ndarray, sigma: np.ndarray, above=None) -> np.ndarray:
    """0.5 * sum |eig(rho - sigma)| of each matrix of a (..., n, n) stack;
    raises NoConvergence where ``eigvalsh`` fails (on NaN).  Given ``above``,
    a bound per matrix of rho and sigma (of one shape), a matrix the screen
    proves above its bound gives L, the others their exact bits."""
    diff = rho - sigma
    if above is not None and np.isfinite(diff).all():
        low = 0.5 * np.abs(diff.real.diagonal(0, -2, -1)).sum(axis=-1)
        exact = ~((low > np.maximum(above * (1.0 + 64.0 * diff.shape[-1] ** 4 * 2.0**-53), 2.0**-969)) & np.isfinite(low))
        count = np.count_nonzero(exact)
        if count < exact.size:
            if count:
                low[exact] = _trace_distances(rho[exact], sigma[exact])
            return low
    return 0.5 * np.abs(_lapack(np.linalg.eigvalsh, diff, "trace distance: ")).sum(axis=-1)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Trace distance between two density matrices: the one-pair case of
    ``_trace_distances``, the kernel the CPTP scans run."""
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"shapes {rho.shape} and {sigma.shape} differ")
    return float(_trace_distances(rho, sigma))
