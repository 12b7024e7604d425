"""Dense complex-matrix kernel for small Hilbert spaces.

Hermitian eigendecomposition with eigenvalue clustering and a shifted-Cholesky
positivity test; the Hermiticity and positivity tests take one matrix or a
``(n, d, d)`` stack of them. A decomposition is the plain pair (distinct
eigenvalues, one ``(d, r_k)`` orthonormal eigenspace basis per eigenvalue); the
type that holds and checks it, as one eigenbasis matrix whose column blocks are
the bases, is ``model.QuantumObservable``. The clustering's merge tolerance
is derived from the spectrum by :func:`default_cluster_tol`, never passed in.
Everything works on plain ``numpy.ndarray`` values and is pure: inputs are
never mutated. Intended for dense operators up to dimension of a few dozen.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitianError, NotSquareError

__all__ = ["hermitian_eigendecompose"]

# Relative Frobenius tolerance for accepting a matrix as Hermitian.
HERMITICITY_RTOL = 1e-9
# Eigenvalue-merge tolerance, as a fraction of the spectral range.
CLUSTER_TOL_FACTOR = 1e-8
# Its floor C: eigh's roundoff spreads a d-fold eigenvalue over at most 3 d eps max|eigenvalue|.
CLUSTER_TOL_ROUNDOFF = 8.0


def as_matrix(values) -> np.ndarray:
    """Coerce ``values`` to a fresh 2-D complex array with finite entries."""
    m = np.array(values, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def _frobenius_each(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of a matrix, or of each matrix of a stack."""
    entries = np.ascontiguousarray(m).view(float)
    return np.sqrt(np.einsum("...ij,...ij->...", entries, entries))


def require_hermitian(m: np.ndarray, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Validate Hermiticity of a matrix, or of each matrix of a
    ``(n, d, d)`` stack, and return the symmetrized (m + m†)/2; a failure names
    the defect of the lowest-index matrix that fails.

    Symmetrizing stabilizes downstream projector algebra against roundoff.
    """
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        raise NotSquareError(f"matrix of shape {m.shape} is not square")
    adjoint = m.conj().swapaxes(-2, -1)
    defect = _frobenius_each(m - adjoint)
    # the bound is at least rtol, so its norm is needed only past rtol
    if defect.max() > rtol:
        excess = defect > rtol * (1.0 + _frobenius_each(m))
        if excess.any():
            raise NotHermitianError(
                f"matrix is not Hermitian: defect {np.ravel(defect)[np.argmax(excess)]:.3e}")
    return (m + adjoint) / 2.0


def default_cluster_tol(eigenvalues) -> float:
    """Eigenvalue-merge tolerance of ``n`` eigenvalues: ``CLUSTER_TOL_FACTOR`` times their
    range, at least ``CLUSTER_TOL_ROUNDOFF * n * eps * max|eigenvalue|``.
    ``model.QuantumObservable`` caches it for its eigenvalues, beside their plain floats."""
    w = np.asarray(eigenvalues, dtype=float)
    if w.size < 2:
        return 0.0
    roundoff = CLUSTER_TOL_ROUNDOFF * w.size * float(np.finfo(float).eps) * float(np.abs(w).max())
    return max(CLUSTER_TOL_FACTOR * float(w.max() - w.min()), roundoff)


def _cluster(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Merge ascending ``values`` closer than :func:`default_cluster_tol` into one
    eigenvalue (their mean) whose eigenspace basis is their eigenvectors, the
    columns of ``vectors``; returns the distinct eigenvalues and one ``(d, r_k)``
    block of columns per eigenvalue."""
    tol = default_cluster_tol(values)
    eigenvalues = []
    bases = []
    start = 0
    for stop in range(1, values.size + 1):
        if stop == values.size or values[stop] - values[stop - 1] > tol:
            width = values[stop - 1] - values[start]
            if width > tol:
                raise ValueError(f"eigenvalues closer than the merge tolerance "
                                 f"{tol:.3e} chain over a width of {width:.3e}")
            eigenvalues.append(float(np.mean(values[start:stop])))
            bases.append(vectors[:, start:stop])
            start = stop
    return np.array(eigenvalues), bases


def hermitian_eigendecompose(m) -> tuple[np.ndarray, list[np.ndarray]]:
    """Eigendecompose a Hermitian matrix into its distinct eigenvalues, ascending,
    and one orthonormal ``(d, r_k)`` basis of each eigenspace, eigh's eigenvectors.

    Eigenvalues closer than :func:`default_cluster_tol` (``CLUSTER_TOL_FACTOR``
    times the spectral range, at least eigh's roundoff) are merged into one
    degenerate eigenvalue (their mean) whose basis spans the combined
    eigenspace. Floating point never reproduces exactly equal eigenvalues, so
    merging is how intended degeneracies are recovered.

    Raises NotSquareError or NotHermitianError for invalid input, and ValueError
    when neighbours closer than the merge tolerance chain into a wider cluster.
    """
    h = require_hermitian(as_matrix(m))
    w, v = np.linalg.eigh(h)
    return _cluster(w, v)


def _shifted_cholesky_exists(h: np.ndarray, tol: float) -> bool:
    """True iff the smallest eigenvalue of the Hermitian matrix ``h``, or of
    every matrix of a stack, which the caller has symmetrized, is >= -tol,
    decided by whether ``h + tol*I`` has a Cholesky factor (several times
    cheaper than an eigensolver; only the rounding at the boundary differs)."""
    try:
        np.linalg.cholesky(h + tol * np.eye(h.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True
