"""Dense complex-matrix kernel for small Hilbert spaces.

Hermitian eigendecomposition with eigenvalue clustering, spectral projector
assembly and a shifted-Cholesky positivity test. A decomposition is the plain
pair (distinct eigenvalues, ``(K, d, d)`` projector stack); the type that holds
and checks it is ``model.QuantumObservable``. The merge tolerance of the
clustering is derived from the spectrum (1e-8 times its range), never passed
in. Everything works on plain ``numpy.ndarray`` values and is pure: inputs are
never mutated. Intended for dense operators up to dimension of a few dozen.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitianError, NotSquareError

# Relative Frobenius tolerance for accepting a matrix as Hermitian.
HERMITICITY_RTOL = 1e-9
# Eigenvalue-merge tolerance, as a fraction of the spectral range.
CLUSTER_TOL_FACTOR = 1e-8


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


def require_hermitian(m: np.ndarray, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Validate Hermiticity and return the symmetrized matrix (m + m†)/2.

    Symmetrizing stabilizes downstream projector algebra against roundoff.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquareError(f"matrix of shape {m.shape} is not square")
    adjoint = m.conj().T
    defect = frobenius(m - adjoint)
    if defect > rtol * (1.0 + frobenius(m)):
        raise NotHermitianError(f"matrix is not Hermitian: defect {defect:.3e}")
    return (m + adjoint) / 2.0


def default_cluster_tol(eigenvalues) -> float:
    """Eigenvalue-merge tolerance: a small fraction of the spectral range."""
    w = np.asarray(eigenvalues, dtype=float)
    if w.size < 2:
        return 0.0
    return CLUSTER_TOL_FACTOR * float(w.max() - w.min())


def _cluster(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge ascending ``values`` closer than :func:`default_cluster_tol` into one
    eigenvalue (their mean) whose projector spans their eigenvectors, the columns
    of ``vectors``; returns the distinct eigenvalues and the ``(K, d, d)``
    projector stack."""
    tol = default_cluster_tol(values)
    eigenvalues = []
    projectors = []
    start = 0
    for stop in range(1, values.size + 1):
        if stop == values.size or values[stop] - values[stop - 1] > tol:
            width = values[stop - 1] - values[start]
            if width > tol:
                raise ValueError(f"eigenvalues closer than the merge tolerance "
                                 f"{tol:.3e} chain over a width of {width:.3e}")
            block = vectors[:, start:stop]
            eigenvalues.append(float(np.mean(values[start:stop])))
            projectors.append(block @ block.conj().T)
            start = stop
    return np.array(eigenvalues), np.array(projectors)


def hermitian_eigendecompose(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix into its distinct eigenvalues, ascending,
    and their spectral projectors as one ``(K, d, d)`` array.

    Eigenvalues closer than 1e-8 times the spectral range
    (:func:`default_cluster_tol`) are merged into one degenerate eigenvalue
    (their mean) whose projector spans the combined eigenspace. Floating point
    never reproduces exactly equal eigenvalues, so merging is how intended
    degeneracies are recovered.

    Raises NotSquareError or NotHermitianError for invalid input, and ValueError
    when neighbours closer than the merge tolerance chain into a wider cluster.
    """
    h = require_hermitian(as_matrix(m))
    w, v = np.linalg.eigh(h)
    return _cluster(w, v)


def _shifted_cholesky_exists(h: np.ndarray, tol: float) -> bool:
    """True iff the smallest eigenvalue of the Hermitian matrix ``h``, which the
    caller has symmetrized, is >= -tol, decided by whether ``h + tol*I`` has a
    Cholesky factor (several times cheaper than an eigensolver; only the
    rounding at the boundary differs)."""
    try:
        np.linalg.cholesky(h + tol * np.eye(h.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True
