"""Dense complex-matrix kernel for small Hilbert spaces.

Hermitian eigendecomposition with eigenvalue clustering, spectral projector
assembly and a shifted-Cholesky positivity test. The merge tolerance of the
clustering is derived from the spectrum (1e-8 times its range), never passed
in. Everything works on plain ``numpy.ndarray`` values and is pure: inputs are
never mutated. Intended for dense operators up to dimension of a few dozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, NotSquareError

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


def require_square(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquareError(f"matrix of shape {m.shape} is not square")
    return m


def require_hermitian(m: np.ndarray, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Validate Hermiticity and return the symmetrized matrix (m + m†)/2.

    Symmetrizing stabilizes downstream projector algebra against roundoff.
    """
    require_square(m)
    adjoint = m.conj().T
    defect = frobenius(m - adjoint)
    if defect > rtol * (1.0 + frobenius(m)):
        raise NotHermitianError(f"matrix is not Hermitian: defect {defect:.3e}")
    return (m + adjoint) / 2.0


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Distinct eigenvalues in ascending order with their spectral projectors,
    stored once as one read-only ``(K, d, d)`` array.

    The projectors of a well-formed decomposition are Hermitian, idempotent
    and mutually orthogonal, sum to the identity, and ``sum(a_k * P_k)``
    recovers the decomposed matrix. Construction checks structure only:
    projectors of unequal shapes raise DimensionMismatchError, non-square ones
    NotSquareError, and non-finite entries or a count other than one per
    eigenvalue ValueError. Decompositions produced by
    :func:`hermitian_eigendecompose` meet the numerical invariants to ~1e-10,
    while hand-built projectors are the caller's responsibility.
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray

    def __post_init__(self):
        eigs = np.array(self.eigenvalues, dtype=float)
        if eigs.ndim != 1 or eigs.size == 0:
            raise ValueError("eigenvalues must form a nonempty 1-D sequence")
        if not np.all(np.isfinite(eigs)):
            raise ValueError("eigenvalues must be finite")
        if np.any(np.diff(eigs) <= 0):
            raise ValueError("eigenvalues must be strictly increasing")
        if len({np.shape(p) for p in self.projectors}) > 1:
            raise DimensionMismatchError("projectors must share one dimension")
        projs = np.array(self.projectors, dtype=complex)
        if len(projs) != eigs.size:
            raise ValueError("need exactly one projector per eigenvalue")
        if projs.ndim != 3 or projs.shape[1] != projs.shape[2]:
            raise NotSquareError(f"projectors of shape {projs.shape[1:]} are not square")
        if not np.all(np.isfinite(projs)):
            raise ValueError("matrix entries must be finite")
        eigs.flags.writeable = False
        projs.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eigs)
        object.__setattr__(self, "projectors", projs)

    @property
    def dim(self) -> int:
        return self.projectors.shape[1]


def default_cluster_tol(eigenvalues) -> float:
    """Eigenvalue-merge tolerance: a small fraction of the spectral range."""
    w = np.asarray(eigenvalues, dtype=float)
    if w.size < 2:
        return 0.0
    return CLUSTER_TOL_FACTOR * float(w.max() - w.min())


def _cluster(values: np.ndarray, vectors: np.ndarray) -> SpectralDecomposition:
    """Merge ascending ``values`` closer than :func:`default_cluster_tol` into one
    eigenvalue (their mean) whose projector spans their eigenvectors, the columns
    of ``vectors``."""
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
    return SpectralDecomposition(np.array(eigenvalues), projectors)


def hermitian_eigendecompose(m) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix into distinct eigenvalues and projectors.

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
