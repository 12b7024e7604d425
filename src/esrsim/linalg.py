"""Dense complex-matrix kernel for small Hilbert spaces.

Hermitian eigendecomposition with eigenvalue clustering, spectral projector
assembly and a shifted-Cholesky positivity test. Everything works on plain
``numpy.ndarray`` values and is pure: inputs are never mutated. Intended for
dense operators up to dimension of a few dozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, NotSquareError

# Relative Frobenius tolerance for accepting a matrix as Hermitian.
HERMITICITY_RTOL = 1e-9
# Default eigenvalue-merge tolerance, as a fraction of the spectral range.
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
    """Distinct eigenvalues in ascending order with their spectral projectors.

    The projectors of a well-formed decomposition are Hermitian, idempotent
    and mutually orthogonal, sum to the identity, and ``reconstruct()``
    recovers the decomposed matrix. Construction checks structure only;
    decompositions produced by :func:`hermitian_eigendecompose` meet the
    numerical invariants to ~1e-10, while hand-built projectors are the
    caller's responsibility.
    """

    eigenvalues: np.ndarray
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        eigs = np.array(self.eigenvalues, dtype=float)
        projs = tuple(as_matrix(p) for p in self.projectors)
        if eigs.ndim != 1 or eigs.size == 0:
            raise ValueError("eigenvalues must form a nonempty 1-D sequence")
        if not np.all(np.isfinite(eigs)):
            raise ValueError("eigenvalues must be finite")
        if np.any(np.diff(eigs) <= 0):
            raise ValueError("eigenvalues must be strictly increasing")
        if len(projs) != eigs.size:
            raise ValueError("need exactly one projector per eigenvalue")
        dim = projs[0].shape[0]
        for p in projs:
            require_square(p)
            if p.shape[0] != dim:
                raise DimensionMismatchError("projectors must share one dimension")
        eigs.flags.writeable = False
        for p in projs:
            p.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eigs)
        object.__setattr__(self, "projectors", projs)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def reconstruct(self) -> np.ndarray:
        """Assemble ``sum(a_k * P_k)``."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for a, p in zip(self.eigenvalues, self.projectors):
            out += a * p
        return out


def default_cluster_tol(eigenvalues) -> float:
    """Default merge tolerance: a small fraction of the spectral range."""
    w = np.asarray(eigenvalues, dtype=float)
    if w.size < 2:
        return 0.0
    return CLUSTER_TOL_FACTOR * float(w.max() - w.min())


def _cluster(values: np.ndarray, vectors: np.ndarray,
             cluster_tol: float) -> SpectralDecomposition:
    """Merge ascending ``values`` closer than ``cluster_tol`` into one eigenvalue
    (their mean) whose projector spans their eigenvectors, the columns of ``vectors``."""
    eigenvalues = []
    projectors = []
    start = 0
    for stop in range(1, values.size + 1):
        if stop == values.size or values[stop] - values[stop - 1] > cluster_tol:
            width = values[stop - 1] - values[start]
            if width > cluster_tol:
                raise ValueError(f"eigenvalues closer than the merge tolerance "
                                 f"{cluster_tol:.3e} chain over a width of {width:.3e}")
            block = vectors[:, start:stop]
            eigenvalues.append(float(np.mean(values[start:stop])))
            projectors.append(block @ block.conj().T)
            start = stop
    return SpectralDecomposition(np.array(eigenvalues), tuple(projectors))


def hermitian_eigendecompose(m, cluster_tol: float | None = None) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix into distinct eigenvalues and projectors.

    Eigenvalues closer than ``cluster_tol`` are merged into one degenerate
    eigenvalue (their mean) whose projector spans the combined eigenspace;
    ``None`` selects 1e-8 times the spectral range. Floating point never
    reproduces exactly equal eigenvalues, so merging is how intended
    degeneracies are recovered.

    Raises NotSquareError or NotHermitianError for invalid input, and ValueError
    when neighbours closer than ``cluster_tol`` chain into a wider cluster.
    """
    h = require_hermitian(as_matrix(m))
    w, v = np.linalg.eigh(h)
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(w)
    if not cluster_tol >= 0:
        raise ValueError("cluster_tol must be nonnegative")
    return _cluster(w, v, cluster_tol)


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
