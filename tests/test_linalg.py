"""Matrix kernel tests: eigendecomposition and the shifted-Cholesky positivity
test, plus the partial-trace oracle that the apparatus tests use.

Oracles are independent of the implementation: the partial trace is checked
against explicit index loops, and decompositions against the defining
relations (P m = a P, ``helpers.reconstruct``) and ``helpers.spectral_defects``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esrsim import (
    NotHermitianError,
    NotSquareError,
    QuantumObservable,
    hermitian_eigendecompose,
)
from esrsim.linalg import _shifted_cholesky_exists
from helpers import (
    partial_trace_second,
    random_hermitian,
    random_unitary,
    reconstruct,
    spectral_defects,
)


def ptrace2_oracle(m: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Brute-force double-index sum over the second factor."""
    out = np.zeros((d1, d1), dtype=complex)
    for i in range(d1):
        for j in range(d1):
            for a in range(d2):
                out[i, j] += m[i * d2 + a, j * d2 + a]
    return out


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestEigendecompose:
    def test_identity(self):
        eigenvalues, projectors = hermitian_eigendecompose(np.diag([1.0, 1.0]))
        np.testing.assert_allclose(eigenvalues, [1.0])
        np.testing.assert_allclose(projectors[0], np.eye(2), atol=1e-12)

    def test_returns_eigenvalues_and_projector_stack(self):
        eigenvalues, projectors = hermitian_eigendecompose(np.diag([2.0, -1.0, 2.0]))
        assert eigenvalues.dtype == float and eigenvalues.shape == (2,)
        assert projectors.dtype == complex and projectors.shape == (2, 3, 3)

    def test_diagonal_sign_pair(self):
        m = np.diag([-1.0, 1.0])
        eigenvalues, projectors = hermitian_eigendecompose(m)
        np.testing.assert_allclose(eigenvalues, [-1.0, 1.0])
        # defining relation P m = a P, checked entrywise
        for a, p in zip(eigenvalues, projectors):
            np.testing.assert_allclose(p @ m, a * p, atol=1e-12)
        np.testing.assert_allclose(projectors[0], np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(projectors[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_pauli_x(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        obs = QuantumObservable(*hermitian_eigendecompose(m))
        np.testing.assert_allclose(obs.eigenvalues, [-1.0, 1.0], atol=1e-12)
        for p in obs.projectors:
            assert abs(np.trace(p).real - 1.0) < 1e-12  # rank 1
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
        np.testing.assert_allclose(reconstruct(obs), m, atol=1e-10)

    def test_clustering_merges_near_degenerate(self):
        m = np.diag([1.0, 1.0 + 1e-12, 2.0])
        eigenvalues, projectors = hermitian_eigendecompose(m)
        assert eigenvalues.size == 2
        assert abs(np.trace(projectors[0]).real - 2.0) < 1e-12
        assert abs(eigenvalues[0] - (1.0 + 5e-13)) < 1e-12

    @pytest.mark.parametrize("dim", [2, 4, 8, 35])
    def test_rotated_multiple_of_identity_is_one_eigenvalue(self, dim):
        # eigh spreads the d-fold eigenvalue 3 by roundoff alone (up to 1.2e-14 at
        # d = 35): a spectral range that small, times 1e-8, would merge nothing
        # without the roundoff floor of the merge tolerance
        u = random_unitary(np.random.default_rng(dim), dim)
        eigenvalues, projectors = hermitian_eigendecompose(u @ (3.0 * np.eye(dim)) @ u.conj().T)
        assert eigenvalues.shape == (1,) and abs(eigenvalues[0] - 3.0) <= 1e-12
        np.testing.assert_allclose(projectors[0], np.eye(dim), atol=1e-12)

    @pytest.mark.parametrize("values", [
        # 200 values 6e-9 apart span 1.2e-6, 120 times the 1e-8 tolerance
        np.r_[np.arange(200) * 6e-9, 1.0],
        # three values, each 0.6 tolerances from the next, span 1.2 tolerances
        [1.0, 1.0 + 6e-9, 1.0 + 1.2e-8, 2.0],
    ])
    def test_clustering_refuses_chained_neighbours(self, values):
        with pytest.raises(ValueError, match="chain over a width of"):
            hermitian_eigendecompose(np.diag(values))

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_invariants_random(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(10):
            m = random_hermitian(rng, dim)
            obs = QuantumObservable(*hermitian_eigendecompose(m))
            defects = spectral_defects(obs, source=m)
            assert defects["completeness"] <= 1e-10
            assert defects["idempotency"] <= 1e-10
            assert defects["orthogonality"] <= 1e-10
            assert defects["hermiticity"] <= 1e-10
            assert defects["reconstruction"] <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            hermitian_eigendecompose(np.zeros((2, 3)))

    def test_rejects_a_vector(self):
        with pytest.raises(ValueError, match="expected a 2-D array, got ndim=1"):
            hermitian_eigendecompose(np.ones(2))


class TestPartialTrace:
    def test_product_rule(self):
        rng = np.random.default_rng(3)
        a = random_complex(rng, (2, 2))
        b = random_complex(rng, (3, 3))
        result = partial_trace_second(np.kron(a, b), 2, 3)
        np.testing.assert_allclose(result, a * np.trace(b), atol=1e-12)
        np.testing.assert_allclose(result, ptrace2_oracle(np.kron(a, b), 2, 3), atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(partial_trace_second(np.eye(4), 2, 2), 2.0 * np.eye(2))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_trace_preserved_and_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = random_complex(rng, (6, 6))
        reduced = partial_trace_second(m, 2, 3)
        np.testing.assert_allclose(np.trace(reduced), np.trace(m), atol=1e-12)
        np.testing.assert_allclose(reduced, ptrace2_oracle(m, 2, 3), atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        m1, m2 = random_complex(rng, (6, 6)), random_complex(rng, (6, 6))
        np.testing.assert_allclose(
            partial_trace_second(2.0 * m1 + m2, 3, 2),
            2.0 * partial_trace_second(m1, 3, 2) + partial_trace_second(m2, 3, 2),
            atol=1e-12)


class TestPositivity:
    def test_identity_is_psd(self):
        assert _shifted_cholesky_exists(np.eye(2), 1e-10)

    def test_sign_case(self):
        assert not _shifted_cholesky_exists(np.diag([1.0, -1.0]), 1e-10)

    def test_gram_matrices_are_psd(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_complex(rng, (4, 4))
            assert _shifted_cholesky_exists(g.conj().T @ g, 1e-10)
