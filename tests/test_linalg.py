"""Matrix kernel tests: eigendecomposition, tensor products, partial traces.

Oracles are independent of the implementation: Kronecker products and
partial traces are recomputed by explicit index loops, and decompositions
are checked against the defining relations (P m = a P, reconstruction).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esrsim import (
    DimensionMismatchError,
    NotHermitianError,
    NotSquareError,
    hermitian_eigendecompose,
    is_positive_semidefinite,
    partial_trace_second,
    spectral_defects,
    tensor_product,
)
from helpers import random_hermitian


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Brute-force index expansion of the Kronecker product."""
    (p, q), (r, s) = a.shape, b.shape
    out = np.zeros((p * r, q * s), dtype=complex)
    for i in range(p):
        for j in range(q):
            for k in range(r):
                for l in range(s):
                    out[i * r + k, j * s + l] = a[i, j] * b[k, l]
    return out


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
        sd = hermitian_eigendecompose(np.diag([1.0, 1.0]), cluster_tol=1e-9)
        np.testing.assert_allclose(sd.eigenvalues, [1.0])
        np.testing.assert_allclose(sd.projectors[0], np.eye(2), atol=1e-12)

    def test_diagonal_sign_pair(self):
        m = np.diag([-1.0, 1.0])
        sd = hermitian_eigendecompose(m, cluster_tol=1e-9)
        np.testing.assert_allclose(sd.eigenvalues, [-1.0, 1.0])
        # defining relation P m = a P, checked entrywise
        for a, p in zip(sd.eigenvalues, sd.projectors):
            np.testing.assert_allclose(p @ m, a * p, atol=1e-12)
        np.testing.assert_allclose(sd.projectors[0], np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(sd.projectors[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_pauli_x(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        sd = hermitian_eigendecompose(m, cluster_tol=1e-9)
        np.testing.assert_allclose(sd.eigenvalues, [-1.0, 1.0], atol=1e-12)
        for p in sd.projectors:
            assert abs(np.trace(p).real - 1.0) < 1e-12  # rank 1
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
        np.testing.assert_allclose(sd.reconstruct(), m, atol=1e-10)

    def test_clustering_merges_near_degenerate(self):
        m = np.diag([1.0, 1.0 + 1e-12, 2.0])
        sd = hermitian_eigendecompose(m, cluster_tol=1e-9)
        assert sd.eigenvalues.size == 2
        assert abs(np.trace(sd.projectors[0]).real - 2.0) < 1e-12
        assert abs(sd.eigenvalues[0] - (1.0 + 5e-13)) < 1e-12

    @pytest.mark.parametrize("values, cluster_tol", [
        # 200 values 6e-9 apart span 1.2e-6, 120 times the default 1e-8 tolerance
        (np.r_[np.arange(200) * 6e-9, 1.0], None),
        ([1.0, 1.0 + 6e-10, 1.0 + 1.2e-9, 2.0], 1e-9),
    ])
    def test_clustering_refuses_chained_neighbours(self, values, cluster_tol):
        with pytest.raises(ValueError, match="chain over a width of"):
            hermitian_eigendecompose(np.diag(values), cluster_tol=cluster_tol)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_invariants_random(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(10):
            m = random_hermitian(rng, dim)
            sd = hermitian_eigendecompose(m)
            defects = spectral_defects(sd, source=m)
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


class TestTensorProduct:
    def test_identity_times_identity(self):
        np.testing.assert_allclose(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_example(self):
        a, b = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        expected = kron_oracle(a, b)
        np.testing.assert_allclose(expected, np.diag([0.0, 1.0, 0.0, 0.0]))
        np.testing.assert_allclose(tensor_product(a, b), expected)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(7)
        a = random_complex(rng, (2, 3))
        b = random_complex(rng, (3, 2))
        np.testing.assert_allclose(tensor_product(a, b), kron_oracle(a, b), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_mixed_product_property(self, seed):
        # (a⊗b)(c⊗d) = (ac)⊗(bd)
        rng = np.random.default_rng(seed)
        a, b, c, d = (random_complex(rng, (2, 2)) for _ in range(4))
        left = tensor_product(a, b) @ tensor_product(c, d)
        right = tensor_product(a @ c, b @ d)
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_bilinearity_and_associativity(self):
        rng = np.random.default_rng(11)
        a, b, c = (random_complex(rng, (2, 2)) for _ in range(3))
        np.testing.assert_allclose(
            tensor_product(a + b, c), tensor_product(a, c) + tensor_product(b, c), atol=1e-12)
        np.testing.assert_allclose(
            tensor_product(tensor_product(a, b), c),
            tensor_product(a, tensor_product(b, c)), atol=1e-12)


class TestPartialTrace:
    def test_product_rule(self):
        rng = np.random.default_rng(3)
        a = random_complex(rng, (2, 2))
        b = random_complex(rng, (3, 3))
        result = partial_trace_second(tensor_product(a, b), 2, 3)
        np.testing.assert_allclose(result, a * np.trace(b), atol=1e-12)
        np.testing.assert_allclose(result, ptrace2_oracle(tensor_product(a, b), 2, 3),
                                   atol=1e-12)

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

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace_second(np.eye(5), 2, 2)


class TestPositivity:
    def test_identity_is_psd(self):
        assert is_positive_semidefinite(np.eye(2))

    def test_sign_case(self):
        assert not is_positive_semidefinite(np.diag([1.0, -1.0]))

    def test_gram_matrices_are_psd(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_complex(rng, (4, 4))
            assert is_positive_semidefinite(g.conj().T @ g)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            is_positive_semidefinite(np.array([[0.0, 1.0], [0.0, 0.0]]))
