"""Object-apparatus coupling tests.

The compound density oracle assembles the four bra-ket blocks explicitly
with numpy.kron and extracted eigenvectors, independently of the
implementation's layout; the reduction oracle is the nonselective mixture.
"""

import numpy as np
import pytest

from esrsim import (
    ApparatusModel,
    CompoundState,
    ConstantDetection,
    DimensionMismatchError,
    ExpectationDetection,
    GeneralizedObservable,
    PureState,
    QuantumObservable,
    build_scenario,
    compound_density,
    couple_and_evolve,
    measurement_operators,
    nonselective_state,
    parse_scenario,
    reduced_object_state,
)
from helpers import (
    partial_trace_second,
    projectors,
    random_generalized,
    random_state,
    random_unitary,
    scenario_stream,
    sigma_z_scenario,
    spectral_scenario_text,
)

PHASES = (0.0, np.pi / 3.0, np.pi, 1.7)


def eigenvector_of(projector: np.ndarray) -> np.ndarray:
    """Unit vector spanning a rank-1 projector (arbitrary phase)."""
    col = projector[:, int(np.argmax(np.linalg.norm(projector, axis=0)))]
    return col / np.linalg.norm(col)


def compound_oracle(gobs, psi, theta, phi) -> np.ndarray:
    """Four-block assembly of the compound density via explicit kron terms."""
    pd = gobs.detection.probability(psi)
    alpha = np.sqrt(pd) * np.exp(1j * theta)
    beta = np.sqrt(1.0 - pd) * np.exp(1j * phi)
    dim_pointer = gobs.base.eigenvalues.size + 1
    vectors = [eigenvector_of(p) for p in projectors(gobs.base)]
    coefficients = [np.vdot(v, psi.amplitudes) for v in vectors]
    pointer = np.eye(dim_pointer)

    def block(u, w):
        return np.outer(u, w.conj())

    w_object = block(psi.amplitudes, psi.amplitudes)
    out = np.zeros((gobs.dim * dim_pointer,) * 2, dtype=complex)
    for k, (ck, vk) in enumerate(zip(coefficients, vectors), start=1):
        for l, (cl, vl) in enumerate(zip(coefficients, vectors), start=1):
            out += (abs(alpha) ** 2 * ck * np.conj(cl)
                    * np.kron(block(vk, vl), block(pointer[k], pointer[l])))
        out += (alpha * np.conj(beta) * ck
                * np.kron(block(vk, psi.amplitudes), block(pointer[k], pointer[0])))
        out += (np.conj(alpha) * beta * np.conj(ck)
                * np.kron(block(psi.amplitudes, vk), block(pointer[0], pointer[k])))
    out += abs(beta) ** 2 * np.kron(w_object, block(pointer[0], pointer[0]))
    return out


class TestCoupleAndEvolve:
    def test_full_detection_is_entangled_premeasurement(self):
        gobs, psi = sigma_z_scenario(1.0, a0=0.0)
        cs = couple_and_evolve(gobs, psi, ApparatusModel())
        grid = cs.amplitudes.reshape(2, 3)
        np.testing.assert_allclose(grid[:, 0], 0.0, atol=1e-15)  # no ready branch
        # each pointer column carries the matching projected component
        for j, p in enumerate(projectors(gobs.base)):
            np.testing.assert_allclose(grid[:, j + 1], p @ psi.amplitudes, atol=1e-12)

    def test_no_detection_leaves_product_state(self):
        gobs, psi = sigma_z_scenario(0.0, a0=0.0)
        cs = couple_and_evolve(gobs, psi, ApparatusModel())
        grid = cs.amplitudes.reshape(2, 3)
        np.testing.assert_allclose(grid[:, 0], psi.amplitudes, atol=1e-15)
        np.testing.assert_allclose(grid[:, 1:], 0.0, atol=1e-15)

    def test_half_detection_frozen_expansion(self):
        gobs, psi = sigma_z_scenario(0.5, a0=0.0)
        cs = couple_and_evolve(gobs, psi, ApparatusModel())
        grid = cs.amplitudes.reshape(2, 3)
        s = np.sqrt(0.5)
        # ready column sqrt(0.5) psi; eigenvalue columns sqrt(0.5) P_k psi
        np.testing.assert_allclose(grid[:, 0], s * psi.amplitudes, atol=1e-12)
        np.testing.assert_allclose(grid[:, 1], s * np.array([0.0, 1.0 / np.sqrt(2.0)]),
                                   atol=1e-12)
        np.testing.assert_allclose(grid[:, 2], s * np.array([1.0 / np.sqrt(2.0), 0.0]),
                                   atol=1e-12)
        assert abs(np.linalg.norm(cs.amplitudes) - 1.0) < 1e-12

    def test_degenerate_spectra_keep_norm_and_partial_trace(self):
        rng = np.random.default_rng(179)
        cases = [(gobs, psi) for _, gobs, psi in scenario_stream(seed=181, count=40)]
        cases += [(random_generalized(rng, 32, degenerate=True), random_state(rng, 32))
                  for _ in range(3)]
        # spectral scenario whose eigenvalues 0.5 and 0.5 + 1e-12 merge into one
        text = spectral_scenario_text([0.5, 2.0, 0.5 + 1e-12], random_unitary(rng, 3))
        cases.append((build_scenario(parse_scenario(text)).gobs, random_state(rng, 3)))
        degenerate = [gobs for gobs, _ in cases if gobs.base.eigenvalues.size < gobs.dim]
        assert len(degenerate) >= 10 and cases[-1][0] in degenerate
        for gobs, psi in cases:
            theta, phi = rng.uniform(0, 2 * np.pi, size=2)
            app = ApparatusModel(theta, phi)
            cs = couple_and_evolve(gobs, psi, app)
            assert abs(np.linalg.norm(cs.amplitudes) - 1.0) <= 1e-12
            reduced = reduced_object_state(cs).matrix
            mixture = nonselective_state(measurement_operators(gobs, psi)).matrix
            assert np.linalg.norm(reduced - mixture) <= 1e-10

    def test_norm_preserved_for_all_detection_levels(self):
        rng = np.random.default_rng(157)
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            pd = float(rng.uniform(0.0, 1.0))
            gobs = random_generalized(rng, dim, detection=ConstantDetection(pd))
            psi = random_state(rng, dim)
            app = ApparatusModel(theta=rng.uniform(0, np.pi), phi=rng.uniform(0, np.pi))
            cs = couple_and_evolve(gobs, psi, app)
            assert abs(np.linalg.norm(cs.amplitudes) - 1.0) < 1e-12


class TestCompoundDensity:
    def test_purity_and_trace(self):
        gobs, psi = sigma_z_scenario(0.5, a0=0.0)
        w = compound_density(couple_and_evolve(gobs, psi, ApparatusModel()))
        assert abs(w.purity() - 1.0) < 1e-12
        assert abs(np.trace(w.matrix).real - 1.0) < 1e-12

    def test_four_block_assembly(self):
        gobs, psi = sigma_z_scenario(0.5, a0=0.0)
        for theta, phi in [(0.0, 0.0), (np.pi / 3.0, 1.7)]:
            app = ApparatusModel(theta, phi)
            w = compound_density(couple_and_evolve(gobs, psi, app))
            np.testing.assert_allclose(w.matrix, compound_oracle(gobs, psi, theta, phi),
                                       atol=1e-12)

    def test_four_block_assembly_random(self):
        rng = np.random.default_rng(163)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            gobs = random_generalized(rng, dim)
            psi = random_state(rng, dim)
            theta, phi = rng.uniform(0, 2 * np.pi, size=2)
            app = ApparatusModel(theta, phi)
            w = compound_density(couple_and_evolve(gobs, psi, app))
            np.testing.assert_allclose(w.matrix, compound_oracle(gobs, psi, theta, phi),
                                       atol=1e-12)


class TestReducedObjectState:
    def test_matches_nonselective_mixture(self):
        rng = np.random.default_rng(167)
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            gobs = random_generalized(rng, dim)
            psi = random_state(rng, dim)
            cs = couple_and_evolve(gobs, psi, ApparatusModel())
            reduced = reduced_object_state(cs).matrix
            mixture = nonselective_state(measurement_operators(gobs, psi)).matrix
            assert np.linalg.norm(reduced - mixture) <= 1e-10

    def test_matches_dense_partial_trace(self):
        # the dense partial trace of the compound density is the reference
        rng = np.random.default_rng(179)
        cases = [(gobs, psi) for _, gobs, psi in scenario_stream(seed=181, count=40)]
        for _ in range(4):
            gobs = random_generalized(rng, 32, degenerate=True)
            cases.append((gobs, random_state(rng, 32)))
        for gobs, psi in cases:
            app = ApparatusModel(*rng.uniform(0.0, 3.0, size=2))
            cs = couple_and_evolve(gobs, psi, app)
            dense = partial_trace_second(compound_density(cs).matrix, gobs.dim, cs.dim_pointer)
            assert np.max(np.abs(reduced_object_state(cs).matrix - dense)) <= 1e-15

    def test_phase_independence(self):
        gobs, psi = sigma_z_scenario(0.5, a0=0.0)
        reference = None
        for theta in PHASES[:3]:
            for phi in PHASES[:3]:
                app = ApparatusModel(theta, phi)
                reduced = reduced_object_state(couple_and_evolve(gobs, psi, app)).matrix
                if reference is None:
                    reference = reduced
                else:
                    np.testing.assert_allclose(reduced, reference, atol=1e-12)

    def test_full_detection_gives_diagonal_mixture(self):
        rng = np.random.default_rng(173)
        gobs = random_generalized(rng, 4, detection=ConstantDetection(1.0))
        psi = random_state(rng, 4)
        cs = couple_and_evolve(gobs, psi, ApparatusModel())
        reduced = reduced_object_state(cs).matrix
        expected = np.zeros_like(reduced)
        w = np.outer(psi.amplitudes, psi.amplitudes.conj())
        for p in projectors(gobs.base):
            expected += p @ w @ p
        np.testing.assert_allclose(reduced, expected, atol=1e-12)


class TestNonlinearity:
    def test_superposition_witness(self):
        # state-dependent detection makes the coupling nonlinear: evolving a
        # superposition differs from superposing the evolved branches
        detection = ExpectationDetection(np.diag([0.1, 0.9]))
        base = QuantumObservable.from_matrix(np.diag([1.0, -1.0]))
        gobs = GeneralizedObservable(base, 0.0, detection)
        app = ApparatusModel()
        psi1 = PureState(np.array([1.0, 0.0]))
        psi2 = PureState(np.array([0.0, 1.0]))
        plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
        evolved_plus = couple_and_evolve(gobs, plus, app).amplitudes
        branch_sum = (couple_and_evolve(gobs, psi1, app).amplitudes
                      + couple_and_evolve(gobs, psi2, app).amplitudes)
        branch_sum = branch_sum / np.linalg.norm(branch_sum)
        assert np.linalg.norm(evolved_plus - branch_sum) > 1e-3


class TestValidation:
    def test_compound_state_rejects_non_finite_amplitudes(self):
        with pytest.raises(ValueError, match="finite"):
            CompoundState(np.array([np.nan, 0.0]), 1, 2)

    def test_compound_state_rejects_a_wrong_amplitude_count(self):
        with pytest.raises(DimensionMismatchError, match=r"amplitude count 3 != 2 \* 2"):
            CompoundState(np.zeros(3), 2, 2)

    @pytest.mark.parametrize("theta, phi", [(np.nan, 0.0), (0.0, np.inf)])
    def test_apparatus_rejects_non_finite_phases(self, theta, phi):
        with pytest.raises(ValueError, match="finite"):
            ApparatusModel(theta, phi)
