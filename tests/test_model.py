"""Domain-model tests: states, observables, detection models, effects and the
overall/conditional probability rules.

Derived expectations are frozen from independent arithmetic (outer products,
explicit effect assembly) rather than from the code under test.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import esrsim
from esrsim import (
    ApparatusModel,
    ConstantDetection,
    DensityOperator,
    DimensionMismatchError,
    Effect,
    EventContainsNoRegistrationError,
    ExpectationDetection,
    GeneralizedObservable,
    NotHermitianError,
    NotNormalizedError,
    ProbabilityRangeError,
    PureState,
    QuantumObservable,
    RngSpec,
    build_scenario,
    conditional_probability,
    detection_probability,
    effect,
    overall_probability,
    overall_probability_density,
    parse_scenario,
    pv_projector,
    split_event,
    to_density,
    verify_pov_axioms,
)
from esrsim import linalg, model, sampling
from esrsim.model import (
    _density_gate,
    _effect_operator,
    _match_atol,
    as_event,
    clamp_probability,
)
from helpers import (
    _nearest_index,
    complement_event,
    projectors,
    random_event,
    random_generalized,
    random_observable,
    random_state,
    random_unitary,
    reference_effect,
    reference_pov_axioms,
    reference_projector_sums,
    scenario_stream,
    sigma_z_scenario,
    spectral_scenario_text,
    verify_cases,
)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            PureState(np.array([1.0, 1.0]))

    def test_rejects_empty_amplitudes(self):
        with pytest.raises(ValueError, match="amplitudes must form a nonempty 1-D sequence"):
            PureState(np.array([]))

    @pytest.mark.parametrize("scale, accepted", [(1 + 0.9e-10, False), (1 - 0.9e-10, False),
                                                 (1 + 3.9e-11, True), (1 - 3.9e-11, True)])
    def test_norm_decides_at_tolerance(self, scale, accepted):
        # a norm off by delta moves verify's probability sums by up to 2 delta,
        # so the gate refuses a norm that the check tolerance would fail
        amplitudes = np.array([0.6, 0.8]) * scale
        if accepted:
            PureState(amplitudes)
        else:
            with pytest.raises(NotNormalizedError, match="state norm is"):
                PureState(amplitudes)

    def test_amplitudes_frozen(self):
        psi = PureState(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestToDensity:
    def test_basis_state(self):
        w = to_density(PureState(np.array([1.0, 0.0])))
        np.testing.assert_allclose(w.matrix, np.diag([1.0, 0.0]))

    def test_superposition(self):
        psi = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
        np.testing.assert_allclose(to_density(psi).matrix,
                                   np.full((2, 2), 0.5), atol=1e-12)

    def test_built_once_per_state(self):
        psi = PureState(np.array([0.6, 0.8j]))
        assert to_density(psi) is to_density(psi)

    def test_trace_and_idempotency_random(self):
        rng = np.random.default_rng(21)
        for dim in (2, 3, 6):
            w = to_density(random_state(rng, dim)).matrix
            assert abs(np.trace(w).real - 1.0) < 1e-12
            np.testing.assert_allclose(w @ w, w, atol=1e-10)


def _rotated_spectrum(rng, spectrum) -> np.ndarray:
    u = random_unitary(rng, len(spectrum))
    return (u * np.asarray(spectrum)) @ u.conj().T


class TestDensityOperatorGate:
    """Each of the gate's rejections, at BUILD_GATE_TOL = 1e-6."""

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            DensityOperator(np.array([[0.5, 0.1], [0.0, 0.5]]))

    def test_rejects_trace_off_by_more_than_tolerance(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.diag([0.5 + 2e-6, 0.5]))

    @pytest.mark.parametrize("dim", [2, 8, 32, 48])
    def test_smallest_eigenvalue_decides_at_tolerance(self, dim):
        rng = np.random.default_rng(dim)
        for lowest, accepted in ((-2e-6, False), (-0.5e-6, True)):
            rest = rng.uniform(0.5, 1.5, size=dim - 1)
            rest *= (1.0 - lowest) / rest.sum()
            m = _rotated_spectrum(rng, np.concatenate(([lowest], rest)))
            if accepted:
                w = DensityOperator(m)
                np.testing.assert_array_equal(w.matrix, (m + m.conj().T) / 2.0)
            else:
                with pytest.raises(ValueError, match="positive semidefinite"):
                    DensityOperator(m)


class TestStackedDensityGate:
    """The density gate on a stack passes each good matrix with the bits it
    gets alone. Which error a failing stack names is the caller's to decide;
    test_measurement's test_update_form_cause_is_the_first_failing_event
    checks the one caller that gates stacks."""

    def test_good_stack_matches_each_matrix_alone(self):
        rng = np.random.default_rng(23)
        stack = np.array([to_density(random_state(rng, 4)).matrix for _ in range(4)])
        stack += 1e-17 * rng.normal(size=stack.shape)  # not Hermitian bit for bit
        gated = _density_gate(stack)
        assert not gated.flags.writeable
        for matrix, alone in zip(gated, stack):
            np.testing.assert_array_equal(matrix, DensityOperator(alone).matrix)


class TestQuantumObservable:
    @pytest.mark.parametrize("bases, error, message", [
        ([np.eye(2)], ValueError, "one basis per eigenvalue"),
        ([np.eye(2)[:, :1], np.eye(3)[:, 1:]], DimensionMismatchError, "share one dimension"),
        ([np.eye(2)[:, :1], np.ones(2)], ValueError, "expected a 2-D array, got ndim=1"),
        ([np.eye(2)[:, :1], np.ones((2, 1, 1))], ValueError, "expected a 2-D array, got ndim=3"),
        ([np.eye(2)[:, :1], np.full((2, 1), np.inf)], ValueError, "finite"),
    ([[[1.0], [0.0]], np.zeros((2, 0))], ValueError, r"\[1, 0\] columns, 1 in all, for d = 2"),
    ([np.eye(2)[:, :1], np.eye(2)], ValueError, r"\[1, 2\] columns, 3 in all, for d = 2"),
    ([np.eye(2), np.zeros((2, 0))], ValueError, r"\[2, 0\] columns, 2 in all, for d = 2"),
    ])
    def test_rejects_malformed_bases(self, bases, error, message):
        with pytest.raises(error, match=message):
            QuantumObservable(np.array([0.0, 1.0]), bases)

    def test_eigenbasis_and_eigenstates_come_from_the_bases(self):
        """The eigenbasis V is the bases' columns in eigenvalue order, bit for bit
        and read-only, each basis a view of its block, and an eigenspace has a
        table state exactly when its basis is one vector, whose density is the
        projector normalized: on a stream, d = 32 degenerate, d = 48 and a
        spectral-form scenario with a threefold eigenvalue, whose V is its
        vectors sorted by eigenvalue."""
        u = random_unitary(np.random.default_rng(6), 6)
        values = [0.5, -1.0, 0.5, 2.0, 0.5, 3.0]
        cases = [build_scenario(parse_scenario(spectral_scenario_text(values, u))).gobs]
        assert np.array_equal(cases[0].base.eigenbasis, u[:, np.argsort(values, kind="stable")])
        cases += [gobs for _, gobs, _ in scenario_stream(seed=2311, count=8)]
        cases += [gobs for kind in ("d32-degenerate", "d48") for gobs, _ in verify_cases(kind)]
        ranks = set()
        for gobs in cases:
            base = gobs.base
            v, table = base.eigenbasis, sampling._eigenstates(gobs)
            assert v.shape == (base.dim, base.dim) and not v.flags.writeable
            assert np.hstack(base.bases).tobytes() == v.tobytes()
            assert len(base.bases) == len(table) == base.eigenvalues.size
            widths = [b.shape[1] for b in base.bases]
            assert base._starts.tolist() == np.cumsum([0] + widths)[:-1].tolist()
            assert base._groups.tolist() == np.repeat(np.arange(len(widths)), widths).tolist()
            for b, p, entry in zip(base.bases, projectors(base), table):
                assert not b.flags.writeable and np.shares_memory(b, v)
                assert (entry is None) == (b.shape[1] > 1)
                if entry is not None:
                    e = entry[0].amplitudes
                    np.testing.assert_allclose(np.outer(e, e.conj()), p / np.trace(p).real,
                                               rtol=0, atol=1e-15)
                ranks.add(min(b.shape[1], 2))
        assert cases[0].base.bases[1].shape == (6, 3) and ranks == {1, 2}

    def test_eigenstate_of_a_vector_off_unit_norm_is_normalized(self):
        # the spectral form accepts eigenvectors orthonormal to BUILD_GATE_TOL,
        # far looser than a state's NORM_TOL
        text = spectral_scenario_text([-1.0, 1.0], np.diag([1.0 + 4e-7, 1.0]))
        gobs = build_scenario(parse_scenario(text)).gobs
        assert sampling._eigenstates(gobs)[0][0].amplitudes.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("eigenvalues, message", [
        ([1.0, 0.0], "strictly increasing"),
        ([0.0, 0.0], "strictly increasing"),
        ([0.0, np.nan], "finite"),
        ([], "nonempty"),
    ])
    def test_rejects_malformed_eigenvalues(self, eigenvalues, message):
        with pytest.raises(ValueError, match=message):
            QuantumObservable(np.array(eigenvalues), np.zeros((len(eigenvalues), 2, 2)))


class TestPvProjector:
    def test_full_spectrum_gives_identity(self):
        obs = QuantumObservable.from_matrix(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(pv_projector(obs, obs.eigenvalues), np.eye(2),
                                   atol=1e-12)

    def test_empty_event_gives_zero(self):
        obs = QuantumObservable.from_matrix(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(pv_projector(obs, ()), np.zeros((2, 2)))

    def test_plus_one_eigenspace(self):
        m = np.diag([1.0, -1.0])
        obs = QuantumObservable.from_matrix(m)
        p = pv_projector(obs, (1.0,))
        np.testing.assert_allclose(p @ m, 1.0 * p, atol=1e-12)
        np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-12)

    def test_stray_values_contribute_nothing(self):
        obs = QuantumObservable.from_matrix(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(pv_projector(obs, (7.5, 1.0)),
                                   pv_projector(obs, (1.0,)))


# Entry gap allowed between a stacked projector sum V_S V_S† and the sum of
# the projectors B_k B_k† added one by one, in units of d·ε.
PROJECTOR_SUM_GAP = 2


def test_stacked_kernels_give_each_row_its_bits_alone():
    """Each row of ``_projector_sums`` and ``_effects`` has the same bits, signs of
    zero included, alone as in stacks of 3, 7 and all rows: d = 1 to 48, V a
    random unitary with each column its own eigenspace, the same V cut into
    random blocks (a degenerate spectrum), and the identity whose zero entries
    are all -0.0. Each observable's rows hold the empty, the full and every
    singleton mask, and random masks of several densities, most of them at
    small d, where rows are cheap; every projector sum is also within
    ``PROJECTOR_SUM_GAP`` d·ε of the one-by-one sum of the projectors."""
    rng = np.random.default_rng(2026)
    rows_checked = 0
    for dim in range(1, 49):
        u = random_unitary(rng, dim)
        cuts = np.sort(rng.choice(np.arange(1, dim), size=int(rng.integers(0, max(1, dim - 1))),
                                  replace=False))
        signed = np.eye(dim) + 0j
        signed.view(float)[signed.view(float) == 0.0] = -0.0
        observables = [QuantumObservable(np.arange(len(blocks), dtype=float), blocks)
                       for blocks in (np.split(u, dim, axis=1), np.split(u, cuts, axis=1),
                                      np.split(signed, dim, axis=1))]
        for obs in observables:
            k = obs.eigenvalues.size
            extra = max(8, 600 // dim)
            masks = np.concatenate([
                np.zeros((1, k), dtype=bool), np.ones((1, k), dtype=bool),
                np.eye(k, dtype=bool),
                rng.random((extra, k)) < rng.choice([0.1, 0.5, 0.9], size=(extra, 1)),
            ])
            gobs = GeneralizedObservable(obs, None, ConstantDetection(0.7))
            rows = np.concatenate([rng.random((len(masks), 1)) < 0.5, masks], axis=1)
            for kernel, items in ((lambda m: model._projector_sums(obs, m), masks),
                                  (lambda r: model._effects(gobs, 0.7, r), rows)):
                alone = np.array([kernel(item[None])[0] for item in items]).view(np.uint64)
                for length in (3, 7, len(items)):
                    stacked = np.concatenate([kernel(items[start:start + length])
                                              for start in range(0, len(items), length)])
                    assert np.array_equal(stacked.view(np.uint64), alone), (dim, length)
            gap = np.abs(model._projector_sums(obs, masks) - reference_projector_sums(obs, masks))
            assert gap.max() <= PROJECTOR_SUM_GAP * dim * np.finfo(float).eps, dim
            rows_checked += len(masks)
    assert rows_checked >= 10 ** 4


class TestDetectionProbability:
    def test_constant(self):
        gobs, psi = sigma_z_scenario(0.8)
        assert detection_probability(gobs, psi) == 0.8

    def test_expectation_valued_basis_state(self):
        detection = ExpectationDetection(np.diag([0.2, 0.6]))
        gobs = GeneralizedObservable.from_matrix(np.diag([1.0, -1.0]), detection, a0=0.0)
        psi = PureState(np.array([1.0, 0.0]))
        assert abs(detection_probability(gobs, psi) - 0.2) < 1e-12

    def test_rayleigh_bounds(self):
        rng = np.random.default_rng(33)
        b = np.diag([0.2, 0.6, 0.9])
        detection = ExpectationDetection(b)
        gobs = GeneralizedObservable.from_matrix(np.diag([1.0, 2.0, 3.0]), detection, a0=0.0)
        for _ in range(25):
            p = detection_probability(gobs, random_state(rng, 3))
            assert 0.2 - 1e-12 <= p <= 0.9 + 1e-12

    def test_constant_validation(self):
        with pytest.raises(ValueError):
            ConstantDetection(1.5)

    def test_expectation_spectrum_validation(self):
        with pytest.raises(ValueError):
            ExpectationDetection(np.diag([0.5, 1.2]))

    def test_expectation_rejects_a_state_of_another_dimension(self):
        with pytest.raises(DimensionMismatchError, match="state dim 3 != detection operator dim 2"):
            ExpectationDetection(np.diag([0.2, 0.6])).probability(PureState(np.eye(3)[0]))

    @pytest.mark.parametrize("edge, accepted", [(-2e-10, False), (-0.5e-10, True),
                                                (1.0 + 2e-10, False), (1.0 + 0.5e-10, True)])
    def test_expectation_spectrum_decides_at_tolerance(self, edge, accepted):
        b = _rotated_spectrum(np.random.default_rng(9), [edge, 0.5, 0.25, 0.75])
        if accepted:
            ExpectationDetection(b)
        else:
            with pytest.raises(ValueError, match="operator spectrum"):
                ExpectationDetection(b)


# Every exported function taking (gobs, psi, ...), and a valid value for each
# further parameter without a default.
GOBS_PSI_ENTRY_POINTS = [
    name for name in esrsim.__all__ if inspect.isfunction(getattr(esrsim, name))
    and list(inspect.signature(getattr(esrsim, name)).parameters)[:2] == ["gobs", "psi"]]
ENTRY_POINT_ARGUMENTS = {"event": (1.0,), "apparatus": ApparatusModel(), "rng": RngSpec(seed=1),
                         "length": 3, "trials": 10}


@pytest.mark.parametrize("detection", [ConstantDetection(0.8),
                                       ExpectationDetection(np.diag([0.3, 0.9]))],
                         ids=["constant", "expectation"])
@pytest.mark.parametrize("name", GOBS_PSI_ENTRY_POINTS)
def test_wrong_dimension_state_is_named(name, detection):
    entry = getattr(esrsim, name)
    gobs = GeneralizedObservable.from_matrix(np.diag([1.0, -1.0]), detection, a0=0.0)
    psi = PureState(np.ones(3) / np.sqrt(3.0))
    params = list(inspect.signature(entry).parameters.values())[2:]
    args = [ENTRY_POINT_ARGUMENTS[p.name] for p in params if p.default is p.empty]
    with pytest.raises(DimensionMismatchError):
        entry(gobs, psi, *args)


class TestConditionalProbability:
    def test_full_spectrum(self):
        gobs, psi = sigma_z_scenario(0.8)
        assert abs(conditional_probability(gobs, psi, (1.0, -1.0)) - 1.0) < 1e-12

    def test_born_rule_half(self):
        gobs, psi = sigma_z_scenario(0.8)
        assert abs(conditional_probability(gobs, psi, (1.0,)) - 0.5) < 1e-12

    def test_rejects_no_registration(self):
        gobs, psi = sigma_z_scenario(0.8, a0=0.0)
        with pytest.raises(EventContainsNoRegistrationError):
            conditional_probability(gobs, psi, (0.0, 1.0))

    def test_additive_over_disjoint_partitions(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            gobs = random_generalized(rng, 4)
            psi = random_state(rng, 4)
            eigs = gobs.base.eigenvalues
            labels = rng.integers(0, 2, size=eigs.size).astype(bool)
            total = (conditional_probability(gobs, psi, eigs[labels])
                     + conditional_probability(gobs, psi, eigs[~labels]))
            assert abs(total - conditional_probability(gobs, psi, eigs)) < 1e-12


class TestEffect:
    def test_full_outcome_set_is_identity(self):
        gobs, psi = sigma_z_scenario(0.8)
        np.testing.assert_allclose(effect(gobs, psi, gobs.outcomes).operator,
                                   np.eye(2), atol=1e-12)

    def test_detected_event(self):
        gobs, psi = sigma_z_scenario(0.75, a0=0.0)
        np.testing.assert_allclose(effect(gobs, psi, (1.0,)).operator,
                                   0.75 * np.diag([1.0, 0.0]), atol=1e-12)

    def test_no_registration_event(self):
        gobs, psi = sigma_z_scenario(0.75, a0=0.0)
        np.testing.assert_allclose(effect(gobs, psi, (0.0,)).operator,
                                   0.25 * np.eye(2), atol=1e-12)

    def test_mixed_event_assembly(self):
        # independent assembly: (1 - p) I + p P(event minus a0)
        gobs, psi = sigma_z_scenario(0.6, a0=0.0)
        expected = 0.4 * np.eye(2) + 0.6 * np.diag([1.0, 0.0])
        np.testing.assert_allclose(effect(gobs, psi, (0.0, 1.0)).operator,
                                   expected, atol=1e-12)

    def test_effect_bounds_random(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            gobs = random_generalized(rng, int(rng.integers(2, 6)))
            psi = random_state(rng, gobs.dim)
            t = effect(gobs, psi, random_event(rng, gobs)).operator
            eigs = np.linalg.eigvalsh(t)
            assert eigs[0] >= -1e-10 and eigs[-1] <= 1.0 + 1e-10

    def test_constructor_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Effect(np.diag([0.5, 1.5]))

    @pytest.mark.parametrize("edge, accepted", [(-2e-6, False), (-0.5e-6, True),
                                                (1.0 + 2e-6, False), (1.0 + 0.5e-6, True)])
    def test_spectrum_decides_at_tolerance(self, edge, accepted):
        m = _rotated_spectrum(np.random.default_rng(8), [edge, 0.2, 0.4, 0.6, 0.8, 0.5, 0.3, 0.7])
        if accepted:
            Effect(m)
        else:
            with pytest.raises(ValueError, match=r"effect spectrum \[.*\] must lie in \[0, 1\]"):
                Effect(m)


class TestOverallProbability:
    def test_detected_probability(self):
        gobs, psi = sigma_z_scenario(0.8)
        assert abs(overall_probability(gobs, psi, (1.0,)) - 0.4) < 1e-12

    def test_no_registration_probability(self):
        gobs, psi = sigma_z_scenario(0.8, a0=0.0)
        assert abs(overall_probability(gobs, psi, (0.0,)) - 0.2) < 1e-12

    def test_total_probability(self):
        gobs, psi = sigma_z_scenario(0.8)
        assert abs(overall_probability(gobs, psi, gobs.outcomes) - 1.0) < 1e-12

    @pytest.mark.parametrize("value", [0.0, 5e-9, 2.5e-9])
    def test_values_merged_into_one_eigenvalue_match_it(self, value):
        # 0 and 5e-9 lie within the 1e-8 merge tolerance and become one
        # eigenvalue 2.5e-9, outside the 1e-9 match window of either input
        gobs = GeneralizedObservable.from_matrix(np.diag([0.0, 5e-9, 1.0]),
                                                 ConstantDetection(0.5))
        psi = PureState(np.array([1.0, 0.0, 0.0]))
        assert gobs.base.eigenvalues.size == 2
        assert abs(overall_probability(gobs, psi, (value,)) - 0.5) < 1e-12
        np.testing.assert_allclose(pv_projector(gobs.base, (value,)), np.diag([1.0, 1.0, 0.0]),
                                   atol=1e-15)

    def test_empty_event(self):
        gobs, psi = sigma_z_scenario(0.8)
        assert overall_probability_density(gobs, psi, ()) == 0.0

    def test_full_detection_makes_a0_impossible(self):
        gobs, psi = sigma_z_scenario(1.0, a0=0.0)
        assert overall_probability_density(gobs, psi, (0.0,)) == 0.0

    def test_vector_and_trace_forms_agree(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            gobs = random_generalized(rng, dim)
            psi = random_state(rng, dim)
            event = random_event(rng, gobs)
            a = overall_probability(gobs, psi, event)
            b = overall_probability_density(gobs, psi, event)
            assert abs(a - b) < 1e-12

    def test_factorization_for_detected_events(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            gobs = random_generalized(rng, dim)
            psi = random_state(rng, dim)
            event = random_event(rng, gobs, allow_a0=False)
            combined = overall_probability(gobs, psi, event)
            split = (detection_probability(gobs, psi)
                     * conditional_probability(gobs, psi, event))
            assert abs(combined - split) < 1e-12

    def test_monotone_in_events(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            gobs = random_generalized(rng, 4)
            psi = random_state(rng, 4)
            smaller = random_event(rng, gobs)
            larger = frozenset(smaller) | random_event(rng, gobs)
            assert (overall_probability(gobs, psi, smaller)
                    <= overall_probability(gobs, psi, larger) + 1e-12)

    def test_qm_recovery_at_full_detection(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            gobs = random_generalized(rng, dim, detection=ConstantDetection(1.0))
            psi = random_state(rng, dim)
            event = random_event(rng, gobs)
            detected_part = frozenset(event) - {gobs.a0}
            assert abs(overall_probability(gobs, psi, event)
                       - conditional_probability(gobs, psi, detected_part)) < 1e-12


class TestClamping:
    def test_clamps_roundoff(self):
        assert clamp_probability(1.0 + 1e-12) == 1.0
        assert clamp_probability(-1e-12) == 0.0

    def test_rejects_logic_errors(self):
        with pytest.raises(ProbabilityRangeError):
            clamp_probability(1.1)


@pytest.mark.parametrize("dim", [11, 19, 32])
def test_random_degenerate_observable_beyond_nine_values(dim):
    # more than 9 distinct eigenvalues need a wider pool than the integers -4..4
    rng = np.random.default_rng(dim)
    sizes = set()
    for _ in range(8):
        obs = random_observable(rng, dim, degenerate=True)
        ranks = [b.shape[1] for b in obs.bases]
        assert sum(ranks) == dim and max(ranks) > 1
        np.testing.assert_allclose(obs.eigenvalues, np.round(obs.eigenvalues), atol=1e-9)
        sizes.add(obs.eigenvalues.size)
    assert max(sizes) > 9


class TestGeneralizedObservable:
    def test_default_a0_below_spectrum(self):
        gobs = GeneralizedObservable.from_matrix(np.diag([1.0, -1.0]),
                                                 ConstantDetection(0.5))
        assert gobs.a0 == -2.0
        np.testing.assert_allclose(gobs.outcomes, [-2.0, -1.0, 1.0])

    @pytest.mark.parametrize("eigenvalues", [
        [1e9, 1e9 + 1.0, 1e9 + 2.0],  # |λ_min| large: a0's match window is about 1
        [-1e8, 0.0, 1e8],  # a spectral range of 2e8: a merge tolerance of 2
        [1e9, 2e9],  # both: a window of about 1 and a merge tolerance of 10
        [-1e300, 1e300],
    ])
    def test_default_a0_steps_farther_where_one_below_would_clash(self, eigenvalues):
        # λ_min - 1 lies within the clash floor of each of these spectra; the
        # default steps farther below, and passes the rule an explicit a0 must pass
        low = min(eigenvalues)
        tol = linalg.default_cluster_tol(np.array(eigenvalues))
        assert not 1.0 > tol + 2.0 * _match_atol(low - 1.0)
        gobs = GeneralizedObservable.from_matrix(np.diag(eigenvalues), ConstantDetection(0.5))
        assert gobs.a0 < low - 1.0 and math.isfinite(gobs.a0)
        assert GeneralizedObservable(gobs.base, gobs.a0, gobs.detection).a0 == gobs.a0
        n = len(eigenvalues)
        assert split_event(gobs, (gobs.a0,)).tolist() == [True] + [False] * n
        for k, v in enumerate(eigenvalues):
            assert split_event(gobs, (v,)).tolist() == [j == k + 1 for j in range(n + 1)]

    def test_default_a0_is_one_below_wherever_that_clears(self):
        # no default that λ_min - 1 satisfies moves: near the thresholds, on
        # random observables and on every spectrum of the scenario stream
        observables = [QuantumObservable.from_matrix(np.diag(v)) for v in (
            [1.0, -1.0], [4e8, 4e8 + 1.0], [-3e7, 3e7])]
        observables += [gobs.base for _, gobs, _ in scenario_stream(seed=41, count=20)]
        for base in observables:
            low = float(base.eigenvalues[0])
            assert GeneralizedObservable(base, None, ConstantDetection(0.5)).a0 == low - 1.0

    def test_rejects_a0_clash(self):
        with pytest.raises(ValueError):
            GeneralizedObservable.from_matrix(np.diag([1.0, -1.0]),
                                              ConstantDetection(0.5), a0=1.0)

    def test_a0_window_stays_clear_of_an_eigenvalue_window(self):
        # on diag(0, 1) the merge tolerance is 1e-8 and a0's match window about
        # 2e-9: a0 = 1 + 1.1e-8 clears max(1e-8, 2 * 2e-9), yet 1 + 9.5e-9 lies
        # in both its window and the eigenvalue 1's, and a0 is matched first
        def build(a0):
            return GeneralizedObservable.from_matrix(np.diag([0.0, 1.0]),
                                                     ConstantDetection(0.5), a0=a0)

        with pytest.raises(ValueError, match="clashes"):
            build(1.0 + 1.1e-8)
        floor = 1e-8 + 2.0 * _match_atol(1.0 + 1.4e-8)  # 1.4e-8 and a few 1e-17
        with pytest.raises(ValueError, match="clashes"):
            build(1.0 + 1.39e-8)
        a0 = 1.0 + 1.41e-8
        assert a0 - 1.0 > floor
        gobs = build(a0)
        assert split_event(gobs, (a0,)).tolist() == [True, False, False]
        for v in 1.0 + np.linspace(0.0, 1e-8, 101):
            assert split_event(gobs, (v,)).tolist() == [False, False, True], v

    def test_rejects_detection_operator_of_other_dimension(self):
        base = QuantumObservable.from_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(DimensionMismatchError):
            GeneralizedObservable(base, 0.0, ExpectationDetection(np.diag([0.2, 0.5, 0.9])))


class TestPovAxioms:
    def test_random_scenarios_within_tolerance(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            gobs = random_generalized(rng, dim, degenerate=bool(rng.integers(0, 2)))
            psi = random_state(rng, dim)
            report = verify_pov_axioms(gobs, psi, partition_trials=20)
            assert max(report.as_dict().values()) <= 1e-10

    def test_projective_limit_is_exact(self):
        rng = np.random.default_rng(61)
        gobs = random_generalized(rng, 3, detection=ConstantDetection(1.0))
        psi = random_state(rng, 3)
        report = verify_pov_axioms(gobs, psi, partition_trials=20)
        assert max(report.as_dict().values()) <= 1e-12

    def test_never_detect_limit(self):
        gobs, psi = sigma_z_scenario(0.0, a0=0.0)
        np.testing.assert_allclose(effect(gobs, psi, (0.0,)).operator, np.eye(2))
        np.testing.assert_allclose(effect(gobs, psi, (1.0,)).operator, np.zeros((2, 2)))
        report = verify_pov_axioms(gobs, psi, partition_trials=20)
        assert max(report.as_dict().values()) <= 1e-12

    def test_partition_sums_to_one(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            gobs = random_generalized(rng, 4)
            psi = random_state(rng, 4)
            outcomes = gobs.outcomes
            labels = rng.integers(0, 3, size=outcomes.size)
            total = sum(overall_probability(gobs, psi, outcomes[labels == g])
                        for g in range(3))
            assert abs(total - 1.0) <= 1e-10

    def test_commutativity_of_effects(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            gobs = random_generalized(rng, 5)
            psi = random_state(rng, 5)
            x = effect(gobs, psi, random_event(rng, gobs)).operator
            y = effect(gobs, psi, random_event(rng, gobs)).operator
            assert np.linalg.norm(x @ y - y @ x) <= 1e-10


VERIFY_CASES = ["stream", "d32", "d32-degenerate", "d48", "scaled"]


class TestResolvedEvents:
    """Events resolved once to boolean rows give the per-value forms' bits."""

    @pytest.mark.parametrize("kind", VERIFY_CASES)
    def test_effect_matches_reference(self, kind):
        # within PROJECTOR_SUM_GAP d·ε of the effect with its projectors added one by one
        rng = np.random.default_rng(97)
        for gobs, psi in verify_cases(kind):
            bound = PROJECTOR_SUM_GAP * gobs.dim * np.finfo(float).eps
            for _ in range(6):
                event = random_event(rng, gobs)
                gap = _effect_operator(gobs, psi, event) - reference_effect(gobs, psi, event)
                assert np.abs(gap).max() <= bound

    @pytest.mark.parametrize("kind", VERIFY_CASES)
    def test_stacked_effects_match_single_rows(self, kind):
        rng = np.random.default_rng(101)
        for gobs, psi in verify_cases(kind):
            pd = detection_probability(gobs, psi)
            rows = rng.integers(0, 2, size=(5, gobs.outcomes.size)).astype(bool)
            stacked = model._effects(gobs, pd, rows)
            for row, op in zip(rows, stacked):
                assert np.array_equal(op, model._effects(gobs, pd, row[None])[0])

    # d32 is compared through verify's checks in test_cli
    @pytest.mark.parametrize("kind", ["stream", "d32-degenerate", "d48", "scaled"])
    def test_pov_axioms_match_reference(self, kind):
        for gobs, psi in verify_cases(kind):
            report = verify_pov_axioms(gobs, psi, partition_trials=12, seed=5)
            assert report == reference_pov_axioms(gobs, psi, partition_trials=12, seed=5)
        if kind == "scaled":
            assert report.positivity > 1e-10

    def test_positivity_below_zero_matches_reference(self, monkeypatch):
        # p_d V_S V_S† + (1 - p_d) [a0 in S] I is positive for every basis, so the
        # kernel both forms call lowers every effect by 1e-9 I: the empty event's
        # effect is then -1e-9 I, and positivity is decided below 0
        effects = model._effects
        monkeypatch.setattr(model, "_effects", lambda gobs, pd, rows:
                            effects(gobs, pd, rows) - 1e-9 * np.eye(gobs.dim))
        for gobs, psi in verify_cases("stream"):
            report = verify_pov_axioms(gobs, psi, partition_trials=12, seed=5)
            assert report == reference_pov_axioms(gobs, psi, partition_trials=12, seed=5)
            assert report.positivity == pytest.approx(1e-9, rel=1e-6)

    def test_positivity_solves_each_event_once_in_stacks_of_at_most_512_kib(self, monkeypatch):
        # d = 20: 81 events of 6400 bytes fill a stack, so 1024 events take 13
        (gobs, psi), = verify_cases("scaled")
        stacks = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: stacks.append(m) or eigvalsh(m))
        verify_pov_axioms(gobs, psi, partition_trials=0)
        rows = model._event_subsets(gobs.outcomes.size, np.random.default_rng(0), 1024)
        assert [len(m) for m in stacks] == [81] * 12 + [52]
        assert all(m.nbytes <= 1 << 19 for m in stacks)
        everything = model._effects(gobs, detection_probability(gobs, psi), rows)
        assert np.array_equal(np.concatenate(stacks), everything)

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_positivity_of_a_non_finite_effect_is_nan(self, monkeypatch, entry):
        """An effect with a non-finite entry has no spectrum, though LAPACK's
        eigvalsh can return finite zeros for it: its excursion is NaN, nothing
        raises, and the other three axioms keep their values."""
        rng = np.random.default_rng(7)
        gobs, psi = random_generalized(rng, 3), random_state(rng, 3)
        clean = verify_pov_axioms(gobs, psi)
        effects, calls = model._effects, []

        def poisoned(gobs, pd, rows):
            # positivity runs first: call 0 is its one stack, call 1 the full effect
            out = effects(gobs, pd, rows)
            if not calls:
                out[2, 0, 1] = entry
            calls.append(len(rows))
            return out

        monkeypatch.setattr(model, "_effects", poisoned)
        report = verify_pov_axioms(gobs, psi)
        assert calls[:2] == [16, 1] and math.isnan(report.positivity)
        others = [dataclasses.replace(r, positivity=0.0) for r in (report, clean)]
        assert others[0] == others[1]


@pytest.mark.parametrize("deviations", [[math.nan, 1.0, 2.0], [1.0, math.nan, 2.0],
                                        [1.0, 2.0, math.nan], math.nan])
def test_worst_item_is_nan_if_any_is(deviations):
    assert math.isnan(model._worst(deviations))


@pytest.mark.parametrize("deviations, worst", [([], 0.0), ([-0.0], 0.0), (-0.0, 0.0),
                                               ([0.5, 2.0, 1.0], 2.0), (np.array([3.0]), 3.0)])
def test_worst_item_of_none_is_zero_and_never_negative_zero(deviations, worst):
    value = model._worst(deviations)
    assert type(value) is float and value == worst and math.copysign(1.0, value) == 1.0


def _hand_built(bases, a0: float = -1.0, p: float = 0.8):
    """Observable with eigenvalues 0, 1, ... over caller-supplied eigenspace bases."""
    base = QuantumObservable(np.arange(len(bases), dtype=float), bases)
    return GeneralizedObservable(base, a0, ConstantDetection(p))


def _near_degenerate(rng, dim: int) -> GeneralizedObservable:
    """Clusters of eigenvalues a few cluster tolerances apart, randomly rotated."""
    centres = np.repeat(rng.uniform(-2.0, 2.0, size=(dim + 1) // 2), 2)[:dim]
    diag = centres + rng.choice([0.0, 3e-8, 3e-7], size=dim)
    u = random_unitary(rng, dim)
    return GeneralizedObservable.from_matrix(u @ np.diag(diag) @ u.conj().T,
                                             ConstantDetection(float(rng.uniform(0, 1))))


class TestEffectGateCertificate:
    """The Effect gate runs on every effect(); overall probabilities come from
    the Born weights and reject only probabilities out of range."""

    def test_projector_spectrum_above_one_still_rejected(self):
        # a basis vector of norm 1.25: its projector is diag(1.5625, 0)
        gobs = _hand_built([[[1.25], [0.0]], [[0.0], [1.0]]])
        psi = PureState(np.array([1.0, 0.0]))
        with pytest.raises(ValueError) as excinfo:
            effect(gobs, psi, (0.0,))
        assert excinfo.type is ValueError
        with pytest.raises(ProbabilityRangeError):
            overall_probability(gobs, psi, (0.0,))  # 0.8 * 1.5625

    def test_non_hermitian_effect_still_rejected(self):
        # every basis gives a Hermitian V_S V_S†, so the gate gets the matrix itself
        with pytest.raises(NotHermitianError):
            Effect(np.array([[0.8, 0.4], [0.0, 0.0]]))
        # bases that are not orthogonal: the weights trust the decomposition, as
        # conditional_probability does; the POV check is what reports the defect
        gobs = _hand_built([[[1.0], [0.0]], [[0.6], [0.8]]])
        psi = PureState(np.array([1.0, 0.0]))
        assert effect(gobs, psi, (0.0,)).operator[0, 0] == 0.8
        assert overall_probability(gobs, psi, (0.0,)) == pytest.approx(0.8)
        assert verify_pov_axioms(gobs, psi, partition_trials=5).normalization > 1e-10

    def test_detection_outside_unit_interval_still_rejected(self):
        class Overshoot:
            def probability(self, psi):
                return 1.5

        gobs, psi = sigma_z_scenario(0.8)
        gobs = GeneralizedObservable(gobs.base, gobs.a0, Overshoot())
        for call in (effect, overall_probability):
            with pytest.raises(ValueError):
                call(gobs, psi, (1.0,))

    def test_gate_decides_at_its_tolerance(self):
        # BUILD_GATE_TOL is 1e-6: basis vectors of norm 1 + 2**-21 and 1 + 2**-20 give
        # projectors whose entry, their exact square, is 1 + 0.954e-6 (passes the
        # gate) and 1 + 1.907e-6 (fails it)
        psi = PureState(np.array([1.0, 0.0]))
        ok = _hand_built([[[1.0 + 2.0 ** -21], [0.0]], [[0.0], [1.0]]], p=1.0)
        assert effect(ok, psi, (0.0,)).operator[0, 0] == 1.0 + 2.0 ** -20 + 2.0 ** -42
        bad = _hand_built([[[1.0 + 2.0 ** -20], [0.0]], [[0.0], [1.0]]], p=1.0)
        with pytest.raises(ValueError):
            effect(bad, psi, (0.0,))
        for gobs in (ok, bad):
            with pytest.raises(ProbabilityRangeError):
                overall_probability(gobs, psi, (0.0,))

    def test_overall_probability_builds_no_effect(self, monkeypatch):
        rng = np.random.default_rng(41)
        gobs = random_generalized(rng, 6)
        psi = random_state(rng, 6)
        solves, effects = [], []
        for name in ("eigh", "eigvalsh"):
            kernel = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda m, kernel=kernel: solves.append(m) or kernel(m))
        build = model._effect_operator
        monkeypatch.setattr(model, "_effect_operator",
                            lambda *args: effects.append(args) or build(*args))
        for _ in range(20):
            overall_probability(gobs, psi, random_event(rng, gobs))
        assert solves == [] and effects == []

    def test_weights_effect_and_density_forms_agree(self):
        rng = np.random.default_rng(43)
        cases = [(gobs, psi) for _, gobs, psi in scenario_stream(seed=1043, count=60)]
        for _ in range(20):
            gobs = _near_degenerate(rng, int(rng.integers(2, 9)))
            cases.append((gobs, random_state(rng, gobs.dim)))
        for _ in range(6):
            gobs = random_generalized(rng, 32, degenerate=True)
            cases.append((gobs, random_state(rng, 32)))
        for gobs, psi in cases:
            for _ in range(8):
                event = random_event(rng, gobs)
                weights = overall_probability(gobs, psi, event)
                t = Effect(_effect_operator(gobs, psi, event)).operator
                gated = clamp_probability(float(np.vdot(psi.amplitudes, t @ psi.amplitudes).real))
                assert abs(weights - gated) <= 1e-15
                assert abs(weights - overall_probability_density(gobs, psi, event)) <= 1e-15


def _reference_split(gobs, event):
    """Resolve each value through the match window alone, into a row over the
    outcomes (a0 first): an independent matcher for ``split_event``."""
    eigs = gobs.base.eigenvalues
    row = np.zeros(eigs.size + 1, dtype=bool)
    for v in as_event(event):
        if abs(v - gobs.a0) <= _match_atol(v):
            row[0] = True
            continue
        k = _nearest_index(eigs, v)
        if k is not None:
            row[k + 1] = True
    return row


class TestSplitEvent:
    def _values(self, gobs):
        out = [-0.0, 0.0, 1e6, -1e6]
        for x in gobs.outcomes.tolist():
            w = _match_atol(x)
            out += [x, x + 0.5 * w, x - 0.5 * w, x + 2.0 * w, x - 2.0 * w,
                    np.nextafter(x, np.inf), (x + 0.37) * 1.01]
        return out

    def _offsets(self, gobs):
        """One ulp below each outcome, half and twice the wider of the match
        window and the merge tolerance off each eigenvalue (past the window alone
        on a merged cluster), and the midpoint of each pair of neighbours."""
        out = [np.nextafter(x, -np.inf) for x in gobs.outcomes.tolist()]
        eigs = gobs.base.eigenvalues.tolist()
        for x in eigs:
            w = max(_match_atol(x), gobs.base._merge_tol)
            out += [x + 0.5 * w, x - 0.5 * w, x + 2.0 * w, x - 2.0 * w]
        return out + [(a + b) / 2.0 for a, b in zip(eigs, eigs[1:])]

    @pytest.mark.parametrize("a0", [0.0, -3.0])
    def test_matches_window_reference(self, a0):
        gobs = GeneralizedObservable.from_matrix(np.diag([-1.0, 0.0, 1.0, 2.5]),
                                                 ConstantDetection(0.7), a0=a0 - 5.0)
        zero_a0, _ = sigma_z_scenario(0.7, a0=a0)
        rng = np.random.default_rng(47)
        cases = [gobs, zero_a0, random_generalized(rng, 5), _near_degenerate(rng, 6)]
        for g in cases:
            values = self._values(g)
            for v in values:
                assert np.array_equal(split_event(g, (v,)), _reference_split(g, (v,))), v
            for _ in range(30):
                event = [values[i] for i in rng.integers(0, len(values), size=4)]
                assert np.array_equal(split_event(g, event), _reference_split(g, event)), event

        # a0 between and above the spectrum too (0.5 and 6 for a0 = 0, -2.5 and 3
        # for a0 = -3), merged clusters and d = 32; then 10^4 random events of 1
        # to 6 values in all, whose reference row is the union of their values' rows
        more = np.random.default_rng(147)
        cases += [GeneralizedObservable.from_matrix(np.diag([-1.0, 0.0, 1.0, 2.5]),
                                                    ConstantDetection(0.7), a0=a0 + shift)
                  for shift in (0.5, 6.0)]
        cases += [_near_degenerate(more, 8), random_generalized(more, 32),
                  random_generalized(more, 32, degenerate=True)]
        # neighbours 2**-26 apart, 1.5 merge tolerances: their midpoint 1 + 2**-27 lies
        # in both windows, at one distance from each, and resolves to the lower one
        ties = QuantumObservable(np.array([0.0, 1.0, 1.0 + 2.0 ** -26]),
                                 np.split(np.eye(3), 3, axis=1))
        cases.append(GeneralizedObservable(ties, a0 - 2.0, ConstantDetection(0.7)))
        assert split_event(cases[-1], (1.0 + 2.0 ** -27,)).tolist() == [False, False, True, False]
        for g in cases:
            values = self._values(g) + self._offsets(g)
            singles = np.array([_reference_split(g, (v,)) for v in values])
            for v, row in zip(values, singles):
                assert np.array_equal(split_event(g, (v,)), row), v
            count = 10_000 // len(cases) + 1
            picks = more.integers(0, len(values), size=(count, 6))
            picked = np.arange(6) < more.integers(1, 7, size=(count, 1))
            events = [[values[i] for i in row[on]] for row, on in zip(picks, picked)]
            expected = (singles[picks] & picked[:, :, None]).any(axis=1)
            rows = np.array([split_event(g, event) for event in events])
            bad = np.flatnonzero((rows != expected).any(axis=1))
            assert not bad.size, events[bad[0]]

    def test_negative_zero_matches_zero(self):
        gobs, _ = sigma_z_scenario(0.7, a0=0.0)
        assert split_event(gobs, (-0.0,))[0]
        obs = GeneralizedObservable.from_matrix(np.diag([-1.0, 0.0, 1.0]),
                                                ConstantDetection(0.7), a0=-4.0)
        assert split_event(obs, (-0.0,)).tolist() == [False, False, True, False]

    @pytest.mark.parametrize("a0", [-4.0, 0.0, 2.5])
    def test_row_is_aligned_with_outcomes(self, a0):
        # a0 below, between and above the spectrum: only the first leaves
        # gobs.outcomes sorted
        gobs = GeneralizedObservable.from_matrix(np.diag([-1.0, 1.0, 2.0]),
                                                 ConstantDetection(0.7), a0=a0)
        outcomes = gobs.outcomes
        n = outcomes.size
        for i, v in enumerate(outcomes.tolist()):
            assert split_event(gobs, (v,)).tolist() == np.eye(n, dtype=bool)[i].tolist()
        rng = np.random.default_rng(71)
        for _ in range(20):
            event = [float(v) for v in outcomes[rng.integers(0, 2, size=n).astype(bool)]]
            row = split_event(gobs, event)
            singles = [split_event(gobs, (v,)) for v in event]
            assert np.array_equal(row, np.logical_or.reduce(singles + [np.zeros(n, bool)]))
            assert complement_event(gobs, event) == set(outcomes.tolist()) - set(event)

    def test_non_finite_values_are_rejected(self):
        # an infinite value would fall inside a0's infinitely wide match window,
        # and NaN would silently match nothing
        gobs, _ = sigma_z_scenario(0.7, a0=0.0)
        for bad in (float("nan"), float("inf"), float("-inf"), np.float64("inf")):
            for event in ((bad,), (1.0, bad, 0.0), bad):
                with pytest.raises(ValueError, match="not a finite number"):
                    as_event(event)
                with pytest.raises(ValueError, match="not a finite number"):
                    split_event(gobs, event)
                with pytest.raises(ValueError, match="not a finite number"):
                    pv_projector(gobs.base, event)
