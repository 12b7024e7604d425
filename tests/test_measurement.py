"""Post-measurement update tests, and the invariant checks' guard and verdict.

The yes-branch special cases are checked against brute-force oracles that
assemble the effect from its defining formula and renormalize by hand.
"""

import numpy as np
import pytest

from esrsim import (
    ApparatusModel,
    ConstantDetection,
    MeasurementOperatorFamily,
    PureState,
    ZeroProbabilityBranchError,
    complement_event,
    detection_probability,
    effect,
    fix_phase,
    measurement_operators,
    nonselective_state,
    outcome_probability,
    overall_probability,
    post_measurement_density,
    post_measurement_state_no,
    post_measurement_state_yes,
    pv_projector,
    state_after_outcome,
    to_density,
)
from esrsim.measurement import (
    PARTITION_TRIALS,
    VERIFY_SEED,
    Check,
    coupling_checks,
    failed_checks,
    verification_checks,
)
from helpers import (
    random_event,
    random_generalized,
    random_state,
    reference_event_checks,
    sigma_z_scenario,
    verify_cases,
)


def brute_force_update(gobs, psi, event):
    """Assemble the effect from its defining formula, apply, renormalize."""
    values = set(float(v) for v in event)
    detected = values - {gobs.a0}
    pd = detection_probability(gobs, psi)
    t = pd * pv_projector(gobs.base, detected)
    if gobs.a0 in values:
        t = t + (1.0 - pd) * np.eye(gobs.dim)
    v = t @ psi.amplitudes
    return fix_phase(v / np.linalg.norm(v))


class TestYesBranch:
    def test_case_no_registration_only(self):
        gobs, psi = sigma_z_scenario(0.8, a0=0.0)
        post = post_measurement_state_yes(gobs, psi, (0.0,))
        np.testing.assert_allclose(post.amplitudes, fix_phase(psi.amplitudes), atol=1e-12)

    def test_case_detected_is_lueders(self):
        gobs, psi = sigma_z_scenario(0.8, a0=0.0)
        post = post_measurement_state_yes(gobs, psi, (1.0,))
        p = pv_projector(gobs.base, (1.0,))
        expected = p @ psi.amplitudes
        expected = fix_phase(expected / np.linalg.norm(expected))
        np.testing.assert_allclose(post.amplitudes, expected, atol=1e-12)

    def test_case_mixed_event_frozen_value(self):
        # p_d = 0.5, event {a0, +1}: T = diag(1.0, 0.5), T psi ∝ (2, 1)/sqrt(5)
        gobs, psi = sigma_z_scenario(0.5, a0=0.0)
        post = post_measurement_state_yes(gobs, psi, (0.0, 1.0))
        np.testing.assert_allclose(
            post.amplitudes,
            [2.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0)], atol=1e-12)
        np.testing.assert_allclose(post.amplitudes,
                                   brute_force_update(gobs, psi, (0.0, 1.0)), atol=1e-12)

    def test_case_mixed_event_random(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            gobs = random_generalized(rng, dim)
            psi = random_state(rng, dim)
            event = frozenset(random_event(rng, gobs)) | {gobs.a0}
            post = post_measurement_state_yes(gobs, psi, event)
            np.testing.assert_allclose(post.amplitudes,
                                       brute_force_update(gobs, psi, event), atol=1e-12)

    def test_zero_probability_branch(self):
        gobs, _ = sigma_z_scenario(0.8, a0=0.0)
        psi = PureState(np.array([0.0, 1.0]))  # orthogonal to the +1 eigenspace
        with pytest.raises(ZeroProbabilityBranchError):
            post_measurement_state_yes(gobs, psi, (1.0,))


class TestNoBranch:
    def test_full_outcome_set_cannot_fail(self):
        gobs, psi = sigma_z_scenario(0.8)
        with pytest.raises(ZeroProbabilityBranchError):
            post_measurement_state_no(gobs, psi, gobs.outcomes)

    def test_no_on_a0_leaves_state(self):
        # complement of {a0} is the full spectrum: T = p I, state unchanged
        gobs, psi = sigma_z_scenario(0.7, a0=0.0)
        post = post_measurement_state_no(gobs, psi, (0.0,))
        np.testing.assert_allclose(post.amplitudes, fix_phase(psi.amplitudes), atol=1e-12)

    def test_complement_consistency(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            gobs = random_generalized(rng, 4)
            psi = random_state(rng, 4)
            event = random_event(rng, gobs)
            comp = complement_event(gobs, event)
            if not comp or overall_probability(gobs, psi, comp) < 1e-9:
                continue
            yes = post_measurement_state_yes(gobs, psi, comp)
            no = post_measurement_state_no(gobs, psi, event)
            np.testing.assert_allclose(yes.amplitudes, no.amplitudes, atol=1e-12)

    def test_complement_event_values(self):
        gobs, _ = sigma_z_scenario(0.8, a0=0.0)
        assert complement_event(gobs, (1.0,)) == frozenset((0.0, -1.0))
        assert complement_event(gobs, (0.0,)) == frozenset((-1.0, 1.0))


class TestDensityForm:
    @pytest.mark.parametrize("event", [(0.0,), (1.0,), (0.0, 1.0)])
    def test_matches_vector_form(self, event):
        gobs, psi = sigma_z_scenario(0.5, a0=0.0)
        w_vector = to_density(post_measurement_state_yes(gobs, psi, event))
        w_density = post_measurement_density(gobs, psi, event)
        np.testing.assert_allclose(w_vector.matrix, w_density.matrix, atol=1e-10)

    def test_matches_vector_form_random(self):
        rng = np.random.default_rng(97)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            gobs = random_generalized(rng, dim)
            psi = random_state(rng, dim)
            event = random_event(rng, gobs)
            if not event or overall_probability(gobs, psi, event) < 1e-9:
                continue
            w_vector = to_density(post_measurement_state_yes(gobs, psi, event))
            w_density = post_measurement_density(gobs, psi, event)
            np.testing.assert_allclose(w_vector.matrix, w_density.matrix, atol=1e-10)


class TestMeasurementOperators:
    def test_projective_limit(self):
        gobs, psi = sigma_z_scenario(1.0, a0=0.0)
        family = measurement_operators(gobs, psi)
        np.testing.assert_allclose(family.operators[0], np.zeros((2, 2)))
        for m, p in zip(family.operators[1:], gobs.base.projectors):
            np.testing.assert_allclose(m, p, atol=1e-12)

    def test_never_detect_limit(self):
        gobs, psi = sigma_z_scenario(0.0, a0=0.0)
        family = measurement_operators(gobs, psi)
        np.testing.assert_allclose(family.operators[0], np.eye(2))
        for m in family.operators[1:]:
            np.testing.assert_allclose(m, np.zeros((2, 2)))

    def test_frozen_scaling(self):
        # p_d = 0.64: sqrt gives 0.6 and 0.8 exactly
        gobs, psi = sigma_z_scenario(0.64, a0=0.0)
        family = measurement_operators(gobs, psi)
        np.testing.assert_allclose(family.operators[0], 0.6 * np.eye(2), atol=1e-15)
        np.testing.assert_allclose(family.operators[1],
                                   0.8 * np.diag([0.0, 1.0]), atol=1e-15)
        np.testing.assert_allclose(family.operators[2],
                                   0.8 * np.diag([1.0, 0.0]), atol=1e-15)
        assert family.deviations()["completeness"] <= 1e-12

    def test_family_is_one_read_only_stack(self):
        gobs, psi = sigma_z_scenario(0.64, a0=0.0)
        family = measurement_operators(gobs, psi)
        assert family.operators.shape == (3, 2, 2) and not family.operators.flags.writeable
        with pytest.raises(ValueError, match="one d x d operator per outcome"):
            MeasurementOperatorFamily(gobs, psi, family.operators[1:])
        with pytest.raises(ValueError, match="one d x d operator per outcome"):
            MeasurementOperatorFamily(gobs, psi, family.operators[:, :1])
        bad = family.operators.copy()
        bad[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            MeasurementOperatorFamily(gobs, psi, bad)

    def test_family_invariants_random(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            dim = int(rng.integers(2, 8))
            gobs = random_generalized(rng, dim, degenerate=bool(rng.integers(0, 2)))
            psi = random_state(rng, dim)
            family = measurement_operators(gobs, psi)
            deviations = family.deviations()
            assert deviations["completeness"] <= 1e-10
            assert deviations["commutation"] <= 1e-10
            for m in family.operators:
                np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
                assert np.linalg.eigvalsh(m)[0] >= -1e-12


class TestOutcomeProbability:
    def test_sums_to_one(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            gobs = random_generalized(rng, 4)
            psi = random_state(rng, 4)
            family = measurement_operators(gobs, psi)
            total = sum(outcome_probability(family, k) for k in range(len(family)))
            assert abs(total - 1.0) < 1e-12

    def test_no_registration_weight(self):
        gobs, psi = sigma_z_scenario(0.8, a0=0.0)
        family = measurement_operators(gobs, psi)
        assert abs(outcome_probability(family, 0) - 0.2) < 1e-12

    def test_frozen_plus_one(self):
        gobs, psi = sigma_z_scenario(0.8, a0=0.0)
        family = measurement_operators(gobs, psi)
        k = int(np.where(family.outcomes == 1.0)[0][0])
        assert abs(outcome_probability(family, k) - 0.4) < 1e-12

    def test_matches_effect_route(self):
        rng = np.random.default_rng(107)
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            gobs = random_generalized(rng, dim)
            psi = random_state(rng, dim)
            family = measurement_operators(gobs, psi)
            for k, value in enumerate(family.outcomes):
                assert abs(outcome_probability(family, k)
                           - overall_probability(gobs, psi, (float(value),))) < 1e-12

    def test_index_out_of_range(self):
        # True used to index outcome 1, and as a mask of the operator stack it
        # would sum over all outcomes; 1.0 and np.bool_ likewise are no index
        gobs, psi = sigma_z_scenario(0.8)
        family = measurement_operators(gobs, psi)
        for function in (outcome_probability, state_after_outcome):
            for k in (True, np.bool_(True), 1.0, -1, 3):
                with pytest.raises(IndexError, match=rf"outcome index {k!r} is not an "
                                                     r"integer in \[0, 3\)"):
                    function(family, k)


class TestStateAfterOutcome:
    def test_no_registration_returns_input(self):
        gobs, psi = sigma_z_scenario(0.8)
        family = measurement_operators(gobs, psi)
        post = state_after_outcome(family, 0)
        np.testing.assert_allclose(post.amplitudes, fix_phase(psi.amplitudes), atol=1e-12)

    def test_detected_outcome_is_eigenvector(self):
        rng = np.random.default_rng(109)
        for _ in range(10):
            gobs = random_generalized(rng, 4)
            psi = random_state(rng, 4)
            family = measurement_operators(gobs, psi)
            for k in range(1, len(family)):
                if outcome_probability(family, k) < 1e-9:
                    continue
                post = state_after_outcome(family, k)
                p = gobs.base.projectors[k - 1]
                # eigenvector comparison up to global phase
                overlap = abs(np.vdot(post.amplitudes, p @ post.amplitudes))
                assert abs(overlap - 1.0) < 1e-10

    def test_matches_event_update(self):
        rng = np.random.default_rng(113)
        for _ in range(15):
            gobs = random_generalized(rng, 3)
            psi = random_state(rng, 3)
            family = measurement_operators(gobs, psi)
            for k, value in enumerate(family.outcomes):
                if outcome_probability(family, k) < 1e-9:
                    continue
                a = state_after_outcome(family, k)
                b = post_measurement_state_yes(gobs, psi, (float(value),))
                np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-12)

    def test_zero_probability_branch(self):
        gobs, psi = sigma_z_scenario(1.0)
        family = measurement_operators(gobs, psi)
        with pytest.raises(ZeroProbabilityBranchError):
            state_after_outcome(family, 0)


class TestNonselectiveState:
    def test_projective_limit_decoheres(self):
        rng = np.random.default_rng(127)
        gobs = random_generalized(rng, 3, detection=ConstantDetection(1.0))
        psi = random_state(rng, 3)
        family = measurement_operators(gobs, psi)
        w = nonselective_state(family).matrix
        expected = np.zeros_like(w)
        for p in gobs.base.projectors:
            expected += p @ np.outer(psi.amplitudes, psi.amplitudes.conj()) @ p
        np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_never_detect_leaves_state(self):
        gobs, psi = sigma_z_scenario(0.0)
        family = measurement_operators(gobs, psi)
        np.testing.assert_allclose(nonselective_state(family).matrix,
                                   to_density(psi).matrix, atol=1e-12)

    def test_frozen_half_mixture(self):
        # p_d = 0.5, psi = (sqrt(0.3), sqrt(0.7)): 0.5 |psi><psi| + 0.5 diag(0.3, 0.7)
        gobs, _ = sigma_z_scenario(0.5, a0=0.0)
        psi = PureState(np.array([np.sqrt(0.3), np.sqrt(0.7)]))
        family = measurement_operators(gobs, psi)
        w = nonselective_state(family).matrix
        pure = np.outer(psi.amplitudes, psi.amplitudes.conj())
        expected = 0.5 * pure + 0.5 * np.diag([0.3, 0.7])
        np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_density_invariants_random(self):
        rng = np.random.default_rng(131)
        for _ in range(25):
            dim = int(rng.integers(2, 9))
            gobs = random_generalized(rng, dim, degenerate=bool(rng.integers(0, 2)))
            psi = random_state(rng, dim)
            w = nonselective_state(measurement_operators(gobs, psi)).matrix
            assert abs(np.trace(w).real - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(w)[0] >= -1e-10

    def test_two_forms_agree(self):
        rng = np.random.default_rng(137)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            gobs = random_generalized(rng, dim)
            psi = random_state(rng, dim)
            family = measurement_operators(gobs, psi)
            direct = nonselective_state(family).matrix
            weighted = np.zeros_like(direct)
            for k in range(len(family)):
                p = outcome_probability(family, k)
                if p > 1e-12:
                    weighted += p * to_density(state_after_outcome(family, k)).matrix
            np.testing.assert_allclose(direct, weighted, atol=1e-12)


class TestNormalizationWeights:
    def test_singleton_weight_equals_probability(self):
        rng = np.random.default_rng(139)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            gobs = random_generalized(rng, dim)
            psi = random_state(rng, dim)
            family = measurement_operators(gobs, psi)
            for k in range(len(family)):
                m = family.operators[k]
                v = m @ psi.amplitudes
                weight = float(np.vdot(v, v).real)
                assert abs(weight - outcome_probability(family, k)) < 1e-12

    def test_general_event_weight_differs_from_probability(self):
        # for mixed events the update weight <psi|T†T|psi> is NOT the
        # probability <psi|T|psi>; witnessed on a concrete scenario
        gobs, psi = sigma_z_scenario(0.5, a0=0.0)
        t = effect(gobs, psi, (0.0, 1.0)).operator
        v = t @ psi.amplitudes
        weight = float(np.vdot(v, v).real)
        probability = overall_probability(gobs, psi, (0.0, 1.0))
        assert abs(weight - probability) > 1e-3


class TestRepeatability:
    def test_second_detected_outcome_never_differs(self):
        rng = np.random.default_rng(149)
        for _ in range(15):
            dim = int(rng.integers(2, 6))
            gobs = random_generalized(rng, dim)
            psi = random_state(rng, dim)
            family = measurement_operators(gobs, psi)
            for n in range(1, len(family)):
                if outcome_probability(family, n) < 1e-9:
                    continue
                post = state_after_outcome(family, n)
                post_family = measurement_operators(gobs, post)
                for m in range(1, len(family)):
                    if m != n:
                        assert outcome_probability(post_family, m) <= 1e-12

    def test_after_no_registration_state_unchanged(self):
        rng = np.random.default_rng(151)
        gobs = random_generalized(rng, 3)
        psi = random_state(rng, 3)
        family = measurement_operators(gobs, psi)
        post = state_after_outcome(family, 0)
        # unchanged up to global phase
        assert abs(abs(np.vdot(post.amplitudes, psi.amplitudes)) - 1.0) < 1e-12


@pytest.mark.parametrize("kind", ["stream", "d32"])
def test_event_checks_match_reference(kind):
    """verify's event checks, with each event resolved once, give the bits of
    the per-value reference forms (the other cases of ``verify_cases`` are
    compared on ``verify_pov_axioms`` in test_model)."""
    for gobs, psi in verify_cases(kind):
        checks = verification_checks(gobs, psi, ApparatusModel())
        reference = reference_event_checks(gobs, psi, PARTITION_TRIALS, VERIFY_SEED)
        assert [check for check in checks if check.cause] == []
        assert {c.name: c.deviation for c in checks if c.name in reference} == reference


class TestChecks:
    def test_verdict_fails_nan_and_infinity(self):
        checks = [Check("a", 0.0), Check("b", 1e-10), Check("c", float("nan")),
                  Check("d", float("inf"), "RuntimeError: x")]
        assert failed_checks(checks, 1e-10) == ["c", "d"]
        assert failed_checks(checks[:2], 1e-10) == []

    def test_coupling_checks_are_verifys_last_two(self):
        gobs, psi = sigma_z_scenario()
        app = ApparatusModel(0.3, 1.1)
        coupling = coupling_checks(gobs, psi, app)
        assert coupling.checks == verification_checks(gobs, psi, app)[-2:]
        assert [c.name for c in coupling.checks] == ["coupling-norm", "apparatus-consistency"]
        assert coupling.compound.dim_pointer == 3 and coupling.reduced.matrix.shape == (2, 2)
