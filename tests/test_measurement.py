"""Post-measurement update tests, and the invariant checks' guard and verdict.

The yes-branch special cases are checked against brute-force oracles that
assemble the effect from its defining formula and renormalize by hand.
"""

import ast
import itertools
import math
import pathlib
import sys
import threading
import warnings
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from esrsim import (
    ApparatusModel,
    ConstantDetection,
    DensityOperator,
    GeneralizedObservable,
    MeasurementOperatorFamily,
    PureState,
    QuantumObservable,
    ZeroProbabilityBranchError,
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
from esrsim import linalg, measurement, model
from esrsim.cli import DEFAULT_TOL
from esrsim.measurement import Check, coupling_checks, failed_checks, verification_checks
from esrsim.model import PARTITION_TRIALS, VERIFY_SEED
from esrsim.scenario import build_scenario, parse_scenario
from helpers import (
    complement_event,
    dense_form_gaps,
    projectors,
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

    def test_zero_probability_branch_density_form(self):
        gobs, _ = sigma_z_scenario(0.8, a0=0.0)
        psi = PureState(np.array([0.0, 1.0]))
        with pytest.raises(ZeroProbabilityBranchError, match="conditioning event has zero probability"):
            post_measurement_density(gobs, psi, (1.0,))

    def test_fix_phase_of_zero_vector_is_a_zero_copy(self):
        zero = np.zeros(3, dtype=complex)
        fixed = fix_phase(zero)
        assert fixed is not zero and fixed.tolist() == [0j, 0j, 0j]


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
        for m, p in zip(family.operators[1:], projectors(gobs.base)):
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

    def test_family_never_aliases_the_callers_array(self):
        gobs, psi = sigma_z_scenario(0.64, a0=0.0)
        ops = measurement_operators(gobs, psi).operators.copy()
        family = MeasurementOperatorFamily(gobs, psi, ops)
        expected = ops.copy()
        ops[1, 0, 0] = 5.0
        assert ops.flags.writeable and not family.operators.flags.writeable
        np.testing.assert_array_equal(family.operators, expected)

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
                p = projectors(gobs.base)[k - 1]
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
        for p in projectors(gobs.base):
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


# Gap allowed between an event kernel and its dense form, in units of d·ε: a
# sum of d products of unit-bounded terms. The worst gap seen on these cases is
# 0.67 d·ε (the stream's overall probabilities; 0.13 d·ε or less elsewhere).
DENSE_FORM_GAP = 4


@pytest.mark.parametrize("kind", ["stream", "d32", "d32-degenerate", "unlikely"])
def test_event_checks_match_reference(kind):
    """verify's event checks, with each event resolved once, give the bits of
    the per-value reference forms (the other cases of ``verify_cases`` are
    compared on ``verify_pov_axioms`` in test_model). The reference reads the
    kernels the checks read, so each kernel's values are also compared, event
    by event, with a dense form the test builds."""
    for gobs, psi in verify_cases(kind):
        checks = verification_checks(gobs, psi, ApparatusModel())
        reference = reference_event_checks(gobs, psi, PARTITION_TRIALS, VERIFY_SEED)
        assert [check for check in checks if check.cause] == []
        assert {c.name: c.deviation for c in checks if c.name in reference} == reference
        bound = DENSE_FORM_GAP * gobs.dim * np.finfo(float).eps
        gaps = dense_form_gaps(gobs, psi, VERIFY_SEED)
        assert max(gaps.values()) <= bound, gaps


def test_verify_builds_two_families_at_the_prepared_state(monkeypatch):
    """verify builds two measurement-operator families, both at the prepared
    state: one for its outcome checks and one for the coupling's target.
    Repeatability reads each Lüders state's outcomes off the projectors."""
    (gobs, psi), = verify_cases("unlikely")
    build, states = measurement.measurement_operators, []

    def counted(gobs, state):
        states.append(state)
        return build(gobs, state)

    monkeypatch.setattr(measurement, "measurement_operators", counted)
    checks = verification_checks(gobs, psi, ApparatusModel())
    assert [check for check in checks if check.cause] == []
    assert [state is psi for state in states] == [True, True]


# eigenvectors (1, 0) and (delta, 1): orthonormal only to about delta, which
# the build gate admits up to BUILD_GATE_TOL
SKEWED_QUBIT = """\
esrsim scenario v1
dimension: 2
state: 0.6,0 0.8,0
observable:
  eigenvalue: 1
  vector: 1,0 0,0
  eigenvalue: -1
  vector: {delta!r},0 1,0
detection:
  kind: constant
  p: 0.9
"""


@pytest.mark.parametrize("delta", [3e-9, 1e-7, 3e-7])
def test_skewed_model_checks_report_sizes(delta):
    """On an admitted model whose overall probabilities pass the clamp, every
    check reports a finite size: the three that compare probability forms agree
    to roundoff, and total-probability reads the skew."""
    built = build_scenario(parse_scenario(SKEWED_QUBIT.format(delta=delta)))
    checks = {c.name: c for c in verification_checks(built.gobs, built.psi, built.apparatus)}
    assert len(checks) == 15
    assert [c for c in checks.values() if c.cause or not math.isfinite(c.deviation)] == []
    for name in ("factorization", "probability-form-agreement", "update-form-agreement"):
        assert checks[name].deviation <= DEFAULT_TOL
    assert checks["total-probability"].deviation > DEFAULT_TOL


def test_outcome_probability_above_one_reads_its_size():
    """A projector that overshoots by 1e-8 gives an outcome probability of
    1 + 1e-8: the outcome checks read it unclamped and report a size, where a
    clamp would fail them with its range error."""
    base = QuantumObservable([-1.0, 1.0], [[[0.0], [1.0]], [[np.sqrt(1 + 1e-8)], [0.0]]])
    gobs = GeneralizedObservable(base, -2.0, ConstantDetection(1.0))
    checks = {c.name: c for c in verification_checks(gobs, PureState([1.0, 0.0]),
                                                      ApparatusModel())}
    assert len(checks) == 15
    assert [c for c in checks.values() if c.cause or not math.isfinite(c.deviation)] == []
    assert checks["singleton-consistency"].deviation == pytest.approx(1e-8, rel=1e-6)


def test_verify_evaluates_overall_probabilities_in_two_stacks(monkeypatch):
    """verify reads every overall probability from two kernel calls: one over
    its random events and one over the single outcomes."""
    (gobs, psi), = verify_cases("unlikely")
    overall, sizes = measurement._overall, []

    def counted(pd, weights, rows):
        sizes.append(len(rows))
        return overall(pd, weights, rows)

    monkeypatch.setattr(measurement, "_overall", counted)
    checks = verification_checks(gobs, psi, ApparatusModel())
    assert [check for check in checks if check.cause] == []
    assert sizes == [256, gobs.outcomes.size] == [256, 9]


def test_only_the_public_probabilities_clamp():
    """Private kernels return raw values, so the checks read the sizes of their
    deviations; only the public functions that return a probability clamp."""
    callers = set()
    for path in pathlib.Path(measurement.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "clamp_probability"):
                    callers.add(getattr(top, "name", "<module>"))
    assert not any(name.startswith("_") for name in callers)
    assert callers == {"conditional_probability", "overall_probabilities",
                       "overall_probability_density", "outcome_probability"}


def test_checks_reduce_their_items_by_worst_alone():
    """Every check's value is model._worst of its items' deviations, never the
    builtin max, which drops a NaN that does not come first; and model._each is
    the one loop over stacks (no ``_stacks`` remains)."""
    scopes = {"verification_checks", "coupling_checks", "verify_pov_axioms", "_pov_passes",
              "MeasurementOperatorFamily.deviations"}
    seen = set()
    for path in pathlib.Path(measurement.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "_stacks" not in text, path.name
        for top in ast.parse(text).body:
            nodes = {getattr(top, "name", None): top}
            if isinstance(top, ast.ClassDef):
                nodes.update((f"{top.name}.{node.name}", node) for node in top.body
                             if isinstance(node, ast.FunctionDef))
            for name in scopes & nodes.keys():
                seen.add(name)
                assert not [node for node in ast.walk(nodes[name])
                            if isinstance(node, ast.Name) and node.id == "max"], name
    assert seen == scopes


# Where a test puts one NaN, for each check it must fail: item ``item`` of call
# ``call`` of the kernel ``name`` of ``module``, neither the first nor the last
# item of its stack, on a nondegenerate d = 4 model (five outcomes).
NAN_SITES = {
    "factorization": (measurement, "_conditional", 0, 1),
    "probability-form-agreement": (measurement, "_trace_forms", 0, 1),
    "singleton-consistency": (measurement, "_outcome_probabilities", 0, 1),
    # call 0 weighs the prepared state, call 2 the Lüders state of outcome 2:
    # repeatability reads its weights 0, 2 and 3
    "repeatability": (measurement, "_born_weights", 2, 2),
    # the POV pass, its one positivity stack run as it is submitted: call 0 is
    # that stack, call 1 the full effect and call 6 a partition trial's stack,
    # which ends x, y, tx, ty
    "pov-positivity": (model, "_effects", 0, 1),
    "pov-additivity": (model, "_effects", 6, -4),
    "pov-commutativity": (model, "_effects", 6, -2),
}


@pytest.mark.parametrize("check", list(NAN_SITES))
def test_a_nan_item_fails_its_check(monkeypatch, check):
    """One NaN item amid finite ones makes its check read NaN, which fails."""
    rng = np.random.default_rng(61)
    gobs, psi = random_generalized(rng, 4), random_state(rng, 4)
    module, name, call, item = NAN_SITES[check]
    kernel, calls = getattr(module, name), itertools.count()

    def poisoned(*args):
        out = kernel(*args)
        if next(calls) == call:
            out = np.array(out)
            out[(item,) + (0,) * (out.ndim - 1)] = np.nan
        return out

    monkeypatch.setattr(module, name, poisoned)
    monkeypatch.setattr(measurement, "ThreadPoolExecutor", InlinePool)
    checks = {c.name: c for c in verification_checks(gobs, psi, ApparatusModel())}
    assert math.isnan(checks[check].deviation) and checks[check].cause is None
    assert check in failed_checks(list(checks.values()), DEFAULT_TOL)


def test_a_nan_commutator_fails_family_commutation(monkeypatch):
    """A NaN defect amid finite ones makes the family's commutation NaN: call 0
    of frobenius is the completeness defect, call 2 the commutator of operators
    0 and 2, the second item of the first stack."""
    rng = np.random.default_rng(61)
    family = measurement_operators(random_generalized(rng, 4), random_state(rng, 4))
    frobenius, calls = linalg.frobenius, itertools.count()
    monkeypatch.setattr(linalg, "frobenius",
                        lambda m: math.nan if next(calls) == 2 else frobenius(m))
    deviations = family.deviations()
    assert math.isnan(deviations["commutation"]) and math.isfinite(deviations["completeness"])


def test_an_overflowing_basis_fails_every_check():
    """A hand-built basis [1e155, 0, 0] makes every effect that holds outcome 0
    overflow. Each check then fails, and the five that read those effects
    without raising read a value that is not finite (NaN here)."""
    base = QuantumObservable([0.0, 1.0, 2.0], [[[1e155], [0.0], [0.0]], [[0.0], [1.0], [0.0]],
                                               [[0.0], [0.0], [1.0]]])
    gobs = GeneralizedObservable(base, None, ConstantDetection(0.9))
    with np.errstate(all="ignore"):
        checks = verification_checks(gobs, PureState([0.6, 0.8, 0.0]), ApparatusModel())
    assert failed_checks(checks, DEFAULT_TOL) == [c.name for c in checks]
    read = {c.name: c for c in checks}
    for name in ("pov-positivity", "pov-additivity", "pov-commutativity", "factorization",
                 "probability-form-agreement"):
        assert not math.isfinite(read[name].deviation) and read[name].cause is None, read[name]


def _per_event_update_cause(gobs, psi) -> str | None:
    """The cause update-form-agreement names when its events are checked one
    at a time in order, each with its vector form before its density form."""
    rows = measurement._event_subsets(gobs.outcomes.size,
                                      np.random.default_rng(VERIFY_SEED), limit=256)
    pd, floor = detection_probability(gobs, psi), measurement.BRANCH_FLOOR
    for row in rows:
        if not row.any() or overall_probability(gobs, psi, gobs.outcomes[row]) < floor:
            continue
        t = measurement._effects(gobs, pd, row[None])[0]
        try:
            to_density(measurement._branch_states(psi, t[None])[0])
            DensityOperator(measurement._branch_density(psi, t[None])[0])
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"
    return None


# each way a density form can fail the gate, and the start of the cause it names
DENSITY_FAULTS = {
    "not Hermitian": "NotHermitianError: matrix is not Hermitian",
    "trace": "ValueError: trace is",
    "not PSD": "ValueError: operator is not positive semidefinite",
    "non-finite": "ValueError: matrix entries must be finite",
}


def _corrupt_density_form(w: np.ndarray, mode: str) -> None:
    """Make the density form ``w`` fail the density gate in the way ``mode`` names."""
    if mode == "not Hermitian":
        w[0, 1] += 0.1
    elif mode == "trace":
        w *= 2.0
    elif mode == "not PSD":
        w[...] = np.diag([1.2, -0.2, 0.0])
    else:
        w[1, 1] = np.nan


@pytest.mark.parametrize("mode", list(DENSITY_FAULTS))
@pytest.mark.parametrize("density_event, vector_event", [(2, 5), (5, 2), (2, None)])
def test_update_form_cause_is_the_first_failing_event(monkeypatch, density_event,
                                                      vector_event, mode):
    """A stack of events that fails names the cause of its first failing event,
    as checking the events one by one would: one event's density form fails
    the density gate in each of its ways; another's effect is zeroed (unless
    ``vector_event`` is None), so its vector form fails first; and a later
    event's density form holds an infinite entry, which the gate tests a
    whole stack for before any other step."""
    rng = np.random.default_rng(29)
    gobs = random_generalized(rng, 3)
    psi = random_state(rng, 3)
    pd = detection_probability(gobs, psi)
    rows = measurement._event_subsets(gobs.outcomes.size,
                                      np.random.default_rng(VERIFY_SEED), limit=256)
    live = [row for row in rows if row.any()
            and overall_probability(gobs, psi, gobs.outcomes[row]) >= measurement.BRANCH_FLOOR]
    density_row, infinite_row = live[density_event], live[7]
    density_effect, infinite_effect = measurement._effects(
        gobs, pd, np.array([density_row, infinite_row]))
    effects, branch_density = measurement._effects, measurement._branch_density

    def corrupt_effects(gobs, pd, rows):
        out = effects(gobs, pd, rows)
        if vector_event is not None:
            out[(rows == live[vector_event]).all(axis=1)] = 0.0
        return out

    def corrupt_density(psi, ts):
        out = branch_density(psi, ts)
        for t, w in zip(ts, out):
            if np.array_equal(t, density_effect):
                _corrupt_density_form(w, mode)
            elif np.array_equal(t, infinite_effect):
                w[0, 0] = np.inf
        return out

    monkeypatch.setattr(measurement, "_effects", corrupt_effects)
    monkeypatch.setattr(measurement, "_branch_density", corrupt_density)
    checks = {c.name: c for c in verification_checks(gobs, psi, ApparatusModel())}
    cause = checks["update-form-agreement"].cause
    assert cause == _per_event_update_cause(gobs, psi)
    first = (DENSITY_FAULTS[mode] if vector_event is None or density_event < vector_event
             else "ZeroProbabilityBranchError: conditioning event")
    assert cause.startswith(first)


@pytest.mark.parametrize("action", ["default", "error"])
def test_update_form_cause_of_a_nan_effect_ignores_the_warning_filter(monkeypatch, action):
    """An effect with a NaN entry names one cause whatever the warning filter,
    and no warning is issued: the branch norm is checked before it divides."""
    gobs, psi = sigma_z_scenario(0.8)
    effects = measurement._effects

    def nan_effects(gobs, pd, rows):
        out = effects(gobs, pd, rows)
        out[:, 0, 0] = np.nan
        return out

    monkeypatch.setattr(measurement, "_effects", nan_effects)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        checks = {c.name: c for c in verification_checks(gobs, psi, ApparatusModel())}
    assert checks["update-form-agreement"].cause == "ValueError: amplitudes must be finite"
    assert [str(w.message) for w in caught] == []


def test_pov_thread_failure_names_its_cause(monkeypatch):
    """An exception in a positivity stack on the POV thread fails the four pov
    checks with its cause; the other checks keep their bits and the report its
    order, the thread sees the caller's numpy error state, and it is gone when
    the call returns. The caller waits until the thread has taken stack 0, the
    first to fail, so that stack runs there."""
    rng = np.random.default_rng(41)
    gobs = random_generalized(rng, 4)
    psi = random_state(rng, 4)
    baseline = threading.active_count()
    caller, started = threading.get_ident(), threading.Event()
    born_weights = measurement._born_weights

    def broken(*args):
        started.set()
        where = "the caller" if threading.get_ident() == caller else "the POV thread"
        raise RuntimeError(f"failed on {where}, divide={np.geterr()['divide']}")

    def after_the_thread_starts(*args):
        assert started.wait(timeout=30)
        return born_weights(*args)

    with np.errstate(divide="raise"):
        clean = verification_checks(gobs, psi, ApparatusModel())
        monkeypatch.setattr(model, "_effects", broken)
        monkeypatch.setattr(measurement, "_born_weights", after_the_thread_starts)
        checks = verification_checks(gobs, psi, ApparatusModel())
    assert threading.active_count() == baseline
    assert [c.name for c in checks] == [c.name for c in clean]
    assert checks[:4] == [Check(c.name, math.inf,
                                "RuntimeError: failed on the POV thread, divide=raise")
                          for c in clean[:4]]
    assert [c.name for c in clean[:4]] == ["pov-normalization", "pov-positivity",
                                           "pov-additivity", "pov-commutativity"]
    assert [(c.name, c.deviation.hex(), c.cause) for c in checks[4:]] == \
        [(c.name, c.deviation.hex(), c.cause) for c in clean[4:]]
    assert len(checks[4:]) == 11


class InlinePool:
    """Stands in for the POV thread's pool: each job runs as it is submitted,
    so the worker takes every positivity stack and the caller none."""

    def __init__(self, max_workers: int):
        assert max_workers == 1

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None

    def submit(self, fn, *args) -> Future:
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


class _Deferred(Future):
    """A future whose job runs only when its result is read."""

    def __init__(self, job):
        super().__init__()
        self.job = job

    def result(self, timeout=None):
        if not self.done():
            self.set_running_or_notify_cancel()
            try:
                self.set_result(self.job())
            except Exception as exc:
                self.set_exception(exc)
        return super().result(timeout)


class IdlePool(InlinePool):
    """A pool whose worker never starts a job: the caller takes back every
    positivity stack it can cancel, and a stack left to the worker runs only
    when its result is read."""

    def submit(self, fn, *args) -> Future:
        return _Deferred(lambda: fn(*args))


# who takes each positivity stack: the worker all, the caller all, or the race
SCHEDULES = {"worker": InlinePool, "caller": IdlePool, "threads": ThreadPoolExecutor}


def _d16():
    """d = 16, 17 outcomes: positivity takes 1024 random events in 8 stacks of 128."""
    rng = np.random.default_rng(16)
    return random_generalized(rng, 16), random_state(rng, 16)


@pytest.fixture
def short_switches():
    """A 1 µs switch interval, so the two threads of a real race hand over the GIL often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.usefixtures("short_switches")
def test_pov_schedules_give_the_same_checks(monkeypatch):
    """Whichever thread takes each positivity stack, verify's checks keep their
    bits, and the four pov checks read what verify_pov_axioms reads inline."""
    gobs, psi = _d16()
    inline = model.verify_pov_axioms(gobs, psi).as_dict()
    eigvalsh, reports = np.linalg.eigvalsh, {}
    for schedule, pool in SCHEDULES.items():
        stacks = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: stacks.append(len(m)) or eigvalsh(m))
        monkeypatch.setattr(measurement, "ThreadPoolExecutor", pool)
        checks = verification_checks(gobs, psi, ApparatusModel())
        reports[schedule] = [(c.name, c.deviation.hex(), c.cause) for c in checks]
        assert stacks == [128] * 8, schedule
    assert reports["caller"] == reports["worker"] == reports["threads"]
    assert reports["worker"][:4] == [("pov-" + name, value.hex(), None)
                                     for name, value in inline.items()]


@pytest.mark.usefixtures("short_switches")
def test_pov_cause_is_positivitys_first_failing_event(monkeypatch):
    """When two positivity stacks (of 8) and the partition pass all raise, the
    four pov checks name positivity's first failing event under every schedule,
    as verify_pov_axioms does, whose positivity runs first."""
    gobs, psi = _d16()
    rows = model._event_subsets(gobs.outcomes.size, np.random.default_rng(VERIFY_SEED), 1024)
    poisoned = rows[[300, 900]]  # in stacks 2 and 7
    effects = model._effects

    def failing(gobs, pd, block):
        if 1 < len(block) < 128:
            raise RuntimeError("partition pass failed")
        for row in block:
            if (row == poisoned).all(axis=1).any():
                raise ValueError(f"event {np.flatnonzero(row).tolist()}")
        return effects(gobs, pd, block)

    monkeypatch.setattr(model, "_effects", failing)
    first = next(row for row in rows if (row == poisoned).all(axis=1).any())
    cause = f"ValueError: event {np.flatnonzero(first).tolist()}"
    with pytest.raises(ValueError) as inline:
        model.verify_pov_axioms(gobs, psi)
    assert f"ValueError: {inline.value}" == cause
    for schedule, pool in SCHEDULES.items():
        monkeypatch.setattr(measurement, "ThreadPoolExecutor", pool)
        checks = verification_checks(gobs, psi, ApparatusModel())
        assert [c.cause for c in checks[:4]] == [cause] * 4, schedule


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
