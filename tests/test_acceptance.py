"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each criterion is summarized as a pass/fail line in the terminal summary
(see conftest). Oracles here are deliberately independent of the library
internals: effects are reassembled from their defining formulas, Lüders
updates recomputed from raw projectors, and statistics checked against the
binomial envelope.
"""

import json
import time

import numpy as np

from esrsim import (
    ApparatusModel,
    ConstantDetection,
    RngSpec,
    conditional_probability,
    couple_and_evolve,
    detection_probability,
    fix_phase,
    measurement_operators,
    nonselective_state,
    outcome_probability,
    overall_probability,
    overall_probability_density,
    post_measurement_state_yes,
    pv_projector,
    reduced_object_state,
    run_experiment,
    sample_sequence,
    to_density,
    verify_pov_axioms,
)
from esrsim.cli import main
from helpers import (
    random_event,
    random_generalized,
    random_state,
    scenario_stream,
    sigma_z_scenario,
)

PHASES = (0.0, np.pi / 3.0, np.pi, 1.7)


def test_criterion_1_pov_axiom_suite():
    """POV axioms and commutativity within 1e-10 on 200 random scenarios."""
    worst = 0.0
    for _, gobs, psi in scenario_stream(seed=1001, count=200):
        report = verify_pov_axioms(gobs, psi, partition_trials=20)
        worst = max(worst, *report.as_dict().values())
    assert worst <= 1e-10


def test_criterion_2_qm_recovery():
    """Certain detection reduces to the Born rule and Lüders update (1e-12)."""
    rng = np.random.default_rng(1002)
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        gobs = random_generalized(rng, dim, detection=ConstantDetection(1.0))
        psi = random_state(rng, dim)
        event = random_event(rng, gobs, allow_a0=False)
        born = float(np.vdot(psi.amplitudes,
                             pv_projector(gobs.base, event) @ psi.amplitudes).real)
        assert abs(overall_probability(gobs, psi, event) - born) <= 1e-12
        if born > 1e-9:
            projected = pv_projector(gobs.base, event) @ psi.amplitudes
            lueders = fix_phase(projected / np.linalg.norm(projected))
            updated = post_measurement_state_yes(gobs, psi, event)
            assert np.max(np.abs(updated.amplitudes - lueders)) <= 1e-12


def test_criterion_3_factorization():
    """Overall = detection x conditional for detected events (1e-12)."""
    rng = np.random.default_rng(1003)
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        gobs = random_generalized(rng, dim, degenerate=bool(rng.integers(0, 2)) and dim > 2)
        psi = random_state(rng, dim)
        event = random_event(rng, gobs, allow_a0=False)
        combined = overall_probability(gobs, psi, event)
        split = detection_probability(gobs, psi) * conditional_probability(gobs, psi, event)
        assert abs(combined - split) <= 1e-12


def test_criterion_4_update_special_cases():
    """The three yes-branch cases against brute-force assembly (1e-12)."""
    rng = np.random.default_rng(1004)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        gobs = random_generalized(rng, dim)
        psi = random_state(rng, dim)
        pd = detection_probability(gobs, psi)

        # case: event is exactly the no-registration outcome -> state unchanged
        unchanged = post_measurement_state_yes(gobs, psi, (gobs.a0,))
        assert np.max(np.abs(unchanged.amplitudes - fix_phase(psi.amplitudes))) <= 1e-12

        # case: detected-only event -> Lüders update
        detected = random_event(rng, gobs, allow_a0=False)
        projected = pv_projector(gobs.base, detected) @ psi.amplitudes
        if np.linalg.norm(projected) > 1e-6:
            lueders = fix_phase(projected / np.linalg.norm(projected))
            updated = post_measurement_state_yes(gobs, psi, detected)
            assert np.max(np.abs(updated.amplitudes - lueders)) <= 1e-12

        # case: mixed event -> normalize((1 - p_d) psi + p_d P psi), with the
        # effect reassembled from its defining formula
        mixed = frozenset(detected) | {gobs.a0}
        raw = ((1.0 - pd) * psi.amplitudes
               + pd * (pv_projector(gobs.base, detected) @ psi.amplitudes))
        oracle = fix_phase(raw / np.linalg.norm(raw))
        updated = post_measurement_state_yes(gobs, psi, mixed)
        assert np.max(np.abs(updated.amplitudes - oracle)) <= 1e-12


def test_criterion_5_operator_family_consistency():
    """Singleton probabilities agree across all four formulations (1e-12)."""
    for rng, gobs, psi in scenario_stream(seed=1005, count=100, max_dim=8):
        family = measurement_operators(gobs, psi)
        w = to_density(psi).matrix
        for k, value in enumerate(family.outcomes):
            event = (float(value),)
            via_family = outcome_probability(family, k)
            via_effect = overall_probability(gobs, psi, event)
            via_effect_trace = overall_probability_density(gobs, psi, event)
            m = family.operators[k]
            via_family_trace = float(np.trace(w @ m.conj().T @ m).real)
            assert abs(via_family - via_effect) <= 1e-12
            assert abs(via_family_trace - via_effect) <= 1e-12
            assert abs(via_effect_trace - via_effect) <= 1e-12


def test_criterion_6_apparatus_justification():
    """Partial trace equals the nonselective mixture (1e-10); norm kept (1e-12)."""
    for _, gobs, psi in scenario_stream(seed=1006, count=100, max_dim=8,
                                        degenerate_share=False):
        mixture = nonselective_state(measurement_operators(gobs, psi)).matrix
        for theta in PHASES:
            for phi in PHASES:
                app = ApparatusModel.for_observable(gobs, theta, phi)
                compound = couple_and_evolve(gobs, psi, app)
                assert abs(np.linalg.norm(compound.amplitudes) - 1.0) <= 1e-12
                reduced = reduced_object_state(compound).matrix
                assert np.linalg.norm(reduced - mixture) <= 1e-10


def test_criterion_7_repeatability():
    """No sequence ever shows two distinct detected outcomes (10^4 x len 5)."""
    rng = np.random.default_rng(1007)
    scenarios = [
        sigma_z_scenario(0.6, a0=0.0),
        (random_generalized(rng, 3), random_state(rng, 3)),
        (random_generalized(rng, 4, detection=ConstantDetection(0.35)), random_state(rng, 4)),
    ]
    for index, (gobs, psi) in enumerate(scenarios):
        assert gobs.base.is_nondegenerate()
        violations = 0
        for seed in range(10_000):
            records = sample_sequence(gobs, psi, 5, RngSpec(seed=seed, stream_id=index))
            detected = {r.outcome for r in records if r.detected}
            if len(detected) > 1:
                violations += 1
        assert violations == 0


def test_criterion_8_statistical_convergence():
    """100k-trial runs inside 4 sigma per outcome for >= 99% of 50 seeds."""
    start = time.monotonic()
    gobs, psi = sigma_z_scenario(0.8, a0=0.0)
    passes = 0
    for seed in range(50):
        report = run_experiment(gobs, psi, 100_000, RngSpec(seed=seed))
        assert int(report.counts.sum()) == 100_000
        if report.max_sigma_deviation <= 4.0:
            passes += 1
    elapsed = time.monotonic() - start
    assert passes / 50 >= 0.99
    assert elapsed < 60.0


def test_criterion_9_determinism(tmp_path):
    """Identical scenario and seed give bit-identical machine records."""
    scenario = tmp_path / "scenario.esr"
    scenario.write_text(
        "esrsim scenario v1\n"
        "dimension: 2\n"
        "state: 0.7071067811865476,0 0.7071067811865476,0\n"
        "a0: 0\n"
        "observable:\n"
        "  row: 1,0 0,0\n"
        "  row: 0,0 -1,0\n"
        "detection:\n"
        "  kind: constant\n"
        "  p: 0.8\n"
        "experiment:\n"
        "  mode: sample\n"
        "  trials: 100000\n"
        "  seed: 42\n")
    outputs = [tmp_path / f"rec{i}.jsonl" for i in range(4)]
    assert main(["sample", str(scenario), "--out", str(outputs[0])]) == 0
    assert main(["sample", str(scenario), "--out", str(outputs[1])]) == 0
    assert main(["sample", str(scenario), "--out", str(outputs[2]), "--workers", "2"]) == 0
    assert main(["sample", str(scenario), "--out", str(outputs[3]), "--workers", "8"]) == 0
    blobs = [p.read_bytes() for p in outputs]
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]
    record = json.loads(blobs[0].decode().splitlines()[0])
    assert record["report"]["rng"] == "philox4x64-seq:seed=42:stream=0"

    # the library route is equally deterministic
    gobs, psi = sigma_z_scenario(0.8, a0=0.0)
    reports = [run_experiment(gobs, psi, 100_000, RngSpec(seed=42), workers=w)
               for w in (1, 3)]
    assert reports[0].to_dict() == reports[1].to_dict()
