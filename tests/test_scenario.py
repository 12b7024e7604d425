"""Scenario format tests: grammar, diagnostics, validation, round-trip."""

import numpy as np
import pytest

from esrsim import (
    QuantumObservable,
    ScenarioParseError,
    ScenarioValidationError,
    build_scenario,
    hermitian_eigendecompose,
    load_scenario,
    parse_scenario,
    scenario_digest,
    serialize_scenario,
)
from esrsim import scenario
from helpers import projectors, random_unitary, reconstruct, spectral_scenario_text

MINIMAL = """\
esrsim scenario v1
dimension: 2
state: 1,0 0,0
observable:
  row: 1,0 0,0
  row: 0,0 -1,0
detection:
  kind: constant
  p: 0.8
"""

FULL = """\
esrsim scenario v1
# a commented, fully specified scenario
dimension: 2
state: 0.7071067811865476,0 0.7071067811865476,0
a0: 0
observable:
  row: 1,0 0,0
  row: 0,0 -1,0
detection:
  kind: constant
  p: 0.8
apparatus:
  theta: 0.5
  phi: 1.0

experiment:
  mode: sample
  trials: 5000
  seed: 42
  stream: 1
  event: 1
  event: a0 -1
"""

SPECTRAL = """\
esrsim scenario v1
dimension: 2
state: 1,0 0,0
observable:
  eigenvalue: 1
  vector: 0.7071067811865476,0 0.7071067811865476,0
  eigenvalue: -1
  vector: 0.7071067811865476,0 -0.7071067811865476,0
detection:
  kind: expectation
  row: 0.2,0 0,0
  row: 0,0 0.6,0
"""

# the lines of FULL whose key (or section header) may appear only once
SINGLE_VALUED = ["dimension", "state", "a0", "observable", "detection", "apparatus",
                 "experiment", "  kind", "  p", "  theta", "  phi", "  mode", "  trials",
                 "  seed", "  stream"]


class TestParsing:
    def test_minimal_scenario_fills_defaults(self):
        sc = parse_scenario(MINIMAL)
        assert sc.dimension == 2
        assert sc.a0 is None
        assert sc.theta == 0.0 and sc.phi == 0.0
        assert sc.experiment.mode == "verify"
        assert sc.experiment.trials == 10000
        assert sc.experiment.events == []

    def test_full_scenario(self):
        sc = parse_scenario(FULL)
        assert sc.a0 == 0.0
        assert sc.theta == 0.5 and sc.phi == 1.0
        assert sc.experiment.mode == "sample"
        assert sc.experiment.seed == 42 and sc.experiment.stream == 1
        assert sc.experiment.events == [[1.0], ["a0", -1.0]]

    def test_spectral_form(self):
        sc = parse_scenario(SPECTRAL)
        assert sc.observable_rows is None
        assert [ev for ev, _ in sc.observable_spectral] == [1.0, -1.0]

    def test_missing_header(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario("dimension: 2\n")
        assert err.value.line == 1

    def test_unknown_top_key(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(MINIMAL + "color: blue\n")
        assert "color" in str(err.value)

    def test_unknown_section_key(self):
        bad = MINIMAL.replace("  p: 0.8", "  p: 0.8\n  shade: dark")
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(bad)
        assert "shade" in str(err.value)

    def test_bad_complex_token_reports_line(self):
        bad = MINIMAL.replace("state: 1,0 0,0", "state: 1 0,0")
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(bad)
        assert err.value.line == 3

    @pytest.mark.parametrize("key", SINGLE_VALUED, ids=str.strip)
    def test_duplicate_key(self, key):
        # a copy of the key's line (for a section, of its header) right after it
        lines = FULL.splitlines()
        i = next(n for n, line in enumerate(lines) if line.startswith(f"{key}:"))
        lines.insert(i + 1, lines[i])
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario("\n".join(lines) + "\n")
        assert err.value.line == i + 2
        assert "duplicate" in str(err.value)

    def test_duplicate_cases_cover_every_single_valued_key(self):
        expected = {f"  {key}" if section else key
                    for section, keys in scenario._KEYS.items()
                    for key, (_, repeats) in keys.items() if not repeats}
        assert set(SINGLE_VALUED) == expected | {key for key in scenario._KEYS if key}

    def test_first_bad_line_is_reported(self):
        # the bad row comes before the bad a0 in the file
        bad = MINIMAL.replace("  row: 0,0 -1,0", "  row: 0,0 x") + "a0: y\n"
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(bad)
        assert err.value.line == 6 and "row" in str(err.value)

    @pytest.mark.parametrize("key, value", [("dimension", "0"), ("trials", "0"),
                                            ("seed", "-1"), ("stream", str(2 ** 64)),
                                            ("mode", "dance"), ("kind", "sometimes")])
    def test_out_of_range_value_names_key_and_line(self, key, value):
        lines = FULL.splitlines()
        i = next(n for n, line in enumerate(lines) if line.strip().startswith(f"{key}:"))
        lines[i] = lines[i].partition(":")[0] + f": {value}"
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario("\n".join(lines) + "\n")
        assert err.value.line == i + 1
        assert str(err.value).startswith(f"line {i + 1}: {key}: ")

    def test_large_trials_accepted(self):
        sc = parse_scenario(FULL.replace("trials: 5000", f"trials: {2 ** 70}"))
        assert sc.experiment.trials == 2 ** 70

    def test_bad_indentation(self):
        bad = MINIMAL.replace("  kind: constant", "   kind: constant")
        with pytest.raises(ScenarioParseError):
            parse_scenario(bad)

    def test_missing_required_key(self):
        text = "\n".join(line for line in MINIMAL.splitlines()
                         if not line.startswith("state")) + "\n"
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text)
        assert "state" in str(err.value)

    def test_cannot_mix_observable_forms(self):
        bad = MINIMAL.replace("  row: 0,0 -1,0", "  row: 0,0 -1,0\n  eigenvalue: 1")
        with pytest.raises(ScenarioParseError):
            parse_scenario(bad)

    def test_bad_mode(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario(MINIMAL + "experiment:\n  mode: dance\n")


class TestBuild:
    def test_minimal_build(self):
        built = build_scenario(parse_scenario(MINIMAL))
        assert built.gobs.a0 == -2.0  # default: min eigenvalue - 1
        np.testing.assert_allclose(built.gobs.outcomes, [-2.0, -1.0, 1.0])
        assert built.experiment.mode == "verify"

    def test_spectral_build_matches_dense(self):
        # the spectral fixture encodes the Pauli-x matrix
        built = build_scenario(parse_scenario(SPECTRAL))
        np.testing.assert_allclose(reconstruct(built.gobs.base),
                                   [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_a0_clash_is_named(self):
        bad = FULL.replace("a0: 0", "a0: 1")
        with pytest.raises(ScenarioValidationError) as err:
            build_scenario(parse_scenario(bad))
        assert "a0" in str(err.value) and "clash" in str(err.value)

    def test_non_hermitian_observable(self):
        bad = MINIMAL.replace("  row: 0,0 -1,0", "  row: 0.001,0 -1,0")
        with pytest.raises(ScenarioValidationError) as err:
            build_scenario(parse_scenario(bad))
        assert "observable" in str(err.value)

    def test_non_unit_state(self):
        bad = MINIMAL.replace("state: 1,0 0,0", "state: 1,0 1,0")
        with pytest.raises(ScenarioValidationError) as err:
            build_scenario(parse_scenario(bad))
        assert "state" in str(err.value)

    def test_wrong_state_length(self):
        bad = MINIMAL.replace("state: 1,0 0,0", "state: 1,0 0,0 0,0")
        with pytest.raises(ScenarioValidationError):
            build_scenario(parse_scenario(bad))

    def test_event_value_must_be_an_outcome(self):
        bad = FULL.replace("  event: 1", "  event: 3")
        with pytest.raises(ScenarioValidationError) as err:
            build_scenario(parse_scenario(bad))
        assert "event" in str(err.value)

    def test_events_resolve_a0(self):
        # one read-only row per event line over the outcomes [a0, -1, 1]
        built = build_scenario(parse_scenario(FULL))
        assert built.events.tolist() == [[False, False, True], [True, True, False]]
        assert not built.events.flags.writeable

    def test_empty_and_absent_events(self):
        built = build_scenario(parse_scenario(FULL.replace("  event: 1\n", "  event:\n")))
        assert built.events.tolist() == [[False, False, False], [True, True, False]]
        assert build_scenario(parse_scenario(MINIMAL)).events.shape == (0, 3)

    def test_detection_dimension_checked(self):
        bad = SPECTRAL.replace("  row: 0,0 0.6,0", "")
        with pytest.raises((ScenarioParseError, ScenarioValidationError)):
            build_scenario(parse_scenario(bad))

    def test_detection_spectrum_checked(self):
        bad = MINIMAL.replace("  p: 0.8", "  p: 1.2")
        with pytest.raises(ScenarioValidationError) as err:
            build_scenario(parse_scenario(bad))
        assert "detection" in str(err.value)

    def test_spectral_form_merges_near_degenerate_pair(self):
        u = random_unitary(np.random.default_rng(5), 3)
        values = [0.5, 2.0, 0.5 + 1e-12]
        base = build_scenario(parse_scenario(spectral_scenario_text(values, u))).gobs.base
        assert base.eigenvalues.size == 2 and base.bases[0].shape == (3, 2)
        assert np.trace(projectors(base)[0]).real == pytest.approx(2.0, abs=1e-12)
        reference = QuantumObservable(*hermitian_eigendecompose(u @ np.diag(values) @ u.conj().T))
        np.testing.assert_allclose(base.eigenvalues, reference.eigenvalues, rtol=0, atol=1e-12)
        for got, want in zip(projectors(base), projectors(reference)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_ragged_rows_rejected(self):
        bad = MINIMAL.replace("  row: 0,0 -1,0", "  row: 0,0")
        with pytest.raises(ScenarioValidationError) as err:
            build_scenario(parse_scenario(bad))
        assert "inconsistent" in str(err.value)

    def test_detection_kind_and_fields_must_match(self):
        bad = MINIMAL.replace("  kind: constant", "  kind: expectation")
        with pytest.raises(ScenarioParseError):
            parse_scenario(bad)


class TestLoad:
    def test_invalid_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "latin1.esr"
        path.write_bytes(b"esrsim scenario v1\ndimension: 2\xff\nstate: 1,0 0,0\n")
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(path)
        assert err.value.line == 2 and "UTF-8" in str(err.value)

    def test_invalid_utf8_after_a_final_line_break(self, tmp_path):
        path = tmp_path / "latin1.esr"
        path.write_bytes(MINIMAL.encode() + b"\xe9")
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(path)
        assert err.value.line == len(MINIMAL.splitlines()) + 1


class TestRoundTrip:
    @pytest.mark.parametrize("text", [MINIMAL, FULL, SPECTRAL])
    def test_parse_serialize_parse_is_identity(self, text):
        once = parse_scenario(text)
        canonical = serialize_scenario(once)
        assert parse_scenario(canonical) == once
        # canonical form is a fixed point
        assert serialize_scenario(parse_scenario(canonical)) == canonical

    def test_digest_tracks_content(self):
        a = parse_scenario(MINIMAL)
        b = parse_scenario(MINIMAL.replace("p: 0.8", "p: 0.9"))
        assert scenario_digest(a) != scenario_digest(b)
        assert scenario_digest(a) == scenario_digest(parse_scenario(MINIMAL))
