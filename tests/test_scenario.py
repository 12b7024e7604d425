"""Scenario format tests: grammar, diagnostics, validation, round-trip."""

import numpy as np
import pytest

from esrsim import (
    ScenarioParseError,
    ScenarioValidationError,
    build_scenario,
    hermitian_eigendecompose,
    parse_scenario,
    scenario_digest,
    serialize_scenario,
)
from helpers import random_unitary

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

    def test_duplicate_key(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario(MINIMAL + "dimension: 2\n")

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
        np.testing.assert_allclose(built.gobs.base.matrix(),
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
        built = build_scenario(parse_scenario(FULL))
        assert built.events == (frozenset((1.0,)), frozenset((0.0, -1.0)))

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
        lines = ["esrsim scenario v1", "dimension: 3", "state: 1,0 0,0 0,0", "observable:"]
        for value, vector in zip(values, u.T):
            lines.append(f"  eigenvalue: {value!r}")
            lines.append("  vector: " + " ".join(f"{z.real},{z.imag}" for z in vector.tolist()))
        lines += ["detection:", "  kind: constant", "  p: 0.8"]
        base = build_scenario(parse_scenario("\n".join(lines) + "\n")).gobs.base
        assert base.eigenvalues.size == 2
        assert np.trace(base.projectors[0]).real == pytest.approx(2.0, abs=1e-12)
        dense = hermitian_eigendecompose(u @ np.diag(values) @ u.conj().T)
        np.testing.assert_allclose(base.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-12)
        for got, want in zip(base.projectors, dense.projectors):
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
