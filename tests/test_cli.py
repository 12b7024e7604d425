"""CLI tests: verbs, exit codes, machine records, determinism."""

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from esrsim import cli, measurement, model
from esrsim.cli import main
from helpers import spectral_scenario_text

GOOD = """\
esrsim scenario v1
dimension: 2
state: 0.7071067811865476,0 0.7071067811865476,0
a0: 0
observable:
  row: 1,0 0,0
  row: 0,0 -1,0
detection:
  kind: constant
  p: 0.8
experiment:
  mode: sample
  trials: 20000
  seed: 42
  event: 1
  event: a0 1
"""

# spectral form with eigenvectors orthonormal only to ~1e-8: passes the
# build gate but must fail the 1e-10 verification checks
CORRUPTED = """\
esrsim scenario v1
dimension: 2
state: 1,0 0,0
observable:
  eigenvalue: 1
  vector: 0.99999999999999995,0 1e-8,0
  eigenvalue: -1
  vector: 0,0 1,0
detection:
  kind: constant
  p: 0.8
"""

# eigenvectors (1, 0) and (3e-7, 1): orthonormal only to 3e-7, which the 1e-6
# build gate admits; the coupled compound state's norm is 1 + 1.296e-7
SKEWED = """\
esrsim scenario v1
dimension: 2
state: 0.6,0 0.8,0
observable:
  eigenvalue: 1
  vector: 1,0 0,0
  eigenvalue: -1
  vector: 3e-7,0 1,0
detection:
  kind: constant
  p: 0.9
"""

# without events, so that no event diagnostic can stand in for the observable's
SPECTRAL = GOOD.replace("  row: 1,0 0,0\n  row: 0,0 -1,0\n",
                        "  eigenvalue: 1\n  vector: 1,0 0,0\n"
                        "  eigenvalue: -1\n  vector: 0,0 1,0\n"
                        ).replace("  event: 1\n  event: a0 1\n", "")

# (id, scenario text, field the one-line diagnostic must name)
INVALID_SCENARIOS = [
    ("eigenvalue-inf", SPECTRAL.replace("eigenvalue: 1\n", "eigenvalue: inf\n"), "observable"),
    ("eigenvalue-nan", SPECTRAL.replace("eigenvalue: 1\n", "eigenvalue: nan\n"), "observable"),
    ("eigenvalues-inf-and-minus-inf", SPECTRAL.replace("eigenvalue: 1\n", "eigenvalue: inf\n")
     .replace("eigenvalue: -1\n", "eigenvalue: -inf\n"), "observable"),
    ("vector-inf", SPECTRAL.replace("vector: 1,0 0,0", "vector: inf,0 0,0"), "observable"),
    ("a0-nan", GOOD.replace("a0: 0", "a0: nan"), "a0"),
    ("theta-nan", GOOD.replace("experiment:", "apparatus:\n  theta: nan\nexperiment:"),
     "apparatus"),
    ("row-nan", GOOD.replace("row: 1,0 0,0", "row: nan,0 0,0"), "observable"),
    ("seed-negative", GOOD.replace("seed: 42", "seed: -1"), "seed"),
    ("seed-2**64", GOOD.replace("seed: 42", f"seed: {2 ** 64}"), "seed"),
    ("stream-negative", GOOD.replace("seed: 42", "seed: 42\n  stream: -1"), "stream"),
    ("event-inf", GOOD.replace("event: 1\n", "event: inf\n"), "event"),
    ("event-minus-inf", GOOD.replace("event: 1\n", "event: -inf\n"), "event"),
    # finite, but large enough that the build's arithmetic overflows
    ("state-overflow", GOOD.replace("state: 0.7071067811865476,0 0.7071067811865476,0",
                                    "state: 1e300,0 1e300,0"), "state"),
    ("row-overflow", GOOD.replace("row: 1,0 0,0", "row: 1e308,0 0,0")
     .replace("row: 0,0 -1,0", "row: 0,0 -1e308,0"), "observable"),
    ("eigenvalues-overflow", SPECTRAL.replace("eigenvalue: 1\n", "eigenvalue: 1e308\n")
     .replace("eigenvalue: -1\n", "eigenvalue: -1e308\n"), "observable"),
    ("vector-overflow", SPECTRAL.replace("vector: 1,0 0,0", "vector: 1e200,0 0,0"),
     "observable"),
    # a second single-valued key is refused at its own line, not resolved last-wins
    ("duplicate-p", GOOD.replace("  p: 0.8\n", "  p: 0.8\n  p: 0.3\n"), "p"),
    ("duplicate-theta", GOOD.replace("experiment:", "apparatus:\n  theta: 0\n  theta: 1\n"
                                                   "experiment:"), "theta"),
    ("duplicate-section", GOOD + "detection:\n  kind: constant\n  p: 0.3\n", "detection"),
    # neighbours 6e-9 apart, within the 1e-8 merge tolerance, span 1.2e-8 together
    ("eigenvalues-chain", spectral_scenario_text([0.0, 6e-9, 1.2e-8, 1.0], np.eye(4)),
     "observable"),
]

# (id, scenario text, start of the one-line diagnostic after "esrsim: ")
BOUNDARY_DIAGNOSTICS = [
    ("p-not-a-number", GOOD.replace("p: 0.8", "p: abc"),
     "line 10: p: expected a number, got 'abc'"),
    ("state-without-entries", GOOD.replace("state: 0.7071067811865476,0 0.7071067811865476,0",
                                            "state:"),
     "line 3: state: expected at least one re,im entry"),
    ("section-with-inline-value", GOOD.replace("detection:\n", "detection: constant\n"),
     "line 8: detection: a section takes no inline value"),
    ("vector-missing", SPECTRAL.replace("  vector: 0,0 1,0\n", ""),
     "line 5: observable needs exactly one vector per eigenvalue"),
    ("detection-without-kind", GOOD.replace("  kind: constant\n", ""),
     "line 8: detection needs a kind"),
    ("eigenvectors-not-orthonormal", SPECTRAL.replace("vector: 0,0 1,0", "vector: 3e-6,0 1,0"),
     "observable: eigenvectors are not orthonormal (defect 4.243e-06)"),
    # a norm off by 9e-11 would move total-probability and factorization by
    # 2 p_d 9e-11 = 1.44e-10, past the check tolerance
    ("state-norm-off", GOOD.replace("0.7071067811865476,0 0.7071067811865476,0",
                                    "0.600000000054,0 0.800000000072,0"),
     "state: state norm is 1.00000000009, expected 1"),
]

DEGENERATE = """\
esrsim scenario v1
dimension: 3
state: 1,0 0,0 0,0
observable:
  row: 1,0 0,0 0,0
  row: 0,0 1,0 0,0
  row: 0,0 0,0 2,0
detection:
  kind: constant
  p: 0.8
"""


@pytest.fixture
def good_scenario(tmp_path):
    path = tmp_path / "good.esr"
    path.write_text(GOOD)
    return path


class TestVerify:
    def test_passes_on_good_scenario(self, good_scenario, capsys):
        assert main(["verify", str(good_scenario)]) == 0
        out = capsys.readouterr().out
        assert "pov-normalization" in out
        assert "apparatus-consistency" in out
        assert "FAIL" not in out

    def test_projective_limit_passes(self, tmp_path):
        path = tmp_path / "projective.esr"
        path.write_text(GOOD.replace("p: 0.8", "p: 1.0"))
        assert main(["verify", str(path)]) == 0

    @pytest.mark.parametrize("state", ["0.6000000000233999,0 0.8000000000312,0",
                                       "0.5999999999765999,0 0.7999999999688,0"])
    def test_state_norm_just_inside_the_gate_passes(self, tmp_path, capsys, state):
        # norm 1 +- 3.9e-11: total-probability reads about 7.8e-11 at p_d = 1
        path = tmp_path / "norm.esr"
        path.write_text(GOOD.replace("0.7071067811865476,0 0.7071067811865476,0", state)
                        .replace("p: 0.8", "p: 1"))
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count(" pass\n") == 15 and "all 15 checks within tolerance 1e-10" in out

    def test_corrupted_projectors_fail_named_checks(self, tmp_path, capsys):
        path = tmp_path / "corrupted.esr"
        path.write_text(CORRUPTED)
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "pov-normalization" in out
        assert "FAIL" in out

    def test_degenerate_scenario_runs_every_check(self, tmp_path, capsys):
        path = tmp_path / "degenerate.esr"
        path.write_text(DEGENERATE)
        record_path = tmp_path / "records.jsonl"
        assert main(["verify", str(path), "--out", str(record_path)]) == 0
        out = capsys.readouterr().out
        assert "all 15 checks within tolerance" in out
        checks = json.loads(record_path.read_text())["checks"]
        assert len(checks) == 15
        assert checks["coupling-norm"] <= 1e-10
        assert checks["apparatus-consistency"] <= 1e-10

    def test_record_written(self, good_scenario, tmp_path, capsys):
        record_path = tmp_path / "records.jsonl"
        assert main(["verify", str(good_scenario), "--out", str(record_path)]) == 0
        capsys.readouterr()
        record = json.loads(record_path.read_text().splitlines()[0])
        assert record["tool"] == "esrsim"
        assert record["mode"] == "verify"
        assert record["passed"] is True
        assert "pov-additivity" in record["checks"]

    def test_record_names_the_verify_generator(self):
        # the bit generator verify draws its random events from, and its seed
        generator = np.random.default_rng(model.VERIFY_SEED).bit_generator
        name, seed = type(generator).__name__.lower(), generator.seed_seq.entropy
        assert model.VERIFY_RNG == f"{name}:seed={seed}"

    def test_failed_check_names_its_cause(self, good_scenario, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("injected fault")

        # a broken input fails every check that reads it: the POV pass's effect
        # kernel feeds the four pov checks, on both threads, and the operator
        # family the family, singleton, nonselective, repeatability and coupling
        # checks
        monkeypatch.setattr(model, "_effects", broken)
        monkeypatch.setattr(measurement, "measurement_operators", broken)
        monkeypatch.setattr(measurement, "_branch_density", broken)
        record_path = tmp_path / "records.jsonl"
        assert main(["verify", str(good_scenario), "--out", str(record_path)]) == 1
        out = capsys.readouterr().out
        failing = ("pov-normalization", "pov-positivity", "pov-additivity",
                   "pov-commutativity", "update-form-agreement", "family-completeness",
                   "family-commutation", "singleton-consistency", "nonselective-forms",
                   "repeatability", "coupling-norm", "apparatus-consistency")
        for name in failing:
            assert re.search(rf"^{name} +inf  FAIL  RuntimeError: injected fault$", out, re.M)
        record = json.loads(record_path.read_text())
        assert record["errors"] == dict.fromkeys(failing, "RuntimeError: injected fault")
        assert all(record["checks"][name] is None for name in failing)
        assert len(record["checks"]) == 15
        assert record["passed"] is False

    def test_coupling_failure_names_its_cause(self, good_scenario, tmp_path, monkeypatch,
                                              capsys):
        def broken(*args):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(measurement, "couple_and_evolve", broken)
        record_path = tmp_path / "records.jsonl"
        assert main(["verify", str(good_scenario), "--out", str(record_path)]) == 1
        capsys.readouterr()
        record = json.loads(record_path.read_text())
        failing = ("coupling-norm", "apparatus-consistency")
        assert record["errors"] == dict.fromkeys(failing, "RuntimeError: injected fault")
        assert {name for name, value in record["checks"].items() if value is None} == set(failing)


class TestSample:
    def test_table_and_exit(self, good_scenario, capsys):
        assert main(["sample", str(good_scenario)]) == 0
        out = capsys.readouterr().out
        assert "philox4x64-seq:seed=42:stream=0" in out
        assert "event probabilities" in out

    def test_flag_overrides(self, good_scenario, capsys):
        assert main(["sample", str(good_scenario), "--trials", "100", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "trials=100" in out
        assert "seed=7" in out

    def test_records_bit_identical_across_runs_and_workers(self, good_scenario, tmp_path,
                                                           capsys):
        paths = [tmp_path / f"rec{i}.jsonl" for i in range(3)]
        assert main(["sample", str(good_scenario), "--out", str(paths[0])]) == 0
        assert main(["sample", str(good_scenario), "--out", str(paths[1])]) == 0
        assert main(["sample", str(good_scenario), "--out", str(paths[2]),
                     "--workers", "4"]) == 0
        capsys.readouterr()
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_event_value_merged_into_an_eigenvalue(self, tmp_path, capsys):
        # 0 and 5e-9 merge into the eigenvalue 2.5e-9, which `event: 0` names
        path = tmp_path / "merged.esr"
        path.write_text("esrsim scenario v1\ndimension: 3\nstate: 1,0 0,0 0,0\nobservable:\n"
                        "  row: 0,0 0,0 0,0\n  row: 0,0 5e-09,0 0,0\n  row: 0,0 0,0 1,0\n"
                        "detection:\n  kind: constant\n  p: 0.5\n"
                        "experiment:\n  trials: 1000\n  event: 0\n")
        record = tmp_path / "rec.jsonl"
        assert main(["sample", str(path), "--out", str(record)]) == 0
        capsys.readouterr()
        probabilities = json.loads(record.read_text())["event_probabilities"]
        assert probabilities == {"{2.5e-09}": pytest.approx(0.5, abs=1e-12)}

    def test_records_append(self, good_scenario, tmp_path, capsys):
        path = tmp_path / "rec.jsonl"
        main(["sample", str(good_scenario), "--out", str(path)])
        main(["sample", str(good_scenario), "--out", str(path), "--seed", "1"])
        capsys.readouterr()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["report"]["rng"] != json.loads(lines[1])["report"]["rng"]

    def test_env_var_out_dir(self, good_scenario, tmp_path, monkeypatch, capsys):
        out_dir = tmp_path / "records"
        monkeypatch.setenv("ESRSIM_OUT_DIR", str(out_dir))
        assert main(["sample", str(good_scenario)]) == 0
        capsys.readouterr()
        record_file = out_dir / "esrsim-records.jsonl"
        assert record_file.exists()
        assert json.loads(record_file.read_text())["mode"] == "sample"


class TestEvolve:
    def test_passes_on_good_scenario(self, good_scenario, capsys):
        assert main(["evolve", str(good_scenario)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^apparatus-consistency +\S+  pass$", out, re.M)

    def test_degenerate_scenario_passes(self, tmp_path, capsys):
        path = tmp_path / "degenerate.esr"
        path.write_text(DEGENERATE)
        assert main(["evolve", str(path)]) == 0
        captured = capsys.readouterr()
        assert "pointer dim=3" in captured.out
        assert captured.out.endswith("all 2 checks within tolerance 1e-10\n")
        assert captured.err == ""

    def test_skewed_projectors_fail_both_verbs_alike(self, tmp_path, capsys):
        # both verbs report the compound norm as a number and exit 1
        path = tmp_path / "skewed.esr"
        path.write_text(SKEWED)
        record_path = tmp_path / "records.jsonl"
        assert main(["verify", str(path), "--out", str(record_path)]) == 1
        assert main(["evolve", str(path), "--out", str(record_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        verify, evolve = map(json.loads, record_path.read_text().splitlines())
        coupling = ("coupling-norm", "apparatus-consistency")
        assert {name: verify["checks"][name] for name in coupling} == evolve["checks"]
        assert evolve["checks"]["coupling-norm"] == pytest.approx(1.296e-7, rel=1e-6)
        assert evolve["checks"]["apparatus-consistency"] <= 1e-15
        assert "errors" not in evolve and "errors" not in verify
        assert verify["passed"] is evolve["passed"] is False
        # one row per verb
        assert len(re.findall(r"^coupling-norm +1\.296e-07  FAIL$", captured.out, re.M)) == 2

    def test_coupling_failure_names_its_cause(self, good_scenario, tmp_path, monkeypatch,
                                              capsys):
        def broken(*args):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(measurement, "couple_and_evolve", broken)
        record_path = tmp_path / "records.jsonl"
        assert main(["evolve", str(good_scenario), "--out", str(record_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        failing = ("coupling-norm", "apparatus-consistency")
        for name in failing:
            assert re.search(rf"^{name} +inf  FAIL  RuntimeError: injected fault$",
                             captured.out, re.M)
        assert captured.out.endswith("2 check(s) failed at tolerance 1e-10: "
                                     "apparatus-consistency, coupling-norm\n")
        record = json.loads(record_path.read_text())
        assert record["errors"] == dict.fromkeys(failing, "RuntimeError: injected fault")
        assert record["checks"] == dict.fromkeys(failing)
        assert record["compound_amplitudes"] is record["reduced_state"] is None
        assert record["passed"] is False

    def test_every_coupling_check_is_printed(self, good_scenario, tmp_path, monkeypatch,
                                             capsys):
        # a third coupling check gets its row, fails the verb and is named in the verdict
        def coupling(*args):
            compound, reduced, checks = measurement.coupling_checks(*args)
            return measurement.Coupling(compound, reduced,
                                        [*checks, measurement.Check("third", 1.0)])

        monkeypatch.setattr(cli, "coupling_checks", coupling)
        record_path = tmp_path / "records.jsonl"
        assert main(["evolve", str(good_scenario), "--out", str(record_path)]) == 1
        out = capsys.readouterr().out
        assert re.search(r"^third +1\.000e\+00  FAIL$", out, re.M)
        assert out.endswith("1 check(s) failed at tolerance 1e-10: third\n")
        assert json.loads(record_path.read_text())["checks"]["third"] == 1.0


class TestErrorPaths:
    def test_missing_file(self, capsys):
        assert main(["verify", "/nonexistent/file.esr"]) == 2
        assert "esrsim:" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.esr"
        path.write_text("not a scenario\n")
        assert main(["verify", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    @staticmethod
    def assert_usage_error(argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "-3"), ("--workers", "0"), ("--trials", "0"),
        ("--seed", "-5"), ("--seed", str(2 ** 64)), ("--stream", "-1"),
        ("--trials", "ten"), ("--sigma", "inf"),
    ])
    def test_invalid_sample_flags_are_usage_errors(self, good_scenario, flag, value,
                                                   capsys):
        self.assert_usage_error(["sample", str(good_scenario), flag, value],
                                f"argument {flag}:", capsys)

    @pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--tol", "-1")])
    def test_invalid_verify_flags_are_usage_errors(self, good_scenario, flag, value,
                                                   capsys):
        self.assert_usage_error(["verify", str(good_scenario), flag, value],
                                f"argument {flag}:", capsys)

    @pytest.mark.parametrize("verb, flag, value", [
        ("verify", "--sigma", "3"), ("evolve", "--sigma", "3"), ("sample", "--tol", "1e-3"),
    ])
    def test_flag_of_another_verb_is_usage_error(self, good_scenario, verb, flag, value,
                                                 capsys):
        # each verb accepts only the flags it reads
        self.assert_usage_error([verb, str(good_scenario), flag, value],
                                f"unrecognized arguments: {flag} {value}", capsys)

    def test_validation_error(self, tmp_path, capsys):
        path = tmp_path / "clash.esr"
        path.write_text(GOOD.replace("a0: 0", "a0: 1"))
        assert main(["verify", str(path)]) == 2
        assert "a0" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["verify", "sample", "evolve"])
    def test_default_a0_of_a_far_spectrum_is_no_error(self, tmp_path, capsys, verb):
        # diag(1e9, 2e9) with no a0 line: one below the least eigenvalue would
        # clash (separation 1, required > 12), so the default steps farther
        path = tmp_path / "far.esr"
        path.write_text(GOOD.replace("a0: 0\n", "").replace("  row: 1,0 0,0\n  row: 0,0 -1,0",
                                                             "  row: 1e9,0 0,0\n  row: 0,0 2e9,0")
                        .replace("  event: 1\n  event: a0 1\n", "  event: 1e9\n  event: a0 2e9\n"))
        out = tmp_path / "far.jsonl"
        assert main([verb, str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        if verb == "sample":
            outcomes = json.loads(out.read_text())["report"]["outcomes"]
            assert outcomes[0] < 1e9 - 1.0 and outcomes[1:] == [1e9, 2e9]

    @pytest.mark.parametrize("verb", ["verify", "sample", "evolve"])
    def test_invalid_utf8_is_a_parse_error(self, tmp_path, capsys, verb):
        path = tmp_path / "latin1.esr"
        path.write_bytes(b"esrsim scenario v1\ndimension: 2\xff\n")
        assert main([verb, str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("esrsim: line 2: not valid UTF-8")

    @pytest.mark.parametrize("verb", ["verify", "sample", "evolve"])
    @pytest.mark.parametrize("text, field", [case[1:] for case in INVALID_SCENARIOS],
                             ids=[case[0] for case in INVALID_SCENARIOS])
    def test_invalid_scenario_numbers_are_named_errors(self, tmp_path, capsys, verb,
                                                      text, field):
        path = tmp_path / "invalid.esr"
        path.write_text(text)
        assert main([verb, str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert re.match(rf"esrsim: (line \d+: )?{re.escape(field)}: ", err)

    @pytest.mark.parametrize("verb", ["verify", "sample", "evolve"])
    @pytest.mark.parametrize("text, diagnostic", [case[1:] for case in BOUNDARY_DIAGNOSTICS],
                             ids=[case[0] for case in BOUNDARY_DIAGNOSTICS])
    def test_boundary_diagnostics_name_their_cause(self, tmp_path, capsys, verb, text,
                                                   diagnostic):
        path = tmp_path / "invalid.esr"
        path.write_text(text)
        assert main([verb, str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith(f"esrsim: {diagnostic}")
