"""Property tests of the input boundary: the scenario parser and the CLI verbs.

Grammar-shaped text and mutated scenario files must end in a named error (or a
result), never in another exception, a warning or a traceback.
"""

import contextlib
import io
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from esrsim import ScenarioParseError, ScenarioValidationError, build_scenario, parse_scenario
from esrsim.cli import main
from esrsim.scenario import HEADER
from helpers import spectral_scenario_text

DEMOS = Path(__file__).resolve().parent.parent / "demos"
QUBIT = (DEMOS / "qubit.esr").read_text()
# valid starting points: dense with constant detection (two demos), spectral form
BASES = (QUBIT, (DEMOS / "degenerate.esr").read_text(),
         spectral_scenario_text([1.0, -1.0], np.eye(2)))

KEYS = ("dimension", "state", "a0", "observable", "detection", "apparatus", "experiment",
        "row", "eigenvalue", "vector", "kind", "p", "theta", "phi", "mode", "trials", "seed",
        "stream", "event", "colour", "")
TOKENS = ("0", "1", "-1", "2", "0.5", "0.8", "1.5", "nan", "inf", "-inf", "1e308", "-1e308",
          "1e-320", "18446744073709551616", "a0", "x", "1,0", "0,1", "0,0", "-1,0", "1,0,0",
          "0.7071067811865476,0", "nan,0", "1e200,0", "constant", "expectation", "verify",
          "sample", "evolve")


def values(tokens):
    return st.lists(st.sampled_from(tokens), max_size=4).map(" ".join)


def lines(tokens):
    key_lines = st.builds("{}{}: {}".format, st.sampled_from(["", "", "  ", "  ", " "]),
                          st.sampled_from(KEYS), values(tokens))
    return st.one_of(key_lines, st.sampled_from(["", "# comment", "  # comment", "no colon"]))


@st.composite
def mutated(draw, bases, tokens) -> str:
    """One of ``bases`` with lines deleted, copied, swapped, inserted or given another value."""
    out = draw(st.sampled_from(bases)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(out) - 1))
        op = draw(st.sampled_from(["delete", "copy", "swap", "insert", "value"]))
        if op == "delete":  # every base has more lines than there are operations
            del out[i]
        elif op == "copy":
            out.insert(draw(st.integers(0, len(out))), out[i])
        elif op == "swap":
            j = draw(st.integers(0, len(out) - 1))
            out[i], out[j] = out[j], out[i]
        elif op == "insert":
            out.insert(i, draw(lines(tokens)))
        else:
            out[i] = f"{out[i].partition(':')[0]}: {draw(values(tokens))}"
    return "\n".join(out) + "\n"


scenario_texts = st.one_of(
    st.lists(lines(TOKENS), max_size=16).map(lambda body: "\n".join([HEADER, *body]) + "\n"),
    mutated(BASES, TOKENS),
)


@settings(max_examples=75, deadline=None)
@given(scenario_texts)
def test_parse_and_build_raise_only_scenario_errors(text):
    try:
        build_scenario(parse_scenario(text))
    except ScenarioParseError as err:
        assert 1 <= err.line <= max(1, len(text.splitlines()))
    except ScenarioValidationError:
        pass


# the CLI fuzz leaves out numbers that make a run long ("trials: 1e19" is legal)
CLI_TOKENS = tuple(t for t in TOKENS if t != "18446744073709551616")
QUBIT_BYTES = QUBIT.encode()
QUBIT_MUTANTS = st.one_of(
    mutated([QUBIT], CLI_TOKENS).map(str.encode),
    # a byte inserted anywhere, so some files are not valid UTF-8
    st.tuples(st.integers(0, len(QUBIT_BYTES)), st.binary(min_size=1, max_size=1)).map(
        lambda cut: QUBIT_BYTES[:cut[0]] + cut[1] + QUBIT_BYTES[cut[0]:]),
)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=QUBIT_MUTANTS)
def test_mutated_scenarios_exit_cleanly_on_every_verb(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "mutant.esr"
    path.write_bytes(data)
    for verb in ("verify", "sample", "evolve"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([verb, str(path)])
        assert code in (0, 1, 2)
        if code == 2:
            assert len(err.getvalue().splitlines()) == 1
            assert err.getvalue().startswith("esrsim: ")
