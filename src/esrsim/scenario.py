"""Scenario files: a line-oriented text format describing one measurement setup.

Grammar (version header ``esrsim scenario v1``)::

    esrsim scenario v1
    # a comment takes a line of its own; comments and blank lines are ignored
    dimension: 2
    state: 0.7071067811865476,0 0.7071067811865476,0
    a0: 0
    observable:
      row: 1,0 0,0
      row: 0,0 -1,0
    detection:
      # `constant` needs `p:`; `expectation` needs `row:` lines
      kind: constant
      p: 0.8
    apparatus:
      theta: 0.0
      phi: 0.0
    experiment:
      mode: sample
      trials: 100000
      seed: 42
      stream: 0
      # whitespace-separated outcome values; the token `a0` names no registration
      event: 1
      event: a0 1

Files are UTF-8, lines are ``key: value``, section contents are indented by
exactly two spaces, and complex numbers are ``re,im`` pairs. ``a0`` (default:
the least eigenvalue minus 1, or farther below where that would clash),
``apparatus`` (pointer-coupling phases, in radians) and ``experiment``
(``mode`` one of verify, sample, evolve) are optional. The observable is
dense, one ``row:`` per matrix row, or spectral,
alternating ``eigenvalue:`` and ``vector:`` entries (unit eigenvectors,
orthonormal to ``model.BUILD_GATE_TOL``, spanning the space). Only ``row``,
``eigenvalue``, ``vector`` and ``event`` repeat; a second of any other key or
section, or an unknown key, is rejected at its line. Each value is parsed at
its own line, so the first bad line is reported; the rules that tie lines
together (required keys, one observable form, the detection kind) come after.

Parsing and the canonical serializer round-trip: ``parse(serialize(s)) == s``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .apparatus import ApparatusModel
from .errors import (
    EsrError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .linalg import _cluster, frobenius
from .model import (
    BUILD_GATE_TOL,
    ConstantDetection,
    DetectionModel,
    ExpectationDetection,
    GeneralizedObservable,
    PureState,
    QuantumObservable,
    split_event,
)

__all__ = ["BuiltScenario", "Scenario", "build_scenario", "load_scenario", "parse_scenario",
           "scenario_digest", "serialize_scenario"]

HEADER = "esrsim scenario v1"
MODES = ("verify", "sample", "evolve")


@dataclass
class DetectionSpec:
    kind: str
    p: float | None = None
    rows: list[list[complex]] | None = None


@dataclass
class ExperimentSpec:
    mode: str = "verify"
    trials: int = 10000
    seed: int = 0
    stream: int = 0
    events: list[list[float | str]] = field(default_factory=list)


@dataclass
class Scenario:
    """Parsed scenario file content, prior to model validation."""

    dimension: int
    state: list[complex]
    detection: DetectionSpec
    observable_rows: list[list[complex]] | None = None
    observable_spectral: list[tuple[float, list[complex]]] | None = None
    a0: float | None = None
    theta: float = 0.0
    phi: float = 0.0
    experiment: ExperimentSpec = field(default_factory=ExperimentSpec)


# Value parsers: ``parse(value, key, line)`` returns the value or raises a
# ScenarioParseError naming the key at its line.

def _parse_complex(token: str, key: str, line: int) -> complex:
    try:
        real, imag = token.split(",")  # a token without exactly one comma fails to unpack
        return complex(float(real), float(imag))
    except ValueError:
        raise ScenarioParseError(line, f"{key}: expected a re,im pair, got {token!r}") from None


def _parse_complex_vector(value: str, key: str, line: int) -> list[complex]:
    tokens = value.split()
    if not tokens:
        raise ScenarioParseError(line, f"{key}: expected at least one re,im entry")
    return [_parse_complex(t, key, line) for t in tokens]


def _parse_float(value: str, key: str, line: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ScenarioParseError(line, f"{key}: expected a number, got {value!r}") from None


def _parse_int(value: str, key: str, line: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ScenarioParseError(line, f"{key}: expected an integer, got {value!r}") from None


def _parse_count(value: str, key: str, line: int) -> int:
    number = _parse_int(value, key, line)
    if number < 1:
        raise ScenarioParseError(line, f"{key}: must be at least 1, got {number}")
    return number


def _parse_uint64(value: str, key: str, line: int) -> int:
    number = _parse_int(value, key, line)
    if not 0 <= number < 2 ** 64:
        raise ScenarioParseError(line, f"{key}: must lie in [0, 2**64), got {number}")
    return number


def _parse_event(value: str, key: str, line: int) -> list[float | str]:
    return ["a0" if token == "a0" else _parse_float(token, key, line) for token in value.split()]


def _one_of(*choices: str):
    def parse(value: str, key: str, line: int) -> str:
        if value not in choices:
            raise ScenarioParseError(line, f"{key}: must be one of {', '.join(choices)}, "
                                           f"got {value!r}")
        return value
    return parse


# Every key of the top level (None) and of each section: (value parser, may repeat).
_KEYS = {
    None: {"dimension": (_parse_count, False), "state": (_parse_complex_vector, False),
           "a0": (_parse_float, False)},
    "observable": {"row": (_parse_complex_vector, True), "eigenvalue": (_parse_float, True),
                   "vector": (_parse_complex_vector, True)},
    "detection": {"kind": (_one_of("constant", "expectation"), False),
                  "p": (_parse_float, False), "row": (_parse_complex_vector, True)},
    "apparatus": {"theta": (_parse_float, False), "phi": (_parse_float, False)},
    "experiment": {"mode": (_one_of(*MODES), False), "trials": (_parse_count, False),
                   "seed": (_parse_uint64, False), "stream": (_parse_uint64, False),
                   "event": (_parse_event, True)},
}


def _split_line(raw: str, line: int) -> tuple[int, str, str]:
    """Return (indent, key, value) for one non-blank, non-comment line."""
    stripped = raw.rstrip()
    indent = len(stripped) - len(stripped.lstrip(" "))
    if indent not in (0, 2):
        raise ScenarioParseError(line, f"indentation must be 0 or 2 spaces, got {indent}")
    body = stripped.lstrip(" ")
    if ":" not in body:
        raise ScenarioParseError(line, f"expected 'key: value', got {body!r}")
    key, _, value = body.partition(":")
    return indent, key.strip(), value.strip()


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises :class:`ScenarioParseError` with a line number."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise ScenarioParseError(1, f"first line must be {HEADER!r}")

    # parsed values by section (None: the top level); a repeating key holds a list
    found: dict[str | None, dict[str, object]] = {None: {}}
    section_lines: dict[str, int] = {}
    current: str | None = None
    for i, raw in enumerate(lines[1:], start=2):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        indent, key, value = _split_line(raw, i)
        if indent == 0:
            current = None
            if key in _KEYS:
                if value:
                    raise ScenarioParseError(i, f"{key}: a section takes no inline value")
                if key in found:
                    raise ScenarioParseError(i, f"{key}: duplicate section")
                found[key], section_lines[key], current = {}, i, key
                continue
        elif current is None:
            raise ScenarioParseError(i, "indented line outside any section")
        where = "" if current is None else f" in section {current!r}"
        if key not in _KEYS[current]:
            raise ScenarioParseError(i, f"unknown key {key!r}{where}")
        parse, repeats = _KEYS[current][key]
        entries = found[current]
        if repeats:
            entries.setdefault(key, []).append(parse(value, key, i))
        elif key in entries:
            raise ScenarioParseError(i, f"{key}: duplicate key{where}")
        else:
            entries[key] = parse(value, key, i)

    top = found[None]
    for required in ("dimension", "state", "observable", "detection"):
        if required not in top and required not in found:
            raise ScenarioParseError(len(lines), f"missing required key {required!r}")
    rows, spectral = _observable_form(found["observable"], section_lines["observable"])
    apparatus = found.get("apparatus", {})
    experiment = found.get("experiment", {})
    events = experiment.pop("event", [])
    return Scenario(
        dimension=top["dimension"], state=top["state"], a0=top.get("a0"),
        detection=_detection_spec(found["detection"], section_lines["detection"]),
        observable_rows=rows, observable_spectral=spectral,
        theta=apparatus.get("theta", 0.0), phi=apparatus.get("phi", 0.0),
        experiment=ExperimentSpec(**experiment, events=events),
    )


def _observable_form(entries: dict, line: int):
    """(rows, None) for the dense form, (None, [(eigenvalue, vector), ...]) for the spectral."""
    rows = entries.get("row")
    eigenvalues = entries.get("eigenvalue", [])
    vectors = entries.get("vector", [])
    if bool(rows) == bool(eigenvalues or vectors):
        raise ScenarioParseError(line, "observable needs either row or eigenvalue/vector entries")
    if len(eigenvalues) != len(vectors):
        raise ScenarioParseError(line, "observable needs exactly one vector per eigenvalue")
    return rows, (list(zip(eigenvalues, vectors)) if eigenvalues else None)


def _detection_spec(entries: dict, line: int) -> DetectionSpec:
    kind = entries.get("kind")
    if kind is None:
        raise ScenarioParseError(line, "detection needs a kind")
    needs, other = ("p", "row") if kind == "constant" else ("row", "p")
    if entries.keys() != {"kind", needs}:
        raise ScenarioParseError(line, f"{kind} detection needs {needs} and no {other}")
    return DetectionSpec(kind=kind, p=entries.get("p"), rows=entries.get("row"))


def _format_float(x: float) -> str:
    return repr(float(x))


def _format_complex(z: complex) -> str:
    return f"{_format_float(z.real)},{_format_float(z.imag)}"


def _format_vector(vec) -> str:
    return " ".join(_format_complex(complex(z)) for z in vec)


def serialize_scenario(sc: Scenario) -> str:
    """Canonical text form; defaults are written out explicitly."""
    out = [HEADER]
    out.append(f"dimension: {sc.dimension}")
    out.append(f"state: {_format_vector(sc.state)}")
    if sc.a0 is not None:
        out.append(f"a0: {_format_float(sc.a0)}")
    out.append("observable:")
    if sc.observable_rows is not None:
        for row in sc.observable_rows:
            out.append(f"  row: {_format_vector(row)}")
    else:
        for eigenvalue, vector in sc.observable_spectral:
            out.append(f"  eigenvalue: {_format_float(eigenvalue)}")
            out.append(f"  vector: {_format_vector(vector)}")
    out.append("detection:")
    out.append(f"  kind: {sc.detection.kind}")
    if sc.detection.p is not None:
        out.append(f"  p: {_format_float(sc.detection.p)}")
    if sc.detection.rows is not None:
        for row in sc.detection.rows:
            out.append(f"  row: {_format_vector(row)}")
    out.append("apparatus:")
    out.append(f"  theta: {_format_float(sc.theta)}")
    out.append(f"  phi: {_format_float(sc.phi)}")
    exp = sc.experiment
    out.append("experiment:")
    out.append(f"  mode: {exp.mode}")
    out.append(f"  trials: {exp.trials}")
    out.append(f"  seed: {exp.seed}")
    out.append(f"  stream: {exp.stream}")
    for event in exp.events:
        tokens = ["a0" if v == "a0" else _format_float(v) for v in event]
        out.append(f"  event: {' '.join(tokens)}")
    return "\n".join(out) + "\n"


def scenario_digest(sc: Scenario) -> str:
    """SHA-256 of the canonical serialization."""
    return hashlib.sha256(serialize_scenario(sc).encode("utf-8")).hexdigest()


@dataclass(frozen=True, eq=False)
class BuiltScenario:
    """Validated model objects assembled from a parsed scenario; ``events`` is
    one read-only boolean row over ``gobs.outcomes`` (a0 first) per event line."""

    gobs: GeneralizedObservable
    psi: PureState
    apparatus: ApparatusModel
    experiment: ExperimentSpec
    events: np.ndarray
    digest: str


def _fail(field_name: str, message: str) -> ScenarioValidationError:
    return ScenarioValidationError(f"{field_name}: {message}")


def _build(field_name: str, factory, *args):
    """``factory(*args)``, reporting a model error as a validation error naming the field.

    Floating-point overflow raises here instead of warning, so finite numbers
    too large to compute with get the same one-line error as any other.
    """
    try:
        with np.errstate(over="raise"):
            return factory(*args)
    except FloatingPointError as exc:
        raise _fail(field_name, f"numbers too large to compute with ({exc})") from exc
    except (EsrError, ValueError) as exc:
        raise _fail(field_name, str(exc)) from exc


def _rectangular(rows, field_name: str, shape: tuple[int, int]) -> np.ndarray:
    try:
        matrix = np.array(rows, dtype=complex)
    except ValueError as exc:
        raise _fail(field_name, "rows have inconsistent lengths") from exc
    if matrix.shape != shape:
        raise _fail(field_name, f"expected shape {shape}, got {matrix.shape}")
    return matrix


def _build_observable(sc: Scenario) -> QuantumObservable:
    dim = sc.dimension
    if sc.observable_rows is not None:
        matrix = _rectangular(sc.observable_rows, "observable", (dim, dim))
        return _build("observable", QuantumObservable.from_matrix, matrix)

    pairs = sc.observable_spectral
    vectors = _rectangular([vec for _, vec in pairs], "observable", (dim, dim))
    values = np.array([ev for ev, _ in pairs], dtype=float)
    # checked before any arithmetic, which would warn on inf before failing
    if not (np.isfinite(values).all() and np.isfinite(vectors).all()):
        raise _fail("observable", "eigenvalues and eigenvectors must be finite")

    def spectral() -> QuantumObservable:
        defect = frobenius(vectors.conj() @ vectors.T - np.eye(dim))
        if not defect <= BUILD_GATE_TOL:
            raise ValueError(f"eigenvectors are not orthonormal (defect {defect:.3e})")
        order = np.argsort(values, kind="stable")
        return QuantumObservable(*_cluster(values[order], vectors[order].T))

    return _build("observable", spectral)


def _build_detection(sc: Scenario) -> DetectionModel:
    if sc.detection.kind == "constant":
        return _build("detection", ConstantDetection, sc.detection.p)
    matrix = _rectangular(sc.detection.rows, "detection", (sc.dimension, sc.dimension))
    return _build("detection", ExpectationDetection, matrix)


def build_scenario(sc: Scenario) -> BuiltScenario:
    """Validate a parsed scenario and assemble the model objects.

    Raises :class:`ScenarioValidationError` naming the offending field.
    """
    if len(sc.state) != sc.dimension:
        raise _fail("state", f"needs {sc.dimension} amplitudes, got {len(sc.state)}")
    psi = _build("state", PureState, np.array(sc.state, dtype=complex))

    base = _build_observable(sc)
    detection = _build_detection(sc)
    gobs = _build("a0", GeneralizedObservable, base, sc.a0, detection)

    events = np.zeros((len(sc.experiment.events), gobs.outcomes.size), dtype=bool)
    for row, event in zip(events, sc.experiment.events):
        for v in event:
            hit = _build("event", split_event, gobs, (gobs.a0 if v == "a0" else v,))
            if not hit.any():
                raise _fail("event", f"{v!r} matches no outcome of the observable")
            row |= hit
    events.flags.writeable = False

    return BuiltScenario(
        gobs=gobs,
        psi=psi,
        apparatus=_build("apparatus", ApparatusModel, sc.theta, sc.phi),
        experiment=sc.experiment,
        events=events,
        digest=scenario_digest(sc),
    )


def load_scenario(path) -> tuple[Scenario, BuiltScenario]:
    """Read, parse and build a UTF-8 scenario file."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte lies on the line after the last break before it, as parse_scenario counts
        line = len((data[:exc.start].decode("utf-8") + "-").splitlines())
        raise ScenarioParseError(line, f"not valid UTF-8 (byte {data[exc.start]:#04x})") from None
    sc = parse_scenario(text)
    return sc, build_scenario(sc)
