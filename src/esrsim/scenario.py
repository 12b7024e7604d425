"""Scenario files: a line-oriented text format describing one measurement setup.

Grammar (version header ``esrsim scenario v1``)::

    esrsim scenario v1
    # comment lines and blank lines are ignored
    dimension: 2
    state: 0.7071067811865476,0 0.7071067811865476,0
    a0: 0                      # optional; default is min(eigenvalue) - 1
    observable:                # dense form: one `row:` per matrix row
      row: 1,0 0,0
      row: 0,0 -1,0
    detection:
      kind: constant           # `constant` needs `p:`; `expectation` needs `row:` lines
      p: 0.8
    apparatus:                 # optional pointer-coupling phases (radians)
      theta: 0.0
      phi: 0.0
    experiment:                # optional
      mode: sample             # verify | sample | evolve
      trials: 100000
      seed: 42
      stream: 0
      event: 1                 # whitespace-separated outcome values; the token
      event: a0 1              # `a0` names the no-registration outcome

Every line is ``key: value``; section contents are indented by exactly two
spaces. Complex numbers are ``re,im`` pairs. The observable may instead be
given in spectral form as alternating ``eigenvalue:`` and ``vector:`` entries
(one unit eigenvector per eigenvalue; the vectors must be orthonormal and
span the space). Unknown or duplicated keys are rejected.

Parsing and the canonical serializer round-trip: ``parse(serialize(s)) == s``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .apparatus import ApparatusModel
from .errors import (
    EsrError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .linalg import _cluster, default_cluster_tol, frobenius
from .model import (
    ConstantDetection,
    DetectionModel,
    ExpectationDetection,
    GeneralizedObservable,
    PureState,
    QuantumObservable,
    canonical_outcome,
    default_no_registration_outcome,
)

HEADER = "esrsim scenario v1"
MODES = ("verify", "sample", "evolve")
# Orthonormality gate for spectral-form input; coarser than the 1e-10 the
# verification suite asserts, so mild corruption is runnable and reportable.
ORTHONORMALITY_TOL = 1e-6

_TOP_KEYS = ("dimension", "state", "a0", "observable", "detection", "apparatus", "experiment")
_SECTION_KEYS = {
    "observable": ("row", "eigenvalue", "vector"),
    "detection": ("kind", "p", "row"),
    "apparatus": ("theta", "phi"),
    "experiment": ("mode", "trials", "seed", "stream", "event"),
}


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


def _parse_complex(token: str, line: int) -> complex:
    parts = token.split(",")
    if len(parts) != 2:
        raise ScenarioParseError(line, f"expected a re,im pair, got {token!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ScenarioParseError(line, f"bad complex number {token!r}") from None


def _parse_complex_vector(value: str, line: int) -> list[complex]:
    tokens = value.split()
    if not tokens:
        raise ScenarioParseError(line, "expected at least one re,im entry")
    return [_parse_complex(t, line) for t in tokens]


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

    top: dict[str, object] = {}
    sections: dict[str, list[tuple[int, str, str]]] = {}
    section_lines: dict[str, int] = {}
    current: str | None = None
    for i, raw in enumerate(lines[1:], start=2):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        indent, key, value = _split_line(raw, i)
        if indent == 0:
            current = None
            if key not in _TOP_KEYS:
                raise ScenarioParseError(i, f"unknown key {key!r}")
            if key in _SECTION_KEYS:
                if value:
                    raise ScenarioParseError(i, f"section {key!r} takes no inline value")
                if key in sections:
                    raise ScenarioParseError(i, f"duplicate section {key!r}")
                sections[key] = []
                section_lines[key] = i
                current = key
            else:
                if key in top:
                    raise ScenarioParseError(i, f"duplicate key {key!r}")
                top[key] = (i, value)
        else:
            if current is None:
                raise ScenarioParseError(i, "indented line outside any section")
            if key not in _SECTION_KEYS[current]:
                raise ScenarioParseError(i, f"unknown key {key!r} in section {current!r}")
            sections[current].append((i, key, value))

    for required in ("dimension", "state", "observable", "detection"):
        if required not in top and required not in sections:
            raise ScenarioParseError(len(lines), f"missing required key {required!r}")

    line, value = top["dimension"]
    dimension = _parse_int(value, "dimension", line)
    if dimension < 1:
        raise ScenarioParseError(line, "dimension must be positive")
    line, value = top["state"]
    state = _parse_complex_vector(value, line)

    a0 = None
    if "a0" in top:
        line, value = top["a0"]
        a0 = _parse_float(value, "a0", line)

    rows, spectral = _parse_observable(sections["observable"], section_lines["observable"])
    detection = _parse_detection(sections["detection"], section_lines["detection"])

    theta = phi = 0.0
    for line, key, value in sections.get("apparatus", []):
        if key == "theta":
            theta = _parse_float(value, key, line)
        else:
            phi = _parse_float(value, key, line)

    experiment = _parse_experiment(sections.get("experiment", []))

    return Scenario(
        dimension=dimension, state=state, detection=detection,
        observable_rows=rows, observable_spectral=spectral, a0=a0,
        theta=theta, phi=phi, experiment=experiment,
    )


def _parse_observable(entries, section_line: int):
    rows: list[list[complex]] = []
    eigenvalues: list[tuple[int, float]] = []
    vectors: list[list[complex]] = []
    for line, key, value in entries:
        if key == "row":
            rows.append(_parse_complex_vector(value, line))
        elif key == "eigenvalue":
            eigenvalues.append((line, _parse_float(value, key, line)))
        else:
            vectors.append(_parse_complex_vector(value, line))
    if rows and (eigenvalues or vectors):
        raise ScenarioParseError(section_line, "observable must be dense or spectral, not both")
    if not rows:
        if not eigenvalues:
            raise ScenarioParseError(section_line,
                                     "observable needs row or eigenvalue/vector entries")
        if len(eigenvalues) != len(vectors):
            raise ScenarioParseError(eigenvalues[-1][0],
                                     "need exactly one vector per eigenvalue")
        return None, [(ev, vec) for (_, ev), vec in zip(eigenvalues, vectors)]
    return rows, None


def _parse_detection(entries, section_line: int) -> DetectionSpec:
    kind = None
    p = None
    rows: list[list[complex]] = []
    for line, key, value in entries:
        if key == "kind":
            if value not in ("constant", "expectation"):
                raise ScenarioParseError(line, f"detection kind must be constant or "
                                               f"expectation, got {value!r}")
            kind = value
        elif key == "p":
            p = _parse_float(value, key, line)
        else:
            rows.append(_parse_complex_vector(value, line))
    if kind is None:
        raise ScenarioParseError(section_line, "detection needs a kind")
    if kind == "constant" and (p is None or rows):
        raise ScenarioParseError(section_line, "constant detection needs p and no rows")
    if kind == "expectation" and (not rows or p is not None):
        raise ScenarioParseError(section_line, "expectation detection needs row entries and no p")
    return DetectionSpec(kind=kind, p=p, rows=rows or None)


def _parse_experiment(entries) -> ExperimentSpec:
    spec = ExperimentSpec()
    seen = set()
    for line, key, value in entries:
        if key == "event":
            event: list[float | str] = []
            for token in value.split():
                event.append("a0" if token == "a0" else _parse_float(token, key, line))
            spec.events.append(event)
            continue
        if key in seen:
            raise ScenarioParseError(line, f"duplicate key {key!r} in experiment")
        seen.add(key)
        if key == "mode":
            if value not in MODES:
                raise ScenarioParseError(line, f"mode must be one of {', '.join(MODES)}")
            spec.mode = value
        elif key == "trials":
            spec.trials = _parse_int(value, key, line)
            if spec.trials < 1:
                raise ScenarioParseError(line, "trials must be at least 1")
        else:
            number = _parse_int(value, key, line)
            if not 0 <= number < 2 ** 64:
                raise ScenarioParseError(line, f"{key}: must lie in [0, 2**64), got {number}")
            setattr(spec, key, number)
    return spec


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


@dataclass(frozen=True)
class BuiltScenario:
    """Validated model objects assembled from a parsed scenario."""

    gobs: GeneralizedObservable
    psi: PureState
    apparatus: ApparatusModel
    experiment: ExperimentSpec
    events: tuple[frozenset, ...]
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
        if not defect <= ORTHONORMALITY_TOL:
            raise ValueError(f"eigenvectors are not orthonormal (defect {defect:.3e})")
        order = np.argsort(values, kind="stable")
        ordered = values[order]
        return QuantumObservable(_cluster(ordered, vectors[order].T,
                                          default_cluster_tol(ordered)))

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
    a0 = sc.a0 if sc.a0 is not None else default_no_registration_outcome(base)
    gobs = _build("a0", GeneralizedObservable, base, a0, detection)

    events = []
    for event in sc.experiment.events:
        resolved = []
        for v in event:
            value = gobs.a0 if v == "a0" else _build("event", canonical_outcome, gobs, v)
            if value is None:
                raise _fail("event", f"{v!r} matches no outcome of the observable")
            resolved.append(value)
        events.append(frozenset(resolved))

    return BuiltScenario(
        gobs=gobs,
        psi=psi,
        apparatus=_build("apparatus", ApparatusModel.for_observable, gobs, sc.theta, sc.phi),
        experiment=sc.experiment,
        events=tuple(events),
        digest=scenario_digest(sc),
    )


def load_scenario(path) -> tuple[Scenario, BuiltScenario]:
    """Read, parse and build a scenario file."""
    with open(path, "r", encoding="utf-8") as handle:
        sc = parse_scenario(handle.read())
    return sc, build_scenario(sc)
