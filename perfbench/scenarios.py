"""Seeded scenario generator for the benchmark workloads.

A scenario is a pure function of (seed, dimension, detection spectrum): a
nondegenerate random Hermitian observable in dense form, an ``expectation``
detection operator with its spectrum drawn from the given interval, a random
state, nonzero apparatus phases and two events. Every float goes through
``float(...)`` before it reaches the serializer, because ``repr`` of a numpy
scalar writes ``np.float64(...)``, which the parser rejects.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from esrsim.scenario import (
    DetectionSpec,
    ExperimentSpec,
    Scenario,
    parse_scenario,
    scenario_digest,
    serialize_scenario,
)


def _complex_list(values) -> list[complex]:
    return [complex(float(z.real), float(z.imag)) for z in values]


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian(m: np.ndarray) -> np.ndarray:
    # (m + m^H) / 2 is Hermitian bit for bit, so the parser's gate always passes
    return (m + m.conj().T) / 2.0


def make_scenario(seed: int, dim: int, detection: tuple[float, float]) -> Scenario:
    """The scenario of one seed and dimension, detection spectrum in ``detection``."""
    rng = np.random.default_rng([seed, dim])
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    observable = _hermitian(a)
    u = _random_unitary(rng, dim)
    spectrum = rng.uniform(*detection, size=dim)
    b = _hermitian((u * spectrum) @ u.conj().T)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    theta, phi = (float(x) for x in rng.uniform(0.1, 3.0, size=2))
    eigs = np.linalg.eigvalsh(observable)
    events = [[float(eigs[0])], ["a0", float(eigs[-1])]]
    experiment = ExperimentSpec(mode="sample", trials=100000,
                                seed=int(rng.integers(0, 2 ** 63)), stream=0,
                                events=events)
    return Scenario(
        dimension=dim,
        state=_complex_list(psi),
        detection=DetectionSpec(kind="expectation",
                                rows=[_complex_list(row) for row in b]),
        observable_rows=[_complex_list(row) for row in observable],
        theta=theta,
        phi=phi,
        experiment=experiment,
    )


def write_scenario(seed: int, dim: int, detection: tuple[float, float],
                   directory: Path) -> tuple[Path, str]:
    """Write the scenario file and return (path, scenario digest).

    Raises RuntimeError if the text does not round-trip through the parser
    or the digest does not match the file's bytes.
    """
    sc = make_scenario(seed, dim, detection)
    text = serialize_scenario(sc)
    if parse_scenario(text) != sc:
        raise RuntimeError(f"scenario d={dim} seed={seed} does not round-trip")
    digest = scenario_digest(sc)
    if digest != hashlib.sha256(text.encode("utf-8")).hexdigest():
        raise RuntimeError(f"scenario d={dim} seed={seed}: digest mismatch")
    path = Path(directory) / f"scenario-d{dim}-seed{seed}.esr"
    path.write_text(text, encoding="utf-8")
    return path, digest
