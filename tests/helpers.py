"""Shared builders for randomized test scenarios, and a record comparator."""

from __future__ import annotations

import math

import numpy as np

from esrsim import (
    ConstantDetection,
    ExpectationDetection,
    GeneralizedObservable,
    PureState,
    QuantumObservable,
)


def random_state(rng: np.random.Generator, dim: int) -> PureState:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 2.0) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (g + g.conj().T) / 2.0


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_observable(rng: np.random.Generator, dim: int,
                      degenerate: bool = False) -> QuantumObservable:
    """Random Hermitian observable; optionally with multiplicity > 1."""
    if not degenerate:
        return QuantumObservable.from_matrix(random_hermitian(rng, dim))
    n_distinct = int(rng.integers(1, dim))  # at least one repeated eigenvalue
    # the integers -4..4, widened only when more than 9 distinct values are needed
    pool = np.arange(9 if n_distinct <= 9 else 2 * n_distinct) - 4.0
    values = np.sort(rng.choice(pool, size=n_distinct, replace=False))
    multiplicity = np.ones(n_distinct, dtype=int)
    for _ in range(dim - n_distinct):
        multiplicity[rng.integers(0, n_distinct)] += 1
    diag = np.repeat(values, multiplicity)
    u = random_unitary(rng, dim)
    return QuantumObservable.from_matrix(u @ np.diag(diag) @ u.conj().T)


def random_detection(rng: np.random.Generator, dim: int):
    """Constant or expectation-valued detection with spectrum inside (0, 1)."""
    if rng.random() < 0.5:
        return ConstantDetection(float(rng.uniform(0.05, 0.95)))
    u = random_unitary(rng, dim)
    spectrum = rng.uniform(0.05, 0.95, size=dim)
    return ExpectationDetection(u @ np.diag(spectrum) @ u.conj().T)


def random_generalized(rng: np.random.Generator, dim: int, degenerate: bool = False,
                       detection=None) -> GeneralizedObservable:
    base = random_observable(rng, dim, degenerate=degenerate)
    if detection is None:
        detection = random_detection(rng, dim)
    a0 = float(base.eigenvalues[0] - rng.uniform(1.0, 3.0))
    return GeneralizedObservable(base, a0, detection)


def random_event(rng: np.random.Generator, gobs: GeneralizedObservable,
                 allow_a0: bool = True) -> frozenset:
    """Random subset of the outcome set (possibly empty)."""
    outcomes = gobs.outcomes if allow_a0 else gobs.outcomes[1:]
    mask = rng.integers(0, 2, size=outcomes.size).astype(bool)
    return frozenset(float(v) for v in outcomes[mask])


def scenario_stream(seed: int, count: int, max_dim: int = 8, degenerate_share: bool = True):
    """Deterministic stream of (gobs, psi) pairs with mixed detection models."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(2, max_dim + 1))
        degenerate = degenerate_share and dim > 2 and bool(rng.integers(0, 2))
        gobs = random_generalized(rng, dim, degenerate=degenerate)
        yield rng, gobs, random_state(rng, dim)


def spectral_scenario_text(values, vectors) -> str:
    """Scenario text with a spectral-form observable (eigenvalue k with column k
    of ``vectors``), the first basis state and constant detection 0.8."""
    dim = len(values)
    state = " ".join(["1,0"] + ["0,0"] * (dim - 1))
    lines = ["esrsim scenario v1", f"dimension: {dim}", f"state: {state}", "observable:"]
    for value, vector in zip(values, vectors.T):
        lines.append(f"  eigenvalue: {value!r}")
        lines.append("  vector: " + " ".join(f"{z.real},{z.imag}" for z in vector.tolist()))
    lines += ["detection:", "  kind: constant", "  p: 0.8"]
    return "\n".join(lines) + "\n"


def sigma_z_scenario(p_detect: float = 0.8, a0: float = 0.0):
    """The workhorse qubit fixture: diag(1, -1) with an equal superposition."""
    gobs = GeneralizedObservable.from_matrix(
        np.diag([1.0, -1.0]), ConstantDetection(p_detect), a0=a0)
    psi = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
    return gobs, psi


# Float tolerance of records_close: an absolute floor for deviations near 0
# (where one roundoff moves a value by many ulps) plus a few ulps of its size.
RECORD_ATOL = 1e-15
RECORD_ULPS = 8


def _float_bound(a: float, b: float) -> float:
    return RECORD_ATOL + RECORD_ULPS * math.ulp(max(abs(a), abs(b)))


def _sigmas_close(a: dict, b: dict) -> bool:
    """Sample-report sigma deviations ``|f - p| / se``: each may move by its own
    float bound plus the move its ``predicted`` is allowed, magnified by 1/se."""
    xs, ys = a["sigma_deviations"], b["sigma_deviations"]
    if not (isinstance(xs, list) and isinstance(ys, list) and len(xs) == len(ys)):
        return False
    for x, y, p, q, se in zip(xs, ys, a["predicted"], b["predicted"], a["standard_errors"]):
        if not (isinstance(x, float) and isinstance(y, float) and se > 0.0):
            if not records_close(x, y):  # None (an infinite deviation), or se = 0
                return False
        elif abs(x - y) > _float_bound(x, y) + _float_bound(p, q) / se:
            return False
    return True


def records_close(a, b) -> bool:
    """Whether two decoded JSON records agree: same keys, list lengths,
    strings, ints, bools and None, and floats within
    ``RECORD_ATOL + RECORD_ULPS * ulp(max(|a|, |b|))``. A sample report's
    ``sigma_deviations`` get the wider bound of ``_sigmas_close``."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return (a.keys() == b.keys()
                and ("sigma_deviations" not in a or _sigmas_close(a, b))
                and all(records_close(a[k], b[k]) for k in a if k != "sigma_deviations"))
    if isinstance(a, list):
        return len(a) == len(b) and all(map(records_close, a, b))
    if isinstance(a, float):
        return a == b or abs(a - b) <= _float_bound(a, b)
    return a == b
