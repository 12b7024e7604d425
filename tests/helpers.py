"""Shared builders for randomized test scenarios, a record comparator, the
linear-algebra oracles of the kernel tests, the per-value reference forms
of the ``verify`` checks, the value matcher of the event-resolver tests, and
the event complement that is the oracle of the no-branch update."""

from __future__ import annotations

import math

import numpy as np

from esrsim import (
    ConstantDetection,
    ExpectationDetection,
    GeneralizedObservable,
    PovAxiomReport,
    PureState,
    QuantumObservable,
    detection_probability,
    measurement_operators,
    nonselective_state,
    outcome_probability,
    post_measurement_density,
    post_measurement_state_yes,
    split_event,
    state_after_outcome,
    to_density,
)
from esrsim import linalg, model
from esrsim.model import _match_atol


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


def partial_trace_second(m: np.ndarray, dim_first: int, dim_second: int) -> np.ndarray:
    """Trace out the second factor of an operator on a first-factor-major product space."""
    return np.einsum("iaja->ij", m.reshape(dim_first, dim_second, dim_first, dim_second))


def install_projectors(observable: QuantumObservable, projectors) -> QuantumObservable:
    """Put the ``(K, d, d)`` stack ``projectors`` in place of the built
    ``observable``'s own and return the observable. The library cannot build
    such an observable: it derives each projector from an eigenspace basis as
    ``B B†``, which is Hermitian and positive semidefinite, with the signs of
    zero the product gives. Use it only for a corruption that no basis can
    express."""
    stack = np.array(projectors, dtype=complex)
    assert stack.shape == observable.projectors.shape
    stack.flags.writeable = False
    object.__setattr__(observable, "projectors", stack)
    return observable


def reconstruct(obs: QuantumObservable) -> np.ndarray:
    """``sum(a_k * P_k)``, the matrix an observable's spectral form stands for."""
    out = np.zeros((obs.dim, obs.dim), dtype=complex)
    for a, p in zip(obs.eigenvalues, obs.projectors):
        out += a * p
    return out


def _nearest_index(sorted_values: np.ndarray, value: float) -> int | None:
    """Index of the entry nearest ``value`` within the match window or the
    merge tolerance of ``sorted_values``, else None."""
    i = int(np.searchsorted(sorted_values, value))
    dist = {k: abs(float(sorted_values[k]) - value) for k in (i - 1, i)
            if 0 <= k < sorted_values.size}
    best = min(dist, key=dist.get)  # the lower neighbour on a tie
    window = max(_match_atol(value), linalg.default_cluster_tol(sorted_values))
    return best if dist[best] <= window else None


def complement_event(gobs: GeneralizedObservable, event) -> frozenset:
    """Outcomes of the observable not contained in the event."""
    return frozenset(float(v) for v in gobs.outcomes[~split_event(gobs, event)])


def reference_projector_sums(observable: QuantumObservable, masks: np.ndarray) -> np.ndarray:
    """``model._projector_sums`` as it was first written: each row's projectors
    added one by one, in ascending k, into zeros."""
    stack = observable.projectors
    out = np.zeros((len(masks), observable.dim, observable.dim), dtype=complex)
    for total, mask in zip(out, masks):
        for k in np.flatnonzero(mask):
            total += stack[k]
    return out


def spectral_defects(obs: QuantumObservable, source: np.ndarray | None = None) -> dict[str, float]:
    """Frobenius-norm defects of an observable's spectral invariants.

    Keys: ``completeness`` (sum of projectors vs identity), ``hermiticity``,
    ``idempotency``, ``orthogonality`` (worst cross product), and
    ``reconstruction`` when ``source`` is given.
    """
    norm = np.linalg.norm
    out = {
        "completeness": norm(sum(obs.projectors) - np.eye(obs.dim)),
        "hermiticity": max(norm(p - p.conj().T) for p in obs.projectors),
        "idempotency": max(norm(p @ p - p) for p in obs.projectors),
        "orthogonality": max((norm(p @ q) for i, p in enumerate(obs.projectors)
                              for q in obs.projectors[i + 1:]), default=0.0),
    }
    if source is not None:
        out["reconstruction"] = norm(reconstruct(obs) - source)
    return {name: float(value) for name, value in out.items()}


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


# Reference forms of the verify checks as they were written before events were
# resolved to boolean rows once: every check matches its event's values again,
# and every effect pays its own detection probability and adds its projectors
# one by one. The resolved path must reproduce their numbers bit for bit.

def reference_effect(gobs: GeneralizedObservable, psi: PureState, event) -> np.ndarray:
    row = split_event(gobs, event)
    pd = detection_probability(gobs, psi)
    summed = np.zeros((gobs.dim, gobs.dim), dtype=complex)
    for k in np.flatnonzero(row[1:]):
        summed += gobs.base.projectors[k]
    op = pd * summed
    if row[0]:
        op += (1.0 - pd) * np.eye(gobs.dim)
    return op


def reference_event_subsets(outcomes: np.ndarray, rng: np.random.Generator,
                            limit: int) -> list[tuple[float, ...]]:
    values = [float(v) for v in outcomes]
    n = len(values)
    if 2 ** n <= limit:
        rows = ([bits >> i & 1 for i in range(n)] for bits in range(2 ** n))
    else:
        rows = rng.integers(0, 2, size=(limit, n)).astype(bool)
    return [tuple(v for v, on in zip(values, row) if on) for row in rows]


def reference_pov_axioms(gobs: GeneralizedObservable, psi: PureState,
                         partition_trials: int = 50, seed: int = 0) -> PovAxiomReport:
    outcomes = gobs.outcomes
    rng = np.random.default_rng(seed)

    def op(values) -> np.ndarray:
        return reference_effect(gobs, psi, values)

    normalization = float(np.linalg.norm(op(outcomes) - np.eye(gobs.dim)))
    subsets = reference_event_subsets(outcomes, rng, limit=1024)
    positivity = 0.0
    for s in subsets:
        eigs = np.linalg.eigvalsh(op(s))
        positivity = max(positivity, -float(eigs[0]), float(eigs[-1]) - 1.0, 0.0)
    additivity = 0.0
    commutativity = 0.0
    n = outcomes.size
    for _ in range(partition_trials):
        labels = rng.integers(0, rng.integers(1, n + 1), size=n)
        total = sum(op(outcomes[labels == g]) for g in np.unique(labels))
        additivity = max(additivity, float(np.linalg.norm(total - op(outcomes))))
        split = rng.integers(0, 3, size=n)
        x, y = outcomes[split == 0], outcomes[split == 1]
        additivity = max(additivity, float(np.linalg.norm(
            op(np.concatenate([x, y])) - op(x) - op(y))))
        x = outcomes[rng.integers(0, 2, size=n).astype(bool)]
        y = outcomes[rng.integers(0, 2, size=n).astype(bool)]
        tx, ty = op(x), op(y)
        commutativity = max(commutativity, float(np.linalg.norm(tx @ ty - ty @ tx)))
    return PovAxiomReport(normalization, positivity, additivity, commutativity,
                          len(subsets) + 3 * partition_trials)


def reference_event_checks(gobs: GeneralizedObservable, psi: PureState,
                           partition_trials: int, seed: int) -> dict[str, float]:
    """The checks of ``measurement.verification_checks`` that evaluate events."""
    report = reference_pov_axioms(gobs, psi, partition_trials, seed)
    checks = {"pov-" + name: value for name, value in report.as_dict().items()}
    subsets = reference_event_subsets(gobs.outcomes, np.random.default_rng(seed), limit=256)
    pd, weights = detection_probability(gobs, psi), model._born_weights(gobs, psi)

    # each value raw, as the checks read them: through stacks of one, unclamped
    def overall(s) -> float:
        return model._overall(pd, weights, split_event(gobs, s)[None])[0]

    def conditional(s) -> float:
        return model._conditional(gobs, psi, split_event(gobs, s)[None, 1:])[0]

    def trace_form(s) -> float:
        return model._trace_forms(psi, reference_effect(gobs, psi, s)[None])[0]

    checks["factorization"] = max(abs(overall(s) - pd * conditional(s))
                                  for s in subsets if not split_event(gobs, s)[0])
    checks["probability-form-agreement"] = max(abs(overall(s) - trace_form(s)) for s in subsets)
    singles = [overall((v,)) for v in gobs.outcomes]
    checks["total-probability"] = abs(sum(singles) - 1.0)
    worst = 0.0
    for s in subsets:
        if not s or overall(s) < 1e-9:
            continue
        vector_form = to_density(post_measurement_state_yes(gobs, psi, s)).matrix
        density_form = post_measurement_density(gobs, psi, s).matrix
        worst = max(worst, float(np.linalg.norm(vector_form - density_form)))
    checks["update-form-agreement"] = worst
    family = measurement_operators(gobs, psi)
    checks["singleton-consistency"] = max(
        abs(outcome_probability(family, k) - p) for k, p in enumerate(singles))
    # one outcome at a time: its probability, then its Lüders state
    weighted = np.zeros((gobs.dim, gobs.dim), dtype=complex)
    for k in range(len(family)):
        p = outcome_probability(family, k)
        if p > 1e-12:
            weighted += p * to_density(state_after_outcome(family, k)).matrix
    checks["nonselective-forms"] = float(np.linalg.norm(nonselective_state(family).matrix - weighted))
    worst = 0.0
    for n in range(1, len(family)):
        if outcome_probability(family, n) < 1e-9:
            continue
        post_family = measurement_operators(gobs, state_after_outcome(family, n))
        for m in range(1, len(family)):
            if m != n:
                worst = max(worst, outcome_probability(post_family, m))
    checks["repeatability"] = worst
    return checks


def dense_form_gaps(gobs: GeneralizedObservable, psi: PureState, seed: int) -> dict[str, float]:
    """Over the random events of ``reference_event_checks``, the largest gap
    between each event kernel ``verify`` reads and a dense form built here:
    ``model._overall`` against <psi|T|psi> for the effect T of
    ``reference_effect``, ``model._conditional`` against <psi|sum_k P_k|psi>
    for the projectors added one by one, and ``model._trace_forms`` against
    Tr[W T], summed entry by entry over the density W = |psi><psi|."""
    subsets = reference_event_subsets(gobs.outcomes, np.random.default_rng(seed), limit=256)
    pd, weights = detection_probability(gobs, psi), model._born_weights(gobs, psi)
    v = psi.amplitudes
    w = np.outer(v, v.conj())
    gaps = {"overall": 0.0, "conditional": 0.0, "trace-form": 0.0}
    for s in subsets:
        row = split_event(gobs, s)
        t = reference_effect(gobs, psi, s)
        projected = reference_projector_sums(gobs.base, row[None, 1:])[0]
        pairs = {"overall": (model._overall(pd, weights, row[None])[0], np.vdot(v, t @ v)),
                 "conditional": (model._conditional(gobs, psi, row[None, 1:])[0],
                                 np.vdot(v, projected @ v)),
                 "trace-form": (model._trace_forms(psi, t[None])[0], np.sum(w * t.T))}
        for name, (kernel, dense) in pairs.items():
            gaps[name] = max(gaps[name], abs(kernel - float(dense.real)))
    return gaps


def verify_cases(kind: str) -> list[tuple[GeneralizedObservable, PureState]]:
    """(gobs, psi) pairs on which verify's checks are compared with the reference
    forms: ``stream`` (d <= 8, every subset enumerated up to 1024, random ones past
    256), ``d32`` (33 outcomes, random subsets over several positivity stacks),
    ``d32-degenerate``, ``d48`` (a last positivity stack that is not full),
    ``shifted`` (d = 20, projectors moved off the positive cone) and ``unlikely``
    (d = 8, outcomes on either side of each branch floor)."""
    if kind == "stream":
        return [(gobs, psi) for _, gobs, psi in scenario_stream(seed=2311, count=8)]
    if kind == "unlikely":
        # the state's amplitudes on the eigenvectors: outcome 5's probability lies
        # between MIXTURE_FLOOR and BRANCH_FLOOR, outcome 6's below both, and
        # outcomes 7 and 8 have probabilities of roundoff, no branch to normalize
        u = random_unitary(np.random.default_rng(8), 8)
        gobs = GeneralizedObservable.from_matrix(u @ np.diag(np.arange(8.0)) @ u.conj().T,
                                                 ConstantDetection(0.7))
        c = np.array([0.6, 0.5, 0.4, 0.3, 1e-5, 1e-7, 0.0, 0.0])
        return [(gobs, PureState(u @ (c / np.linalg.norm(c))))]
    rng = np.random.default_rng({"d32": 32, "d32-degenerate": 33, "d48": 48, "shifted": 20}[kind])
    dim = {"d48": 48, "shifted": 20}.get(kind, 32)
    gobs = random_generalized(rng, dim, degenerate=kind == "d32-degenerate")
    if kind == "shifted":
        # every projector lowered by 1e-9 I / K: each nonempty event's effect
        # then has a negative eigenvalue, so positivity is decided below 0
        base = gobs.base
        install_projectors(base, base.projectors - 1e-9 / base.eigenvalues.size * np.eye(dim))
    return [(gobs, random_state(rng, dim))]
