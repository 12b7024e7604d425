"""Domain model for detection-conditioned measurements.

A standard observable is its spectral decomposition: ascending distinct
eigenvalues and a read-only ``d x d`` eigenbasis V, the eigenspaces' orthonormal
bases side by side. Every kernel reads V; ``P(S) = V_S V_S†`` is formed only
where a dense matrix is wanted. A generalized observable adds a no-registration
outcome ``a0``, reported when the measured object escapes detection, and a
detection model giving the per-state probability of being detected at all.
That probability is event-independent, which makes the construction consistent.

Outcome events are finite sets of outcome values (the finite-dimensional
stand-in for Borel sets). :func:`split_event` resolves each into a boolean row
over ``gobs.outcomes`` (a0 first), and one formula turns rows into effects:
positive operators between 0 and the identity whose expectation in the state is
the event's overall probability, from ``p_d`` and the Born weights alone. Every
private kernel takes a stack of rows, masks or matrices, a single item being a
stack of one with the same bits, and returns unclamped values, which only the
public functions clamp. :func:`_each` is the one loop over stacks and
:func:`_worst` the one reduction of deviations, which a NaN item wins. The
gates of :class:`DensityOperator` and :class:`Effect` test positivity by a
shifted Cholesky factorization. For each state the effects form a commutative
POV measure; with detection certain it is the projection-valued one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from typing import Union

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    EventContainsNoRegistrationError,
    NotNormalizedError,
    ProbabilityRangeError,
)

__all__ = ["ConstantDetection", "DensityOperator", "DetectionModel", "Effect",
           "ExpectationDetection", "GeneralizedObservable", "PovAxiomReport", "PureState",
           "QuantumObservable", "as_event", "conditional_probability", "detection_probability",
           "effect", "overall_probability", "overall_probability_density", "pv_projector",
           "split_event", "to_density", "verify_pov_axioms"]

# Unit-norm gate of a state's amplitudes. A norm off by delta moves a sum of
# probabilities by up to 2 delta, so twice this stays below the check tolerance
# (cli.DEFAULT_TOL), with room for roundoff.
NORM_TOL = 4e-11
# Margin of an expectation-detection operator's spectrum around [0, 1].
DETECTION_SPECTRUM_TOL = 1e-10
# Tolerated numerical overshoot before a computed probability is an error.
PROBABILITY_TOL = 1e-9
# Construction-time gate for effects, density operators and the eigenvectors of
# a spectral-form scenario. Deliberately coarser than the check tolerance
# (cli.DEFAULT_TOL), so that slightly corrupted inputs surface as named check
# failures instead of exceptions.
BUILD_GATE_TOL = 1e-6
# Relative half-width of the window used to match quoted outcome values.
OUTCOME_MATCH_RTOL = 1e-9

def as_event(values) -> frozenset:
    """Coerce a single value or an iterable of values to an outcome event.

    A non-finite value raises ValueError: NaN matches no outcome, and an
    infinite value would fall inside a0's infinitely wide match window.
    """
    if isinstance(values, (int, float, np.integer, np.floating)):
        event = frozenset((float(values),))
    else:
        event = frozenset(float(v) for v in values)
    if not all(map(math.isfinite, event)):
        bad = next(v for v in event if not math.isfinite(v))
        raise ValueError(f"{bad!r} is not a finite number")
    return event


def _match_atol(value: float) -> float:
    return OUTCOME_MATCH_RTOL * (1.0 + abs(value))


def _freeze_finite(v: np.ndarray) -> np.ndarray:
    """Check that the amplitudes ``v`` are finite, make them read-only and return them."""
    if not np.all(np.isfinite(v)):
        raise ValueError("amplitudes must be finite")
    v.flags.writeable = False
    return v


def _require_unit_spectrum(h: np.ndarray, tol: float, name: str) -> np.ndarray:
    """The symmetrized ``h``, read-only; ValueError unless its spectrum is in [-tol, 1 + tol]."""
    if not (linalg._shifted_cholesky_exists(h, tol)
            and linalg._shifted_cholesky_exists(np.eye(h.shape[0]) - h, tol)):
        eigs = np.linalg.eigvalsh(h)
        raise ValueError(f"{name} spectrum [{eigs[0]:.3e}, {eigs[-1]:.3e}] must lie in [0, 1]")
    h.flags.writeable = False
    return h


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector in an n-dimensional complex inner-product space."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=complex)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("amplitudes must form a nonempty 1-D sequence")
        norm = float(np.linalg.norm(_freeze_finite(v)))
        if abs(norm - 1.0) > NORM_TOL:
            raise NotNormalizedError(f"state norm is {norm!r}, expected 1")
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @cached_property
    def _density(self) -> "DensityOperator":
        # the state is immutable, so its gated density is built at most once
        v = self.amplitudes
        return DensityOperator(np.outer(v, v.conj()))


def _density_gate(stack: np.ndarray) -> np.ndarray:
    """The gate of :class:`DensityOperator` on a ``(n, d, d)`` complex stack:
    finite entries, Hermitian, unit trace and positive semidefinite, each to
    ``BUILD_GATE_TOL``. Returns the symmetrized stack, read-only. A stack that
    fails raises the error of the first step that some matrix fails, which
    need not be what its lowest-index failing matrix raises alone: a caller
    that must name that matrix's error gates the matrices one at a time."""
    if not np.isfinite(stack).all():
        raise ValueError("matrix entries must be finite")
    h = linalg.require_hermitian(stack, rtol=BUILD_GATE_TOL)
    for trace in h.trace(axis1=1, axis2=2).real.tolist():
        if abs(trace - 1.0) > BUILD_GATE_TOL:
            raise ValueError(f"trace is {trace!r}, expected 1")
    if not linalg._shifted_cholesky_exists(h, BUILD_GATE_TOL):
        raise ValueError("operator is not positive semidefinite")
    h.flags.writeable = False
    return h


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive Hermitian operator of unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _density_gate(linalg.as_matrix(self.matrix)[None])[0])

    def purity(self) -> float:
        """Trace of the squared operator; 1 exactly for pure states."""
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True, eq=False)
class QuantumObservable:
    """Hermitian operator in spectral form: its distinct eigenvalues in ascending
    order and one ``(d, r_k)`` basis of each eigenspace, ``bases``.

    The bases side by side form one read-only ``d x d`` matrix ``eigenbasis``
    (V) that every kernel reads; ``bases`` are views of its column blocks, which
    start at ``_starts``, and ``_groups`` holds each column's eigenspace.
    Construction checks structure only: bases of unequal row counts raise
    DimensionMismatchError, and a basis that is not 2-D or is empty, non-finite
    entries, a count other than one basis per eigenvalue, a column total other
    than d or eigenvalues that are not strictly increasing ValueError. The
    bases of :meth:`from_matrix` are eigh's eigenvectors, so V is unitary within
    the check tolerance (``cli.DEFAULT_TOL``) and ``sum(a_k * B_k B_k†)``
    recovers the operator; hand-built bases are the caller's responsibility.
    """

    eigenvalues: np.ndarray
    bases: tuple[np.ndarray, ...]
    eigenbasis: np.ndarray = field(init=False, repr=False)
    _starts: np.ndarray = field(init=False, repr=False)
    _groups: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        eigs = np.array(self.eigenvalues, dtype=float)
        if eigs.ndim != 1 or eigs.size == 0:
            raise ValueError("eigenvalues must form a nonempty 1-D sequence")
        if not np.all(np.isfinite(eigs)):
            raise ValueError("eigenvalues must be finite")
        if np.any(np.diff(eigs) <= 0):
            raise ValueError("eigenvalues must be strictly increasing")
        bases = tuple(map(linalg.as_matrix, self.bases))
        if len(bases) != eigs.size:
            raise ValueError("need exactly one basis per eigenvalue")
        if len({b.shape[0] for b in bases}) > 1:
            raise DimensionMismatchError("bases must share one dimension")
        v, widths = np.concatenate(bases, axis=1), [b.shape[1] for b in bases]
        if v.shape[1] != v.shape[0] or 0 in widths:
            raise ValueError(f"bases hold {widths} columns, {v.shape[1]} in all, for d = {len(v)}")
        starts = np.cumsum([0, *widths[:-1]])
        for name, frozen in (("eigenvalues", eigs), ("eigenbasis", v), ("_starts", starts),
                             ("_groups", np.repeat(np.arange(eigs.size), widths))):
            frozen.flags.writeable = False
            object.__setattr__(self, name, frozen)
        object.__setattr__(self, "bases", tuple(np.split(v, starts[1:], axis=1)))

    @classmethod
    def from_matrix(cls, matrix) -> "QuantumObservable":
        return cls(*linalg.hermitian_eigendecompose(matrix))

    @property
    def dim(self) -> int:
        return self.eigenbasis.shape[0]

    @cached_property
    def _eigenvalue_floats(self) -> tuple[float, ...]:
        """``eigenvalues`` as plain Python floats, which the event resolver bisects
        and a draw reports: a tuple index is cheaper than a numpy scalar's ``float``."""
        return tuple(self.eigenvalues.tolist())

    @cached_property
    def _merge_tol(self) -> float:
        """:func:`linalg.default_cluster_tol` of the eigenvalues, decided once."""
        return linalg.default_cluster_tol(self.eigenvalues)


@dataclass(frozen=True)
class ConstantDetection:
    """State-independent detection probability."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"detection probability must lie in [0, 1], got {self.p!r}")

    def probability(self, psi: PureState) -> float:
        return float(self.p)


@dataclass(frozen=True, eq=False)
class ExpectationDetection:
    """Detection probability <psi|B|psi> for a Hermitian B with spectrum in [0, 1].

    Evaluations are clamped to [0, 1] to absorb roundoff at the spectrum's
    edges.
    """

    operator: np.ndarray

    def __post_init__(self):
        b = linalg.require_hermitian(linalg.as_matrix(self.operator))
        b = _require_unit_spectrum(b, DETECTION_SPECTRUM_TOL, "operator")
        object.__setattr__(self, "operator", b)

    def probability(self, psi: PureState) -> float:
        if psi.dim != self.operator.shape[0]:
            raise DimensionMismatchError(
                f"state dim {psi.dim} != detection operator dim {self.operator.shape[0]}")
        value = float(np.vdot(psi.amplitudes, self.operator @ psi.amplitudes).real)
        return min(max(value, 0.0), 1.0)


DetectionModel = Union[ConstantDetection, ExpectationDetection]


@dataclass(frozen=True, eq=False)
class GeneralizedObservable:
    """Standard observable plus a no-registration outcome and detection model.

    The outcome set is the spectrum extended by ``a0``; ``a0`` must stay
    clear of every eigenvalue by more than the merge tolerance of
    :func:`linalg.default_cluster_tol` plus twice the value-matching window,
    so that no value falls in both a0's window and an eigenvalue's and event
    membership is unambiguous. ``a0=None`` takes the default: one below the
    least eigenvalue or, where that would clash, twice the least eigenvalue's
    clash floor below it.

    ``_sampler`` is a slot for the caches of :mod:`esrsim.sampling`, which
    alone reads and documents them.
    """

    base: QuantumObservable
    a0: float | None
    detection: DetectionModel
    _sampler: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if (isinstance(self.detection, ExpectationDetection)
                and self.detection.operator.shape[0] != self.base.dim):
            raise DimensionMismatchError(
                f"detection operator dim {self.detection.operator.shape[0]} "
                f"!= observable dim {self.base.dim}")

        def floor(a0: float) -> float:
            return self.base._merge_tol + 2.0 * _match_atol(a0)

        low = float(self.base.eigenvalues[0])
        a0 = low - 1.0 if self.a0 is None else float(self.a0)
        if self.a0 is None and not low - a0 > floor(a0):
            a0 = low - 2.0 * floor(low)  # floor(a0) is at most (1 + 4e-9) floor(low)
        separation = float(np.min(np.abs(self.base.eigenvalues - a0)))
        if not separation > floor(a0):
            raise ValueError(
                f"no-registration outcome {a0!r} clashes with the spectrum "
                f"(separation {separation:.3e}, required > {floor(a0):.3e})")
        object.__setattr__(self, "a0", a0)

    @classmethod
    def from_matrix(cls, matrix, detection: DetectionModel,
                    a0: float | None = None) -> "GeneralizedObservable":
        return cls(QuantumObservable.from_matrix(matrix), a0, detection)

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def outcomes(self) -> np.ndarray:
        """All outcome values, the no-registration outcome first."""
        return np.concatenate(([self.a0], self.base.eigenvalues))


def split_event(gobs: GeneralizedObservable, event) -> np.ndarray:
    """Resolve an event to a boolean row aligned with ``gobs.outcomes``: entry 0
    for a0, entry ``k + 1`` for the k-th eigenvalue. A value matches a0 within
    the match window, else the nearest eigenvalue (the lower one on a tie) within
    that window or the merge tolerance (so a merged eigenvalue matches each value
    merged into it); values matching no outcome contribute nothing. The
    eigenvalues' plain-float tuple and merge tolerance are cached on ``gobs.base``."""
    return _match_values(gobs.base, as_event(event), gobs.a0)


def _match_values(observable: QuantumObservable, values, a0: float | None) -> np.ndarray:
    """Row of the outcomes ``values`` match, in one pass: ``a0`` (never when None) first."""
    eigs, tol = observable._eigenvalue_floats, observable._merge_tol
    row = np.zeros(len(eigs) + 1, dtype=bool)
    for v in values:
        window = _match_atol(v)
        k = bisect_left(eigs, v)
        if k == len(eigs) or (k and v - eigs[k - 1] <= eigs[k] - v):
            k -= 1  # eigs[k - 1] < v <= eigs[k]: the lower one is nearer, or as near
        if a0 is not None and abs(v - a0) <= window:
            row[0] = True
        elif abs(eigs[k] - v) <= max(window, tol):
            row[k + 1] = True
    return row


def _each(fn, items: np.ndarray, dim: int, size: int = 2 ** 17) -> list:
    """``fn``'s values for all ``items`` (rows, masks or matrices), in order: ``fn`` maps a
    stack of items, one d x d complex matrix each within ``size`` bytes, to one value per
    item. A stack that raises is redone item by item, so the first failing item names the error."""
    count, values = max(1, size // (16 * dim * dim)), []
    for stack in (items[start:start + count] for start in range(0, len(items), count)):
        try:
            values += list(fn(stack))
        except Exception:
            values += [x for i in range(len(stack)) for x in fn(stack[i:i + 1])]
    return values


def _worst(deviations) -> float:
    """Largest of ``deviations`` (a number or items): 0.0 for none, NaN if any is, never -0.0."""
    return float(np.max(np.asarray(deviations, dtype=float), initial=0.0)) + 0.0


def _projector_sums(observable: QuantumObservable, masks: np.ndarray) -> np.ndarray:
    """``P(mask) = V_S V_S†`` for each boolean row of ``masks``, ``S`` the columns of
    the row's eigenspaces, as ``(m, d, d)``: V with its other columns zeroed, times
    V†, in one batched product. A row gets the same bits alone as in any stack."""
    v = observable.eigenbasis
    return np.where(masks[:, None, observable._groups], v, 0.0) @ v.conj().T


def pv_projector(observable: QuantumObservable, event) -> np.ndarray:
    """Spectral projector of an event: the sum of P_k over eigenvalues in it.

    Event values matching no eigenvalue contribute nothing.
    """
    row = _match_values(observable, as_event(event), None)
    return _projector_sums(observable, row[None, 1:])[0]


def clamp_probability(value: float) -> float:
    """Clamp roundoff overshoot into [0, 1]; larger excursions are errors."""
    if value < -PROBABILITY_TOL or value > 1.0 + PROBABILITY_TOL:
        raise ProbabilityRangeError(f"probability {value!r} outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)


def _require_dim(gobs: GeneralizedObservable, psi: PureState) -> None:
    if gobs.dim != psi.dim:
        raise DimensionMismatchError(f"observable dim {gobs.dim} != state dim {psi.dim}")


def to_density(psi: PureState) -> DensityOperator:
    """Rank-1 density operator projecting onto the state (built once per state)."""
    return psi._density


def detection_probability(gobs: GeneralizedObservable, psi: PureState) -> float:
    """Probability that the measured object is detected at all.

    Depends on the observable and the state, never on the queried event.
    A detection model returning a value outside [0, 1] raises ValueError.
    """
    _require_dim(gobs, psi)
    pd = gobs.detection.probability(psi)
    if not 0.0 <= pd <= 1.0:
        raise ValueError(f"detection probability {pd!r} outside [0, 1]")
    return pd


def conditional_probability(gobs: GeneralizedObservable, psi: PureState, event) -> float:
    """Born-rule probability of the event, conditional on detection.

    Defined for events free of the no-registration outcome.
    """
    _require_dim(gobs, psi)
    row = split_event(gobs, event)
    if row[0]:
        raise EventContainsNoRegistrationError(
            "conditional probabilities are defined for detected outcomes only")
    return clamp_probability(_conditional(gobs, psi, row[None, 1:])[0])


def _conditional(gobs: GeneralizedObservable, psi: PureState, masks: np.ndarray) -> list[float]:
    """``<psi|P(mask)|psi>``, by the dense projector sum, for each boolean row of ``masks``."""
    return [float(np.vdot(psi.amplitudes, pv).real)
            for pv in _projector_sums(gobs.base, masks) @ psi.amplitudes]


@dataclass(frozen=True, eq=False)
class Effect:
    """Positive operator between 0 and the identity."""

    operator: np.ndarray

    def __post_init__(self):
        h = linalg.require_hermitian(linalg.as_matrix(self.operator), rtol=BUILD_GATE_TOL)
        object.__setattr__(self, "operator", _require_unit_spectrum(h, BUILD_GATE_TOL, "effect"))


def _effects(gobs: GeneralizedObservable, pd: float, rows: np.ndarray) -> np.ndarray:
    """The effect formula ``pd * P(row) + (1 - pd) * [a0 in row] * I`` for each
    boolean row over the outcomes (a0 first) of ``rows``, as ``(m, d, d)``."""
    out = _projector_sums(gobs.base, rows[:, 1:])
    out *= pd
    out[rows[:, 0]] += (1.0 - pd) * np.eye(gobs.dim)
    return out


def _effect_operator(gobs: GeneralizedObservable, psi: PureState, event) -> np.ndarray:
    """Raw effect matrix, bypassing the Effect construction gate."""
    return _effects(gobs, detection_probability(gobs, psi), split_event(gobs, event)[None])[0]


def effect(gobs: GeneralizedObservable, psi: PureState, event) -> Effect:
    """Effect operator of an event for the given state, through the Effect gate.

    Without the no-registration outcome this is ``p_d * P(event)``; with it,
    ``(1 - p_d) * I + p_d * P(event minus a0)``.
    """
    return Effect(_effect_operator(gobs, psi, event))


def _born_weights(gobs: GeneralizedObservable, psi: PureState) -> np.ndarray:
    """Born weights ``<psi|P_k|psi>``, unnormalized: ``|V† psi|^2`` summed per eigenspace."""
    c = gobs.base.eigenbasis.conj().T @ psi.amplitudes
    return np.add.reduceat(c.real ** 2 + c.imag ** 2, gobs.base._starts)


def overall_probability(gobs: GeneralizedObservable, psi: PureState, event) -> float:
    """Overall probability that the measured value falls in the event.

    This is ``<psi|T(event)|psi>`` for the effect ``T`` of :func:`effect`,
    evaluated as ``p_d * sum_{k in event} w_k + (1 - p_d) * [a0 in event]``
    from the Born weights ``w_k = <psi|P_k|psi>``; no effect matrix is built.
    Like :func:`conditional_probability`, it trusts the spectral
    decomposition; :func:`verify_pov_axioms` measures how far it is off.
    """
    return overall_probabilities(gobs, psi, split_event(gobs, event)[None])[0]


def overall_probabilities(gobs: GeneralizedObservable, psi: PureState, rows) -> list[float]:
    """:func:`overall_probability` of each resolved event: a boolean row over
    ``gobs.outcomes`` (a0 first), as :func:`split_event` returns."""
    pd, weights = detection_probability(gobs, psi), _born_weights(gobs, psi)
    return [clamp_probability(p) for p in _overall(pd, weights, rows)]


def _overall(pd: float, weights: np.ndarray, rows: np.ndarray) -> list[float]:
    """``pd * sum_{k in row} w_k + (1 - pd) * [a0 in row]`` for each resolved event of ``rows``."""
    return [pd * float(weights[row[1:]].sum()) + (1.0 - pd) * bool(row[0]) for row in rows]


def overall_probability_density(gobs: GeneralizedObservable, psi: PureState, event) -> float:
    """Trace-form evaluation Tr[W T(event)] with the dense effect matrix; an
    independent check on :func:`overall_probability`."""
    return clamp_probability(_trace_forms(psi, _effect_operator(gobs, psi, event)[None])[0])


def _trace_forms(psi: PureState, ts: np.ndarray) -> list[float]:
    """``Tr[W t]`` for the density ``W`` of ``psi`` and each effect ``t`` of a stack."""
    return np.trace(to_density(psi).matrix @ ts, axis1=1, axis2=2).real.tolist()


@dataclass(frozen=True)
class PovAxiomReport:
    """Worst-case deviations of a state's effect family from the POV axioms.

    All quantities are Frobenius norms except ``positivity``, which is the
    eigenvalue excursion below 0 or above 1.
    """

    normalization: float
    positivity: float
    additivity: float
    commutativity: float
    events_checked: int

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name)
                for name in ("normalization", "positivity", "additivity", "commutativity")}


def _event_subsets(n: int, rng: np.random.Generator, limit: int) -> np.ndarray:
    """All subsets of ``n`` outcomes, or ``limit`` random ones drawn from ``rng``
    when there are more, as boolean rows (bit i of row b is outcome i when all
    are enumerated); the rng is left untouched when all are enumerated."""
    if 2 ** n <= limit:
        return (np.arange(2 ** n)[:, None] >> np.arange(n) & 1).astype(bool)
    return rng.integers(0, 2, size=(limit, n)).astype(bool)


# verify's random POV partitions and event subsets; the verify record names the
# generator, np.random.default_rng(VERIFY_SEED), as VERIFY_RNG
PARTITION_TRIALS = 40
VERIFY_SEED = 0
VERIFY_RNG = f"pcg64:seed={VERIFY_SEED}"


def verify_pov_axioms(gobs: GeneralizedObservable, psi: PureState,
                      partition_trials: int = PARTITION_TRIALS,
                      seed: int = VERIFY_SEED) -> PovAxiomReport:
    """Measure how well the state's effect family satisfies the POV axioms.

    Checks normalization on the full outcome set, positivity and the upper
    bound on every enumerated event, additivity over ``partition_trials``
    random disjoint partitions of the outcome set, and pairwise
    commutativity of random event pairs. Deviations are reported, never
    raised, so a corrupted observable shows up as numbers. Positivity runs first.
    """
    jobs, rest = _pov_passes(gobs, psi, partition_trials, seed)
    return rest(partial(_worst, [x for job in jobs for x in job()]))


def _pov_passes(gobs: GeneralizedObservable, psi: PureState,
                partition_trials: int = PARTITION_TRIALS, seed: int = VERIFY_SEED) -> tuple:
    """:func:`verify_pov_axioms` as ``(jobs, rest)``, rows drawn first; p_d is read lazily, so
    building them raises nothing. Each job runs :func:`_each` on one 512 KiB stack of the rows,
    returning its excursions, by eigensolves that release the GIL. ``rest(positivity)`` runs the
    other axioms, then ``positivity()`` even if they raise, so its first failing event wins."""
    pd, n = cache(lambda: detection_probability(gobs, psi)), gobs.outcomes.size
    rng = np.random.default_rng(seed)

    def excursions(block: np.ndarray) -> np.ndarray:
        # a non-finite effect has no spectrum, whatever eigvalsh returns: its excursion is NaN
        ts = _effects(gobs, pd(), block)
        finite = np.isfinite(ts).all(axis=(1, 2))
        ts[~finite] = 0.0
        eigs = np.linalg.eigvalsh(ts)
        return np.where(finite, np.maximum(-eigs[:, 0], eigs[:, -1] - 1.0), np.nan)

    rows, size = _event_subsets(n, rng, limit=1024), 2 ** 19
    jobs = _each(lambda s: [partial(_each, excursions, s, gobs.dim, size)], rows, gobs.dim, size)

    def rest(positivity) -> PovAxiomReport:
        try:
            full = _effects(gobs, pd(), np.ones((1, n), dtype=bool))[0]
            normalization = linalg.frobenius(full - np.eye(gobs.dim))
            additivity, commutativity = [], []
            for _ in range(partition_trials):
                # one stack: a partition's groups, a disjoint pair's union and parts, a random pair
                labels = rng.integers(0, rng.integers(1, n + 1), size=n)
                split = rng.integers(0, 3, size=n)
                pair = np.array([rng.integers(0, 2, size=n), rng.integers(0, 2, size=n)], bool)
                groups = labels == np.unique(labels)[:, None]
                *parts, union, x, y, tx, ty = _effects(gobs, pd(), np.concatenate(
                    (groups, [split < 2, split == 0, split == 1], pair)))
                additivity += [linalg.frobenius(sum(parts) - full), linalg.frobenius(union - x - y)]
                commutativity.append(linalg.frobenius(tx @ ty - ty @ tx))
        finally:
            worst = positivity()
        return PovAxiomReport(normalization, worst, _worst(additivity), _worst(commutativity),
                              events_checked=len(rows) + 3 * partition_trials)

    return jobs, rest
