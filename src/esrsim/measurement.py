"""Post-measurement state transformations, and the invariant checks.

The generalized state-update rule conditions on the measured value falling in
an outcome event: the state is untouched when the object goes undetected,
collapses by the Lüders rule when a detected value is observed, and
interpolates between the two branches when the event allows both. For
discrete observables the same content is packaged as a commuting family of
measurement operators, one per outcome, whose nonselective mixture is the
state an unread measurement leaves behind.

Post-measurement vectors carry a fixed global phase (largest-magnitude
amplitude real and nonnegative) so they can be compared entrywise.

The checks that ``verify`` and ``evolve`` report live here too: each is a
:class:`Check` value, every check runs through one guard, and
:func:`failed_checks` is the one verdict rule. As in ``model``, each private
kernel takes a stack and returns unclamped values. Each check returns its items'
deviations, which the guard reduces by ``model._worst``: event checks walk
``model._each`` over stacks of events, each item with the bits and error it gets
alone, and an outcome kernel takes a state and a stack of operators
(repeatability reads Born weights). A second thread solves the POV pass's
positivity stacks; the caller takes back any not started.
"""

from __future__ import annotations

import contextvars
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from . import linalg
from .apparatus import ApparatusModel, CompoundState, couple_and_evolve, reduced_object_state
from .errors import ZeroProbabilityBranchError
from .model import (
    VERIFY_SEED,
    DensityOperator,
    GeneralizedObservable,
    PureState,
    _born_weights,
    _conditional,
    _density_gate,
    _each,
    _effect_operator,
    _effects,
    _event_subsets,
    _overall,
    _pov_passes,
    _projector_sums,
    _trace_forms,
    _worst,
    clamp_probability,
    detection_probability,
    split_event,
    to_density,
)

__all__ = ["MeasurementOperatorFamily", "MeasurementOutcomeRecord", "fix_phase",
           "measurement_operators", "nonselective_state", "outcome_probability",
           "post_measurement_density", "post_measurement_state_no", "post_measurement_state_yes",
           "state_after_outcome"]

# A branch whose conditioning amplitude falls below this cannot have occurred.
ZERO_BRANCH_TOL = 1e-12
# The checks that compare post-states skip an event or outcome less likely than
# this: a post-state normalized from norm sqrt(p) carries roundoff of about eps / sqrt(p).
BRANCH_FLOOR = 1e-9
# nonselective-forms leaves each outcome at most this likely out of its sum.
MIXTURE_FLOOR = 1e-12


def fix_phase(amplitudes: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the largest-magnitude amplitude is real >= 0."""
    v = np.asarray(amplitudes, dtype=complex)
    pivot = v[int(np.argmax(np.abs(v)))]
    if pivot == 0:
        return v.copy()
    return v * (pivot.conjugate() / abs(pivot))


def post_measurement_state_yes(gobs: GeneralizedObservable, psi: PureState,
                               event) -> PureState:
    """State after the measured value was observed to fall in the event.

    Applies the event's effect and renormalizes. Conditioning on the
    no-registration outcome alone leaves the state unchanged; conditioning on
    detected outcomes alone is the Lüders update.
    """
    return _branch_states(psi, _effect_operator(gobs, psi, event)[None])[0]


def _branch_states(psi: PureState, ops: np.ndarray,
                   branch: str = "conditioning event") -> list[PureState]:
    """``op psi`` normalized, with its phase fixed, for each ``op`` of a ``(n, d, d)``
    stack, in order; ``branch`` names a zero-probability branch. A norm that is not
    finite raises the ValueError ``PureState`` raises, before any division could warn."""
    states = []
    for v in ops @ psi.amplitudes:
        norm = float(np.linalg.norm(v))
        if not math.isfinite(norm):
            raise ValueError("amplitudes must be finite")
        if norm < ZERO_BRANCH_TOL:
            raise ZeroProbabilityBranchError(f"{branch} has zero probability")
        states.append(PureState(fix_phase(v / norm)))
    return states


def post_measurement_state_no(gobs: GeneralizedObservable, psi: PureState,
                              event) -> PureState:
    """State after the measured value was observed to fall outside the event:
    the yes-branch update on the outcomes not in it, resolved once."""
    row = ~split_event(gobs, event)
    return _branch_states(psi, _effects(gobs, detection_probability(gobs, psi), row[None]))[0]


def post_measurement_density(gobs: GeneralizedObservable, psi: PureState,
                             event) -> DensityOperator:
    """Density form of the yes-branch update: T W T† over its trace."""
    return DensityOperator(_branch_density(psi, _effect_operator(gobs, psi, event)[None])[0])


def _branch_density(psi: PureState, ts: np.ndarray) -> np.ndarray:
    """T W T† over its trace for each effect T of a ``(n, d, d)`` stack, before
    the density gate."""
    w = to_density(psi).matrix
    numerators = ts @ w @ ts.conj().swapaxes(1, 2)
    weights = numerators.trace(axis1=1, axis2=2).real
    if (np.sqrt(np.maximum(weights, 0.0)) < ZERO_BRANCH_TOL).any():
        raise ZeroProbabilityBranchError("conditioning event has zero probability")
    return numerators / weights[:, None, None]


@dataclass(frozen=True, eq=False)
class MeasurementOperatorFamily:
    """Measurement operators indexed like the outcome list (no-registration first),
    one read-only ``(K + 1, d, d)`` array; another shape or a non-finite entry
    raises ValueError.

    Index 0 scales the identity by sqrt(1 - p_d); index k >= 1 scales the
    k-th spectral projector by sqrt(p_d). The family is complete (the sum of
    M†M is the identity) and pairwise commuting; :meth:`deviations` measures
    both numerically.
    """

    gobs: GeneralizedObservable
    psi: PureState
    operators: np.ndarray

    def __post_init__(self):
        ops = np.array(self.operators, dtype=complex)
        if ops.shape != (self.gobs.outcomes.size, self.gobs.dim, self.gobs.dim):
            raise ValueError(f"need one d x d operator per outcome, got shape {ops.shape}")
        if not np.all(np.isfinite(ops)):
            raise ValueError("matrix entries must be finite")
        ops.flags.writeable = False
        object.__setattr__(self, "operators", ops)

    def __len__(self) -> int:
        return len(self.operators)

    @property
    def outcomes(self) -> np.ndarray:
        return self.gobs.outcomes

    def deviations(self) -> dict[str, float]:
        """Completeness and worst pairwise-commutation defects (Frobenius)."""
        ops = self.operators
        completeness = linalg.frobenius(sum(m.conj().T @ m for m in ops) - np.eye(self.gobs.dim))
        commutation = [x for i, a in enumerate(ops) for x in _each(
            lambda rest: map(linalg.frobenius, a @ rest - rest @ a), ops[i + 1:], self.gobs.dim)]
        return {"completeness": completeness, "commutation": _worst(commutation)}


def measurement_operators(gobs: GeneralizedObservable, psi: PureState) -> MeasurementOperatorFamily:
    """Build the measurement-operator family at the given state."""
    pd = detection_probability(gobs, psi)
    ops = np.sqrt(pd) * _projector_sums(gobs.base, np.eye(gobs.outcomes.size, dtype=bool)[:, 1:])
    ops[0] = np.sqrt(1.0 - pd) * np.eye(gobs.dim)
    return MeasurementOperatorFamily(gobs, psi, ops)


def _check_index(family: MeasurementOperatorFamily, k: int) -> None:
    # a bool would index the stack as a mask, and bool is an int subclass
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k < len(family):
        raise IndexError(f"outcome index {k!r} is not an integer in [0, {len(family)})")


def outcome_probability(family: MeasurementOperatorFamily, k: int) -> float:
    """Overall probability of the k-th outcome (index 0 is no registration)."""
    _check_index(family, k)
    return clamp_probability(_outcome_probabilities(family.psi, family.operators[k:k + 1])[0])


def _outcome_probabilities(psi: PureState, ops: np.ndarray) -> list[float]:
    """``|op psi|^2``, unclamped, for each measurement operator ``op`` of a ``(n, d, d)``
    stack, in order; :func:`outcome_probability` clamps one row of a family."""
    return [float(np.vdot(v, v).real) for v in ops @ psi.amplitudes]


def state_after_outcome(family: MeasurementOperatorFamily, k: int) -> PureState:
    """Post-measurement state for the k-th outcome.

    Index 0 returns the pre-measurement state (up to the phase convention);
    detected outcomes return the Lüders state of the matching projector.
    """
    _check_index(family, k)
    return _branch_states(family.psi, family.operators[k:k + 1], f"outcome index {k}")[0]


def nonselective_state(family: MeasurementOperatorFamily) -> DensityOperator:
    """Mixed state left behind when the measurement outcome is not recorded."""
    w = to_density(family.psi).matrix
    out = np.zeros_like(w)
    for m in family.operators:
        out += m @ w @ m.conj().T
    return DensityOperator(out)


class MeasurementOutcomeRecord(NamedTuple):
    """One sampled measurement: an immutable named tuple, so its fields can
    also be read by index or unpacked in this order, it compares equal to the
    plain tuple of its fields, and ``_replace`` gives a changed copy.

    ``outcome`` and ``probability`` are Python floats and ``detected`` a
    Python bool. ``probability`` is the overall probability the realized
    outcome had, given the pre-measurement state.
    """

    outcome: float
    detected: bool
    pre_state: PureState
    post_state: PureState
    probability: float


class Check(NamedTuple):
    """One named invariant check: its deviation, to compare with a tolerance,
    and the cause, ``"ExcType: message"``, of an exception that kept it from
    running; such a check reports an infinite deviation."""

    name: str
    deviation: float
    cause: str | None = None


def _guard(fn, *names: str) -> list[Check]:
    """The checks ``names`` read by ``fn()``: one value, or one per name in order, each
    reduced by :func:`model._worst`. An exception fails each of them."""
    try:
        values = fn() if len(names) > 1 else (fn(),)
        return [Check(name, _worst(v)) for name, v in zip(names, values, strict=True)]
    except Exception as exc:
        return [Check(name, math.inf, f"{type(exc).__name__}: {exc}") for name in names]


def failed_checks(checks: list[Check], tol: float) -> list[str]:
    """Names of the checks whose deviation is not at most ``tol`` (NaN fails):
    the verdict of every verb that reports checks, which passes when none fail."""
    return [check.name for check in checks if not check.deviation <= tol]


class Coupling(NamedTuple):
    """The object coupled to the pointer, and the checks of that coupling. A
    state that could not be built is None; the checks name the cause."""

    compound: CompoundState | None
    reduced: DensityOperator | None
    checks: list[Check]


def coupling_checks(gobs: GeneralizedObservable, psi: PureState,
                    apparatus: ApparatusModel) -> Coupling:
    """The checks of ``evolve``, and the last two of :func:`verification_checks`:
    ``coupling-norm`` reads the norm of the amplitudes :func:`couple_and_evolve`
    returns, and ``apparatus-consistency`` compares their partial trace over
    the pointer with the nonselective mixture of a family built here."""
    states = [None, None]

    def deviations() -> tuple[float, float]:
        target = nonselective_state(measurement_operators(gobs, psi))
        states[0] = compound = couple_and_evolve(gobs, psi, apparatus)
        states[1] = reduced = reduced_object_state(compound)
        return (abs(float(np.linalg.norm(compound.amplitudes)) - 1.0),
                linalg.frobenius(reduced.matrix - target.matrix))

    checks = _guard(deviations, "coupling-norm", "apparatus-consistency")
    return Coupling(*states, checks)


def verification_checks(gobs: GeneralizedObservable, psi: PureState,
                        apparatus: ApparatusModel) -> list[Check]:
    """The checks of ``verify``, in their report order: the POV axioms, the
    probability and update forms on random events, the measurement-operator family,
    and the apparatus coupling, :func:`coupling_checks`. A check whose input cannot
    be built fails with that input's exception as its cause. One extra thread runs
    the POV pass's positivity stacks in a copy of the caller's context (so under its
    numpy error state); the caller runs the rest, then takes back the stacks not
    started. No number or cause depends on which thread ran one."""
    # Inputs shared by several checks, built on first use. An input that
    # raises is not cached, so each check reading it reports its exception.
    @cache
    def events() -> tuple:
        # rows over the outcomes (a0 first), their overall probabilities and each outcome's
        rows = _event_subsets(gobs.outcomes.size, np.random.default_rng(VERIFY_SEED), limit=256)
        pd, weights = detection_probability(gobs, psi), _born_weights(gobs, psi)
        overall = np.array(_overall(pd, weights, rows))
        return rows, pd, overall, _overall(pd, weights, np.eye(rows.shape[1], dtype=bool))

    operators = cache(lambda: measurement_operators(gobs, psi))
    # every outcome's probability in one product; live outcomes' Lüders states in another
    probabilities = cache(lambda: _outcome_probabilities(psi, operators().operators))
    lueders = lambda ks: _branch_states(psi, operators().operators[ks], "outcome")

    def factorization() -> list[float]:
        rows, pd, overall, _ = events()
        detected = ~rows[:, 0]
        conditionals = _each(partial(_conditional, gobs, psi), rows[detected, 1:], gobs.dim)
        return [abs(p - pd * c) for p, c in zip(overall[detected], conditionals)]

    def form_agreement() -> list[float]:
        rows, pd, overall, _ = events()
        traces = _each(lambda block: _trace_forms(psi, _effects(gobs, pd, block)), rows, gobs.dim)
        return [abs(p - t) for p, t in zip(overall, traces)]

    def total_probability() -> float:
        *_, singles = events()
        return abs(sum(singles) - 1.0)

    def update_forms(block) -> list[float]:
        # per event of the stack: vector vs density form of its update
        _, pd, _, _ = events()
        ts = _effects(gobs, pd, block)
        amplitudes = np.array([state.amplitudes for state in _branch_states(psi, ts)])
        vector_forms = _density_gate(amplitudes[:, :, None] * amplitudes[:, None, :].conj())
        density_forms = _density_gate(_branch_density(psi, ts))
        return [linalg.frobenius(a - b) for a, b in zip(vector_forms, density_forms)]

    def update_form_agreement() -> list[float]:
        rows, _, overall, _ = events()
        # the nonempty events that can occur (a NaN probability can)
        return _each(update_forms, rows[rows.any(axis=1) & ~(overall < BRANCH_FLOOR)], gobs.dim)

    def singleton_consistency() -> list[float]:
        *_, singles = events()
        return [abs(p - q) for p, q in zip(probabilities(), singles)]

    def nonselective_forms() -> float:
        mixture = nonselective_state(operators()).matrix
        weighted = np.zeros_like(mixture)
        live = [k for k, p in enumerate(probabilities()) if p > MIXTURE_FLOOR]
        for k, state in zip(live, lueders(live)):
            weighted += probabilities()[k] * to_density(state).matrix
        return linalg.frobenius(mixture - weighted)

    def repeatability() -> list[float]:
        # outcome m at the Lüders state phi of n: p_d(phi) w_m(phi), a sum of squares
        live = [n for n, p in enumerate(probabilities()) if n and not p < BRANCH_FLOOR]
        return [x for n, state in zip(live, lueders(live)) for x in
                detection_probability(gobs, state) * np.delete(_born_weights(gobs, state), n - 1)]

    def take_back() -> float:
        # the worst excursion: cancel the stacks the worker has not started, the last first,
        # and run them here until one raises; the worker's stacks, all earlier, are read first
        mine = []
        try:
            for job, future in zip(jobs[::-1], futures[::-1]):
                if not future.cancel():
                    break
                mine[:0] = job()
        finally:
            theirs = [x for future in futures if not future.cancelled() for x in future.result()]
        return _worst(theirs + mine)

    jobs, rest = _pov_passes(gobs, psi)
    with ThreadPoolExecutor(max_workers=1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, job) for job in jobs]
        others = [
            *_guard(factorization, "factorization"),
            *_guard(form_agreement, "probability-form-agreement"),
            *_guard(total_probability, "total-probability"),
            *_guard(update_form_agreement, "update-form-agreement"),
            *_guard(lambda: operators().deviations().values(),
                    "family-completeness", "family-commutation"),
            *_guard(singleton_consistency, "singleton-consistency"),
            *_guard(nonselective_forms, "nonselective-forms"),
            *_guard(repeatability, "repeatability"),
            *coupling_checks(gobs, psi, apparatus).checks,
        ]
        pov = _guard(lambda: rest(take_back).as_dict().values(),
                     "pov-normalization", "pov-positivity", "pov-additivity", "pov-commutativity")
    return [*pov, *others]
