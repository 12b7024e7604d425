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
:func:`failed_checks` is the one verdict rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from . import linalg
from .apparatus import ApparatusModel, CompoundState, couple_and_evolve, reduced_object_state
from .errors import ZeroProbabilityBranchError
from .model import (
    DensityOperator,
    GeneralizedObservable,
    PureState,
    _born_weights,
    _conditional,
    _effect,
    _effect_operator,
    _event_subsets,
    _overall,
    _trace_probability,
    clamp_probability,
    detection_probability,
    split_event,
    to_density,
    verify_pov_axioms,
)

# A branch whose conditioning amplitude falls below this cannot have occurred.
ZERO_BRANCH_TOL = 1e-12


def fix_phase(amplitudes: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the largest-magnitude amplitude is real >= 0."""
    v = np.asarray(amplitudes, dtype=complex)
    pivot = v[int(np.argmax(np.abs(v)))]
    if pivot == 0:
        return v.copy()
    return v * (pivot.conjugate() / abs(pivot))


def complement_event(gobs: GeneralizedObservable, event) -> frozenset:
    """Outcomes of the observable not contained in the event."""
    return frozenset(float(v) for v in gobs.outcomes[~split_event(gobs, event)])


def post_measurement_state_yes(gobs: GeneralizedObservable, psi: PureState,
                               event) -> PureState:
    """State after the measured value was observed to fall in the event.

    Applies the event's effect and renormalizes. Conditioning on the
    no-registration outcome alone leaves the state unchanged; conditioning on
    detected outcomes alone is the Lüders update.
    """
    return _branch_state(psi, _effect_operator(gobs, psi, event))


def _branch_state(psi: PureState, op: np.ndarray, branch: str = "conditioning event") -> PureState:
    """``op psi`` normalized, with its phase fixed; ``branch`` names it in the error."""
    v = op @ psi.amplitudes
    norm = float(np.linalg.norm(v))
    if norm < ZERO_BRANCH_TOL:
        raise ZeroProbabilityBranchError(f"{branch} has zero probability")
    return PureState(fix_phase(v / norm))


def post_measurement_state_no(gobs: GeneralizedObservable, psi: PureState,
                              event) -> PureState:
    """State after the measured value was observed to fall outside the event."""
    return post_measurement_state_yes(gobs, psi, complement_event(gobs, event))


def post_measurement_density(gobs: GeneralizedObservable, psi: PureState,
                             event) -> DensityOperator:
    """Density form of the yes-branch update: T W T† over its trace."""
    return _branch_density(psi, _effect_operator(gobs, psi, event))


def _branch_density(psi: PureState, t: np.ndarray) -> DensityOperator:
    w = to_density(psi).matrix
    numerator = t @ w @ t.conj().T
    weight = float(np.trace(numerator).real)
    if np.sqrt(max(weight, 0.0)) < ZERO_BRANCH_TOL:
        raise ZeroProbabilityBranchError("conditioning event has zero probability")
    return DensityOperator(numerator / weight)


@dataclass(frozen=True, eq=False)
class MeasurementOperatorFamily:
    """Measurement operators indexed like the outcome list (no-registration first).

    Index 0 scales the identity by sqrt(1 - p_d); index k >= 1 scales the
    k-th spectral projector by sqrt(p_d). The family is complete (the sum of
    M†M is the identity) and pairwise commuting; :meth:`deviations` measures
    both numerically.
    """

    gobs: GeneralizedObservable
    psi: PureState
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(linalg.as_matrix(m) for m in self.operators)
        if len(ops) != self.gobs.outcomes.size:
            raise ValueError("need exactly one operator per outcome")
        for m in ops:
            m.flags.writeable = False
        object.__setattr__(self, "operators", ops)

    def __len__(self) -> int:
        return len(self.operators)

    @property
    def outcomes(self) -> np.ndarray:
        return self.gobs.outcomes

    def deviations(self) -> dict[str, float]:
        """Completeness and worst pairwise-commutation defects (Frobenius)."""
        total = sum(m.conj().T @ m for m in self.operators)
        completeness = linalg.frobenius(total - np.eye(self.gobs.dim))
        commutation = 0.0
        for i, a in enumerate(self.operators):
            for b in self.operators[i + 1:]:
                commutation = max(commutation, linalg.frobenius(a @ b - b @ a))
        return {"completeness": completeness, "commutation": commutation}


def measurement_operators(gobs: GeneralizedObservable, psi: PureState) -> MeasurementOperatorFamily:
    """Build the measurement-operator family at the given state."""
    pd = detection_probability(gobs, psi)
    ops = [np.sqrt(1.0 - pd) * np.eye(gobs.dim, dtype=complex)]
    ops.extend(np.sqrt(pd) * p for p in gobs.base.projectors)
    return MeasurementOperatorFamily(gobs, psi, tuple(ops))


def _check_index(family: MeasurementOperatorFamily, k: int) -> None:
    if not 0 <= k < len(family):
        raise IndexError(f"outcome index {k} out of range [0, {len(family)})")


def outcome_probability(family: MeasurementOperatorFamily, k: int) -> float:
    """Overall probability of the k-th outcome (index 0 is no registration)."""
    _check_index(family, k)
    v = family.operators[k] @ family.psi.amplitudes
    return clamp_probability(float(np.vdot(v, v).real))


def state_after_outcome(family: MeasurementOperatorFamily, k: int) -> PureState:
    """Post-measurement state for the k-th outcome.

    Index 0 returns the pre-measurement state (up to the phase convention);
    detected outcomes return the Lüders state of the matching projector.
    """
    _check_index(family, k)
    return _branch_state(family.psi, family.operators[k], f"outcome index {k}")


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


# verify's random POV partitions and event subsets; the verify record names the seed
PARTITION_TRIALS = 40
VERIFY_SEED = 0


class Check(NamedTuple):
    """One named invariant check: its deviation, to compare with a tolerance,
    and the cause, ``"ExcType: message"``, of an exception that kept it from
    running; such a check reports an infinite deviation."""

    name: str
    deviation: float
    cause: str | None = None


def _guard(fn, *names: str) -> list[Check]:
    """The checks ``names`` measured by ``fn()``: one deviation, or one per name
    in order when there are several. An exception fails each of them."""
    try:
        values = fn() if len(names) > 1 else (fn(),)
        return [Check(name, float(v)) for name, v in zip(names, values, strict=True)]
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


def _coupling(gobs: GeneralizedObservable, psi: PureState, apparatus: ApparatusModel,
              mixture) -> Coupling:
    """``coupling-norm`` reads the norm of the amplitudes :func:`couple_and_evolve`
    returns, and ``apparatus-consistency`` compares their partial trace with
    ``mixture()``, the nonselective state."""
    states = [None, None]

    def deviations() -> tuple[float, float]:
        target = mixture()
        states[0] = compound = couple_and_evolve(gobs, psi, apparatus)
        states[1] = reduced = reduced_object_state(compound)
        return (abs(float(np.linalg.norm(compound.amplitudes)) - 1.0),
                linalg.frobenius(reduced.matrix - target.matrix))

    checks = _guard(deviations, "coupling-norm", "apparatus-consistency")
    return Coupling(*states, checks)


def coupling_checks(gobs: GeneralizedObservable, psi: PureState,
                    apparatus: ApparatusModel) -> Coupling:
    """The checks of ``evolve``: couple the object to the pointer, then check
    the compound norm and that tracing out the pointer gives the nonselective
    mixture. These are the last two of :func:`verification_checks`."""
    return _coupling(gobs, psi, apparatus,
                     lambda: nonselective_state(measurement_operators(gobs, psi)))


def verification_checks(gobs: GeneralizedObservable, psi: PureState,
                        apparatus: ApparatusModel) -> list[Check]:
    """The checks of ``verify``, in their report order: the POV axioms, the
    probability and update forms on random events, the measurement-operator
    family, and the apparatus coupling. A check whose input cannot be built
    fails with that input's exception as its cause."""
    # Inputs shared by several checks, built on first use. An input that
    # raises is not cached, so each check reading it reports its exception.
    @cache
    def events() -> tuple:
        # each event is a boolean row over the outcomes, a0 first, resolved once
        rows = _event_subsets(gobs.outcomes.size, np.random.default_rng(VERIFY_SEED), limit=256)
        return rows, detection_probability(gobs, psi), _born_weights(gobs, psi)

    operators = cache(lambda: measurement_operators(gobs, psi))
    singletons = np.eye(gobs.outcomes.size, dtype=bool)

    def overall(row) -> float:
        _, pd, weights = events()
        return _overall(pd, weights, row)

    def pov_axioms():
        report = verify_pov_axioms(gobs, psi, partition_trials=PARTITION_TRIALS,
                                   seed=VERIFY_SEED)
        return report.as_dict().values()

    def factorization() -> float:
        rows, pd, _ = events()
        return max(abs(overall(row) - pd * _conditional(gobs, psi, row[1:]))
                   for row in rows[~rows[:, 0]])

    def form_agreement() -> float:
        rows, pd, _ = events()
        return max(abs(overall(row) - _trace_probability(psi, _effect(gobs, pd, row)))
                   for row in rows)

    def total_probability() -> float:
        return abs(sum(map(overall, singletons)) - 1.0)

    def update_form_agreement() -> float:
        rows, pd, _ = events()
        worst = 0.0
        for row in rows:
            if not row.any() or overall(row) < 1e-9:
                continue
            t = _effect(gobs, pd, row)
            vector_form = to_density(_branch_state(psi, t)).matrix
            worst = max(worst, linalg.frobenius(vector_form - _branch_density(psi, t).matrix))
        return worst

    def singleton_consistency() -> float:
        family = operators()
        return max(abs(outcome_probability(family, k) - overall(row))
                   for k, row in enumerate(singletons))

    def nonselective_forms() -> float:
        family = operators()
        mixture = nonselective_state(family).matrix
        weighted = np.zeros_like(mixture)
        for k in range(len(family)):
            p = outcome_probability(family, k)
            if p > 1e-12:
                weighted += p * to_density(state_after_outcome(family, k)).matrix
        return linalg.frobenius(mixture - weighted)

    def repeatability() -> float:
        family = operators()
        worst = 0.0
        for n in range(1, len(family)):
            if outcome_probability(family, n) < 1e-9:
                continue
            post = state_after_outcome(family, n)
            post_family = measurement_operators(gobs, post)
            for m in range(1, len(family)):
                if m != n:
                    worst = max(worst, outcome_probability(post_family, m))
        return worst

    return [
        *_guard(pov_axioms,
                "pov-normalization", "pov-positivity", "pov-additivity", "pov-commutativity"),
        *_guard(factorization, "factorization"),
        *_guard(form_agreement, "probability-form-agreement"),
        *_guard(total_probability, "total-probability"),
        *_guard(update_form_agreement, "update-form-agreement"),
        *_guard(lambda: operators().deviations().values(),
                "family-completeness", "family-commutation"),
        *_guard(singleton_consistency, "singleton-consistency"),
        *_guard(nonselective_forms, "nonselective-forms"),
        *_guard(repeatability, "repeatability"),
        *_coupling(gobs, psi, apparatus, lambda: nonselective_state(operators())).checks,
    ]
