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
:func:`failed_checks` is the one verdict rule. Each private kernel takes a
stack, as in ``model``: the event checks walk ``model._stacks`` of events, the
outcome checks take one stack of outcomes, and both update forms of a stack pass
one density gate together; each item gets the bits, and a failing one the error,
it gets alone. The POV-axiom pass runs on one extra thread; no record shows it.
"""

from __future__ import annotations

import contextvars
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from . import linalg
from .apparatus import ApparatusModel, CompoundState, couple_and_evolve, reduced_object_state
from .errors import ZeroProbabilityBranchError
from .model import (
    PARTITION_TRIALS,  # verify's partition count, the default of verify_pov_axioms
    VERIFY_SEED,
    DensityOperator,
    GeneralizedObservable,
    PureState,
    _born_weights,
    _conditional,
    _density_gate,
    _effect_operator,
    _effects,
    _event_subsets,
    _overall,
    _stacks,
    _trace_forms,
    clamp_probability,
    detection_probability,
    split_event,
    to_density,
    verify_pov_axioms,
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
        total = sum(m.conj().T @ m for m in self.operators)
        completeness = linalg.frobenius(total - np.eye(self.gobs.dim))
        commutation = 0.0
        for i, a in enumerate(self.operators):
            for rest in _stacks(self.operators[i + 1:], self.gobs.dim):
                for defect in a @ rest - rest @ a:
                    commutation = max(commutation, linalg.frobenius(defect))
        return {"completeness": completeness, "commutation": commutation}


def measurement_operators(gobs: GeneralizedObservable, psi: PureState) -> MeasurementOperatorFamily:
    """Build the measurement-operator family at the given state."""
    pd = detection_probability(gobs, psi)
    ops = [np.sqrt(1.0 - pd) * np.eye(gobs.dim, dtype=complex),
           *(np.sqrt(pd) * gobs.base.projectors)]
    return MeasurementOperatorFamily(gobs, psi, ops)


def _check_index(family: MeasurementOperatorFamily, k: int) -> None:
    # a bool would index the stack as a mask, and bool is an int subclass
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k < len(family):
        raise IndexError(f"outcome index {k!r} is not an integer in [0, {len(family)})")


def outcome_probability(family: MeasurementOperatorFamily, k: int) -> float:
    """Overall probability of the k-th outcome (index 0 is no registration)."""
    _check_index(family, k)
    return _outcome_probabilities(family, [k])[0]


def _outcome_probabilities(family: MeasurementOperatorFamily, ks: list[int] | slice) -> list[float]:
    """:func:`outcome_probability` of each outcome the indices or slice ``ks`` select."""
    return [clamp_probability(float(np.vdot(v, v).real))
            for v in family.operators[ks] @ family.psi.amplitudes]


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
    probability and update forms on random events, the measurement-operator
    family, and the apparatus coupling, :func:`coupling_checks`. A check whose
    input cannot be built fails with that input's exception as its cause. The
    POV axioms run on one extra thread, in a copy of the caller's context (so
    under its numpy error state), while the caller runs the rest: they read no
    shared input, and their eigensolves release the GIL. No number depends on it."""
    # Inputs shared by several checks, built on first use. An input that
    # raises is not cached, so each check reading it reports its exception.
    @cache
    def events() -> tuple:
        # each event is a boolean row over the outcomes, a0 first, resolved once
        rows = _event_subsets(gobs.outcomes.size, np.random.default_rng(VERIFY_SEED), limit=256)
        return rows, detection_probability(gobs, psi), _born_weights(gobs, psi)

    operators = cache(lambda: measurement_operators(gobs, psi))
    # every outcome's probability in one product; live outcomes' Lüders states in another
    probabilities = cache(lambda: _outcome_probabilities(operators(), slice(None)))
    lueders = lambda ks: _branch_states(psi, operators().operators[ks], "outcome")
    singletons = np.eye(gobs.outcomes.size, dtype=bool)

    def overall(row) -> float:
        _, pd, weights = events()
        return _overall(pd, weights, row)

    def pov_axioms():
        return verify_pov_axioms(gobs, psi).as_dict().values()

    def factorization() -> float:
        rows, pd, _ = events()
        return max(abs(overall(row) - pd * conditional)
                   for block in _stacks(rows[~rows[:, 0]], gobs.dim)
                   for row, conditional in zip(block, _conditional(gobs, psi, block[:, 1:])))

    def form_agreement() -> float:
        rows, pd, _ = events()
        return max(abs(overall(row) - clamp_probability(trace))
                   for block in _stacks(rows, gobs.dim)
                   for row, trace in zip(block, _trace_forms(psi, _effects(gobs, pd, block))))

    def total_probability() -> float:
        return abs(sum(map(overall, singletons)) - 1.0)

    def update_forms(block) -> list[float]:
        # per nonempty event that can occur (a NaN probability counts as one
        # that can): its vector form against its density form
        _, pd, _ = events()
        live = block[[bool(row.any()) and not overall(row) < BRANCH_FLOOR for row in block]]
        if not len(live):
            return []
        ts = _effects(gobs, pd, live)
        amplitudes = np.array([state.amplitudes for state in _branch_states(psi, ts)])
        vector_forms = _density_gate(amplitudes[:, :, None] * amplitudes[:, None, :].conj())
        density_forms = _density_gate(_branch_density(psi, ts))
        return [linalg.frobenius(a - b) for a, b in zip(vector_forms, density_forms)]

    def update_form_agreement() -> float:
        rows, _, _ = events()
        worst = 0.0
        for block in _stacks(rows, gobs.dim):
            try:
                deviations = update_forms(block)
            except Exception:
                # one event at a time, so the first event that fails, in its
                # first failing step, names the cause
                deviations = [x for i in range(len(block)) for x in update_forms(block[i:i + 1])]
            for x in deviations:
                worst = max(worst, x)
        return worst

    def singleton_consistency() -> float:
        return max(abs(p - overall(row)) for p, row in zip(probabilities(), singletons))

    def nonselective_forms() -> float:
        mixture = nonselective_state(operators()).matrix
        weighted = np.zeros_like(mixture)
        live = [k for k, p in enumerate(probabilities()) if p > MIXTURE_FLOOR]
        for k, state in zip(live, lueders(live)):
            weighted += probabilities()[k] * to_density(state).matrix
        return linalg.frobenius(mixture - weighted)

    def repeatability() -> float:
        detected = range(1, len(probabilities()))
        live = [n for n in detected if not probabilities()[n] < BRANCH_FLOOR]
        worst = 0.0
        for n, state in zip(live, lueders(live)):
            others = [m for m in detected if m != n]
            for p in _outcome_probabilities(measurement_operators(gobs, state), others):
                worst = max(worst, p)
        return worst

    with ThreadPoolExecutor(max_workers=1) as pool:
        pov = pool.submit(contextvars.copy_context().run, _guard, pov_axioms, "pov-normalization",
                          "pov-positivity", "pov-additivity", "pov-commutativity")
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
    return [*pov.result(), *others]
