"""Post-measurement state transformations.

The generalized state-update rule conditions on the measured value falling in
an outcome event: the state is untouched when the object goes undetected,
collapses by the Lüders rule when a detected value is observed, and
interpolates between the two branches when the event allows both. For
discrete observables the same content is packaged as a commuting family of
measurement operators, one per outcome, whose nonselective mixture is the
state an unread measurement leaves behind.

Post-measurement vectors carry a fixed global phase (largest-magnitude
amplitude real and nonnegative) so they can be compared entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import ZeroProbabilityBranchError
from .model import (
    DensityOperator,
    GeneralizedObservable,
    PureState,
    _effect_operator,
    clamp_probability,
    detection_probability,
    split_event,
    to_density,
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
