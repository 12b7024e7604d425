"""Object-apparatus compound model.

The measured object couples to a pointer whose basis states are "ready / not
detected" (index 0) plus one state per distinct eigenvalue (indices 1..K),
however degenerate, so the observable fixes the pointer dimension K + 1 and
the apparatus model holds only the two branch phases. The coupling sends the
initial product state into a detected branch entangled with the pointer plus
an undisturbed no-detection branch. Its weights derive from the detection probability of the object's
state, so the map is nonlinear in that state (hence nonunitary), yet it
preserves the norm for every input. Tracing out the pointer reproduces the
nonselective post-measurement mixture: the consistency content of the model.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .model import (
    DensityOperator,
    GeneralizedObservable,
    PureState,
    _freeze_finite,
    detection_probability,
)

__all__ = ["ApparatusModel", "CompoundState", "compound_density", "couple_and_evolve",
           "reduced_object_state"]


@dataclass(frozen=True)
class ApparatusModel:
    """Coupling phases (radians) of the apparatus.

    The phases rotate the detected and undetected branch amplitudes; the
    object's reduced state after the coupling is independent of them. The
    pointer's dimension is not a setting: :func:`couple_and_evolve` derives
    it from the observable.
    """

    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if not np.isfinite([self.theta, self.phi]).all():
            raise ValueError(f"phases must be finite, got theta={self.theta!r}, phi={self.phi!r}")

    def branch_amplitudes(self, detection_probability: float) -> tuple[complex, complex]:
        """(detected, undetected) branch weights; squared moduli sum to 1."""
        alpha = np.sqrt(detection_probability) * cmath.exp(1j * self.theta)
        beta = np.sqrt(1.0 - detection_probability) * cmath.exp(1j * self.phi)
        return alpha, beta


@dataclass(frozen=True, eq=False)
class CompoundState:
    """Vector on the object⊗pointer space, object index major.

    Its norm is not gated: :func:`couple_and_evolve` gives a unit vector up to
    the projectors' own defect, and ``measurement.coupling_checks`` reports
    that defect as ``coupling-norm``. The states built from it are gated.
    """

    amplitudes: np.ndarray
    dim_object: int
    dim_pointer: int

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=complex)
        if v.ndim != 1 or v.size != self.dim_object * self.dim_pointer:
            raise DimensionMismatchError(
                f"amplitude count {v.size} != {self.dim_object} * {self.dim_pointer}")
        object.__setattr__(self, "amplitudes", _freeze_finite(v))


def couple_and_evolve(gobs: GeneralizedObservable, psi: PureState,
                      apparatus: ApparatusModel) -> CompoundState:
    """Couple the object to the ready pointer and apply the measurement evolution.

    The pointer has K + 1 basis states for the K distinct eigenvalues of the
    observable: the ready state 0 and one per eigenvalue, whatever the rank
    of its projector. The result is
    ``alpha * sum_k (P_k psi)⊗|k> + beta * psi⊗|0>`` with
    ``|alpha|^2 = p_d`` and ``|beta|^2 = 1 - p_d``; orthogonality of the
    pointer states and completeness of the projectors make the norm exactly 1.
    """
    alpha, beta = apparatus.branch_amplitudes(detection_probability(gobs, psi))
    dim_pointer = gobs.base.eigenvalues.size + 1
    grid = np.zeros((psi.dim, dim_pointer), dtype=complex)
    grid[:, 0] = beta * psi.amplitudes
    grid[:, 1:] = alpha * (gobs.base.projectors @ psi.amplitudes).T
    return CompoundState(grid.reshape(-1), psi.dim, dim_pointer)


def compound_density(cs: CompoundState) -> DensityOperator:
    """Rank-1 density operator of the compound state."""
    v = cs.amplitudes
    return DensityOperator(np.outer(v, v.conj()))


def reduced_object_state(cs: CompoundState) -> DensityOperator:
    """Partial trace over the pointer: the object's reduced density operator,
    ``G G†`` for the amplitudes ``G`` as an (object, pointer) grid."""
    grid = cs.amplitudes.reshape(cs.dim_object, cs.dim_pointer)
    return DensityOperator(grid @ grid.conj().T)
