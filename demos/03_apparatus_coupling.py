"""The measurement process as an object-apparatus coupling.

The pointer starts "ready" (basis state 0) and ends correlated with the
detected eigenvalue, or stays ready if the object escapes detection. The
coupling is nonlinear in the object state (its weights depend on the state's
detection probability) yet norm-preserving, and tracing out the pointer
reproduces exactly the nonselective post-measurement mixture. The pointer has
one state per distinct eigenvalue, so degenerate spectra couple the same way;
the observable fixes its dimension, and the apparatus model holds only the
two branch phases.
"""

import numpy as np

from esrsim import (
    ApparatusModel,
    ConstantDetection,
    ExpectationDetection,
    GeneralizedObservable,
    PureState,
    compound_density,
    couple_and_evolve,
    measurement_operators,
    nonselective_state,
    reduced_object_state,
)

gobs = GeneralizedObservable.from_matrix(
    np.diag([1.0, -1.0]), ConstantDetection(0.5), a0=0.0)
psi = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
compound = couple_and_evolve(gobs, psi, ApparatusModel())
grid = compound.amplitudes.reshape(gobs.dim, compound.dim_pointer)
print("compound amplitudes, rows = object basis, columns = pointer 0..K:")
print(np.round(grid.real, 4))
print("norm:", np.linalg.norm(compound.amplitudes))

print("\ncompound state is pure: purity =", round(compound_density(compound).purity(), 12))

reduced = reduced_object_state(compound)
mixture = nonselective_state(measurement_operators(gobs, psi))
print("\nreduced object state (pointer traced out):")
print(np.round(reduced.matrix.real, 4))
print("nonselective mixture from the operator family:")
print(np.round(mixture.matrix.real, 4))
print("Frobenius distance:", np.linalg.norm(reduced.matrix - mixture.matrix))

print("\nthe branch phases never reach the reduced state")
for theta, phi in [(0.0, 0.0), (np.pi / 3, 0.0), (np.pi, 1.7)]:
    app = ApparatusModel(theta, phi)
    r = reduced_object_state(couple_and_evolve(gobs, psi, app))
    print(f"  theta={theta:.3f} phi={phi:.3f}: "
          f"distance to reference = {np.linalg.norm(r.matrix - reduced.matrix):.2e}")

print("\nnonlinearity: state-dependent detection breaks superposition")
gobs_nl = GeneralizedObservable(gobs.base, 0.0, ExpectationDetection(np.diag([0.1, 0.9])))
app_nl = ApparatusModel()
up, down = PureState(np.array([1.0, 0.0])), PureState(np.array([0.0, 1.0]))
plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
evolved_plus = couple_and_evolve(gobs_nl, plus, app_nl).amplitudes
branch_sum = (couple_and_evolve(gobs_nl, up, app_nl).amplitudes
              + couple_and_evolve(gobs_nl, down, app_nl).amplitudes)
branch_sum /= np.linalg.norm(branch_sum)
print("  |evolve(up+down) - (evolve(up)+evolve(down))| =",
      round(float(np.linalg.norm(evolved_plus - branch_sum)), 4))
print("  yet the norm is always preserved:",
      np.linalg.norm(evolved_plus), "= 1")

print("\ndegenerate spectrum: eigenvalue 1 twice, one pointer state for it")
gobs_dg = GeneralizedObservable.from_matrix(
    np.diag([1.0, 1.0, 2.0]), ConstantDetection(0.8), a0=0.0)
psi_dg = PureState(np.array([0.6, 0.48j, 0.64]))
compound_dg = couple_and_evolve(gobs_dg, psi_dg, ApparatusModel())
print("  pointer dim:", compound_dg.dim_pointer, "for object dim", gobs_dg.dim)
print("  norm:", np.linalg.norm(compound_dg.amplitudes))
mixture_dg = nonselective_state(measurement_operators(gobs_dg, psi_dg))
print("  reduced state vs nonselective mixture:",
      np.linalg.norm(reduced_object_state(compound_dg).matrix - mixture_dg.matrix))
