"""Metamorphic relations: symmetries of the Hilbert-space formalism, checked on
the library's own numbers with no reference implementation.

* Unitary covariance: ``(A, B, psi) -> (U A U†, U B U†, U psi)``, for the
  observable A, the expectation-detection operator B and the state, leaves
  every event's overall probability alone and carries every Lüders post-state
  density W to ``U W U†``.
* Reversal: ``A -> -A`` reverses the spectrum, so outcome k of A (index k + 1
  of ``outcomes``) is outcome K - 1 - k of -A, a0 stays first, and every
  mapped event keeps its probability and post-state density.

Outcomes and events are mapped by index, never by value, since the two models'
eigenvalues differ by roundoff. A post-state density normalized from an event
of probability p carries roundoff of about ε / p, so its gap is weighted by p.
Each relation holds within ``C * d * ε``. On these cases and 20 more seeds of
them, under the default, Haswell and Prescott OpenBLAS kernels, the largest
gaps seen are 1.8 d·ε (covariance) and 1.0 d·ε (reversal).
"""

import numpy as np
import pytest

from esrsim import (
    ExpectationDetection,
    GeneralizedObservable,
    PureState,
    overall_probability,
    post_measurement_density,
)
from helpers import random_hermitian, random_observable, random_state, random_unitary, reconstruct

# the constant C of each relation's bound C d·ε, for probabilities and for
# probability-weighted post-state densities alike
COVARIANCE_C = 4
REVERSAL_C = 2
EVENTS = 16  # random events per case, besides every singleton


def _case(d: int, degenerate: bool):
    """(A, B, psi, U, rows): an observable, with repeated eigenvalues if
    ``degenerate``, a detection operator with spectrum in [0.05, 0.95], a
    state, a unitary, and event rows over the K + 1 outcomes (a0 first)."""
    rng = np.random.default_rng(100 + d + degenerate)
    a = reconstruct(random_observable(rng, d, True)) if degenerate else random_hermitian(rng, d)
    w = random_unitary(rng, d)
    b = (w * rng.uniform(0.05, 0.95, size=d)) @ w.conj().T
    psi, u = random_state(rng, d), random_unitary(rng, d)
    n = GeneralizedObservable.from_matrix(a, ExpectationDetection(b)).outcomes.size
    rows = np.concatenate((np.eye(n, dtype=bool), rng.random((EVENTS, n)) < 0.5))
    return a, b, psi, u, rows


def _gaps(first, psi, second, phi, rows, order, u=None) -> tuple[float, float]:
    """Worst probability gap and worst probability-weighted post-state density
    gap between event ``row`` of ``(first, psi)`` and event ``row[order]`` of
    ``(second, phi)``, the first model's density carried by ``u`` if given."""
    worst_p = worst_w = 0.0
    for row in rows:
        mapped = row[order]
        p = overall_probability(first, psi, first.outcomes[row])
        worst_p = max(worst_p, abs(p - overall_probability(second, phi, second.outcomes[mapped])))
        if p > 1e-9:
            w = post_measurement_density(first, psi, first.outcomes[row]).matrix
            if u is not None:
                w = u @ w @ u.conj().T
            w2 = post_measurement_density(second, phi, second.outcomes[mapped]).matrix
            worst_w = max(worst_w, p * float(np.linalg.norm(w - w2)))
    return worst_p, worst_w


CASES = [(d, degenerate) for d in (8, 32) for degenerate in (False, True)]


@pytest.mark.parametrize("d, degenerate", CASES)
def test_unitary_covariance(d, degenerate):
    a, b, psi, u, rows = _case(d, degenerate)
    first = GeneralizedObservable.from_matrix(a, ExpectationDetection(b))
    second = GeneralizedObservable.from_matrix(u @ a @ u.conj().T,
                                               ExpectationDetection(u @ b @ u.conj().T))
    assert second.outcomes.size == first.outcomes.size
    phi = PureState(u @ psi.amplitudes)
    gaps = _gaps(first, psi, second, phi, rows, np.arange(rows.shape[1]), u)
    assert max(gaps) <= COVARIANCE_C * d * np.finfo(float).eps, gaps


@pytest.mark.parametrize("d, degenerate", CASES)
def test_reversal(d, degenerate):
    a, b, psi, _, rows = _case(d, degenerate)
    first = GeneralizedObservable.from_matrix(a, ExpectationDetection(b))
    second = GeneralizedObservable.from_matrix(-a, ExpectationDetection(b))
    n = first.outcomes.size
    assert second.outcomes.size == n
    np.testing.assert_allclose(second.outcomes[:0:-1], -first.outcomes[1:], rtol=0, atol=1e-12)
    gaps = _gaps(first, psi, second, psi, rows, np.concatenate(([0], np.arange(n - 1, 0, -1))))
    assert max(gaps) <= REVERSAL_C * d * np.finfo(float).eps, gaps
