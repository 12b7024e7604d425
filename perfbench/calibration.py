"""Machine-speed reference: a fixed kernel timed between the measured units.

The benchmark runs on shared virtual machines whose speed drifts by 15-25%
over seconds to minutes: the CPU time of a fixed loop varies that much within
one process. Raw unit times inherit the drift, so two sets of runs of the same
code disagree by more than any useful bound. The end-to-end times are
therefore reported in reference seconds: each unit's wall time is multiplied by
``REFERENCE_S / c``, where ``c`` is the mean time of this kernel run just
before and just after the unit. The kernel is benchmark code that no change to
esrsim touches, and it mixes the same kinds of work as the workloads:
interpreted Python, small dense eigenvalue problems and matrix-vector products.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of one kernel() call on a 2-vCPU Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6 with scipy-openblas; fixed so every run uses the same scale.
REFERENCE_S = 0.015

_REPS = 160
_rng = np.random.default_rng(0)
_M = _rng.normal(size=(32, 32)) + 1j * _rng.normal(size=(32, 32))
_M = _M + _M.conj().T
_V = _rng.normal(size=32) + 1j * _rng.normal(size=32)


def kernel() -> float:
    """Run the fixed reference work once and return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(_REPS):
        acc += float(np.linalg.eigvalsh(_M)[0])
        w = _M @ _V
        acc += float(np.vdot(w, w).real)
        acc += sum(float(x) for x in range(200))
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite result")
    return elapsed


def adjust(times: list[float], kernels: list[float]) -> list[float]:
    """Unit times in reference seconds; ``kernels`` holds one more entry than
    ``times``, the kernel timed before each unit and after the last."""
    return [t * REFERENCE_S / ((before + after) / 2.0)
            for t, before, after in zip(times, kernels, kernels[1:])]
