"""Seeded Monte Carlo sampling of generalized measurements.

Sampling is two-stage, mirroring the probability law: a Bernoulli detection
draw first, then (if detected) a Born draw among the eigenvalues. Every trial
consumes exactly two uniforms: trial t of every sampler reads uniforms 2t and
2t + 1 of one counter-based Philox4x64 stream keyed by (seed, stream). So
``run_experiment``'s counts are the histogram of ``trials`` chained
``sample_measurement`` draws on one ``RngSpec.generator()``, bit for bit
whatever the number of workers.

``run_experiment`` hands each worker task a fixed run of trials. The task
starts a generator at its first trial (each Philox counter step yields four
uniforms) and draws the run in one call. The detected draws are sorted once
and the Born bins counted from one binary search per bin edge. numpy releases
the GIL while it fills, sorts and counts the draws, so ``workers > 1`` speeds
up large runs without changing which uniforms a trial uses.

Single draws (``sample_measurement``, ``sample_sequence``) take the Born
weights from ``model._born_weights``, the one stacked product of all
projectors with the state that overall probabilities use, clipped at 0 and
normalized. A detected outcome whose projector has rank 1 takes its post-state
from the observable's table of Lüders eigenstates, built once per observable:
the Lüders state of a rank-1 projector does not depend on the pre-state.
Higher ranks apply the Lüders rule to the state per draw. The detection
probability and Born weights of each table entry are built once per
generalized observable too, on first use, so a sequence computes them only for
its prepared state and for each higher-rank post-state. An ``RngSpec`` is
served by one generator per thread, reset to counter 0 of the spec's stream
on every call; it never leaves this module. A sequence fetches all its
uniforms in one call, and each draw finds its Born bin by bisection on plain
floats. Records equal those of chained single draws.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .measurement import MeasurementOutcomeRecord, _branch_state
from .model import (
    GeneralizedObservable,
    PureState,
    _born_weights,
    _require_dim,
    detection_probability,
)

# Trials per block, the unit ``block_generator`` positions at. Blocks and tasks
# only schedule work; no report depends on their sizes.
BLOCK_SIZE = 4096
DRAWS_PER_TRIAL = 2
# Blocks counted by one worker task: enough that numpy, not the per-task
# Python, does most of the work.
_BLOCKS_PER_TASK = 16

RNG_ALGORITHM = "philox4x64-seq"

# Holds each thread's generator for ``RngSpec`` draws (see ``_as_generator``).
_thread = threading.local()


@dataclass(frozen=True)
class RngSpec:
    """Deterministic random-stream identity: a (seed, stream) pair.

    Identical specs yield identical sample sequences.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            # bool is an int subclass, but True is no seed
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not 0 <= int(self.stream_id) < 2 ** 64:
            raise ValueError("stream_id must be a nonnegative 64-bit integer")

    def describe(self) -> str:
        """Algorithm identifier recorded in reports."""
        return f"{RNG_ALGORITHM}:seed={self.seed}:stream={self.stream_id}"

    def _key(self) -> np.ndarray:
        """The Philox key of the stream."""
        return np.array([self.seed, self.stream_id], dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        """Fresh generator at the start of the stream: trial 0."""
        return np.random.Generator(np.random.Philox(key=self._key()))

    def block_generator(self, block: int) -> np.random.Generator:
        """Fresh generator on the same stream, positioned at trial
        ``block * BLOCK_SIZE``. Each Philox counter step yields four uniforms."""
        counter = block * BLOCK_SIZE * DRAWS_PER_TRIAL // 4
        return np.random.Generator(np.random.Philox(key=self._key(), counter=counter))


def born_probabilities(gobs: GeneralizedObservable, psi: PureState) -> np.ndarray:
    """Conditional (detected) outcome distribution over the eigenvalues."""
    _require_dim(gobs, psi)
    p = np.maximum(_born_weights(gobs, psi), 0.0)
    return p / p.sum()


def predicted_probabilities(gobs: GeneralizedObservable, psi: PureState) -> np.ndarray:
    """Overall outcome distribution, no-registration outcome first."""
    pd = detection_probability(gobs, psi)
    born = born_probabilities(gobs, psi)
    return np.concatenate(([1.0 - pd], pd * born))


def _cumulative(born: np.ndarray) -> np.ndarray:
    cum = np.cumsum(born)
    cum[-1] = 1.0  # kill cumsum roundoff at the top end
    return cum


def _as_generator(rng) -> np.random.Generator:
    """A live generator as it is; for an ``RngSpec``, this thread's generator
    reset to the start of the spec's stream, which gives the uniforms of
    ``rng.generator()`` without building a Philox per call."""
    if not isinstance(rng, RngSpec):
        return rng
    gen = getattr(_thread, "generator", None)
    if gen is None:
        gen = _thread.generator = np.random.Generator(np.random.Philox(key=0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": rng._key()},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return gen


def _weights(gobs: GeneralizedObservable,
             psi: PureState) -> tuple[float, np.ndarray, np.ndarray]:
    """(detection probability, Born weights, their cumulative sums) of one state."""
    born = born_probabilities(gobs, psi)
    return detection_probability(gobs, psi), born, _cumulative(born)


def _draw(gobs: GeneralizedObservable, psi: PureState, u0: float, u1: float,
          pd: float, born: np.ndarray, cum: np.ndarray
          ) -> tuple[MeasurementOutcomeRecord, int | None]:
    """One draw on ``psi`` from the uniforms (u0, u1), given its ``_weights``
    (pd, born, cum); returns the record and the Born bin, ``None`` if undetected."""
    if u0 >= pd:
        return MeasurementOutcomeRecord(
            outcome=gobs.a0, detected=False, pre_state=psi, post_state=psi,
            probability=1.0 - pd), None
    # the comparisons of np.searchsorted(cum, u1, side="right")
    k = bisect_right(cum.tolist(), u1)
    if k >= born.size or born[k] <= 0.0:
        # roundoff landed on an empty bin
        k = int(np.argmax(born))
    post = gobs.base._eigenstates[k]
    if post is None:
        post = _branch_state(psi, gobs.base.projectors[k])
    return MeasurementOutcomeRecord(
        outcome=float(gobs.base.eigenvalues[k]), detected=True, pre_state=psi,
        post_state=post, probability=pd * float(born[k])), k


def sample_measurement(gobs: GeneralizedObservable, psi: PureState,
                       rng) -> MeasurementOutcomeRecord:
    """Draw one measurement: detection Bernoulli, then a Born draw if detected.

    ``rng`` is either an :class:`RngSpec`, whose stream is read from its
    start, so the same spec always yields the same record, or a live numpy
    Generator whose state advances by exactly two uniforms. An undetected draw
    leaves the state object untouched; a detected one applies the Lüders
    update, taken from the observable's eigenstate table when the projector has
    rank 1. A state of the wrong dimension raises DimensionMismatchError.
    """
    weights = _weights(gobs, psi)
    u0, u1 = _as_generator(rng).random(DRAWS_PER_TRIAL).tolist()
    return _draw(gobs, psi, u0, u1, *weights)[0]


def sample_sequence(gobs: GeneralizedObservable, psi: PureState, length: int,
                    rng) -> list[MeasurementOutcomeRecord]:
    """Chain measurements, feeding each post-state into the next draw.

    The records equal those of chained :func:`sample_measurement` calls on one
    generator; a live generator advances by exactly ``2 * length`` uniforms.
    A detected draw that lands on a rank-1 projector takes the weights of its
    eigenstate from the observable's table, so only the prepared state and
    higher-rank post-states have their weights computed here.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    weights = _weights(gobs, psi)
    uniforms = _as_generator(rng).random((length, DRAWS_PER_TRIAL)).tolist()
    records = []
    state = psi
    for u0, u1 in uniforms:
        record, k = _draw(gobs, state, u0, u1, *weights)
        records.append(record)
        if k is not None:
            state = record.post_state
            weights = gobs._eigenstate_weights[k] or _weights(gobs, state)
    return records


@dataclass(frozen=True, eq=False)
class RunReport:
    """Aggregated frequencies vs predictions for repeated single measurements."""

    outcomes: np.ndarray
    counts: np.ndarray
    predicted: np.ndarray
    trials: int
    rng: str

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if int(counts.sum()) != self.trials:
            raise ValueError("per-outcome counts must sum to the trial count")
        for name in ("outcomes", "counts", "predicted"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.trials

    @property
    def standard_errors(self) -> np.ndarray:
        """Binomial sigma per outcome: sqrt(p (1 - p) / N)."""
        p = self.predicted
        return np.sqrt(p * (1.0 - p) / self.trials)

    @property
    def sigma_deviations(self) -> np.ndarray:
        """|frequency - prediction| in sigma units (inf where sigma is 0 yet off)."""
        diff = np.abs(self.frequencies - self.predicted)
        se = self.standard_errors
        out = np.zeros_like(diff)
        live = se > 0.0
        out[live] = diff[live] / se[live]
        out[~live & (diff > 0.0)] = np.inf
        return out

    @property
    def max_sigma_deviation(self) -> float:
        return float(np.max(self.sigma_deviations))

    def to_dict(self) -> dict:
        """JSON-ready content; non-finite sigma deviations map to None."""
        sigma = [float(s) if np.isfinite(s) else None for s in self.sigma_deviations]
        return {
            "trials": self.trials,
            "rng": self.rng,
            "outcomes": [float(v) for v in self.outcomes],
            "counts": [int(c) for c in self.counts],
            "frequencies": [float(f) for f in self.frequencies],
            "predicted": [float(p) for p in self.predicted],
            "standard_errors": [float(s) for s in self.standard_errors],
            "sigma_deviations": sigma,
        }


def _bin_counts(x: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """``bincount(searchsorted(cum, x, side="right"), minlength=cum.size + 1)``.

    Counted from the sorted draws instead: ``#{x < cum[k]}`` is the number of
    draws whose right-side index is at most ``k``, ties in ``cum`` and draws
    equal to an entry included. Sorts ``x`` in place.
    """
    x.sort()
    return np.diff(np.searchsorted(x, cum), prepend=0, append=x.size)


def run_experiment(gobs: GeneralizedObservable, psi: PureState, trials: int,
                   rng: RngSpec, workers: int = 1) -> RunReport:
    """Sample ``trials`` independent measurements of the same prepared state.

    Trial t reads uniforms 2t and 2t + 1 of ``rng``'s stream, so the report
    depends only on (scenario, rng, trials) and not on ``workers``, which only
    sets how many runs of trials are counted at once.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    pd, born, cum = _weights(gobs, psi)
    # Roundoff can land a draw on an empty Born bin or past the top one; such
    # draws count for the largest bin, as in _draw.
    stray = np.append(born <= 0.0, True)
    top = int(np.argmax(born))
    task_trials = _BLOCKS_PER_TASK * BLOCK_SIZE

    def count_task(start: int) -> np.ndarray:
        size = min(trials - start, task_trials)
        u = rng.block_generator(start // BLOCK_SIZE).random((size, DRAWS_PER_TRIAL))
        # The detected trials' second uniforms, taken by flat index. np.compress
        # first copies the strided column; that extra 0.5 MiB per task is enough
        # for malloc to return the heap to the OS and fault it back in each task.
        detected = u.ravel().take(DRAWS_PER_TRIAL * np.flatnonzero(u[:, 0] < pd) + 1)
        bins = _bin_counts(detected, cum)
        bins[top] += bins[stray].sum()
        bins[stray] = 0
        return np.concatenate(([size - detected.size], bins[:-1]))

    starts = range(0, trials, task_trials)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            totals = sum(pool.map(count_task, starts))
    else:
        totals = sum(count_task(start) for start in starts)

    return RunReport(
        outcomes=gobs.outcomes,
        counts=totals,
        predicted=np.concatenate(([1.0 - pd], pd * born)),
        trials=trials,
        rng=rng.describe(),
    )
