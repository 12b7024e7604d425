"""Seeded Monte Carlo sampling of generalized measurements.

Sampling is two-stage, mirroring the probability law: a Bernoulli detection
draw first, then (if detected) a Born draw among the eigenvalues. Randomness
comes from the counter-based Philox generator, keyed by (seed, stream) and
offset per fixed-size trial block, so every block is a pure function of
(seed, stream, block index). Reports are therefore reproducible bit for bit
regardless of how many workers process the blocks.

``run_experiment`` hands each worker task a fixed run of these 4096-trial
blocks, counted together in one buffer. A task builds one generator and, for
each later block, rewrites only its counter, which puts it in the state a
fresh generator for that block starts in. The detected draws are sorted once
and the Born bins counted from one binary search per bin edge. numpy releases
the GIL while it fills, sorts and counts the buffer, so ``workers > 1`` speeds
up large runs; the grouping never changes which draws a trial uses, so the
reports stay the same.

Every trial consumes exactly two uniform draws.

Single draws (``sample_measurement``, ``sample_sequence``) take the Born
weights from one stacked product of all projectors with the state. A
sequence computes the weights and the detection probability once per state:
an undetected draw returns the same state, so they are reused until a
detected draw replaces it. Records equal those of chained single draws.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .measurement import MeasurementOutcomeRecord, fix_phase
from .model import (
    GeneralizedObservable,
    PureState,
    detection_probability,
)

# Trials per RNG counter block; fixed so reports never depend on worker count.
BLOCK_SIZE = 4096
DRAWS_PER_TRIAL = 2
# Blocks counted by one worker task: enough that numpy, not the per-task
# Python, does most of the work. Reports do not depend on it.
_BLOCKS_PER_TASK = 16

RNG_ALGORITHM = "philox4x64"


@dataclass(frozen=True)
class RngSpec:
    """Deterministic random-stream identity: a (seed, stream) pair.

    Identical specs yield identical sample sequences.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not 0 <= int(self.stream_id) < 2 ** 64:
            raise ValueError("stream_id must be a nonnegative 64-bit integer")

    def describe(self) -> str:
        """Algorithm identifier recorded in reports."""
        return f"{RNG_ALGORITHM}:seed={self.seed}:stream={self.stream_id}"

    def generator(self, counter: int = 0) -> np.random.Generator:
        """Fresh generator positioned at the given 256-bit counter offset."""
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=counter))

    def block_generator(self, block: int) -> np.random.Generator:
        """Independent generator for one block of trials."""
        return self.generator(counter=block << 192)


def born_probabilities(gobs: GeneralizedObservable, psi: PureState) -> np.ndarray:
    """Conditional (detected) outcome distribution over the eigenvalues."""
    v = psi.amplitudes
    # one stacked product; each of its rows is P_k @ v to the bit
    p = np.array([float(np.vdot(v, row).real) for row in gobs.base._projector_stack @ v])
    p = np.maximum(p, 0.0)
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


def _conditional_index(born: np.ndarray, cum: np.ndarray, u: float) -> int:
    k = int(np.searchsorted(cum, u, side="right"))
    if k >= born.size or born[k] <= 0.0:
        # roundoff landed on an empty bin
        k = int(np.argmax(born))
    return k


def _as_generator(rng) -> np.random.Generator:
    return rng.generator() if isinstance(rng, RngSpec) else rng


def _weights(gobs: GeneralizedObservable,
             psi: PureState) -> tuple[float, np.ndarray, np.ndarray]:
    """(detection probability, Born weights, their cumulative sums) of one state."""
    born = born_probabilities(gobs, psi)
    return detection_probability(gobs, psi), born, _cumulative(born)


def _draw(gobs: GeneralizedObservable, psi: PureState, gen: np.random.Generator,
          pd: float, born: np.ndarray, cum: np.ndarray) -> MeasurementOutcomeRecord:
    """One two-uniform draw on ``psi``, whose ``_weights`` are (pd, born, cum)."""
    u = gen.random(DRAWS_PER_TRIAL)
    if u[0] >= pd:
        return MeasurementOutcomeRecord(
            outcome=gobs.a0, detected=False, pre_state=psi, post_state=psi,
            probability=1.0 - pd)
    k = _conditional_index(born, cum, float(u[1]))
    v = gobs.base.projectors[k] @ psi.amplitudes
    post = PureState(fix_phase(v / np.linalg.norm(v)))
    return MeasurementOutcomeRecord(
        outcome=float(gobs.base.eigenvalues[k]), detected=True, pre_state=psi,
        post_state=post, probability=pd * float(born[k]))


def sample_measurement(gobs: GeneralizedObservable, psi: PureState,
                       rng) -> MeasurementOutcomeRecord:
    """Draw one measurement: detection Bernoulli, then a Born draw if detected.

    ``rng`` is either an :class:`RngSpec` (a fresh generator is derived, so
    the same spec always yields the same record) or a live numpy Generator
    whose state advances by exactly two uniforms. An undetected draw leaves
    the state object untouched; a detected one applies the Lüders update.
    """
    return _draw(gobs, psi, _as_generator(rng), *_weights(gobs, psi))


def sample_sequence(gobs: GeneralizedObservable, psi: PureState, length: int,
                    rng) -> list[MeasurementOutcomeRecord]:
    """Chain measurements, feeding each post-state into the next draw.

    The records equal those of chained :func:`sample_measurement` calls on one
    generator. An undetected draw keeps the state, so its weights are reused
    until a detected draw replaces it.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    gen = _as_generator(rng)
    records = []
    state, weights = psi, None
    for _ in range(length):
        if weights is None:
            weights = _weights(gobs, state)
        record = _draw(gobs, state, gen, *weights)
        records.append(record)
        if record.detected:
            state, weights = record.post_state, None
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


def _reposition(gen: np.random.Generator, fresh: dict, block: int) -> None:
    """Put ``gen`` in the state a fresh ``block_generator(block)`` starts in.

    ``fresh`` is the bit generator state of a freshly built block generator of
    the same spec. Blocks differ only in the counter, ``block << 192``, so one
    counter write replaces building a new generator.
    """
    fresh["state"]["counter"][:] = (0, 0, 0, block)
    gen.bit_generator.state = fresh


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

    Trials are drawn in fixed blocks, each with its own counter-offset
    generator, so the report depends only on (scenario, rng, trials) and not
    on ``workers``, which only sets how many runs of blocks are counted at once.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    pd = detection_probability(gobs, psi)
    born = born_probabilities(gobs, psi)
    cum = _cumulative(born)
    # Roundoff can land a draw on an empty Born bin or past the top one; such
    # draws count for the largest bin, as in _conditional_index.
    stray = np.append(born <= 0.0, True)
    top = int(np.argmax(born))
    task_trials = _BLOCKS_PER_TASK * BLOCK_SIZE

    def count_task(start: int) -> np.ndarray:
        size = min(trials - start, task_trials)
        u = np.empty((size, DRAWS_PER_TRIAL))
        first = start // BLOCK_SIZE
        gen = rng.block_generator(first)
        fresh = gen.bit_generator.state
        for lo in range(0, size, BLOCK_SIZE):
            if lo:
                _reposition(gen, fresh, first + lo // BLOCK_SIZE)
            gen.random(out=u[lo:lo + BLOCK_SIZE])
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
        predicted=predicted_probabilities(gobs, psi),
        trials=trials,
        rng=rng.describe(),
    )
