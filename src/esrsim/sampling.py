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

Single draws run one loop, ``sample_sequence``; ``sample_measurement`` is a
sequence of one. The Born weights are ``model._born_weights``, the one stacked
product of all projectors with the state that overall probabilities use,
clipped at 0 and normalized. A prepared state is weighed once per observable:
the start state's weights are kept in ``GeneralizedObservable._weights_memo``,
keyed weakly by the state object, so measuring one state again and again
computes them on the first call only. The Lüders state of a rank-1 projector
does not depend on the pre-state, so a detected draw on one takes its
post-state and that state's weights from
``GeneralizedObservable._eigenstates``, built once per observable on the first
detected draw. Higher ranks apply the Lüders rule per draw, a new state each
time, and compute its weights only if another draw follows; those are never
kept. An ``RngSpec`` is served by one generator per thread, reset to counter 0
of the spec's stream on every call from a state of plain ints; it never leaves
this module. A sequence fetches all its uniforms in one call. A draw reads
only plain Python floats: it finds its Born bin by bisection on the
cumulative weights (the comparisons of the bulk path's ``searchsorted``), and
takes its outcome from ``GeneralizedObservable._eigenvalue_floats`` and its
Born weight from the weights entry, where ``_weights`` keeps both weights and
sums as tuples of floats. Each draw is one ``MeasurementOutcomeRecord``, a
named tuple built from positional fields.
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


def _require_integer(name: str, value, uint64: bool = False) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a Python or numpy
    integer, not a bool, in [0, 2**64) if ``uint64``, else at least 1."""
    # bool is an int subclass, but True is no seed and no count
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not (0 <= value < 2 ** 64 if uint64 else value >= 1)):
        bounds = "in [0, 2**64)" if uint64 else "of at least 1"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


@dataclass(frozen=True)
class RngSpec:
    """Deterministic random-stream identity: a (seed, stream) pair.

    Identical specs yield identical sample sequences.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        _require_integer("seed", self.seed, uint64=True)
        _require_integer("stream_id", self.stream_id, uint64=True)

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


def _cumulative(born: np.ndarray) -> tuple[float, ...]:
    """Cumulative Born weights, 1.0 from the last bin with positive weight on,
    as plain floats for ``bisect_right``.

    A right-side search of any u in [0, 1) then lands on a bin with positive
    weight: a zero-weight bin ties with the bin before it, and the cumsum
    roundoff residue below 1 goes to the last outcome that can occur.
    """
    cum = np.cumsum(born)
    last = -1  # a plain loop: one numpy call costs more than the usual one step
    while born[last] <= 0.0:
        last -= 1
    cum[last:] = 1.0
    return tuple(cum.tolist())


def _as_generator(rng) -> np.random.Generator:
    """A live generator as it is; for an ``RngSpec``, this thread's generator
    reset to the start of the spec's stream, which gives the uniforms of
    ``rng.generator()`` without building a Philox per call. Anything else
    raises TypeError."""
    if not isinstance(rng, RngSpec):
        if not isinstance(rng, np.random.Generator):
            raise TypeError("rng must be an RngSpec or a numpy Generator, "
                            f"got {type(rng).__name__}")
        return rng
    gen = getattr(_thread, "generator", None)
    if gen is None:
        gen = _thread.generator = np.random.Generator(np.random.Philox(key=0))
    # plain ints set the state uint64 arrays would, with no array allocated;
    # a fresh dict per call, as a shared template given each call's key would
    # race between threads
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (int(rng.seed), int(rng.stream_id))},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def _weights(gobs: GeneralizedObservable,
             psi: PureState) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """(detection probability, Born weights, their cumulative sums) of one state,
    the weights and sums as tuples of plain floats."""
    born = born_probabilities(gobs, psi)
    return detection_probability(gobs, psi), tuple(born.tolist()), _cumulative(born)


def _start_weights(gobs: GeneralizedObservable,
                   psi: PureState) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """``_weights`` of a prepared state, computed on its first call with ``gobs``
    and kept in ``gobs._weights_memo``. A state of the wrong dimension raises
    and is never stored."""
    memo = gobs._weights_memo
    entry = memo.get(psi)
    if entry is None:
        entry = memo[psi] = _weights(gobs, psi)
    return entry


def sample_measurement(gobs: GeneralizedObservable, psi: PureState,
                       rng) -> MeasurementOutcomeRecord:
    """Draw one measurement: a :func:`sample_sequence` of length 1."""
    return sample_sequence(gobs, psi, 1, rng)[0]


def sample_sequence(gobs: GeneralizedObservable, psi: PureState, length: int,
                    rng) -> list[MeasurementOutcomeRecord]:
    """Chain measurements, feeding each post-state into the next draw.

    Each draw is a detection Bernoulli on its first uniform, then, if
    detected, a Born draw on its second. ``rng`` is either an :class:`RngSpec`,
    whose stream is read from its start, so the same spec always yields the
    same records, or a live numpy Generator, which advances by exactly
    ``2 * length`` uniforms. ``psi`` is weighed once per observable: its
    weights are computed on its first call with ``gobs`` and reused by every
    later call on the same state object. An undetected draw leaves the state
    object untouched; a detected one applies the Lüders update, taken with its
    weights from the observable's eigenstate table when the projector has
    rank 1. Each record's ``outcome`` and ``probability`` are Python floats
    and its ``detected`` a Python bool. ``length`` must be a Python or numpy
    integer >= 1, else ValueError; a state of the wrong dimension raises
    DimensionMismatchError, and any other ``rng`` TypeError. All three are
    raised before any uniform is drawn, and the last before ``psi`` is weighed.
    """
    _require_integer("length", length)
    gen = _as_generator(rng)
    pd, born, cum = _start_weights(gobs, psi)
    uniforms = gen.random((length, DRAWS_PER_TRIAL)).tolist()
    records = []
    state = psi
    for step, (u0, u1) in enumerate(uniforms, 1):
        pre, detected = state, u0 < pd
        if detected:
            # the comparisons of np.searchsorted(cum, u1, side="right")
            k = bisect_right(cum, u1)
            outcome, probability = gobs._eigenvalue_floats[k], pd * born[k]
            entry = gobs._eigenstates[k]
            if entry is not None:
                state, pd, born, cum = entry
            else:
                state = _branch_state(pre, gobs.base.projectors[k])
                if step < length:
                    pd, born, cum = _weights(gobs, state)
        else:
            outcome, probability = gobs.a0, 1.0 - pd
        # positional, in field order: keywords cost a third more per record
        records.append(MeasurementOutcomeRecord(outcome, detected, pre, state, probability))
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


def _bin_counts(x: np.ndarray, cum: tuple[float, ...]) -> np.ndarray:
    """``bincount(searchsorted(cum, x, side="right"), minlength=len(cum) + 1)``.

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
    depends only on (scenario, rng, trials) and not on ``workers``, the threads
    of the one pool that counts the runs of trials, one or more. ``trials`` and
    ``workers`` must be Python or numpy integers >= 1, else ValueError, and
    ``rng`` an ``RngSpec``, else TypeError; both before ``psi`` is weighed.
    """
    _require_integer("trials", trials)
    _require_integer("workers", workers)
    if not isinstance(rng, RngSpec):
        raise TypeError(f"rng must be an RngSpec, got {type(rng).__name__}")
    pd, born, cum = _start_weights(gobs, psi)
    task_trials = _BLOCKS_PER_TASK * BLOCK_SIZE

    def count_task(start: int) -> np.ndarray:
        size = min(trials - start, task_trials)
        u = rng.block_generator(start // BLOCK_SIZE).random((size, DRAWS_PER_TRIAL))
        # The detected trials' second uniforms, taken by flat index. np.compress
        # first copies the strided column; that extra 0.5 MiB per task is enough
        # for malloc to return the heap to the OS and fault it back in each task.
        detected = u.ravel().take(DRAWS_PER_TRIAL * np.flatnonzero(u[:, 0] < pd) + 1)
        # _cumulative leaves no draw past the top bin, so the last count is 0
        return np.concatenate(([size - detected.size], _bin_counts(detected, cum)[:-1]))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        totals = sum(pool.map(count_task, range(0, trials, task_trials)))

    return RunReport(
        outcomes=gobs.outcomes,
        counts=totals,
        predicted=[1.0 - pd] + [pd * b for b in born],
        trials=int(trials),  # a numpy integer would not serialize
        rng=rng.describe(),
    )
