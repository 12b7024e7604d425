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
outputs) and reads the run's raw 64-bit outputs in one call, with no float
array built. A uniform is ``(raw >> 11) * 2**-53``, so ``u < x`` holds exactly
when ``raw < L(x)``, ``L(x) = min(ceil(x * 2**53), 2**53) * 2**11``
(``_raw_limit``): each comparison of the float rule is made on the integer,
with the same outcome. The detected outputs are sorted once and the Born bins
counted from one binary search per limit. numpy releases the GIL while it
fills, sorts and counts the outputs, so ``workers > 1`` speeds up large runs
without changing which uniforms a trial uses.

Single draws run one loop, ``sample_sequence``; ``sample_measurement`` is a
sequence of one. The Born weights are ``model._born_weights``, the one stacked
product of all projectors with the state that overall probabilities use,
clipped at 0 and normalized. The sampler keeps two caches in each generalized
observable's ``_sampler`` slot, which only this module reads: the weights of
each prepared state, computed on its first call (``_start_weights``), and the
rank-1 Lüders states with their weights (``_eigenstates``), built on the first
detected draw. Higher ranks apply the Lüders rule per draw, a new state each
time, and compute its weights only if another draw follows; those are never
kept. An ``RngSpec`` is served by one generator per thread, reset to counter 0
of the spec's stream on every call from one state dict of plain ints per
thread, of which a call replaces only the key; the generator never leaves this
module. The integer gate only range-checks an exact ``int``. A sequence
fetches all its uniforms in one call. A draw reads only plain Python floats:
it finds its Born bin by bisection on the cumulative weights (the
comparisons the bulk path makes on raw outputs), and takes its outcome from
``gobs.base._eigenvalue_floats``, the tuple the event resolver bisects, and
its Born weight from the weights entry, where ``_weights`` keeps both weights
and sums as tuples of floats. Each draw is one ``MeasurementOutcomeRecord``,
a named tuple made by ``tuple.__new__`` from its fields in order, which skips
the class's Python-level ``__new__``.
"""

from __future__ import annotations

import math
import threading
import weakref
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .measurement import MeasurementOutcomeRecord, _branch_states, fix_phase
from .model import (
    GeneralizedObservable,
    PureState,
    _born_weights,
    _require_dim,
    detection_probability,
)

__all__ = ["RngSpec", "RunReport", "born_probabilities", "run_experiment", "sample_measurement",
           "sample_sequence"]

# Trials per block, the unit ``block_generator`` positions at. Blocks and tasks
# only schedule work; no report depends on their sizes.
BLOCK_SIZE = 4096
DRAWS_PER_TRIAL = 2
# Blocks counted by one worker task: enough that numpy, not the per-task
# Python, does most of the work.
_BLOCKS_PER_TASK = 16

RNG_ALGORITHM = "philox4x64-seq"
# One past the largest raw output: the limit that every output is below.
_RAW_END = 2 ** 64

# Each thread's generator for ``RngSpec`` draws and its reset (``_as_generator``).
_thread = threading.local()


def _require_integer(name: str, value, uint64: bool = False) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a Python or numpy
    integer, not a bool, in [0, 2**64) if ``uint64``, else at least 1. An
    exact ``int`` skips the type tests, which decide every other value."""
    # bool is an int subclass, but True is no seed and no count
    if ((type(value) is not int
         and (isinstance(value, bool) or not isinstance(value, (int, np.integer))))
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
    reset = getattr(_thread, "reset", None)
    if reset is None:
        # plain ints set the state uint64 arrays would, with no array
        # allocated. The setter only reads the dict, so each thread builds one
        # once and a call replaces only its key: no thread sees another's dict.
        philox = {"counter": (0, 0, 0, 0), "key": (0, 0)}
        reset = _thread.reset = (np.random.Generator(np.random.Philox(key=0)), philox, {
            "bit_generator": "Philox", "state": philox, "buffer": (0, 0, 0, 0),
            "buffer_pos": 4, "has_uint32": 0, "uinteger": 0})
    gen, philox, state = reset
    philox["key"] = (int(rng.seed), int(rng.stream_id))
    gen.bit_generator.state = state
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
    and kept in the memo ``gobs._sampler["weights"]``, keyed weakly by the state
    object (``PureState`` compares by identity): an entry lives as long as its
    state and, both being immutable, never goes stale. A state of the wrong
    dimension raises and is never stored; threads that race on a new state
    compute the same weights, and one of them is kept."""
    cache = gobs._sampler
    try:
        memo = cache["weights"]
    except KeyError:
        memo = cache.setdefault("weights", weakref.WeakKeyDictionary())
    entry = memo.get(psi)
    if entry is None:
        entry = memo[psi] = _weights(gobs, psi)
    return entry


def _eigenstates(gobs: GeneralizedObservable) -> tuple[
        tuple[PureState, float, tuple[float, ...], tuple[float, ...]] | None, ...]:
    """Per eigenspace of ``gobs``, its Lüders state and that state's ``_weights``
    ``(state, pd, born, cum)``, or ``None`` for a basis of more than one column:
    the table ``gobs._sampler["eigenstates"]``, built on the first call.

    For ``P = e e†`` the Lüders state ``P v / ‖P v‖`` of any ``v`` with
    ``P v != 0`` is ``e / ‖e‖`` up to a global phase, so with the phase fixed
    it is one state, built here from the basis vector. ``pd`` depends on the
    detection model, so the table is per generalized observable. Threads that
    race to build it build equal tables, and the first one stored is kept."""
    table = gobs._sampler.get("eigenstates")
    if table is None:
        table = []
        for b in gobs.base.bases:
            if b.shape[1] != 1:
                table.append(None)
                continue
            state = PureState(fix_phase(b[:, 0] / np.linalg.norm(b[:, 0])))
            table.append((state, *_weights(gobs, state)))
        table = gobs._sampler.setdefault("eigenstates", tuple(table))
    return table


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
    weights from the sampler's eigenstate table when the projector has
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
    record, eigenvalues = records.append, gobs.base._eigenvalue_floats
    state, table = psi, None
    for step, (u0, u1) in enumerate(uniforms, 1):
        pre, detected = state, u0 < pd
        if detected:
            # the comparisons of np.searchsorted(cum, u1, side="right")
            k = bisect_right(cum, u1)
            outcome, probability = eigenvalues[k], pd * born[k]
            if table is None:
                table = _eigenstates(gobs)
            entry = table[k]
            if entry is not None:
                state, pd, born, cum = entry
            else:
                state = _branch_states(pre, gobs.base.projectors[k:k + 1])[0]
                if step < length:
                    pd, born, cum = _weights(gobs, state)
        else:
            outcome, probability = gobs.a0, 1.0 - pd
        # tuple.__new__ in field order skips the class's Python-level __new__,
        # about 40% of a record's cost
        record(tuple.__new__(MeasurementOutcomeRecord,
                             (outcome, detected, pre, state, probability)))
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


def _raw_limit(x: float) -> int:
    """The ``L`` with ``raw < L`` exactly when ``(raw >> 11) * 2**-53 < x``, for
    every raw 64-bit output and ``x >= 0``:
    ``L = min(ceil(x * 2**53), 2**53) * 2**11``, in [0, 2**64]. Scaling by
    ``2**53`` is exact, and ``m * 2**-53 < x`` holds for an integer ``m``
    exactly when ``m < ceil(x * 2**53)``. ``L = 0`` passes no output (``x = 0``)
    and ``L = 2**64``, which fits no uint64, every output (``x >= 1``)."""
    return min(math.ceil(math.ldexp(x, 53)), 2 ** 53) << 11


def _bin_counts(x: np.ndarray, limits: tuple[int, ...]) -> np.ndarray:
    """``bincount(searchsorted(cum, u, side="right"), minlength=len(cum) + 1)``
    of the uniforms ``u`` that the raw outputs ``x`` stand for, given
    ``limits = [_raw_limit(c) for c in cum]``.

    Counted from the sorted outputs instead: ``#{x < limits[k]}``, which is
    ``#{u < cum[k]}``, is the number of draws whose right-side index is at most
    ``k``, ties in ``cum`` and draws equal to an entry included. The limits
    of 2**64 (``cum`` entries of 1.0 or more) end the tuple and count every output.
    Sorts ``x`` in place.
    """
    x.sort()
    inner = np.array([limit for limit in limits if limit < _RAW_END], dtype=np.uint64)
    tail = [x.size] * (len(limits) - inner.size + 1)
    return np.diff(np.searchsorted(x, inner), prepend=0, append=tail)


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
    detect, limits = _raw_limit(pd), tuple(_raw_limit(c) for c in cum)

    def count_task(start: int) -> np.ndarray:
        size = min(trials - start, task_trials)
        gen = rng.block_generator(start // BLOCK_SIZE)
        raw = gen.bit_generator.random_raw(DRAWS_PER_TRIAL * size)
        # The detected trials' second outputs, taken by flat index. np.compress
        # first copies the strided column; that extra 0.5 MiB per task is enough
        # for malloc to return the heap to the OS and fault it back in each task.
        hits = (np.flatnonzero(raw[::DRAWS_PER_TRIAL] < np.uint64(detect))
                if detect < _RAW_END else np.arange(size))
        detected = raw.take(DRAWS_PER_TRIAL * hits + 1)
        # _cumulative leaves no draw past the top bin, so the last count is 0
        return np.concatenate(([size - detected.size], _bin_counts(detected, limits)[:-1]))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        totals = sum(pool.map(count_task, range(0, trials, task_trials)))

    return RunReport(
        outcomes=gobs.outcomes,
        counts=totals,
        predicted=[1.0 - pd] + [pd * b for b in born],
        trials=int(trials),  # a numpy integer would not serialize
        rng=rng.describe(),
    )
