"""Monte Carlo engine tests: determinism, two-stage draws, statistics.

Statistical assertions run against the binomial-sigma envelope with fixed
seeds, so they are deterministic.
"""

import gc
import math
import sys
import threading
import weakref
from bisect import bisect_right
from types import SimpleNamespace

import numpy as np
import pytest

from esrsim import (
    ConstantDetection,
    DimensionMismatchError,
    ExpectationDetection,
    GeneralizedObservable,
    PureState,
    QuantumObservable,
    RngSpec,
    RunReport,
    born_probabilities,
    overall_probability,
    run_experiment,
    sample_measurement,
    sample_sequence,
)
from esrsim import model, sampling
from esrsim.sampling import _BLOCKS_PER_TASK, BLOCK_SIZE
from helpers import (
    projectors,
    random_generalized,
    random_hermitian,
    random_state,
    random_unitary,
    sigma_z_scenario,
)

TASK = _BLOCKS_PER_TASK * BLOCK_SIZE


class Integer(int):
    """An int subclass: not an exact int, so the integer gate's full rule
    decides it."""


def scalar_rule_counts(gobs, psi, u):
    """Counts of trials whose uniform pairs are the rows of ``u``, each
    classified as a single draw is: detected iff u0 < p_d, then the Born bin
    of u1 by ``scalar_rule_bins``."""
    pd = sampling.detection_probability(gobs, psi)
    born = sampling.born_probabilities(gobs, psi)
    detected = u[:, 0] < pd
    idx = scalar_rule_bins(born, u[detected, 1])
    return np.concatenate(([u.shape[0] - int(detected.sum())],
                           np.bincount(idx, minlength=born.size)))


def scalar_rule_bins(born, x):
    """The Born bin of each detected draw ``x``: the right-side binary search of
    the plain cumulative sums, with roundoff residue past the last bin of
    positive weight counted for that bin."""
    last = np.flatnonzero(born > 0.0)[-1]
    return np.minimum(np.searchsorted(np.cumsum(born), x, side="right"), last)


def block_oracle(gobs, psi, trials, spec):
    """Counts drawn one 4096-trial block generator at a time."""
    counts = 0
    for block in range((trials + BLOCK_SIZE - 1) // BLOCK_SIZE):
        size = min(BLOCK_SIZE, trials - block * BLOCK_SIZE)
        counts = counts + scalar_rule_counts(
            gobs, psi, spec.block_generator(block).random((size, 2)))
    return counts


def per_projector_born(gobs, psi):
    """Born weights from one mat-vec and one vdot per projector, clipped at 0."""
    v = psi.amplitudes
    p = np.array([float(np.vdot(v, proj @ v).real) for proj in projectors(gobs.base)])
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def assert_born_is_the_weights_kernel(gobs, psi):
    """born_probabilities is the clipped, normalized model._born_weights to the
    bit, and within 1e-15 of the independent per-projector form."""
    born = born_probabilities(gobs, psi)
    weights = np.clip(model._born_weights(gobs, psi), 0.0, None)
    np.testing.assert_array_equal(born, weights / weights.sum())
    np.testing.assert_allclose(born, per_projector_born(gobs, psi), rtol=0, atol=1e-15)


def overall_by_outcome(gobs, psi):
    """The model's overall probability of each singleton outcome, a0 first: the
    unnormalized-weights path of ``overall_probability``, not the sampler's."""
    return np.array([overall_probability(gobs, psi, (v,)) for v in gobs.outcomes])


def assert_predicted_is_overall(gobs, psi):
    """``run_experiment``'s predicted distribution is within 1e-14 of ``overall_by_outcome``."""
    predicted = run_experiment(gobs, psi, 10, RngSpec(seed=11)).predicted
    np.testing.assert_allclose(predicted, overall_by_outcome(gobs, psi), rtol=0, atol=1e-14)


def assert_record_probabilities_are_overall(gobs, psi):
    """The probability of each of 50 sampled records is within 1e-14 of its
    outcome's ``overall_by_outcome``."""
    expected = dict(zip(gobs.outcomes.tolist(), overall_by_outcome(gobs, psi)))
    gen = RngSpec(seed=11).generator()
    for _ in range(50):
        record = sample_measurement(gobs, psi, gen)
        assert abs(record.probability - expected[record.outcome]) <= 1e-14


def count_weights(monkeypatch):
    """Patch ``sampling._weights`` to log each state it weighs; returns the log."""
    calls = []
    weights = sampling._weights

    def counted(g, state):
        calls.append(state)
        return weights(g, state)

    monkeypatch.setattr(sampling, "_weights", counted)
    return calls


def weighed(gobs):
    """The states whose weights the sampler keeps for ``gobs``: none before its first call."""
    return list(gobs._sampler.get("weights", {}).keys())


def benchmark_scenario(seed, dim=8):
    """The benchmark generator's recipe: dense observable, expectation detection."""
    rng = np.random.default_rng([seed, dim])
    observable = random_hermitian(rng, dim, scale=1.0)
    u = random_unitary(rng, dim)
    b = (u * rng.uniform(0.45, 0.55, size=dim)) @ u.conj().T
    gobs = GeneralizedObservable.from_matrix(
        observable, ExpectationDetection((b + b.conj().T) / 2.0))
    return gobs, random_state(rng, dim)


class TestRngSpec:
    def test_same_spec_same_stream(self):
        a = RngSpec(seed=7, stream_id=3).generator().random(8)
        b = RngSpec(seed=7, stream_id=3).generator().random(8)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngSpec(seed=7, stream_id=0).generator().random(8)
        b = RngSpec(seed=7, stream_id=1).generator().random(8)
        assert not np.array_equal(a, b)

    def test_block_generators_are_offset(self):
        spec = RngSpec(seed=7)
        a = spec.block_generator(0).random(4)
        b = spec.block_generator(1).random(4)
        assert not np.array_equal(a, b)

    def test_describe_names_algorithm(self):
        assert RngSpec(seed=5, stream_id=2).describe() == "philox4x64-seq:seed=5:stream=2"

    def test_validation(self):
        for field in ("seed", "stream_id"):
            for value in (-1, -2, 2 ** 64, Integer(-1), Integer(2 ** 64)):
                with pytest.raises(ValueError, match=rf"{field} must be an integer in "
                                                     rf"\[0, 2\*\*64\), got {value}$"):
                    RngSpec(**{"seed": 0, field: value})

    @pytest.mark.parametrize("field", ["seed", "stream_id"])
    @pytest.mark.parametrize("value", [1.5, 7.0, np.float64(2.0), True, np.bool_(True),
                                       "7", None, 3 + 0j])
    def test_rejects_non_integers(self, field, value):
        # int() would turn 1.5 into seed 1 while describe() still said 1.5
        kwargs = {"seed": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            RngSpec(**kwargs)

    @pytest.mark.parametrize("value", [0, 1, 2 ** 64 - 1, np.uint64(2 ** 64 - 1), np.int32(9),
                                       np.int64(5), Integer(0), Integer(2 ** 64 - 1)])
    def test_accepts_python_and_numpy_integers(self, value):
        spec = RngSpec(seed=value, stream_id=value)
        assert spec.describe() == f"philox4x64-seq:seed={int(value)}:stream={int(value)}"
        np.testing.assert_array_equal(
            spec.generator().random(4),
            RngSpec(seed=int(value), stream_id=int(value)).generator().random(4))
        # single draws reset a per-thread generator to the state generator() starts in
        assert philox_state(sampling._as_generator(spec)) == philox_state(spec.generator())

    def test_reset_restores_every_state_field(self):
        # the thread's generator is left mid-buffer (ten doubles leave
        # buffer_pos at 2) and holding half a 64-bit output (has_uint32 = 1);
        # the next spec's reset must clear both, as generator() starts
        gobs, psi = benchmark_scenario(523)
        for spec in (RngSpec(seed=7, stream_id=1), RngSpec(seed=2 ** 64 - 1, stream_id=9),
                     RngSpec(seed=7, stream_id=1)):
            gen = sampling._as_generator(spec)
            assert philox_state(gen) == philox_state(spec.generator())
            np.testing.assert_array_equal(gen.random(6), spec.generator().random(6))
            sample_sequence(gobs, psi, 5, spec)
            assert gen.bit_generator.state["buffer_pos"] == 2
            gen.integers(2 ** 32, dtype=np.uint32)
            assert gen.bit_generator.state["has_uint32"] == 1

    @pytest.mark.parametrize("block", [0, 1, 17, 2 ** 32 + 3])
    def test_block_generator_continues_the_stream(self, block):
        # trial t reads uniforms 2t and 2t + 1 of one stream, so block b starts
        # at uniform 2 b BLOCK_SIZE of generator()
        spec = RngSpec(seed=11, stream_id=4)
        k = 3 * BLOCK_SIZE + 1
        start = 2 * block * BLOCK_SIZE
        if block < 2 ** 20:
            expected = spec.generator().random(start + k)[start:]
        else:
            # Philox.advance counts counter steps of four uniforms; stop one
            # short and discard those four
            gen = spec.generator()
            gen.bit_generator.advance(start // 4 - 1)
            expected = gen.random(4 + k)[4:]
        np.testing.assert_array_equal(spec.block_generator(block).random(k), expected)

    @pytest.mark.parametrize("block", [0, 2 ** 40 + 5])
    def test_uniforms_are_the_raw_outputs_top_53_bits(self, block):
        # run_experiment counts on raw outputs on this premise: if numpy ever
        # converts raw outputs to doubles another way, this fails, not the counts
        spec = RngSpec(seed=13, stream_id=6)
        n = 2 * BLOCK_SIZE + 3
        raw = spec.block_generator(block).bit_generator.random_raw(n)
        uniforms = spec.block_generator(block).random(n)
        assert uniforms.tobytes() == ((raw >> 11) * 2.0 ** -53).tobytes()


def bincount_bins(x, cum):
    """The bins as one binary search per draw: side="right" index, past-the-top last."""
    return np.bincount(np.searchsorted(cum, x, side="right"), minlength=len(cum) + 1)


# The spacing of the uniforms the generator emits: (raw >> 11) * STEP.
STEP = 2.0 ** -53


def on_grid(x):
    """The largest uniform the generator can emit that is at most ``x`` in [0, 1)."""
    return math.floor(x / STEP) * STEP


def grid_neighbours(cum):
    """The emitted uniforms on each ``cum`` entry and one step either side of
    it: the two grid points around an entry off the grid, and one step beyond each."""
    steps = {k for c in cum
             for k in range(math.floor(c / STEP) - 1, math.ceil(c / STEP) + 2)}
    return [k * STEP for k in sorted(steps) if 0 <= k < 2 ** 53]


def raw_outputs(u):
    """(raw, uniforms): the least and the greatest raw output that converts to
    each emitted uniform of ``u``, and the uniform of each output."""
    top = (np.asarray(u, dtype=float) / STEP).astype(np.uint64) << np.uint64(11)
    raw = np.concatenate((top, top | np.uint64(2047)))
    uniforms = (raw >> np.uint64(11)) * STEP
    np.testing.assert_array_equal(uniforms, np.concatenate((u, u)))
    return raw, uniforms


def raw_bin_counts(u, cum):
    """``_bin_counts`` of the raw outputs of the uniforms ``u``, and the float
    ``bincount_bins`` of the same draws."""
    raw, uniforms = raw_outputs(u)
    limits = tuple(sampling._raw_limit(c) for c in cum)
    return sampling._bin_counts(raw, limits), bincount_bins(uniforms, cum)


# Born weights and detected draws that tie with, or sit next to, a bin edge,
# all of them uniforms the generator can emit.
TIE_CASES = [
    ([0.25, 0.25, 0.5], [*grid_neighbours([0.25, 0.5]), on_grid(0.1), 0.25, 0.5]),  # on cum
    ([0.3, 0.0, 0.0, 0.7], [*grid_neighbours([0.3]), on_grid(0.29), on_grid(0.31),
                            0.0]),  # ties from zero-weight bins
    ([0.0, 0.4, 0.0, 0.6, 0.0], [*grid_neighbours([0.0, 0.4]), on_grid(0.99)]),  # empty ends
    ([0.2, 0.8], []),  # no detected draw
    ([1.0], [0.0, 0.5, 1.0 - STEP]),  # K = 1
    ([0.5, 0.5], [1.0 - STEP, *grid_neighbours([0.5])]),  # just below 1
    # residue past an empty top bin
    ([0.5, 0.25, 0.0], [*grid_neighbours([0.75]), on_grid(0.9), 1.0 - STEP]),
]


class TestRawLimit:
    @pytest.mark.parametrize("x", [0.0, 5e-324, STEP, 0.375 - STEP, 0.375, 0.375 + STEP,
                                   np.nextafter(0.375, 0.0), np.nextafter(0.375, 1.0),
                                   0.3, 1.0 - STEP, 1.0, np.nextafter(1.0, 2.0)])
    def test_agrees_with_the_float_comparison(self, x):
        # a limit in [0, 2**64] that agrees on these outputs is 0 for x = 0 and
        # 2**64 from x = 1 on, where a cumulative sum may round past 1
        limit = sampling._raw_limit(x)
        assert 0 <= limit <= 2 ** 64 and limit % 2048 == 0
        for raw in {min(max(limit + d, 0), 2 ** 64 - 1) for d in (-1, 0, 1, 2047, 2048)}:
            assert (raw < limit) == ((raw >> 11) * STEP < x), raw
            if limit < 2 ** 64:  # as run_experiment compares: uint64 with uint64
                assert bool(np.uint64(raw) < np.uint64(limit)) == (raw < limit)


class TestBinCounts:
    @pytest.mark.parametrize("born, x", TIE_CASES)
    def test_matches_binary_search_per_draw(self, born, x):
        cum = sampling._cumulative(np.array(born))
        bins, expected = raw_bin_counts(x, cum)
        assert bins.shape == expected.shape
        np.testing.assert_array_equal(bins, expected)

    def test_matches_on_random_draws_with_cum_entries(self):
        rng = np.random.default_rng(211)
        for k in (1, 2, 7, 33):
            born = rng.random(k) * (rng.random(k) < 0.6)
            if not born.any():
                born[0] = 1.0
            cum = sampling._cumulative(born / born.sum())
            # Generator.random emits the same grid from any bit generator
            x = np.concatenate((rng.random(5000), grid_neighbours(cum)))
            rng.shuffle(x)
            np.testing.assert_array_equal(*raw_bin_counts(x, cum))

    def test_no_draw_lands_on_an_empty_bin(self):
        rng = np.random.default_rng(227)
        for trial in range(200):
            k = int(rng.integers(3, 12))
            born = rng.random(k) * (rng.random(k) < 0.6)
            born[[0, k // 2, k - 1]] = 0.0  # empty bins at the start, middle and end
            if not born.any():
                born[1] = 1.0
            if trial % 2:
                born /= born.sum()
            cum = sampling._cumulative(born)
            x = np.concatenate(([0.0, 1.0 - STEP], grid_neighbours(cum), rng.random(5000)))
            bins = np.array([bisect_right(cum, u) for u in x])
            np.testing.assert_array_equal(bins, np.searchsorted(cum, x, side="right"))
            assert np.all(born[bins] > 0.0)
            counts, expected = raw_bin_counts(x, cum)
            np.testing.assert_array_equal(counts, expected)
            assert counts[-1] == 0


class FixedUniforms(np.random.Generator):
    """Stands in for a generator: one draw whose uniforms are (0.0, u1). A
    numpy Generator subclass, because the samplers accept no other kind."""

    def __init__(self, u1):
        super().__init__(np.random.PCG64(0))
        self.u1 = u1

    def random(self, shape):
        assert shape == (1, 2)
        return np.array([[0.0, self.u1]])


class TestScalarBinRule:
    @pytest.mark.parametrize("born, x", TIE_CASES)
    def test_draw_bisection_matches_the_searchsorted_rule(self, born, x, monkeypatch):
        # single draws bisect a list of floats; the bulk and oracle paths search arrays
        born = np.array(born)
        monkeypatch.setattr(sampling, "born_probabilities", lambda g, p: born)
        gobs = GeneralizedObservable.from_matrix(np.diag(np.arange(born.size, dtype=float)),
                                                 ConstantDetection(1.0))
        psi = PureState(np.eye(born.size)[0])
        cum = np.cumsum(born)
        x = np.concatenate((x, cum, np.nextafter(cum, 0.0), [0.0, np.nextafter(1.0, 0.0)]))
        x = x[x < 1.0]
        outcomes = [sample_measurement(gobs, psi, FixedUniforms(u1)).outcome for u1 in x]
        np.testing.assert_array_equal(outcomes, scalar_rule_bins(born, x))


class TestPredictedProbabilities:
    def test_sigma_z_values(self):
        gobs, psi = sigma_z_scenario(0.8, a0=0.0)
        np.testing.assert_allclose(overall_by_outcome(gobs, psi), [0.2, 0.4, 0.4], atol=1e-12)
        assert_predicted_is_overall(gobs, psi)

    @pytest.mark.parametrize("dim", [2, 8, 32])
    @pytest.mark.parametrize("seed", [523, 617, 4243])
    def test_predictions_match_overall_probability_on_benchmark_scenarios(self, seed, dim):
        gobs, psi = benchmark_scenario(seed, dim)
        assert_predicted_is_overall(gobs, psi)
        assert_record_probabilities_are_overall(gobs, psi)

    def test_born_normalization(self):
        rng = np.random.default_rng(179)
        for _ in range(10):
            gobs = random_generalized(rng, 5)
            psi = random_state(rng, 5)
            born = born_probabilities(gobs, psi)
            assert abs(born.sum() - 1.0) < 1e-12
            assert np.all(born >= 0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 17, 32, 40])
    def test_born_matches_per_projector_form(self, dim):
        rng = np.random.default_rng(dim)
        u = random_unitary(rng, dim)
        # every eigenvalue twice (one unpaired when dim is odd)
        paired = (u * (np.arange(dim) // 2)) @ u.conj().T
        for matrix in (random_hermitian(rng, dim), (paired + paired.conj().T) / 2.0):
            gobs = GeneralizedObservable.from_matrix(matrix, ConstantDetection(0.7))
            assert_born_is_the_weights_kernel(gobs, random_state(rng, dim))

    @pytest.mark.parametrize("seed", [523, 617, 4243])
    def test_born_matches_per_projector_form_on_benchmark_scenarios(self, seed):
        assert_born_is_the_weights_kernel(*benchmark_scenario(seed))

    def test_eigenbasis_is_read_only(self):
        rng = np.random.default_rng(191)
        base = random_generalized(rng, 4, degenerate=True).base
        assert base.eigenbasis.shape == (4, 4)
        with pytest.raises(ValueError):
            base.eigenbasis[0, 0] = 0.0
        with pytest.raises(ValueError):
            base.bases[-1][0, 0] = 0.0


class TestDimensionMismatch:
    @pytest.mark.parametrize("detection", [ConstantDetection(0.8),
                                           ExpectationDetection(np.diag([0.3, 0.9]))])
    def test_wrong_dimension_state_is_named(self, detection):
        gobs = GeneralizedObservable.from_matrix(np.diag([1.0, -1.0]), detection, a0=0.0)
        psi = PureState(np.ones(3) / np.sqrt(3.0))
        gen = RngSpec(seed=1).generator()
        before = philox_state(gen)
        # test_model's entry-point test covers RngSpec draws; a live generator
        # must also be left where it was
        for call in (lambda: sample_measurement(gobs, psi, gen),
                     lambda: sample_sequence(gobs, psi, 3, gen)):
            with pytest.raises(DimensionMismatchError):
                call()
        assert philox_state(gen) == before


def lueders_density(projector, psi):
    """P v v† P / ‖P v‖², the Lüders post-state density of ``psi``."""
    w = projector @ psi.amplitudes
    return np.outer(w, w.conj()) / np.vdot(w, w).real


def assert_table_matches_lueders(gobs, psi):
    """Every rank-1 entry of the eigenstate table has the Lüders density of ``psi``."""
    table = sampling._eigenstates(gobs)
    assert len(table) == gobs.base.eigenvalues.size
    for projector, entry in zip(projectors(gobs.base), table):
        assert entry is not None
        e = entry[0].amplitudes
        np.testing.assert_allclose(np.outer(e, e.conj()), lueders_density(projector, psi),
                                   rtol=0, atol=1e-12)


class TestEigenstateTable:
    @pytest.mark.parametrize("dim", [2, 8, 32])
    def test_rank_one_entries_are_lueders_states(self, dim):
        rng = np.random.default_rng(dim + 300)
        for _ in range(3):
            gobs = random_generalized(rng, dim)
            for _ in range(4):
                assert_table_matches_lueders(gobs, random_state(rng, dim))

    @pytest.mark.parametrize("seed", [523, 617, 4243])
    def test_rank_one_entries_on_benchmark_scenarios(self, seed):
        gobs, psi = benchmark_scenario(seed)
        assert_table_matches_lueders(gobs, psi)
        assert_table_matches_lueders(gobs, random_state(np.random.default_rng(seed), 8))

    def test_built_once_per_observable(self):
        gobs, _ = benchmark_scenario(523)
        table = sampling._eigenstates(gobs)
        assert sampling._eigenstates(gobs) is table is gobs._sampler["eigenstates"]
        for state, *_ in table:
            assert not state.amplitudes.flags.writeable

    @pytest.mark.parametrize("dim", [2, 8, 32])
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_eigenstate_weights_equal_weights_of_each_entry(self, dim, degenerate):
        rng = np.random.default_rng(dim + 900)
        gobs = random_generalized(rng, dim, degenerate=degenerate)
        table = sampling._eigenstates(gobs)
        ranks = [b.shape[1] for b in gobs.base.bases]
        assert [entry is None for entry in table] == [r > 1 for r in ranks]
        for entry in table:
            if entry is None:
                continue
            state, *weights = entry
            pd, born, cum = sampling._weights(gobs, state)
            assert np.float64(weights[0]).tobytes() == np.float64(pd).tobytes()
            # the weights are an immutable tuple of plain floats, the bits of
            # born_probabilities
            assert isinstance(weights[1], tuple) and {type(w) for w in weights[1]} == {float}
            assert np.array(weights[1]).tobytes() == np.array(born).tobytes()
            assert (np.array(born).tobytes()
                    == born_probabilities(gobs, state).tobytes())
            assert weights[2] == cum and isinstance(weights[2], tuple)

    def test_weights_are_built_on_the_first_detected_draw(self):
        rng = np.random.default_rng(907)
        never = random_generalized(rng, 4, detection=ConstantDetection(0.0))
        always = random_generalized(rng, 4, detection=ConstantDetection(1.0))
        psi = random_state(rng, 4)
        for gobs in (never, always):
            assert "eigenstates" not in gobs._sampler
            sample_sequence(gobs, psi, 3, RngSpec(seed=1))
        assert "eigenstates" not in never._sampler
        assert "eigenstates" in always._sampler

    @pytest.mark.parametrize("dim", [4, 9, 32])
    def test_higher_ranks_take_the_per_draw_lueders_update(self, dim):
        rng = np.random.default_rng(dim + 700)
        gobs = random_generalized(rng, dim, degenerate=True, detection=ConstantDetection(1.0))
        table = sampling._eigenstates(gobs)
        ranks = [b.shape[1] for b in gobs.base.bases]
        assert max(ranks) > 1
        assert [entry is None for entry in table] == [r > 1 for r in ranks]
        seen = set()
        gen = RngSpec(seed=dim).generator()
        for _ in range(60):
            psi = random_state(rng, dim)
            record = sample_measurement(gobs, psi, gen)
            k = int(np.flatnonzero(gobs.base.eigenvalues == record.outcome)[0])
            seen.add(ranks[k] > 1)
            if ranks[k] == 1:
                assert record.post_state is table[k][0]
            e = record.post_state.amplitudes
            np.testing.assert_allclose(np.outer(e, e.conj()),
                                       lueders_density(projectors(gobs.base)[k], psi),
                                       rtol=0, atol=1e-12)
        assert True in seen


class TestSampleMeasurement:
    def test_never_detected(self):
        gobs, psi = sigma_z_scenario(0.0, a0=0.0)
        for seed in range(10):
            record = sample_measurement(gobs, psi, RngSpec(seed=seed))
            assert record.outcome == 0.0
            assert not record.detected
            assert record.post_state is psi  # untouched

    def test_always_detected_eigenstate(self):
        gobs, _ = sigma_z_scenario(1.0, a0=0.0)
        psi = PureState(np.array([1.0, 0.0]))  # +1 eigenvector
        for seed in range(10):
            record = sample_measurement(gobs, psi, RngSpec(seed=seed))
            assert record.outcome == 1.0
            assert record.detected

    def test_record_probability_matches_prediction(self):
        assert_record_probabilities_are_overall(*sigma_z_scenario(0.8, a0=0.0))

    def test_frequencies_statistical(self):
        gobs, psi = sigma_z_scenario(0.8, a0=0.0)
        gen = RngSpec(seed=2).generator()
        n = 100_000
        counts = {0.0: 0, -1.0: 0, 1.0: 0}
        for _ in range(n):
            counts[sample_measurement(gobs, psi, gen).outcome] += 1
        for value, p in zip([0.0, -1.0, 1.0], [0.2, 0.4, 0.4]):
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(counts[value] / n - p) <= 4 * sigma


class TestSampleSequence:
    def test_projective_sequences_repeat_first_outcome(self):
        gobs, psi = sigma_z_scenario(1.0, a0=0.0)
        for seed in range(20):
            records = sample_sequence(gobs, psi, 6, RngSpec(seed=seed))
            outcomes = [r.outcome for r in records]
            assert all(v == outcomes[0] for v in outcomes)

    def test_no_two_distinct_detected_outcomes(self):
        gobs, psi = sigma_z_scenario(0.6, a0=0.0)
        violations = 0
        for seed in range(10_000):
            records = sample_sequence(gobs, psi, 5, RngSpec(seed=seed))
            detected = {r.outcome for r in records if r.detected}
            if len(detected) > 1:
                violations += 1
        assert violations == 0

    def test_undetected_steps_leave_state(self):
        gobs, psi = sigma_z_scenario(0.5, a0=0.0)
        records = sample_sequence(gobs, psi, 50, RngSpec(seed=3))
        state = psi
        for record in records:
            if not record.detected:
                assert record.post_state is state
            state = record.post_state

    def test_lone_draw_matches_the_uniform_oracle(self):
        # a lone draw reads uniforms 0 and 1 of its stream: detected iff u0 < p_d,
        # then the Born bin of u1, with probability p_d * born[k]
        for gobs, psi in (sigma_z_scenario(0.7, a0=0.0), benchmark_scenario(523)):
            pd = sampling.detection_probability(gobs, psi)
            born = born_probabilities(gobs, psi)
            seen = set()
            for seed in range(200):
                spec = RngSpec(seed=seed)
                u0, u1 = spec.generator().random(2)
                record = sample_measurement(gobs, psi, spec)
                assert record.detected == (u0 < pd)
                assert record.pre_state is psi
                if record.detected:
                    k = int(np.searchsorted(np.cumsum(born), u1, side="right"))
                    assert record.outcome == gobs.base.eigenvalues[k]
                    assert record.probability == pd * born[k]
                else:
                    assert record.outcome == gobs.a0
                    assert record.probability == 1.0 - pd
                    assert record.post_state is psi
                seen.add(record.detected)
            assert seen == {False, True}

    @pytest.mark.parametrize("case", ["benchmark", "expectation", "never", "always"])
    def test_matches_chained_single_draws(self, case):
        # the weights a sequence reuses must give the records fresh ones would
        rng = np.random.default_rng(197)
        if case == "benchmark":
            gobs, psi = benchmark_scenario(4243)
        elif case == "expectation":
            gobs = random_generalized(rng, 5, degenerate=True, detection=ExpectationDetection(
                np.diag(rng.uniform(0.2, 0.8, size=5))))
            psi = random_state(rng, 5)
        else:
            p = 0.0 if case == "never" else 1.0
            gobs = random_generalized(rng, 4, detection=ConstantDetection(p))
            psi = random_state(rng, 4)
        for seed in range(40):
            records = sample_sequence(gobs, psi, 7, RngSpec(seed=seed, stream_id=1))
            gen = RngSpec(seed=seed, stream_id=1).generator()
            state = psi
            for record in records:
                expected = sample_measurement(gobs, state, gen)
                assert record.outcome == expected.outcome
                assert record.detected == expected.detected
                assert record.probability == expected.probability
                np.testing.assert_array_equal(record.pre_state.amplitudes,
                                              expected.pre_state.amplitudes)
                np.testing.assert_array_equal(record.post_state.amplitudes,
                                              expected.post_state.amplitudes)
                state = expected.post_state

    @pytest.mark.parametrize("case", ["benchmark", "sigma-z"])
    def test_nondegenerate_sequence_computes_weights_once(self, case, monkeypatch):
        # every post-state of a detected draw is a table eigenstate, whose
        # weights the observable holds, and psi's are kept after the first call,
        # so over many sequences on one state only the first computes any
        gobs, psi = benchmark_scenario(617) if case == "benchmark" else sigma_z_scenario(0.6)
        sampling._eigenstates(gobs)  # build the table before counting
        calls = count_weights(monkeypatch)
        detected = 0
        for seed in range(200):
            calls.clear()
            records = sample_sequence(gobs, psi, 12, RngSpec(seed=seed))
            detected += any(r.detected for r in records)
            assert calls == ([psi] if seed == 0 else []), seed
        assert detected > 100
        run_experiment(gobs, psi, 10, RngSpec(seed=1))
        assert calls == []

    def test_last_draw_computes_no_weights(self, monkeypatch):
        # a higher-rank post-state is a new state on every draw: its weights
        # are computed per draw, only when another draw follows, and never kept
        rng = np.random.default_rng(911)
        gobs = random_generalized(rng, 6, degenerate=True, detection=ConstantDetection(1.0))
        psi = random_state(rng, 6)
        sampling._eigenstates(gobs)  # build the table before counting
        calls = count_weights(monkeypatch)
        rank = {float(v): b.shape[1] for v, b in zip(gobs.base.eigenvalues, gobs.base.bases)}
        last_higher = 0
        first = True
        for seed in range(40):
            for length in (1, 3):
                calls.clear()
                records = sample_sequence(gobs, psi, length, RngSpec(seed=seed))
                higher = [r.post_state for r in records[:-1] if rank[r.outcome] > 1]
                assert calls == ([psi] if first else []) + higher
                last_higher += rank[records[-1].outcome] > 1
                first = False
        assert last_higher > 0
        assert weighed(gobs) == [psi]

    def test_length_validation(self):
        gobs, psi = sigma_z_scenario(0.5)
        with pytest.raises(ValueError):
            sample_sequence(gobs, psi, 0, RngSpec(seed=0))


def record_key(record):
    """Everything a record holds, bit for bit."""
    return (record.outcome, record.detected, record.probability,
            record.pre_state.amplitudes.tobytes(), record.post_state.amplitudes.tobytes())


def philox_state(gen):
    """A Philox generator's state as a comparable tuple."""
    state = gen.bit_generator.state
    return (tuple(state["state"]["counter"]), tuple(state["state"]["key"]),
            tuple(state["buffer"]), state["buffer_pos"], state["has_uint32"],
            state["uinteger"])


def spec_draws(gobs, psi, stream):
    """Records of 250 three-draw sequences and 250 single draws on ``stream``."""
    out = []
    for seed in range(250):
        spec = RngSpec(seed=seed, stream_id=stream)
        out += [record_key(r) for r in sample_sequence(gobs, psi, 3, spec)]
        out.append(record_key(sample_measurement(gobs, psi, spec)))
    return out


def threaded_draws(gobs, psi, streams):
    """``spec_draws`` per stream, one thread per stream, started together and
    switching as often as the interpreter allows."""
    results = {}
    start = threading.Barrier(len(streams))

    def run(stream):
        start.wait(timeout=60)
        results[stream] = spec_draws(gobs, psi, stream)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between reset and draw
    try:
        threads = [threading.Thread(target=run, args=(s,)) for s in streams]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results


class TestSingleDrawGenerators:
    STREAMS = range(1, 5)  # more threads than the two cores of a small VM

    def test_concurrent_threads_match_a_serial_run(self):
        gobs, psi = benchmark_scenario(523)
        serial = {stream: spec_draws(gobs, psi, stream) for stream in self.STREAMS}
        assert threaded_draws(gobs, psi, self.STREAMS) == serial

    def test_threads_on_a_cold_observable_match_a_serial_run(self):
        # the threads race to build the eigenstate table and to weigh psi
        serial_gobs, serial_psi = benchmark_scenario(523)
        serial = {stream: spec_draws(serial_gobs, serial_psi, stream)
                  for stream in self.STREAMS}
        gobs, psi = benchmark_scenario(523)
        assert gobs._sampler == {}
        assert threaded_draws(gobs, psi, self.STREAMS) == serial
        assert weighed(gobs) == [psi]

    def test_spec_draws_leave_an_earlier_generator_alone(self):
        gobs, psi = benchmark_scenario(617)
        spec = RngSpec(seed=31, stream_id=2)
        gen = spec.generator()
        gen.random(3)
        before = philox_state(gen)
        sample_sequence(gobs, psi, 5, spec)
        sample_measurement(gobs, psi, spec)
        sample_sequence(gobs, psi, 4, RngSpec(seed=32))
        assert philox_state(gen) == before
        np.testing.assert_array_equal(gen.random(6), spec.generator().random(9)[3:])

    @pytest.mark.parametrize("offset", [0, 1, 3])
    @pytest.mark.parametrize("length", [1, 2, 3, 7])
    def test_live_generator_advances_two_uniforms_per_draw(self, length, offset):
        gobs, psi = benchmark_scenario(4243)
        gen, reference = RngSpec(seed=5).generator(), RngSpec(seed=5).generator()
        gen.random(offset)
        reference.random(offset + 2 * length)
        sample_sequence(gobs, psi, length, gen)
        assert philox_state(gen) == philox_state(reference)


def degenerate_scenario():
    """A fixed degenerate d = 6 observable with expectation detection, and a state."""
    rng = np.random.default_rng(307)  # ranks 2, 1, 2, 1
    gobs = random_generalized(rng, 6, degenerate=True, detection=ExpectationDetection(
        np.diag(rng.uniform(0.3, 0.9, size=6))))
    return gobs, random_state(rng, 6)


class TestStartWeights:
    """A prepared state is weighed once per observable and state object."""

    def test_equal_amplitudes_are_weighed_per_state_object(self, monkeypatch):
        gobs, psi = benchmark_scenario(617)
        twin = PureState(psi.amplitudes)
        sampling._eigenstates(gobs)  # build the table before counting
        calls = count_weights(monkeypatch)
        records = [sample_sequence(gobs, state, 1, RngSpec(seed=2))[0]
                   for state in (psi, twin, psi, twin)]
        assert calls == [psi, twin]
        assert {record_key(r)[:3] for r in records} == {record_key(records[0])[:3]}
        assert gobs._sampler["weights"][psi] is not gobs._sampler["weights"][twin]

    def test_one_state_on_two_observables_gets_each_models_pd(self):
        expectation, psi = benchmark_scenario(617)
        constant = GeneralizedObservable(expectation.base, expectation.a0,
                                         ConstantDetection(0.25))
        expected = {expectation: sampling.detection_probability(expectation, psi),
                    constant: 0.25}
        assert expected[expectation] != 0.25
        for gobs in (expectation, constant, expectation, constant):
            pd = expected[gobs]
            assert sampling._start_weights(gobs, psi)[0] == pd
            records = [sample_measurement(gobs, psi, RngSpec(seed=s)) for s in range(40)]
            assert {r.probability for r in records if not r.detected} == {1.0 - pd}
            assert run_experiment(gobs, psi, 10, RngSpec(seed=1)).predicted[0] == 1.0 - pd
            assert weighed(gobs) == [psi]

    def test_entry_dies_with_its_state(self):
        gobs, psi = benchmark_scenario(4243)
        assert "weights" not in gobs._sampler  # filled on the first call, not at build
        sample_sequence(gobs, psi, 4, RngSpec(seed=0))
        run_experiment(gobs, psi, 10, RngSpec(seed=0))
        assert weighed(gobs) == [psi]
        alive = weakref.ref(psi)
        del psi
        gc.collect()
        assert alive() is None
        assert weighed(gobs) == []

    def test_wrong_dimension_state_raises_on_every_call_and_is_never_stored(self):
        gobs, _ = benchmark_scenario(523)
        psi = random_state(np.random.default_rng(5), 3)
        gen = RngSpec(seed=1).generator()
        before = philox_state(gen)
        for _ in range(3):
            for call in (lambda: sample_sequence(gobs, psi, 2, gen),
                         lambda: sample_measurement(gobs, psi, RngSpec(seed=1)),
                         lambda: run_experiment(gobs, psi, 10, RngSpec(seed=1))):
                with pytest.raises(DimensionMismatchError):
                    call()
        assert philox_state(gen) == before
        assert weighed(gobs) == []

    @pytest.mark.parametrize("rng", [5, None, np.random.default_rng(0)])
    def test_rng_of_another_type_raises_before_the_state_is_weighed(self, rng):
        gobs, psi = benchmark_scenario(523)
        if not isinstance(rng, np.random.Generator):
            with pytest.raises(TypeError, match="rng must be an RngSpec or a numpy Generator"):
                sample_sequence(gobs, psi, 2, rng)
        with pytest.raises(TypeError, match="rng must be an RngSpec, got"):
            run_experiment(gobs, psi, 10, rng)
        assert weighed(gobs) == []

    @pytest.mark.parametrize("case", ["benchmark", "degenerate"])
    def test_warm_records_equal_those_of_a_fresh_observable(self, case):
        build = (lambda: benchmark_scenario(523)) if case == "benchmark" else degenerate_scenario
        gobs, psi = build()
        sample_measurement(gobs, psi, RngSpec(seed=0))  # weigh psi
        warm_weights = gobs._sampler["weights"][psi]
        ranks = [b.shape[1] for b in gobs.base.bases]
        seen = set()
        for seed in range(60):
            spec = RngSpec(seed=seed, stream_id=3)
            fresh_gobs, fresh_psi = build()
            warm = sample_sequence(gobs, psi, 5, spec)
            fresh = sample_sequence(fresh_gobs, fresh_psi, 5, spec)
            assert [record_key(r) for r in warm] == [record_key(r) for r in fresh]
            for r in warm:
                k = np.flatnonzero(gobs.base.eigenvalues == r.outcome)
                seen.add("undetected" if not r.detected else
                         "higher rank" if ranks[k[0]] > 1 else "rank 1")
        assert gobs._sampler["weights"][psi] is warm_weights
        assert seen == ({"undetected", "rank 1", "higher rank"} if case == "degenerate"
                        else {"undetected", "rank 1"})
        fresh_gobs, fresh_psi = build()
        warm_report = run_experiment(gobs, psi, 5000, RngSpec(seed=9))
        fresh_report = run_experiment(fresh_gobs, fresh_psi, 5000, RngSpec(seed=9))
        assert warm_report.to_dict() == fresh_report.to_dict()
        assert warm_report.predicted.tobytes() == fresh_report.predicted.tobytes()


RECORD_FIELDS = ("outcome", "detected", "pre_state", "post_state", "probability")


class TestRecordContract:
    """A record is an immutable named tuple holding plain Python scalars."""

    @pytest.mark.parametrize("case", ["benchmark", "degenerate"])
    def test_fields_types_and_immutability(self, case):
        # the benchmark scenario takes every detected post-state from the
        # eigenstate table; the degenerate one also applies the per-draw
        # Lüders update of a higher-rank projector
        gobs, psi = benchmark_scenario(523) if case == "benchmark" else degenerate_scenario()
        ranks = [b.shape[1] for b in gobs.base.bases]
        seen = set()
        for seed in range(30):
            for r in sample_sequence(gobs, psi, 4, RngSpec(seed=seed)):
                assert r._fields == RECORD_FIELDS
                assert r == tuple(getattr(r, name) for name in RECORD_FIELDS)
                assert type(r.outcome) is float and type(r.probability) is float
                assert type(r.detected) is bool
                for name in RECORD_FIELDS:
                    with pytest.raises(AttributeError):
                        setattr(r, name, getattr(r, name))
                k = np.flatnonzero(gobs.base.eigenvalues == r.outcome)
                seen.add("undetected" if not r.detected else
                         "higher rank" if ranks[k[0]] > 1 else "rank 1")
        assert seen == ({"undetected", "rank 1", "higher rank"} if case == "degenerate"
                        else {"undetected", "rank 1"})


# Arguments that are no count of trials, workers or draws.
NOT_COUNTS = [0, -3, 2.5, 2.0, np.float64(2.0), True, False, np.bool_(True), "2", None,
              Integer(0)]


class TestCountArguments:
    @pytest.mark.parametrize("name", ["trials", "workers"])
    @pytest.mark.parametrize("value", NOT_COUNTS)
    def test_run_experiment_rejects_non_counts(self, name, value):
        # trials=True used to run one trial and report "trials": true
        gobs, psi = sigma_z_scenario(0.5)
        kwargs = {"trials": 10, "workers": 1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer of at least 1"):
            run_experiment(gobs, psi, rng=RngSpec(seed=0), **kwargs)

    @pytest.mark.parametrize("value", NOT_COUNTS)
    def test_sample_sequence_rejects_non_counts(self, value):
        gobs, psi = sigma_z_scenario(0.5)
        gen = RngSpec(seed=0).generator()
        before = philox_state(gen)
        with pytest.raises(ValueError, match="length must be an integer of at least 1"):
            sample_sequence(gobs, psi, value, gen)
        assert philox_state(gen) == before

    @pytest.mark.parametrize("value", [1, 3, np.int64(3), np.uint8(3), Integer(1), Integer(3)])
    def test_accepts_python_and_numpy_integers(self, value):
        gobs, psi = benchmark_scenario(617)
        count = int(value)
        report = run_experiment(gobs, psi, value, RngSpec(seed=4), workers=value)
        assert type(report.trials) is int
        assert report.to_dict() == run_experiment(gobs, psi, count, RngSpec(seed=4)).to_dict()
        records = sample_sequence(gobs, psi, value, RngSpec(seed=4))
        assert ([record_key(r) for r in records]
                == [record_key(r) for r in sample_sequence(gobs, psi, count, RngSpec(seed=4))])


class TestRunExperiment:
    def test_single_trial(self):
        gobs, psi = sigma_z_scenario(0.8)
        report = run_experiment(gobs, psi, 1, RngSpec(seed=0))
        assert report.counts.sum() == 1
        assert report.trials == 1

    def test_deterministic_across_runs(self):
        gobs, psi = sigma_z_scenario(0.8)
        a = run_experiment(gobs, psi, 20_000, RngSpec(seed=5))
        b = run_experiment(gobs, psi, 20_000, RngSpec(seed=5))
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.to_dict() == b.to_dict()

    def test_deterministic_across_worker_counts(self):
        gobs, psi = sigma_z_scenario(0.8)
        reports = [run_experiment(gobs, psi, 30_000, RngSpec(seed=9), workers=w)
                   for w in (1, 2, 4)]
        for other in reports[1:]:
            np.testing.assert_array_equal(reports[0].counts, other.counts)
            assert reports[0].to_dict() == other.to_dict()

    def test_matches_scalar_path(self):
        # bulk sampling consumes the same draws as chained single shots on one
        # generator, past the first block too
        gobs, psi = sigma_z_scenario(0.8, a0=0.0)
        spec = RngSpec(seed=21)
        trials = BLOCK_SIZE + 500
        report = run_experiment(gobs, psi, trials, spec)
        gen = spec.generator()
        counts = {v: 0 for v in [0.0, -1.0, 1.0]}
        for _ in range(trials):
            counts[sample_measurement(gobs, psi, gen).outcome] += 1
        np.testing.assert_array_equal(report.counts,
                                      [counts[0.0], counts[-1.0], counts[1.0]])

    @pytest.mark.parametrize("trials", [1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1,
                                        TASK, TASK + 1, 5 * TASK // 2])
    def test_counts_match_block_oracle(self, trials):
        rng = np.random.default_rng(trials)
        gobs = random_generalized(rng, 5)
        psi = random_state(rng, 5)
        spec = RngSpec(seed=trials, stream_id=3)
        expected = block_oracle(gobs, psi, trials, spec)
        for workers in (1, 2, 3):
            report = run_experiment(gobs, psi, trials, spec, workers=workers)
            np.testing.assert_array_equal(report.counts, expected)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_equal_one_stream(self, workers):
        rng = np.random.default_rng(41)
        gobs = random_generalized(rng, 5)
        psi = random_state(rng, 5)
        spec = RngSpec(seed=41, stream_id=2)
        trials = TASK + BLOCK_SIZE + 1
        expected = scalar_rule_counts(gobs, psi, spec.generator().random((trials, 2)))
        report = run_experiment(gobs, psi, trials, spec, workers=workers)
        np.testing.assert_array_equal(report.counts, expected)

    @pytest.mark.parametrize("seed", [3, 29])
    def test_degenerate_d32_counts_match_block_oracle(self, seed):
        rng = np.random.default_rng(seed)
        gobs = random_generalized(rng, 32, degenerate=True)
        assert gobs.base.eigenvalues.size < 32
        psi = random_state(rng, 32)
        spec = RngSpec(seed=seed, stream_id=1)
        expected = block_oracle(gobs, psi, TASK + BLOCK_SIZE + 1, spec)
        for workers in (1, 2, 3):
            report = run_experiment(gobs, psi, TASK + BLOCK_SIZE + 1, spec, workers=workers)
            np.testing.assert_array_equal(report.counts, expected)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_certain_detection_counts_match_block_oracle(self, p):
        # limits of 0 and 2**64: no trial detected, or every one
        rng = np.random.default_rng(43)
        gobs = random_generalized(rng, 5, detection=ConstantDetection(p))
        psi = random_state(rng, 5)
        spec = RngSpec(seed=43, stream_id=5)
        trials = TASK + BLOCK_SIZE + 1
        expected = block_oracle(gobs, psi, trials, spec)
        assert expected[0] == (trials if p == 0.0 else 0)
        for workers in (1, 2, 3):
            report = run_experiment(gobs, psi, trials, spec, workers=workers)
            np.testing.assert_array_equal(report.counts, expected)

    def test_outputs_at_the_limits_count_as_their_uniforms(self, monkeypatch):
        # every trial's raw outputs sit at, or one output or one grid step
        # beside, the detection limit and a bin limit; the counts must be the
        # float rule's on the uniforms those outputs convert to
        rng = np.random.default_rng(47)
        gobs = random_generalized(rng, 4, detection=ConstantDetection(0.3))
        psi = random_state(rng, 4)
        cum = sampling._start_weights(gobs, psi)[2]

        def around(x):
            limit = sampling._raw_limit(x)
            return [min(max(limit + d, 0), 2 ** 64 - 1) for d in (-2048, -1, 0, 2047, 2048)]

        first = around(0.3) + [0, 2 ** 64 - 1]
        second = [raw for c in cum for raw in around(c)]
        raw = np.array([[a, b] for a in first for b in second], dtype=np.uint64).ravel()
        gen = SimpleNamespace(bit_generator=SimpleNamespace(random_raw=lambda n: raw[:n].copy()))
        monkeypatch.setattr(RngSpec, "block_generator", lambda spec, block: gen)
        trials = raw.size // 2
        report = run_experiment(gobs, psi, trials, RngSpec(seed=0))
        uniforms = ((raw >> np.uint64(11)) * STEP).reshape(trials, 2)
        np.testing.assert_array_equal(report.counts, scalar_rule_counts(gobs, psi, uniforms))

    def test_empty_born_bin_counts_zero(self):
        # the state is orthogonal to the top eigenvector, so its Born weight is 0
        base = QuantumObservable.from_matrix(np.diag([-1.0, 0.0, 1.0]))
        gobs = GeneralizedObservable(base, -2.0, ConstantDetection(0.7))
        psi = PureState(np.array([0.6, 0.8j, 0.0]))
        spec = RngSpec(seed=17)
        expected = block_oracle(gobs, psi, TASK + 1, spec)
        assert expected[3] == 0
        for workers in (1, 2, 3):
            report = run_experiment(gobs, psi, TASK + 1, spec, workers=workers)
            np.testing.assert_array_equal(report.counts, expected)

    def test_residue_goes_to_the_last_nonempty_bin(self, monkeypatch):
        # weights summing to 0.75 leave a quarter of the draws past the last
        # nonempty bin; they count for that bin, not for the larger first one
        base = QuantumObservable.from_matrix(np.diag([-1.0, 0.0, 1.0]))
        gobs = GeneralizedObservable(base, -2.0, ConstantDetection(0.8))
        psi = PureState(np.array([1.0, 0.0, 0.0]))
        monkeypatch.setattr(sampling, "born_probabilities",
                            lambda g, p: np.array([0.5, 0.25, 0.0]))
        spec = RngSpec(seed=23)
        expected = block_oracle(gobs, psi, TASK + 1, spec)
        assert expected[3] == 0 and expected[2] > 0.45 * expected[1:].sum()
        for workers in (1, 2, 3):
            report = run_experiment(gobs, psi, TASK + 1, spec, workers=workers)
            np.testing.assert_array_equal(report.counts, expected)

    def test_statistical_envelope(self):
        gobs, psi = sigma_z_scenario(0.8)
        report = run_experiment(gobs, psi, 100_000, RngSpec(seed=1))
        assert report.max_sigma_deviation <= 4.0

    def test_report_invariants(self):
        gobs, psi = sigma_z_scenario(0.3)
        report = run_experiment(gobs, psi, 10_000, RngSpec(seed=4))
        assert int(report.counts.sum()) == report.trials
        assert abs(report.frequencies.sum() - 1.0) < 1e-12
        assert report.rng == "philox4x64-seq:seed=4:stream=0"

    def test_report_counts_must_sum_to_trials(self):
        with pytest.raises(ValueError, match="per-outcome counts must sum to the trial count"):
            RunReport(np.array([0.0, 1.0]), np.array([3, 4]), np.array([0.5, 0.5]), 8, "philox")

    def test_degenerate_observable_sampling(self):
        rng = np.random.default_rng(181)
        gobs = random_generalized(rng, 4, degenerate=True)
        psi = random_state(rng, 4)
        report = run_experiment(gobs, psi, 50_000, RngSpec(seed=6))
        assert report.max_sigma_deviation <= 4.0

    def test_sure_detection_zero_a0_counts(self):
        gobs, psi = sigma_z_scenario(1.0)
        report = run_experiment(gobs, psi, 10_000, RngSpec(seed=8))
        assert report.counts[0] == 0
