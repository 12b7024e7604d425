"""Monte Carlo engine tests: determinism, two-stage draws, statistics.

Statistical assertions run against the binomial-sigma envelope with fixed
seeds, so they are deterministic.
"""

import numpy as np
import pytest

from esrsim import (
    ConstantDetection,
    ExpectationDetection,
    GeneralizedObservable,
    PureState,
    QuantumObservable,
    RngSpec,
    born_probabilities,
    predicted_probabilities,
    run_experiment,
    sample_measurement,
    sample_sequence,
)
from esrsim import sampling
from esrsim.sampling import _BLOCKS_PER_TASK, BLOCK_SIZE
from helpers import (
    random_generalized,
    random_hermitian,
    random_state,
    random_unitary,
    sigma_z_scenario,
)

TASK = _BLOCKS_PER_TASK * BLOCK_SIZE


def block_oracle(gobs, psi, trials, spec):
    """Counts drawn one 4096-trial block at a time, roundoff folded per trial."""
    pd = sampling.detection_probability(gobs, psi)
    born = sampling.born_probabilities(gobs, psi)
    cum = np.cumsum(born)
    cum[-1] = 1.0
    counts = np.zeros(born.size + 1, dtype=np.int64)
    for block in range((trials + BLOCK_SIZE - 1) // BLOCK_SIZE):
        size = min(BLOCK_SIZE, trials - block * BLOCK_SIZE)
        u = spec.block_generator(block).random((size, 2))
        detected = u[:, 0] < pd
        counts[0] += size - int(detected.sum())
        idx = np.searchsorted(cum, u[detected, 1], side="right")
        bad = (idx >= born.size) | (born[np.minimum(idx, born.size - 1)] <= 0.0)
        idx = np.where(bad, int(np.argmax(born)), idx)
        counts[1:] += np.bincount(idx, minlength=born.size)
    return counts


def assert_same_state(a, b):
    """Two bit generator states are equal, arrays compared element for element."""
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], dict):
            assert_same_state(a[key], b[key])
        else:
            np.testing.assert_array_equal(a[key], b[key])


def per_projector_born(gobs, psi):
    """Born weights from one mat-vec and one vdot per projector, clipped at 0."""
    v = psi.amplitudes
    p = np.array([float(np.vdot(v, proj @ v).real) for proj in gobs.base.projectors])
    p = np.clip(p, 0.0, None)
    return p / p.sum()


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
        assert RngSpec(seed=5, stream_id=2).describe() == "philox4x64:seed=5:stream=2"

    def test_validation(self):
        with pytest.raises(ValueError):
            RngSpec(seed=-1)
        with pytest.raises(ValueError):
            RngSpec(seed=0, stream_id=-2)

    @pytest.mark.parametrize("block", [0, 1, 15, 16, 17, 2 ** 32 + 3])
    def test_repositioned_generator_matches_fresh_block_generator(self, block):
        spec = RngSpec(seed=11, stream_id=4)
        gen = spec.block_generator(5)
        fresh = gen.bit_generator.state
        # move the counter and leave a part-used buffer and a held 32-bit half
        gen.random(3 * BLOCK_SIZE + 1)
        gen.integers(0, 2 ** 32, dtype=np.uint32)
        assert gen.bit_generator.state["has_uint32"] == 1
        sampling._reposition(gen, fresh, block)
        expected = spec.block_generator(block)
        assert_same_state(gen.bit_generator.state, expected.bit_generator.state)
        np.testing.assert_array_equal(gen.random(2 * BLOCK_SIZE),
                                      expected.random(2 * BLOCK_SIZE))


def bincount_bins(x, cum):
    """The bins as one binary search per draw: side="right" index, past-the-top last."""
    return np.bincount(np.searchsorted(cum, x, side="right"), minlength=cum.size + 1)


class TestBinCounts:
    @pytest.mark.parametrize("born, x", [
        ([0.25, 0.25, 0.5], [0.25, 0.5, 0.1, 0.25, 0.7, 0.5]),  # draws equal to cum entries
        ([0.3, 0.0, 0.0, 0.7], [0.3, 0.29, 0.3, 0.31, 0.0]),  # ties from zero-weight bins
        ([0.0, 0.4, 0.0, 0.6, 0.0], [0.0, 0.4, 0.4, 0.99, 0.2]),  # zero-weight ends
        ([0.2, 0.8], []),  # no detected draw
        ([1.0], [0.0, 0.5, np.nextafter(1.0, 0.0)]),  # K = 1
        ([0.5, 0.5], [np.nextafter(1.0, 0.0), 0.5, np.nextafter(0.5, 0.0)]),  # just below 1
    ])
    def test_matches_binary_search_per_draw(self, born, x):
        cum = sampling._cumulative(np.array(born))
        x = np.array(x, dtype=float)
        expected = bincount_bins(x, cum)
        bins = sampling._bin_counts(x.copy(), cum)
        assert bins.shape == expected.shape
        np.testing.assert_array_equal(bins, expected)

    def test_matches_on_random_draws_with_cum_entries(self):
        rng = np.random.default_rng(211)
        for k in (1, 2, 7, 33):
            born = rng.random(k) * (rng.random(k) < 0.6)
            if not born.any():
                born[0] = 1.0
            cum = sampling._cumulative(born / born.sum())
            x = np.concatenate((rng.random(5000), cum, cum[:-1], np.nextafter(cum, 0.0)))
            x = x[x < 1.0]
            rng.shuffle(x)
            np.testing.assert_array_equal(sampling._bin_counts(x.copy(), cum),
                                          bincount_bins(x, cum))


class TestPredictedProbabilities:
    def test_sigma_z_values(self):
        gobs, psi = sigma_z_scenario(0.8, a0=0.0)
        np.testing.assert_allclose(predicted_probabilities(gobs, psi),
                                   [0.2, 0.4, 0.4], atol=1e-12)

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
            psi = random_state(rng, dim)
            np.testing.assert_array_equal(born_probabilities(gobs, psi),
                                          per_projector_born(gobs, psi))

    @pytest.mark.parametrize("seed", [523, 617, 4243])
    def test_born_matches_per_projector_form_on_benchmark_scenarios(self, seed):
        gobs, psi = benchmark_scenario(seed)
        np.testing.assert_array_equal(born_probabilities(gobs, psi),
                                      per_projector_born(gobs, psi))

    def test_projector_stack_is_read_only(self):
        rng = np.random.default_rng(191)
        base = random_generalized(rng, 4, degenerate=True).base
        stack = base._projector_stack
        np.testing.assert_array_equal(stack, np.array(base.projectors))
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 0.0


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
        gobs, psi = sigma_z_scenario(0.8, a0=0.0)
        predicted = dict(zip([0.0, -1.0, 1.0], predicted_probabilities(gobs, psi)))
        gen = RngSpec(seed=11).generator()
        for _ in range(50):
            record = sample_measurement(gobs, psi, gen)
            assert abs(record.probability - predicted[record.outcome]) < 1e-12

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

    def test_length_one_reduces_to_single_shot(self):
        gobs, psi = sigma_z_scenario(0.7, a0=0.0)
        spec = RngSpec(seed=13)
        single = sample_measurement(gobs, psi, spec)
        seq = sample_sequence(gobs, psi, 1, spec)
        assert len(seq) == 1
        assert seq[0].outcome == single.outcome

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

    def test_length_validation(self):
        gobs, psi = sigma_z_scenario(0.5)
        with pytest.raises(ValueError):
            sample_sequence(gobs, psi, 0, RngSpec(seed=0))


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
        # vectorized block sampling consumes the same draws as single shots
        gobs, psi = sigma_z_scenario(0.8, a0=0.0)
        spec = RngSpec(seed=21)
        report = run_experiment(gobs, psi, 500, spec)
        gen = spec.block_generator(0)
        counts = {v: 0 for v in [0.0, -1.0, 1.0]}
        for _ in range(500):
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

    def test_stray_draws_fold_onto_largest_bin(self, monkeypatch):
        # weights summing to 0.75 leave a quarter of the draws past the last
        # nonempty bin, on the empty top bin; they count for the largest bin
        base = QuantumObservable.from_matrix(np.diag([-1.0, 0.0, 1.0]))
        gobs = GeneralizedObservable(base, -2.0, ConstantDetection(0.8))
        psi = PureState(np.array([1.0, 0.0, 0.0]))
        monkeypatch.setattr(sampling, "born_probabilities",
                            lambda g, p: np.array([0.25, 0.5, 0.0]))
        spec = RngSpec(seed=23)
        expected = block_oracle(gobs, psi, TASK + 1, spec)
        assert expected[3] == 0 and expected[2] > 0.6 * expected[1:].sum()
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
        assert report.rng == "philox4x64:seed=4:stream=0"

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
