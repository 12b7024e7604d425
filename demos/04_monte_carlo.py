"""Seeded Monte Carlo sampling of generalized measurements.

Each trial draws detection first (Bernoulli), then a Born draw among the
eigenvalues if detected. Trial t reads uniforms 2t and 2t + 1 of one
counter-based Philox stream keyed by (seed, stream), so every run is a pure
function of (seed, stream), bit-identical across repeats and worker counts,
and its counts are those of chained single draws on one generator. The demo
exits nonzero if either of those two claims fails.
"""

import sys

import numpy as np

from esrsim import (
    ConstantDetection,
    GeneralizedObservable,
    PureState,
    RngSpec,
    run_experiment,
    sample_measurement,
    sample_sequence,
)

gobs = GeneralizedObservable.from_matrix(
    np.diag([1.0, -1.0]), ConstantDetection(0.8), a0=0.0)
psi = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))

print("a single shot:")
record = sample_measurement(gobs, psi, RngSpec(seed=1))
print(f"  outcome {record.outcome:+g}, detected={record.detected}, "
      f"probability this outcome had: {record.probability:.3f}")

print("\nsequences chain the post-measurement state forward;")
print("a0 interleaves freely but two distinct detected values never occur:")
for seed in range(5):
    records = sample_sequence(gobs, psi, 8, RngSpec(seed=seed))
    shown = ["a0" if not r.detected else f"{r.outcome:+g}" for r in records]
    print(f"  seed {seed}: {' '.join(shown)}")

print("\n100000 trials vs predictions:")
report = run_experiment(gobs, psi, 100_000, RngSpec(seed=42))
print(f"  {'outcome':>8} {'count':>8} {'freq':>9} {'predicted':>10} {'sigma':>7}")
for i, value in enumerate(report.outcomes):
    label = "a0" if i == 0 else f"{value:+g}"
    print(f"  {label:>8} {int(report.counts[i]):>8} {report.frequencies[i]:>9.5f} "
          f"{report.predicted[i]:>10.5f} {report.sigma_deviations[i]:>7.2f}")
print("  max deviation:", round(report.max_sigma_deviation, 2), "sigma")

print("\ndeterminism: same spec, different worker counts, identical counts")
false_claims = []
for workers in (1, 4):
    again = run_experiment(gobs, psi, 100_000, RngSpec(seed=42), workers=workers)
    identical = bool(np.array_equal(again.counts, report.counts))
    print(f"  workers={workers}: counts {list(map(int, again.counts))} identical={identical}")
    if not identical:
        false_claims.append(f"workers={workers} changed the counts")

print("\nthe bulk counts are chained single draws on one generator:")
spec = RngSpec(seed=7)
gen = spec.generator()
shots = [sample_measurement(gobs, psi, gen).outcome for _ in range(5000)]
chained = [shots.count(v) for v in report.outcomes]
bulk = list(map(int, run_experiment(gobs, psi, 5000, spec).counts))
print(f"  chained {chained}, run_experiment {bulk}")
if chained != bulk:
    false_claims.append("the bulk counts differ from the chained draws")

print("\nindependent streams give independent data:")
for stream in range(3):
    r = run_experiment(gobs, psi, 10_000, RngSpec(seed=42, stream_id=stream))
    print(f"  {r.rng}: counts {list(map(int, r.counts))}")

if false_claims:
    sys.exit("claim failed: " + "; ".join(false_claims))
