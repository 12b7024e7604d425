"""Metric definitions: names, units, bounds, and what each layer metric should move.

``BENCHMARK.json`` mirrors these lists; the smoke test checks that it does.
The per-layer list also records, for each metric, the end-to-end metric and
workloads it is expected to move, so that a change to one layer can be held
to "no change" on the workloads that bypass it.
"""

from __future__ import annotations

import statistics

from tracing import HARNESS, LAYERS

# (name, unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("run_tail_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# What ``work_per_s`` counts on each workload.
WORK_ITEM = {"verify-d32": "verify_calls_per_s", "sample-bulk": "trials_per_s",
             "draws-scalar": "draws_per_s"}

VERIFY = "run_s on verify-d32"
BULK = "work_per_s (trials_per_s) on sample-bulk"
DRAWS = "work_per_s (draws_per_s) on draws-scalar"

# (name, unit, better, source, moves). Sources:
#   ("calls", span)   calls per unit        ("self", span)  median self time per unit
#   ("load", span)    median self time of one load_scenario call
#   ("counter", key)  per-unit counter      ("share", layer) layer's share of unit time
#   ("extra", key)    computed by the traced run itself
PER_LAYER = (
    ("scenario.parse_s", "s", "lower", ("load", "scenario.parse_scenario"),
     "setup_s on all; run_s on verify-d32 and sample-bulk (each verb call reloads)"),
    ("scenario.build_s", "s", "lower", ("load", "scenario.build_scenario"),
     "setup_s on all; run_s on verify-d32 and sample-bulk"),
    ("cli.load_scenario_s", "s", "lower", ("load", "scenario.load_scenario"),
     "setup_s on all; run_s on verify-d32 and sample-bulk"),
    ("linalg.eigendecompose_calls", "count", "lower",
     ("calls", "linalg.hermitian_eigendecompose"), "setup_s on verify-d32"),
    ("linalg.eigendecompose_s", "s", "lower",
     ("self", "linalg.hermitian_eigendecompose"), "setup_s on verify-d32"),
    ("linalg.eigvalsh_calls", "count", "lower", ("calls", "linalg.eigvalsh"), VERIFY),
    ("linalg.eigvalsh_s", "s", "lower", ("self", "linalg.eigvalsh"), VERIFY),
    ("linalg.partial_trace_s", "s", "lower", ("self", "linalg.partial_trace_second"), VERIFY),
    ("model.split_event_calls", "count", "lower", ("calls", "model.split_event"), VERIFY),
    ("model.split_event_s", "s", "lower", ("self", "model.split_event"), VERIFY),
    ("model.effect_calls", "count", "lower", ("calls", "model.effect"), VERIFY),
    ("model.effect_s", "s", "lower", ("self", "model.effect"), VERIFY),
    ("model.overall_probability_calls", "count", "lower",
     ("calls", "model.overall_probability"), VERIFY),
    ("model.overall_probability_s", "s", "lower",
     ("self", "model.overall_probability"), VERIFY),
    ("model.overall_probability_density_s", "s", "lower",
     ("self", "model.overall_probability_density"), VERIFY),
    ("model.conditional_probability_s", "s", "lower",
     ("self", "model.conditional_probability"), VERIFY),
    ("model.verify_pov_axioms_s", "s", "lower", ("self", "model.verify_pov_axioms"), VERIFY),
    ("model.pov_events_checked", "count", "higher",
     ("counter", "model.pov_events_checked"), VERIFY + " (coverage guard)"),
    ("model.effects_built", "count", "lower", ("calls", "model._effect_operator"), VERIFY),
    ("model.probabilities_returned", "count", "higher",
     ("extra", "probabilities_returned"), VERIFY),
    ("model.effects_per_probability", "ratio", "lower",
     ("extra", "effects_per_probability"), VERIFY),
    ("model.detection_probability_calls", "count", "lower",
     ("calls", "model.detection_probability"), DRAWS),
    ("model.detection_probability_s", "s", "lower",
     ("self", "model.detection_probability"), DRAWS),
    ("model.pure_states_built", "count", "lower", ("calls", "model.PureState"), DRAWS),
    ("measurement.post_state_yes_s", "s", "lower",
     ("self", "measurement.post_measurement_state_yes"), VERIFY),
    ("measurement.post_density_s", "s", "lower",
     ("self", "measurement.post_measurement_density"), VERIFY),
    ("measurement.operators_calls", "count", "lower",
     ("calls", "measurement.measurement_operators"), VERIFY),
    ("measurement.operators_s", "s", "lower",
     ("self", "measurement.measurement_operators"), VERIFY),
    ("measurement.nonselective_s", "s", "lower",
     ("self", "measurement.nonselective_state"), VERIFY),
    ("measurement.fix_phase_calls", "count", "lower", ("calls", "measurement.fix_phase"), DRAWS),
    ("apparatus.couple_s", "s", "lower", ("self", "apparatus.couple_and_evolve"),
     VERIFY + " (small: a gain here barely moves it)"),
    ("apparatus.reduce_s", "s", "lower", ("self", "apparatus.reduced_object_state"),
     VERIFY + " (small: a gain here barely moves it)"),
    ("sampling.run_experiment_s", "s", "lower", ("self", "sampling.run_experiment"), BULK),
    ("sampling.blocks", "count", "lower", ("counter", "sampling.blocks"), BULK),
    ("sampling.block_generator_calls", "count", "lower",
     ("calls", "sampling.block_generator"), BULK),
    ("sampling.block_generator_s", "s", "lower", ("self", "sampling.block_generator"), BULK),
    ("sampling.workers_speedup", "ratio", "higher", ("extra", "workers_speedup"), BULK),
    ("sampling.workers1_s", "s", "lower", ("extra", "workers1_s"), BULK),
    ("sampling.workers2_s", "s", "lower", ("extra", "workers2_s"), BULK),
    ("sampling.sample_measurement_calls", "count", "lower",
     ("calls", "sampling.sample_measurement"), DRAWS),
    ("sampling.sample_measurement_s", "s", "lower",
     ("self", "sampling.sample_measurement"), DRAWS),
    ("sampling.born_probabilities_calls", "count", "lower",
     ("calls", "sampling.born_probabilities"), DRAWS),
    ("sampling.born_probabilities_s", "s", "lower",
     ("self", "sampling.born_probabilities"), DRAWS),
    ("sampling.generator_calls", "count", "lower", ("calls", "sampling.generator"), DRAWS),
    ("cli.verification_checks_s", "s", "lower", ("self", "cli.verification_checks"), VERIFY),
    ("cli.record_bytes", "bytes", "lower", ("extra", "record_bytes"),
     "none: guards byte-identical records; changes only when a change says so"),
    *((f"{layer}.share", "ratio", "lower", ("share", layer),
       "where the unit's time goes; checks the workload split")
      for layer in (*LAYERS, HARNESS)),
    ("trace.untraced_run_s", "s", "lower", ("extra", "untraced_run_s"),
     "base of trace.overhead_s"),
    ("trace.traced_run_s", "s", "lower", ("extra", "traced_run_s"),
     "base of trace.overhead_s"),
    ("trace.overhead_s", "s", "lower", ("extra", "overhead_s"),
     "none: cost of tracing one unit"),
)

# Layers expected to carry most of each workload's unit time.
EXPECTED_SPLIT = {
    "verify-d32": ("model", "measurement"),
    "sample-bulk": ("sampling",),
    "draws-scalar": ("sampling", "model"),
}

PROBABILITY_SPANS = ("model.overall_probability", "model.overall_probability_density",
                     "model.conditional_probability")


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with ten samples above it.

    With ten or fewer samples this is the maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    percentile = 100.0 * k / (n - 1) if n > 1 else 100.0
    return ordered[k], percentile


def per_layer(units: list[dict], loads: list[dict], extra: dict) -> tuple[dict, bool]:
    """Per-layer metric values from per-unit and per-load trace summaries.

    Returns (values, counts_repeat), where counts_repeat says whether every
    unit made exactly the same calls and counters.
    """
    first = units[0]
    counts_repeat = all(u["calls"] == first["calls"] and u["counters"] == first["counters"]
                        for u in units)
    extra = dict(extra)
    probabilities = sum(first["calls"].get(name, 0) for name in PROBABILITY_SPANS)
    effects = first["calls"].get("model._effect_operator", 0)
    extra["probabilities_returned"] = probabilities
    extra["effects_per_probability"] = effects / probabilities if probabilities else 0.0

    values = {}
    for name, _, _, (kind, key), _ in PER_LAYER:
        if kind == "calls":
            values[name] = first["calls"].get(key, 0)
        elif kind == "self":
            values[name] = statistics.median(u["self_s"].get(key, 0.0) for u in units)
        elif kind == "load":
            values[name] = statistics.median(s["self_s"].get(key, 0.0) for s in loads)
        elif kind == "counter":
            values[name] = first["counters"].get(key, 0)
        elif kind == "share":
            total = sum(sum(u["layer_s"].values()) for u in units)
            values[name] = sum(u["layer_s"].get(key, 0.0) for u in units) / total
        else:
            values[name] = extra[key]
    return values, counts_repeat
