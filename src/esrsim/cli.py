"""Command-line front end.

Verbs:

* ``verify <file>``  — run the full invariant suite on a scenario.
* ``sample <file>``  — Monte Carlo frequencies vs predicted probabilities.
* ``evolve <file>``  — apparatus coupling and partial-trace consistency.

Each verb prints a human-readable table and, when an output path is set
(``--out`` or the ``ESRSIM_OUT_DIR`` environment variable), appends one
self-describing JSON record per run. Exit codes: 0 all checks within
tolerance, 1 a check failed, 2 usage, parse or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .apparatus import couple_and_evolve, reduced_object_state
from .errors import EsrError
from .linalg import frobenius
from .measurement import (
    _branch_state,
    _branch_density,
    measurement_operators,
    nonselective_state,
    outcome_probability,
    state_after_outcome,
)
from .model import (
    _born_weights,
    _conditional,
    _effect,
    _event_subsets,
    _overall,
    _trace_probability,
    detection_probability,
    overall_probability,
    to_density,
    verify_pov_axioms,
)
from .sampling import RngSpec, run_experiment
from .scenario import BuiltScenario, load_scenario

OUT_DIR_ENV = "ESRSIM_OUT_DIR"
DEFAULT_RECORD_NAME = "esrsim-records.jsonl"
DEFAULT_TOL = 1e-10
DEFAULT_SIGMA = 4.0
# verify's random POV partitions and event subsets; the record names the seed
PARTITION_TRIALS = 40
VERIFY_SEED = 0


def _number_arg(cast, bounds: str, low, high=math.inf):
    """argparse type: ``cast(text)`` with ``low <= value < high``; NaN fails.

    ``bounds`` describes the range in the error message.
    """
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {text!r}") from None
        if not low <= value < high:
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {text!r}")
        return value
    return parse


_positive_int = _number_arg(int, "a positive integer", 1)
# RNG seeds and stream ids are unsigned 64-bit integers.
_uint64 = _number_arg(int, "an integer in [0, 2**64)", 0, 2 ** 64)
_nonnegative = _number_arg(float, "a finite number >= 0", 0.0)
_POV_CHECKS = ("pov-normalization", "pov-positivity", "pov-additivity", "pov-commutativity")
_COUPLING_CHECKS = ("coupling-norm", "apparatus-consistency")


def _coupling_checks(built: BuiltScenario, mixture) -> tuple:
    """Couple the object to the pointer: (compound state, reduced object state,
    {check: deviation}) for the norm and the partial trace against ``mixture``."""
    compound = couple_and_evolve(built.gobs, built.psi, built.apparatus)
    reduced = reduced_object_state(compound)
    deviations = (abs(float(np.linalg.norm(compound.amplitudes)) - 1.0),
                  frobenius(reduced.matrix - mixture.matrix))
    return compound, reduced, dict(zip(_COUPLING_CHECKS, deviations))


def verification_checks(built: BuiltScenario) -> tuple[dict[str, float], dict[str, str]]:
    """Named invariant checks; each value is a deviation to compare with a
    tolerance. A check that cannot even run, or whose input cannot be built,
    reports infinity, and the second dict maps its name to the exception as
    ``"ExcType: message"``."""
    gobs, psi = built.gobs, built.psi
    checks: dict[str, float] = {}
    errors: dict[str, str] = {}

    def run(fn, *names: str) -> None:
        """Record ``fn()`` under ``names``: one deviation, or one per name in
        order when there are several."""
        try:
            values = fn() if len(names) > 1 else (fn(),)
            checks.update(zip(names, map(float, values), strict=True))
        except Exception as exc:
            checks.update(dict.fromkeys(names, float("inf")))
            errors.update(dict.fromkeys(names, f"{type(exc).__name__}: {exc}"))

    # Inputs shared by several checks, built on first use. An input that
    # raises is not cached, so each check reading it reports its exception.
    @cache
    def events() -> tuple:
        # each event is a boolean row over the outcomes, a0 first, resolved once
        rows = _event_subsets(gobs.outcomes.size, np.random.default_rng(VERIFY_SEED), limit=256)
        return rows, detection_probability(gobs, psi), _born_weights(gobs, psi)

    operators = cache(lambda: measurement_operators(gobs, psi))
    singletons = np.eye(gobs.outcomes.size, dtype=bool)

    def overall(row) -> float:
        _, pd, weights = events()
        return _overall(pd, weights, row)

    def pov_axioms():
        report = verify_pov_axioms(gobs, psi, partition_trials=PARTITION_TRIALS,
                                   seed=VERIFY_SEED)
        return report.as_dict().values()

    def factorization() -> float:
        rows, pd, _ = events()
        return max(abs(overall(row) - pd * _conditional(gobs, psi, row[1:]))
                   for row in rows[~rows[:, 0]])

    def form_agreement() -> float:
        rows, pd, _ = events()
        return max(abs(overall(row) - _trace_probability(psi, _effect(gobs, pd, row)))
                   for row in rows)

    def total_probability() -> float:
        return abs(sum(map(overall, singletons)) - 1.0)

    def update_form_agreement() -> float:
        rows, pd, _ = events()
        worst = 0.0
        for row in rows:
            if not row.any() or overall(row) < 1e-9:
                continue
            t = _effect(gobs, pd, row)
            vector_form = to_density(_branch_state(psi, t)).matrix
            worst = max(worst, frobenius(vector_form - _branch_density(psi, t).matrix))
        return worst

    def singleton_consistency() -> float:
        family = operators()
        return max(abs(outcome_probability(family, k) - overall(row))
                   for k, row in enumerate(singletons))

    def nonselective_forms() -> float:
        family = operators()
        mixture = nonselective_state(family).matrix
        weighted = np.zeros_like(mixture)
        for k in range(len(family)):
            p = outcome_probability(family, k)
            if p > 1e-12:
                weighted += p * to_density(state_after_outcome(family, k)).matrix
        return frobenius(mixture - weighted)

    def repeatability() -> float:
        family = operators()
        worst = 0.0
        for n in range(1, len(family)):
            if outcome_probability(family, n) < 1e-9:
                continue
            post = state_after_outcome(family, n)
            post_family = measurement_operators(gobs, post)
            for m in range(1, len(family)):
                if m != n:
                    worst = max(worst, outcome_probability(post_family, m))
        return worst

    run(pov_axioms, *_POV_CHECKS)
    run(factorization, "factorization")
    run(form_agreement, "probability-form-agreement")
    run(total_probability, "total-probability")
    run(update_form_agreement, "update-form-agreement")
    run(lambda: operators().deviations().values(), "family-completeness", "family-commutation")
    run(singleton_consistency, "singleton-consistency")
    run(nonselective_forms, "nonselective-forms")
    run(repeatability, "repeatability")
    run(lambda: _coupling_checks(built, nonselective_state(operators()))[2].values(),
        *_COUPLING_CHECKS)
    return checks, errors


def _record_path(out: str | None) -> Path | None:
    if out:
        return Path(out)
    env_dir = os.environ.get(OUT_DIR_ENV)
    if env_dir:
        return Path(env_dir) / DEFAULT_RECORD_NAME
    return None


def _write_record(path: Path | None, record: dict) -> None:
    if path is None:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def _base_record(mode: str, built: BuiltScenario) -> dict:
    return {
        "tool": "esrsim",
        "version": __version__,
        "mode": mode,
        "scenario_sha256": built.digest,
    }


def _event_label(gobs, event) -> str:
    names = ["a0" if v == gobs.a0 else repr(float(v)) for v in sorted(event)]
    return "{" + ", ".join(names) + "}"


def cmd_verify(args) -> int:
    _, built = load_scenario(args.scenario)
    checks, errors = verification_checks(built)
    failed = {k: v for k, v in checks.items() if not v <= args.tol}
    print(f"scenario {built.digest[:12]}  dim={built.gobs.dim}  "
          f"outcomes={built.gobs.outcomes.size}")
    print(f"{'check':<28} {'deviation':>12}  status")
    for name, dev in checks.items():
        status = "pass" if dev <= args.tol else "FAIL"
        print(f"{name:<28} {dev:>12.3e}  {status}"
              + (f"  {errors[name]}" if name in errors else ""))
    record = _base_record("verify", built)
    record["tolerance"] = args.tol
    record["rng"] = f"pcg64:seed={VERIFY_SEED}"  # drives the random event partitions
    record["checks"] = {k: (v if np.isfinite(v) else None) for k, v in checks.items()}
    if errors:
        record["errors"] = errors
    record["passed"] = not failed
    _write_record(_record_path(args.out), record)
    if failed:
        print(f"{len(failed)} check(s) failed at tolerance {args.tol:g}: "
              + ", ".join(sorted(failed)))
        return 1
    print(f"all {len(checks)} checks within tolerance {args.tol:g}")
    return 0


def cmd_sample(args) -> int:
    sc, built = load_scenario(args.scenario)
    exp = built.experiment
    trials = args.trials if args.trials is not None else exp.trials
    seed = args.seed if args.seed is not None else exp.seed
    stream = args.stream if args.stream is not None else exp.stream
    rng = RngSpec(seed=seed, stream_id=stream)
    report = run_experiment(built.gobs, built.psi, trials, rng, workers=args.workers)

    gobs = built.gobs
    print(f"scenario {built.digest[:12]}  trials={trials}  rng={rng.describe()}")
    print(f"{'outcome':>12} {'count':>10} {'frequency':>11} {'predicted':>11} {'sigma':>8}")
    for i, value in enumerate(report.outcomes):
        label = "a0" if i == 0 else repr(float(value))
        sigma = report.sigma_deviations[i]
        sigma_text = f"{sigma:8.2f}" if np.isfinite(sigma) else "     inf"
        print(f"{label:>12} {int(report.counts[i]):>10} "
              f"{report.frequencies[i]:>11.5f} {report.predicted[i]:>11.5f} {sigma_text}")

    event_probs = {}
    for event in built.events:
        event_probs[_event_label(gobs, event)] = overall_probability(gobs, built.psi, event)
    if event_probs:
        print("event probabilities:")
        for label, p in event_probs.items():
            print(f"  {label}: {p:.12f}")

    record = _base_record("sample", built)
    record["report"] = report.to_dict()
    record["event_probabilities"] = event_probs
    record["sigma_limit"] = args.sigma
    passed = report.max_sigma_deviation <= args.sigma
    record["passed"] = passed
    _write_record(_record_path(args.out), record)
    print(f"max deviation {report.max_sigma_deviation:.2f} sigma "
          f"(limit {args.sigma:g}): {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_evolve(args) -> int:
    _, built = load_scenario(args.scenario)
    gobs = built.gobs
    mixture = nonselective_state(measurement_operators(gobs, built.psi))
    compound, reduced, checks = _coupling_checks(built, mixture)
    norm_defect, deviation = checks.values()

    print(f"scenario {built.digest[:12]}  pointer dim={built.apparatus.dim_pointer}  "
          f"theta={built.apparatus.theta:g} phi={built.apparatus.phi:g}")
    print("compound amplitudes (object index major):")
    grid = compound.amplitudes.reshape(gobs.dim, built.apparatus.dim_pointer)
    for i in range(gobs.dim):
        row = "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in grid[i])
        print(f"  {row}")
    print("reduced object state:")
    for row in reduced.matrix:
        print("  " + "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row))
    print(f"coupling norm defect:        {norm_defect:.3e}")
    print(f"reduced-vs-mixture deviation: {deviation:.3e}")

    record = _base_record("evolve", built)
    record["rng"] = None  # fully deterministic mode
    record["compound_amplitudes"] = [[z.real, z.imag] for z in compound.amplitudes]
    record["reduced_state"] = [[[z.real, z.imag] for z in row] for row in reduced.matrix]
    record["checks"] = checks
    passed = deviation <= args.tol and norm_defect <= args.tol
    record["passed"] = passed
    record["tolerance"] = args.tol
    _write_record(_record_path(args.out), record)
    print(f"status: {'pass' if passed else 'FAIL'} (tolerance {args.tol:g})")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esrsim",
        description="Simulate and verify detection-conditioned quantum measurements.")
    parser.add_argument("--version", action="version", version=f"esrsim {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", help="path to a scenario file")
    common.add_argument("--out", default=None,
                        help="append JSON records to this file (default: "
                             f"${OUT_DIR_ENV}/{DEFAULT_RECORD_NAME} if the "
                             "variable is set)")
    algebraic = argparse.ArgumentParser(add_help=False, parents=[common])
    algebraic.add_argument("--tol", type=_nonnegative, default=DEFAULT_TOL,
                           help="tolerance for algebraic checks (default %(default)g)")

    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser("verify", parents=[algebraic],
                              help="run the invariant suite on a scenario")
    p_verify.set_defaults(handler=cmd_verify)

    p_sample = sub.add_parser("sample", parents=[common],
                              help="run a Monte Carlo sampling experiment")
    p_sample.add_argument("--sigma", type=_nonnegative, default=DEFAULT_SIGMA,
                          help="limit for statistical checks in binomial sigmas "
                               "(default %(default)g)")
    p_sample.add_argument("--trials", type=_positive_int, default=None,
                          help="override the scenario's trial count")
    p_sample.add_argument("--seed", type=_uint64, default=None,
                          help="override the scenario's RNG seed")
    p_sample.add_argument("--stream", type=_uint64, default=None,
                          help="override the scenario's RNG stream id")
    p_sample.add_argument("--workers", type=_positive_int, default=1,
                          help="worker threads; the report does not depend on this")
    p_sample.set_defaults(handler=cmd_sample)

    p_evolve = sub.add_parser("evolve", parents=[algebraic],
                              help="couple to the apparatus and check the partial trace")
    p_evolve.set_defaults(handler=cmd_evolve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (EsrError, OSError) as exc:
        print(f"esrsim: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
