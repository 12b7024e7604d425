"""Command-line front end: it parses, prints and writes; the library computes.

Verbs:

* ``verify <file>``  — run the full invariant suite on a scenario.
* ``sample <file>``  — Monte Carlo frequencies vs predicted probabilities.
* ``evolve <file>``  — apparatus coupling and partial-trace consistency.

:func:`main` loads the scenario once and builds the record base every verb
shares (tool, version, mode and scenario digest). ``verify`` and ``evolve``
print the library's checks (``measurement.verification_checks`` and
``measurement.coupling_checks``) in one check table and one verdict line,
under one rule, ``measurement.failed_checks``: a check fails unless its
deviation is at most ``--tol``, and a check that could not run fails with
its cause printed and recorded under ``errors``.

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
from pathlib import Path

from . import __version__
from .errors import EsrError
from .measurement import coupling_checks, failed_checks, verification_checks
from .model import VERIFY_RNG, overall_probabilities
from .sampling import RngSpec, run_experiment
from .scenario import load_scenario

OUT_DIR_ENV = "ESRSIM_OUT_DIR"
DEFAULT_RECORD_NAME = "esrsim-records.jsonl"
DEFAULT_TOL = 1e-10
DEFAULT_SIGMA = 4.0


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


def _event_label(gobs, row) -> str:
    names = ["a0" if v == gobs.a0 else repr(v) for v in sorted(gobs.outcomes[row].tolist())]
    return "{" + ", ".join(names) + "}"


def _report_checks(args, record: dict, checks) -> int:
    """Print the check table, write ``record`` with the checks and their verdict,
    print the verdict line and return the exit code. A check that could not run
    prints and records its cause (under ``errors``) and records None."""
    failed = failed_checks(checks, args.tol)
    print(f"{'check':<28} {'deviation':>12}  status")
    for check in checks:
        status = "FAIL" if check.name in failed else "pass"
        cause = f"  {check.cause}" if check.cause else ""
        print(f"{check.name:<28} {check.deviation:>12.3e}  {status}{cause}")
    record["tolerance"] = args.tol
    record["checks"] = {c.name: (c.deviation if math.isfinite(c.deviation) else None)
                        for c in checks}
    errors = {c.name: c.cause for c in checks if c.cause}
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


def _complex_row(values) -> str:
    return "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in values)


def cmd_verify(args, built, record: dict) -> int:
    checks = verification_checks(built.gobs, built.psi, built.apparatus)
    print(f"scenario {built.digest[:12]}  dim={built.gobs.dim}  "
          f"outcomes={built.gobs.outcomes.size}")
    record["rng"] = VERIFY_RNG  # drives the random event partitions
    return _report_checks(args, record, checks)


def cmd_sample(args, built, record: dict) -> int:
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
        sigma_text = f"{sigma:8.2f}" if math.isfinite(sigma) else "     inf"
        print(f"{label:>12} {int(report.counts[i]):>10} "
              f"{report.frequencies[i]:>11.5f} {report.predicted[i]:>11.5f} {sigma_text}")

    probabilities = overall_probabilities(gobs, built.psi, built.events)
    event_probs = {_event_label(gobs, row): p for row, p in zip(built.events, probabilities)}
    if event_probs:
        print("event probabilities:")
        for label, p in event_probs.items():
            print(f"  {label}: {p:.12f}")

    record["report"] = report.to_dict()
    record["event_probabilities"] = event_probs
    record["sigma_limit"] = args.sigma
    passed = report.max_sigma_deviation <= args.sigma
    record["passed"] = passed
    _write_record(_record_path(args.out), record)
    print(f"max deviation {report.max_sigma_deviation:.2f} sigma "
          f"(limit {args.sigma:g}): {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_evolve(args, built, record: dict) -> int:
    compound, reduced, checks = coupling_checks(built.gobs, built.psi, built.apparatus)
    pointer = compound.dim_pointer if compound else "?"
    print(f"scenario {built.digest[:12]}  pointer dim={pointer}  "
          f"theta={built.apparatus.theta:g} phi={built.apparatus.phi:g}")
    record["rng"] = None  # fully deterministic mode
    record["compound_amplitudes"] = record["reduced_state"] = None
    if compound:
        print("compound amplitudes (object index major):")
        for row in compound.amplitudes.reshape(compound.dim_object, compound.dim_pointer):
            print(f"  {_complex_row(row)}")
        record["compound_amplitudes"] = [[z.real, z.imag] for z in compound.amplitudes]
    if reduced:
        print("reduced object state:")
        for row in reduced.matrix:
            print(f"  {_complex_row(row)}")
        record["reduced_state"] = [[[z.real, z.imag] for z in row] for row in reduced.matrix]
    return _report_checks(args, record, checks)


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
    args = build_parser().parse_args(argv)
    try:
        _, built = load_scenario(args.scenario)
        record = {"tool": "esrsim", "version": __version__, "mode": args.command,
                  "scenario_sha256": built.digest}
        return args.handler(args, built, record)
    except (EsrError, OSError) as exc:
        print(f"esrsim: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
