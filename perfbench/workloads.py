"""Workload process: runs one workload's units and prints one JSON line.

Started by ``run.py`` with the checkout's ``src`` on ``sys.path``. Every call
into esrsim goes through a module attribute (``cli.main``,
``sampling.sample_sequence``, ...) looked up at call time, so the tracer's
rebinding reaches it.

A unit is one verb call (verify-d32, sample-bulk) or 2000 five-draw
sequences (draws-scalar). Each unit is checked after it is timed, and a
failed check counts against the run without stopping it. Every unit must
also reproduce a reference fingerprint (its record bytes or outcome digest):
the first warm-up unit's, or for sample-bulk an untimed ``--workers 1`` call.
In the traced run the reference comes from an untraced unit, so a record
that tracing changed is a failed unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import struct
import sys
import time
from pathlib import Path

from esrsim import cli, sampling, scenario

import calibration
import metrics
from tracing import HARNESS, Tracer

# verify's default tolerance; every one of its 15 checks must stay within it.
VERIFY_TOL = 1e-10
VERIFY_CHECKS = 15
BULK_TRIALS = 10_000_000
# The scenario's seed fixes the sample, so a 4-sigma miss (about 6e-4 per
# scenario here) would fail every unit of that seed; 6 sigma makes it ~2e-8.
BULK_SIGMA = "6"
SEQUENCES = 2000
SEQUENCE_LENGTH = 5
LOADS = 5


def _workers() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


class _Verb:
    """A CLI verb called in-process; its record is the unit's output."""

    items = 1

    def __init__(self, path: Path, work_dir: Path):
        self.path = str(path)
        self.record = work_dir / "record.jsonl"
        self.reference: bytes | None = None

    def argv(self) -> list[str]:
        raise NotImplementedError

    def call(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def unit(self):
        return self.call(self.argv())

    def take_record(self) -> bytes:
        blob = self.record.read_bytes()
        self.record.unlink()
        return blob

    def check(self, code) -> bool:
        blob = self.take_record()
        if self.reference is None:
            self.reference = blob
        return code == 0 and blob == self.reference and self.valid(json.loads(blob))


class VerifyD32(_Verb):
    def argv(self) -> list[str]:
        return ["verify", self.path, "--out", str(self.record)]

    def valid(self, record: dict) -> bool:
        checks = record["checks"]
        return (record["passed"] and len(checks) == VERIFY_CHECKS
                and all(v is not None and v <= VERIFY_TOL for v in checks.values()))


class SampleBulk(_Verb):
    def __init__(self, path: Path, work_dir: Path, trials: int):
        super().__init__(path, work_dir)
        self.trials = trials
        self.items = trials
        self.workers = _workers()
        # untimed single-worker reference; units must reproduce it byte for byte
        code = self.call(self.argv(workers=1))
        blob = self.take_record()
        self.reference = blob if code == 0 else None

    def argv(self, workers: int | None = None) -> list[str]:
        return ["sample", self.path, "--trials", str(self.trials),
                "--workers", str(workers or self.workers), "--sigma", BULK_SIGMA,
                "--out", str(self.record)]

    def valid(self, record: dict) -> bool:
        return sum(record["report"]["counts"]) == self.trials

    def check(self, code) -> bool:
        if self.reference is None:  # the reference call failed
            self.take_record()
            return False
        return super().check(code)


class DrawsScalar:
    """2000 seeded sample_sequence calls of five draws each, from the library."""

    def __init__(self, path: Path, seed: int, sequences: int):
        _, built = scenario.load_scenario(path)
        self.gobs, self.psi = built.gobs, built.psi
        self.seeds = range(seed * sequences, (seed + 1) * sequences)
        self.items = sequences * SEQUENCE_LENGTH
        self.reference: bytes | None = None

    def unit(self):
        return [sampling.sample_sequence(self.gobs, self.psi, SEQUENCE_LENGTH,
                                         sampling.RngSpec(seed=s, stream_id=1))
                for s in self.seeds]

    def check(self, sequences) -> bool:
        digest = hashlib.sha256()
        violations = 0
        for records in sequences:
            if len({r.outcome for r in records if r.detected}) > 1:
                violations += 1
            for r in records:
                digest.update(struct.pack("<d?", r.outcome, r.detected))
        blob = digest.digest()
        if self.reference is None:
            self.reference = blob
        return violations == 0 and len(sequences) == len(self.seeds) and blob == self.reference


def make_workload(name: str, path: Path, seed: int, work_dir: Path, smoke: bool):
    if name == "verify-d32":
        return VerifyD32(path, work_dir)
    if name == "sample-bulk":
        return SampleBulk(path, work_dir, 100_000 if smoke else BULK_TRIALS)
    return DrawsScalar(path, seed, 10 if smoke else SEQUENCES)


class Tally:
    """Units attempted and failed, and the wall time of each one."""

    def __init__(self):
        self.times: list[float] = []
        self.failed = 0

    def run(self, workload, span=None) -> None:
        start = time.perf_counter()
        with span or contextlib.nullcontext():
            raw = workload.unit()
        self.times.append(time.perf_counter() - start)
        self.failed += not workload.check(raw)


def run_for(workload, seconds: float) -> tuple[Tally, list[float]]:
    """Run units until ``seconds`` have passed, at least one, timing the
    reference kernel before each unit and after the last."""
    tally = Tally()
    kernels = [calibration.kernel()]
    deadline = time.perf_counter() + seconds
    while not tally.times or time.perf_counter() < deadline:
        tally.run(workload)
        kernels.append(calibration.kernel())
    return tally, kernels


def _speedup(path: Path, trials: int, reps: int) -> tuple[dict, int]:
    """Median run_experiment time with 1 and 2 workers, alternating; (extra, failures)."""
    _, built = scenario.load_scenario(path)
    rng = sampling.RngSpec(seed=built.experiment.seed)
    times = {1: [], 2: []}
    reports = set()
    for _ in range(reps):
        for workers in (1, 2):
            start = time.perf_counter()
            report = sampling.run_experiment(built.gobs, built.psi, trials, rng, workers)
            times[workers].append(time.perf_counter() - start)
            reports.add(json.dumps(report.to_dict(), sort_keys=True))
    w1, w2 = statistics.median(times[1]), statistics.median(times[2])
    return {"workers1_s": w1, "workers2_s": w2, "workers_speedup": w1 / w2}, len(reports) - 1


def traced(workload, path: Path, seconds: float, unit_estimate: float,
           smoke: bool, trace_file: Path) -> dict:
    """Untraced units, then the same number traced, then loads and worker timings."""
    units = 1 if smoke else max(3, min(6, round(0.35 * seconds / unit_estimate)))
    plain = Tally()
    for _ in range(units):
        plain.run(workload)

    tracer = Tracer()
    tracer.install()
    try:
        tallied = Tally()
        summaries = []
        for _ in range(units):
            mark = tracer.mark()
            tallied.run(workload, tracer.span("harness.unit", HARNESS))
            summaries.append(tracer.summarize(mark))
        loads = []
        for _ in range(LOADS):
            mark = tracer.mark()
            with tracer.span("harness.load", HARNESS):
                scenario.load_scenario(path)
            loads.append(tracer.summarize(mark))
    finally:
        tracer.uninstall()
    tracer.write(trace_file)

    extra, mismatches = _speedup(path, 100_000 if smoke else BULK_TRIALS, 1 if smoke else 2)
    untraced_s = statistics.median(plain.times)
    traced_s = statistics.median(tallied.times)
    extra.update(untraced_run_s=untraced_s, traced_run_s=traced_s,
                 overhead_s=traced_s - untraced_s,
                 record_bytes=len(workload.reference) if isinstance(workload, _Verb) else 0)
    values, counts_repeat = metrics.per_layer(summaries, loads, extra)
    return {"per_layer": values, "counts_repeat": counts_repeat,
            "attempted": 2 * units + 1, "failed": plain.failed + tallied.failed + mismatches,
            "spans": len(tracer.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(metrics.WORK_ITEM))
    parser.add_argument("--scenario", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--warmup", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--work-dir", required=True, type=Path)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.scenario, args.seed, args.work_dir, args.smoke)
    unit_estimate = run_for(workload, args.warmup)[0].times[-1]
    if args.trace:
        out = traced(workload, args.scenario, args.seconds, unit_estimate, args.smoke,
                     args.trace_file)
    else:
        tally, kernels = run_for(workload, args.seconds)
        out = {"times": tally.times, "kernels": kernels, "attempted": len(tally.times),
               "failed": tally.failed, "items": workload.items}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
