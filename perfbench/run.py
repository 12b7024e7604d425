"""esrsim benchmark: one workload, end-to-end metrics or a traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify-d32 --seed 1 --seconds 35 --trace 0

Workloads (a unit is one timed piece of work):

* ``verify-d32``: ``esrsim verify`` in-process on a d = 32 scenario with
  expectation detection and nonzero apparatus phases, so all 15 checks run.
  Most of its time is in ``model`` and ``measurement``; none in ``sampling``.
* ``sample-bulk``: ``esrsim sample --trials 10000000`` on a d = 8 scenario
  with up to two workers. The sampler's block loop does nearly all the work;
  ``model`` works only while the scenario loads.
* ``draws-scalar``: 2000 ``sample_sequence`` calls of five draws each on the
  d = 8 scenario, one fresh ``RngSpec`` per sequence: the same sampling layer
  one draw at a time, dominated by per-draw overhead.

Scenarios are generated from ``--seed``; the program only sees the scenario
file. ``--trace 0`` measures set-up in fresh interpreters, warms up for a
fixed time, then runs units for ``--seconds`` in one process and prints the
end-to-end metrics. Their times are in reference seconds: wall time scaled by
a fixed kernel timed around each unit, which cancels the host's speed drift
(see ``calibration.py``); the unscaled wall times are printed beside them.
``--trace 1`` runs units untraced and then traced (spans around every layer
boundary; see ``tracing.py``) and prints the per-layer metrics. The last
line of output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

The run writes only under ``.perfbench/`` in the checkout, and exits with
code 2 when the checkout has no ``src/esrsim`` to benchmark.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import calibration
import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# (dimension, detection spectrum) per workload. Every check of verify-d32
# runs with a detection spectrum of [0.05, 0.95]. The d = 8 workloads keep the
# detection probability near 0.5 for every state, because the detected share
# sets the work per draw: with [0.05, 0.95] it ranged 0.39-0.65 across seeds
# and moved the draws-scalar time by 10%.
SCENARIOS = {"verify-d32": (32, (0.05, 0.95)), "sample-bulk": (8, (0.45, 0.55)),
             "draws-scalar": (8, (0.45, 0.55))}
SMOKE_DIMENSION = 3
# Fresh-interpreter set-up probes, half before and half after the measured
# units, so the median spans the machine's state over the whole run.
SETUP_PROBES = 8
WARMUP_S = 2.0
# Every run must end within 180 s; subprocesses are killed past this.
DEADLINE_S = 170.0


def _blas() -> tuple[str, int | None]:
    """Name of numpy's BLAS and the thread count it is using, if it says."""
    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "unknown")
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=10)
    return done.stdout.strip() or "unknown"


def environment(args, digest: str) -> dict:
    blas, threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "scenario_sha256": digest,
        "load": "one process; at most nproc threads (sampler workers capped at nproc)",
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run(argv: list[str], deadline: float) -> str:
    """Run a subprocess to completion (killed at the deadline); return its stdout."""
    done = subprocess.run(argv, capture_output=True, text=True, env=_child_env(),
                          cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"{Path(argv[1]).name} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def setup_times(scenario: Path, probes: int, deadline: float) -> list[tuple[float, float]]:
    """(set-up seconds, reference-kernel seconds) from each fresh-interpreter probe."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(scenario)]
    return [tuple(float(x) for x in _run(argv, deadline).split())
            for _ in range(probes)]


def end_to_end(out: dict, setup: list[tuple[float, float]],
               workload: str) -> tuple[dict, list[str]]:
    """End-to-end metrics; times are in reference seconds (see calibration.py)."""
    raw = out["times"]
    times = calibration.adjust(raw, out["kernels"])
    setup_raw = [s for s, _ in setup]
    setup_ref = [s * calibration.REFERENCE_S / k for s, k in setup]
    tail, percentile = metrics.tail(times)
    values = {
        "setup_s": statistics.median(setup_ref),
        "run_s": statistics.median(times),
        "run_tail_s": tail,
        "work_per_s": out["items"] * len(times) / sum(times),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters; "
        f"unscaled wall median {statistics.median(setup_raw)!r} s",
        f"run_s: median of {len(times)} units; run_tail_s: p{percentile:.0f} of {len(times)}; "
        f"unscaled wall median {statistics.median(raw)!r} s, "
        f"p{percentile:.0f} {metrics.tail(raw)[0]!r} s",
        f"times are reference seconds: wall time x {calibration.REFERENCE_S} s / the "
        f"reference kernel's time around it (median kernel "
        f"{statistics.median(out['kernels'])!r} s)",
        f"work_per_s is {metrics.WORK_ITEM[workload]} ({out['items']} per unit)",
        f"fail_frac {out['failed'] / out['attempted']:.6g} "
        f"({out['failed']} of {out['attempted']} units)",
    ]
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one unit, two probes: checks the benchmark runs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "esrsim" / "__init__.py").is_file():
        print(f"perfbench: no esrsim package under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    sys.path.insert(0, str(SRC))
    import esrsim
    if Path(esrsim.__file__).resolve().parent != (SRC / "esrsim").resolve():
        print(f"perfbench: imported esrsim from {esrsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from scenarios import write_scenario  # imports esrsim

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        dim, detection = SCENARIOS[args.workload]
        scenario, digest = write_scenario(args.seed, SMOKE_DIMENSION if args.smoke else dim,
                                          detection, run_dir)
        print("env " + json.dumps(environment(args, digest), sort_keys=True))
        probes = 0 if args.trace else 1 if args.smoke else SETUP_PROBES // 2
        setup = setup_times(scenario, probes, deadline)
        child = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
                 "--scenario", str(scenario), "--seed", str(args.seed),
                 "--seconds", repr(0.0 if args.smoke else args.seconds),
                 "--trace", str(args.trace),
                 "--warmup", repr(0.0 if args.smoke else WARMUP_S),
                 "--work-dir", str(run_dir),
                 "--trace-file", str(WORK / f"trace-{args.workload}.jsonl")]
        if args.smoke:
            child.append("--smoke")
        out = json.loads(_run(child, deadline).splitlines()[-1])
        setup += setup_times(scenario, probes, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        values = out["per_layer"]
        unit_of = {name: unit for name, unit, *_ in metrics.PER_LAYER}
        notes = [f"counts repeat across units: {out['counts_repeat']}",
                 f"spans recorded: {out['spans']}",
                 f"fail_frac {out['failed'] / out['attempted']:.6g} "
                 f"({out['failed']} of {out['attempted']} units)"]
        expected = metrics.EXPECTED_SPLIT[args.workload]
        share = sum(values[f"{layer}.share"] for layer in expected)
        notes.append(f"split: {' + '.join(expected)} carry {share:.1%} of unit time "
                     f"(expected > 50%): {'holds' if share > 0.5 else 'DOES NOT HOLD'}")
        for name, _, _, _, moves in metrics.PER_LAYER:
            notes.append(f"{name} -> {moves}")
    else:
        values, notes = end_to_end(out, setup, args.workload)
        unit_of = {name: unit for name, unit, *_ in metrics.END_TO_END}

    for note in notes:
        print(note)
    for name, value in values.items():
        print(f"{name:<40} {value!r:>24} {unit_of[name]}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
