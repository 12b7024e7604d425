"""Smoke test of the benchmark itself: one unit per workload at tiny sizes.

Run from the root of a checkout: ``python3 perfbench/smoke.py``. It checks
only that every metric named in ``BENCHMARK.json`` is printed with its unit,
that no unit fails (fail_frac 0), that ``BENCHMARK.json`` agrees with
``metrics.py``, and that the benchmark refuses to run, printing no result,
in a directory holding only the benchmark. Timings are not checked, so this
stays out of the test suite. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent


def _fail(message: str) -> None:
    print(f"smoke: FAIL {message}")
    sys.exit(1)


def _run(spec: dict, cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv + ["--smoke"], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_spec(spec: dict) -> None:
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != [tuple(row[:3]) for row in table]:
            _fail(f"BENCHMARK.json {key} differs from metrics.py")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if bounds != {name: bound for name, _, _, bound in metrics.END_TO_END}:
        _fail("BENCHMARK.json bounds differ from metrics.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(metrics.WORK_ITEM):
        _fail("BENCHMARK.json workloads differ from metrics.WORK_ITEM")


def check_runs(spec: dict) -> None:
    for workload in metrics.WORK_ITEM:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = _run(spec, ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                _fail(f"{label} exited {done.returncode}: {done.stderr[-2000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected:
                _fail(f"{label} printed {sorted(printed)}, expected {sorted(expected)}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                _fail(f"{label}: {result['failed']} of {result['attempted']} units failed")
            print(f"smoke: {label} ok ({result['attempted']} units, fail_frac 0)")


def check_refuses_without_program(spec: dict) -> None:
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(spec, bare, "verify-d32", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        _fail("the benchmark ran without the program")
    print("smoke: refuses to run without src/esrsim ok")


if __name__ == "__main__":
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    check_runs(spec)
    check_refuses_without_program(spec)
    print("smoke: ok")
