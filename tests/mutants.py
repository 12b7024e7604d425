"""Catalogue of source mutants, each with the tests that must kill it.

A mutant is one exact text replacement in the source, ``old`` -> ``new``,
where ``old`` occurs exactly once in its file. It is killed when every test
it lists fails on a copy of the repository with the replacement applied.
``tests/test_mutants.py`` checks, as part of the test suite, that each
``old`` still occurs exactly once, so a refactor that edits a mutated line
updates its mutant in the same change.

Run from anywhere, with numpy and pytest installed::

    python tests/mutants.py                 # every mutant, its named tests only
    python tests/mutants.py NAME ...        # the named mutants
    python tests/mutants.py --full NAME     # all tests; print the ones that fail

Each mutant runs on its own temporary copy of ``src/``, ``tests/``,
``demos/``, ``pyproject.toml`` and ``README.md``. The report has one line per mutant,
``killed`` or ``survived`` (naming the listed tests that passed), and the
exit code is 1 when a mutant survives or an ``old`` text does not match once.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "demos", "pyproject.toml", "README.md")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    kills: tuple[str, ...]  # pytest node ids, each of which must fail
    why: str  # the defect, printed when the mutant survives


# the relative bias of the three kernel mutants: 2**-40, about 9.1e-13
BIAS = "(1 + 2 ** -40)"

CLI = "tests/test_cli.py::"
LINALG = "tests/test_linalg.py::"
MEASUREMENT = "tests/test_measurement.py::"
MODEL = "tests/test_model.py::"
RECORDS = "tests/test_records.py::"
SAMPLING = "tests/test_sampling.py::"
SCENARIO = "tests/test_scenario.py::"
EVENT_CHECKS = tuple(f"{MEASUREMENT}test_event_checks_match_reference[{kind}]"
                     for kind in ("stream", "d32", "d32-degenerate", "unlikely"))
GOLDENS = tuple(f"{RECORDS}test_records_close_to_golden[{demo}]"
                for demo in ("degenerate", "qubit", "spectral"))

MUTANTS = (
    Mutant(
        "eigenstate-table-column-0", "src/esrsim/sampling.py",
        "            if b.shape[1] != 1:\n",
        "            if b.shape[1] < 1:\n",
        (MODEL + "TestQuantumObservable::test_projectors_and_eigenstates_come_from_the_bases",
         *(SAMPLING + "TestEigenstateTable::test_eigenstate_weights_equal_weights_of_each_entry"
           f"[True-{d}]" for d in (2, 8, 32)),
         *(SAMPLING + "TestEigenstateTable::test_higher_ranks_take_the_per_draw_lueders_update"
           f"[{d}]" for d in (4, 9, 32)),
         SAMPLING + "TestSampleSequence::test_last_draw_computes_no_weights"),
        "the sampler's table takes column 0 of every eigenspace basis, so a "
        "higher-rank outcome gets a fixed post-state instead of the Lüders update"),
    Mutant(
        "weights-memo-never-stores", "src/esrsim/sampling.py",
        "        entry = memo[psi] = _weights(gobs, psi)\n",
        "        entry = _weights(gobs, psi)\n",
        (SAMPLING + "TestSampleSequence::test_last_draw_computes_no_weights",
         *(SAMPLING + "TestSampleSequence::test_nondegenerate_sequence_computes_weights_once"
           f"[{case}]" for case in ("benchmark", "sigma-z")),
         SAMPLING + "TestSingleDrawGenerators::"
         "test_threads_on_a_cold_observable_match_a_serial_run",
         SAMPLING + "TestStartWeights::test_entry_dies_with_its_state",
         SAMPLING + "TestStartWeights::test_equal_amplitudes_are_weighed_per_state_object",
         SAMPLING + "TestStartWeights::test_one_state_on_two_observables_gets_each_models_pd",
         *(SAMPLING + "TestStartWeights::test_warm_records_equal_those_of_a_fresh_observable"
           f"[{case}]" for case in ("benchmark", "degenerate"))),
        "a prepared state is weighed again on every call"),
    Mutant(
        "default-a0-always-one-below", "src/esrsim/model.py",
        "        if self.a0 is None and not low - a0 > floor(a0):\n",
        "        if False:\n",
        (*(CLI + f"TestErrorPaths::test_default_a0_of_a_far_spectrum_is_no_error[{verb}]"
           for verb in ("verify", "sample", "evolve")),
         *(MODEL + "TestGeneralizedObservable::"
           f"test_default_a0_steps_farther_where_one_below_would_clash[eigenvalues{i}]"
           for i in range(4))),
        "the default a0 is always the least eigenvalue minus 1, which clashes "
        "with the spectrum when |λ_min| or the spectral range is large"),
    Mutant(
        "overall-a0-term-biased", "src/esrsim/model.py",
        "(1.0 - pd) * bool(row[0]) for row in rows]",
        f"(1.0 - pd) * bool(row[0]) * {BIAS} for row in rows]",
        (*EVENT_CHECKS,
         MODEL + "TestEffectGateCertificate::test_weights_effect_and_density_forms_agree",
         SAMPLING + "TestPredictedProbabilities::test_sigma_z_values",
         SAMPLING + "TestSampleMeasurement::test_record_probability_matches_prediction"),
        "model._overall's no-registration term is off by a relative 2**-40"),
    Mutant(
        "conditional-biased", "src/esrsim/model.py",
        "    return [float(np.vdot(psi.amplitudes, pv).real)\n",
        f"    return [float(np.vdot(psi.amplitudes, pv).real) * {BIAS}\n",
        (*EVENT_CHECKS, *GOLDENS),
        "model._conditional's values are off by a relative 2**-40"),
    Mutant(
        "trace-form-biased", "src/esrsim/model.py",
        "    return np.trace(to_density(psi).matrix @ ts, axis1=1, axis2=2).real.tolist()\n",
        "    return (np.trace(to_density(psi).matrix @ ts, axis1=1, axis2=2).real"
        f" * {BIAS}).tolist()\n",
        (*EVENT_CHECKS, *GOLDENS,
         MODEL + "TestEffectGateCertificate::test_weights_effect_and_density_forms_agree"),
        "model._trace_forms' values are off by a relative 2**-40"),
    Mutant(
        "cluster-neighbour-block", "src/esrsim/linalg.py",
        "    return np.array(eigenvalues), bases\n",
        "    return np.array(eigenvalues), bases[1:] + bases[:1]\n",
        (*(LINALG + f"TestEigendecompose::test_invariants_random[{d}]" for d in (2, 3, 5, 8)),
         LINALG + "TestEigendecompose::test_returns_eigenvalues_and_bases",
         MODEL + "TestQuantumObservable::test_projectors_and_eigenstates_come_from_the_bases",
         SCENARIO + "TestBuild::test_spectral_build_matches_dense",
         SCENARIO + "TestBuild::test_spectral_form_merges_near_degenerate_pair",
         *GOLDENS),
        "each eigenvalue gets its neighbour's eigenspace basis; verify's checks "
        "compare the projectors with one another, never with the matrix"),
)


def mutate(root: Path, mutant: Mutant) -> None:
    """Apply ``mutant`` to the copy at ``root``; ValueError unless ``old`` occurs once."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: its old text occurs {text.count(mutant.old)} "
                         f"times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def failing(mutant: Mutant, nodes: tuple[str, ...]) -> set[str]:
    """Node ids that fail when ``nodes`` (all tests if empty) run on a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="esrsim-mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, root / name,
                                ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
            else:
                shutil.copy2(source, root / name)
        mutate(root, mutant)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *nodes],
            cwd=root, env=env, capture_output=True, text=True)
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", result.stdout, re.M))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--full", action="store_true",
                        help="run all tests on each mutant and print those that fail")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    bad = 0
    for mutant in [known[name] for name in args.names] or MUTANTS:
        start = time.perf_counter()
        try:
            failed = failing(mutant, () if args.full else mutant.kills)
        except ValueError as exc:
            print(f"error     {exc}")
            bad += 1
            continue
        seconds = time.perf_counter() - start
        if args.full:
            print(f"{mutant.name}: {len(failed)} fail ({seconds:.1f} s)")
            print("".join(f"  {node}\n" for node in sorted(failed)), end="")
            continue
        alive = [node for node in mutant.kills if node not in failed]
        bad += bool(alive)
        verdict = "survived" if alive else "killed"
        print(f"{verdict:9} {mutant.name} ({len(mutant.kills) - len(alive)}/"
              f"{len(mutant.kills)} tests fail, {seconds:.1f} s)")
        if alive:
            print(f"          ({mutant.why})")
        for node in alive:
            print(f"          passes: {node}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
