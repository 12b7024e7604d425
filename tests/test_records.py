"""Record comparator tests, and today's records against checked-in ones.

``tests/data/<demo>.records.jsonl`` holds the ``verify``, ``sample`` and
``evolve`` records of ``demos/<demo>.esr``, in that order. The ``verify`` and
``evolve`` records were written before overall probabilities were computed
from Born weights, the ``sample`` record after trial t came to read uniforms
2t and 2t + 1 of one Philox stream; the three of ``spectral`` were written
when that demo was added. Records may move by roundoff, never in keys, counts,
flags or strings.
"""

import copy
import json
import math
from pathlib import Path

import pytest

from esrsim.cli import main
from helpers import RECORD_ATOL, records_close

ROOT = Path(__file__).resolve().parent.parent
VERBS = ("verify", "sample", "evolve")


def _golden(demo: str) -> list[dict]:
    lines = (ROOT / "tests" / "data" / f"{demo}.records.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


@pytest.mark.parametrize("demo", ["qubit", "degenerate", "spectral"])
def test_records_close_to_golden(demo, tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    for verb in VERBS:
        assert main([verb, str(ROOT / "demos" / f"{demo}.esr"), "--out", str(out)]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in out.read_text().splitlines()]
    golden = _golden(demo)
    assert [r["mode"] for r in golden] == list(VERBS)
    for record, expected in zip(records, golden, strict=True):
        assert records_close(record, expected), record["mode"]


class TestRecordsClose:
    def _pair(self):
        sample = _golden("qubit")[1]
        return sample, copy.deepcopy(sample)

    def test_accepts_equal_and_within_bound(self):
        a, b = self._pair()
        assert records_close(a, b)
        b["event_probabilities"] = {k: v + 2 * math.ulp(v)
                                    for k, v in b["event_probabilities"].items()}
        assert records_close(a, b)

    def test_rejects_changed_key(self):
        a, b = self._pair()
        b["reports"] = b.pop("report")
        assert not records_close(a, b)

    def test_rejects_changed_count(self):
        a, b = self._pair()
        b["report"]["counts"][0] += 1
        assert not records_close(a, b)

    def test_rejects_flipped_passed(self):
        a, b = self._pair()
        b["passed"] = not b["passed"]
        assert not records_close(a, b)

    def test_rejects_int_for_bool(self):
        a, b = self._pair()
        b["passed"] = int(b["passed"])
        assert not records_close(a, b)

    @pytest.mark.parametrize("value", [0.0, 0.4, 1.0])
    def test_rejects_float_past_bound(self, value):
        bound = RECORD_ATOL + 8 * math.ulp(value)
        assert records_close({"p": value}, {"p": value + 0.9 * bound})
        assert not records_close({"p": value}, {"p": value + 2.0 * bound})


class TestSampleSigmas:
    """``sigma_deviations`` magnify a move of ``predicted`` by 1/se; the bound does too.
    A changed count still fails (``TestRecordsClose.test_rejects_changed_count``)."""

    def test_accepts_predicted_moved_by_roundoff(self):
        sample = _golden("qubit")[1]
        moved = copy.deepcopy(sample)
        report = moved["report"]
        report["predicted"][1] += 1e-16
        report["standard_errors"] = [math.sqrt(p * (1 - p) / report["trials"])
                                     for p in report["predicted"]]
        report["sigma_deviations"] = [abs(f - p) / se for f, p, se in zip(
            report["frequencies"], report["predicted"], report["standard_errors"])]
        # far past the plain float bound, well inside the scaled one
        sigmas = (sample["report"]["sigma_deviations"][1], report["sigma_deviations"][1])
        assert abs(sigmas[0] - sigmas[1]) > 10 * (RECORD_ATOL + 8 * math.ulp(max(sigmas)))
        assert records_close(sample, moved)

    def test_rejects_sigma_moved_alone(self):
        sample = _golden("qubit")[1]
        moved = copy.deepcopy(sample)
        moved["report"]["sigma_deviations"][1] += 1e-9
        assert not records_close(sample, moved)

    def test_infinite_deviation_stays_exact(self):
        a = {"sigma_deviations": [None], "predicted": [0.0], "standard_errors": [0.0]}
        assert records_close(a, copy.deepcopy(a))
        assert not records_close(a, dict(a, sigma_deviations=[0.0]))
