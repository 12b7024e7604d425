"""Record comparator tests, and today's records against checked-in ones.

``tests/data/<demo>.records.jsonl`` holds the ``verify``, ``sample`` and
``evolve`` records of ``demos/<demo>.esr``, in that order, as written before
overall probabilities were computed from Born weights. Records may move by
roundoff, never in keys, counts, flags or strings.
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


@pytest.mark.parametrize("demo", ["qubit", "degenerate"])
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
