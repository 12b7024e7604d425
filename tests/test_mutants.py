"""The mutant catalogue of ``tests/mutants.py`` matches today's source: each
mutant's ``old`` text occurs exactly once in its file, and each test it names
exists. The runner itself is ``python tests/mutants.py``."""

import re

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_named_tests_exist(mutant):
    assert mutant.kills and len(set(mutant.kills)) == len(mutant.kills)
    for node in mutant.kills:
        path, *scopes = re.sub(r"\[.*\]$", "", node).split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        for scope in scopes:
            kind = "class" if scope[0].isupper() else "def"
            assert re.search(rf"^\s*{kind} {scope}\b", source, re.M), node
