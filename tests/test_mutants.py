"""The mutant list of mutants.py stays applicable to the tree it sits in."""

import pytest

import mutants


def test_mutant_names_are_distinct():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
    assert set(mutants.SURVIVORS) <= set(names)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_old_string_occurs_once(mutant):
    # the sweep patches a copy and refuses an old string that is missing or repeated
    text = (mutants.ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
