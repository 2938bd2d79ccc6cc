"""The mutant list of `mutants.py` still fits the source: each mutant's
`old` string occurs exactly once in its file, and each mutant marked
equivalent is on the list, so a source edit cannot make a mutant stale
without a test failing."""

import mutants


def test_every_old_string_occurs_once():
    assert mutants.unmatched(mutants.MUTANTS) == []


def test_equivalent_mutants_are_listed():
    assert mutants.EQUIVALENT <= mutants.MUTANTS.keys()
