"""The mutant list of ``tests/mutants.py`` still applies to the code.

Running the mutants takes minutes and is not part of the suite. These checks
are fast: a snippet that no longer occurs exactly once, or a test id that no
longer names a test, would leave a mutant that cannot run.
"""

import re
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_snippet_occurs_exactly_once_in_its_file(mutant):
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_names_tests_that_exist(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        path, _, name = test_id.partition("::")
        assert Path(path).parts[0] == "tests" and (ROOT / path).is_file(), test_id
        if name:
            source = (ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {re.escape(name)}\(", source, re.MULTILINE), test_id
