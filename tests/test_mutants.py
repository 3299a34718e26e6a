"""The mutation catalogue stays applicable: each snippet occurs exactly once.

`tests/run_mutants.py` runs the mutants themselves, outside this suite.
"""

from pathlib import Path

import pytest

import assigncoh
from mutants import MUTANTS

PACKAGE_DIR = Path(assigncoh.__file__).parent


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_snippet_occurs_exactly_once(mutant):
    source = (PACKAGE_DIR / mutant.module).read_text()
    assert source.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.killers
