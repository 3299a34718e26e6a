"""The mutation catalogue stays applicable: each snippet occurs exactly once,
and each killer names a test that exists.

`tests/run_mutants.py` runs the mutants themselves, outside this suite.
"""

import re
from pathlib import Path

import pytest

import assigncoh
from mutants import MUTANTS

PACKAGE_DIR = Path(assigncoh.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_snippet_occurs_exactly_once(mutant):
    source = (PACKAGE_DIR / mutant.module).read_text()
    assert source.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.killers


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_killers_name_existing_tests(mutant):
    """Each killer is `path::function` or `path::function[param]`, and the file
    defines that function, so a renamed test cannot leave a killer that
    kills nothing."""
    for killer in mutant.killers:
        path, sep, name = killer.partition("::")
        assert sep and (ROOT / path).is_file(), killer
        name = name.split("[", 1)[0]
        source = (ROOT / path).read_text()
        assert re.search(rf"^def {re.escape(name)}\(", source, re.M), killer
