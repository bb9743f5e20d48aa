"""The mutation harness's mutants still name their source and their
tests: each mutant's string occurs exactly once in its module, and each
test it names exists, so an edit that makes a mutant stale fails here
instead of stopping or misleading a harness run.  No mutant runs.  The
modules are read from the repository root, as the harness reads them, not
from the imported package: the harness runs this suite on a mutated copy of
the package, whose mutated string would no longer match."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_SPEC = importlib.util.spec_from_file_location(
    "mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS,
                         ids=[mutant.name for mutant in mutants.MUTANTS])
def test_each_mutant_string_occurs_once_in_its_module(mutant):
    text = (ROOT / "src" / "monofloer" / mutant.module).read_text()
    assert text.count(mutant.old) == 1


@pytest.mark.parametrize("mutant", mutants.MUTANTS,
                         ids=[mutant.name for mutant in mutants.MUTANTS])
def test_each_test_a_mutant_names_exists(mutant):
    """A named test file exists, and a named ::test is defined in it, so a
    renamed or deleted test fails here, not in a harness run."""
    for target in mutant.tests:
        path, _, name = target.partition("::")
        assert (ROOT / path).is_file(), target
        if name:
            assert f"def {name}(" in (ROOT / path).read_text(), target
