"""The mutation harness on two mutants: one the tests kill, and one marked
equivalent, which survives the whole suite.  Run with

    python3 -m pytest tools/test_mutants.py

It takes about a minute and is not part of the test suite."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parent / "mutants.py"


def test_the_harness_kills_one_mutant_and_spares_an_equivalent_one():
    done = subprocess.run(
        [sys.executable, str(HARNESS), "d2-from-lo-plus-1",
         "u-skips-by-content"],
        capture_output=True, text=True, timeout=600, check=False)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "killed": 1, "survived": 1, "survivors": ["u-skips-by-content"],
        "equivalent": ["u-skips-by-content"]}
    assert "d2-from-lo-plus-1: killed" in done.stderr
