"""The rule of tools/codelines.py on a fixture whose code lines are
counted by hand."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SPEC = importlib.util.spec_from_file_location(
    "codelines", ROOT / "tools" / "codelines.py")
codelines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(codelines)

FIXTURE = '''"""A module docstring
over two lines."""

# a comment line
import os  # code and a comment: one line


class Point:
    """A class docstring."""

    x = 1


def f(a,
      b):
    """A function docstring

    with a blank line inside."""
    text = """a string that is
    not a docstring"""
    return (a +
            b)
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import; class, x; the two lines of def, the two of text, the two of
    # the return
    assert codelines.code_lines(FIXTURE) == 9


def test_a_module_of_docstrings_and_comments_has_no_code_lines():
    assert codelines.code_lines('"""Only a docstring."""\n# and a comment\n') \
        == 0
