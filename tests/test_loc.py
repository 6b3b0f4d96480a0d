"""``tools/loc.py``'s ``count``, the line count that tracks the size of
``src/``. The tool file is loaded by path and is not modified."""

import importlib.util
from pathlib import Path

LOC = Path(__file__).resolve().parents[1] / "tools" / "loc.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves a code line code


def f(x):
    """Function docstring."""
    # a comment-only line
    return os.sep + x

'''


def _loc():
    spec = importlib.util.spec_from_file_location("tools_loc", LOC)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_count_splits_code_doc_and_blank():
    # code: the import, the def and the return; doc: both docstrings and
    # the comment-only line; blank: the four empty lines
    assert _loc().count(SOURCE) == (3, 4, 4)
