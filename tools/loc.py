"""Line count of the library source, per module and in total.

    python3 tools/loc.py
    python3 tools/loc.py path/to/other-checkout/src

Each line of every ``.py`` file under the given directory (default: this
checkout's ``src/``) counts as exactly one of:

* ``blank``: nothing but whitespace;
* ``doc``: part of a docstring (the string that opens a module, class or
  function body), or a line that holds only a comment;
* ``code``: everything else, including code with a trailing comment.

The ``code`` column is the size that a deletion of comments or docstrings
does not change.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path


def count(source: str) -> tuple[int, int, int]:
    """(code, doc, blank) line counts of one module's source."""
    lines = source.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                doc.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT,
                            tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    blank = sum(1 for line in lines if not line.strip())
    n_doc = sum(1 for i, line in enumerate(lines, 1)
                if line.strip() and (i in doc or i not in code))
    return len(lines) - blank - n_doc, n_doc, blank


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("root", nargs="?",
                   default=str(Path(__file__).resolve().parents[1] / "src"),
                   help="directory to count (default: this checkout's src/)")
    root = Path(p.parse_args(argv).root)
    rows = [(str(path.relative_to(root)), *count(path.read_text()))
            for path in sorted(root.rglob("*.py"))]
    rows.append(("total", *(sum(col) for col in list(zip(*rows))[1:])))
    width = max(len(name) for name, *_ in rows)
    print(f"{'module':<{width}} {'code':>6} {'doc':>6} {'blank':>6} "
          f"{'total':>6}")
    for name, code, doc, blank in rows:
        print(f"{name:<{width}} {code:>6} {doc:>6} {blank:>6} "
              f"{code + doc + blank:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
