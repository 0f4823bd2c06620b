"""Count the lines and code lines of a package's modules.

    python scripts/count_lines.py [DIR]

Prints, for each ``DIR/*.py`` (default: this checkout's ``src/stochopt``),
its total lines and its code lines, then both sums.  A code line is a line
that is not blank, not only a comment and not part of a docstring (the
string that opens a module, class or function body); a line inside any
other string literal is code.  Exits 1 when DIR holds no module.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Tuple

DEFAULT_DIR = Path(__file__).resolve().parents[1] / "src" / "stochopt"

# tokens that make no line code on their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = node.body[0] if node.body else None
            if (isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)
                    and isinstance(doc.value.value, str)):
                lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> Tuple[int, int]:
    """(total lines, code lines) of one module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        # a string token on a docstring's lines is that docstring
        if tok.type == tokenize.STRING and tok.start[0] in docstrings:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 2)[2],
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dir", type=Path, nargs="?", default=DEFAULT_DIR,
                        help="the directory whose *.py modules are counted")
    args = parser.parse_args(argv)

    modules = sorted(args.dir.glob("*.py"))
    if not modules:
        print(f"error: no *.py module in {args.dir}", file=sys.stderr)
        return 1
    width = max(len("total"), *(len(path.name) for path in modules))
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    total_lines = total_code = 0
    for path in modules:
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.name:<{width}}  {lines:>6}  {code:>6}")
    print(f"{'total':<{width}}  {total_lines:>6}  {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
