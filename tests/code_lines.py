#!/usr/bin/env python3
"""Count the code lines of the package's modules.

    python3 tests/code_lines.py [DIR]

A code line holds a token other than a comment, a line break, an indent or
a docstring; a token that spans lines, such as a multi-line string, holds
each of them.  A docstring is the string statement that opens a module,
class or function.  It prints the count of each module of DIR (default
`src/assigncoh`), largest first, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(source: str) -> set:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of a module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(source))


def main(argv) -> int:
    package = Path(argv[0]) if argv else ROOT / "src" / "assigncoh"
    counts = {p.stem: code_lines(p.read_text()) for p in sorted(package.glob("*.py"))}
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<12} {n:>6,}")
    print(f"{'total':<12} {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
