"""Count the code lines of a Python package: non-blank lines outside comments and docstrings.

A line counts when a token other than a comment starts on it or a
multi-line string other than a docstring spans it.  A docstring is the
string literal that opens a module, class or function body.

Usage: python tools/codesize.py [DIR]   (DIR defaults to src/degreeflow)

Prints one line per module, sorted by name, and the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> int:
    """Code lines of one Python source file."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/degreeflow")
    files = sorted(root.glob("*.py"))
    if not files:
        print(f"no Python files in {root}", file=sys.stderr)
        return 1
    total = 0
    for path in files:
        n = count(path)
        total += n
        print(f"{path.stem:<16} {n:>6,}")
    print(f"{'total':<16} {total:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
