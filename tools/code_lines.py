"""Count the code lines of each module of the library and their total.

A code line is a line that is not blank, not only a comment, and not part of
a module, class or function docstring (found with ``ast``). Run from
anywhere:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    docs = docstring_lines(ast.parse(source))
    return sum(
        1
        for n, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and n not in docs
    )


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "balrig"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16}{count:>6}")
    print(f"{'total':<16}{total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
