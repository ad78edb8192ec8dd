"""Certification must hold under ``python -O``, which strips ``assert``
statements; so the library raises explicit errors and holds no assert."""

import ast
from pathlib import Path

import balrig

SOURCES = sorted(Path(balrig.__file__).resolve().parent.rglob("*.py"))


def test_the_library_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
