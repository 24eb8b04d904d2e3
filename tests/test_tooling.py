"""Source checks that keep the package's invariants independent of ``python -O``."""

import ast
from pathlib import Path

import carpetcurl

SOURCES = sorted(Path(carpetcurl.__file__).parent.glob("*.py"))


def test_the_package_has_sources():
    assert {p.name for p in SOURCES} >= {"__init__.py", "witness.py", "carpet.py"}


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements, so no invariant may rest on one;
    # the package raises a named exception instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
