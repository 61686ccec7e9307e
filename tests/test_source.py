"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "impsel").glob("*.py"))


def test_package_sources_are_found():
    assert any(path.name == "audit.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_contracts_raise_instead_of_asserting(path):
    # `python -O` strips assert statements, so a contract written as one
    # silently stops holding
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"
