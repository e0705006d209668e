"""Rules about the library source itself."""

import ast
from pathlib import Path

import vecinv2

SOURCES = sorted(Path(vecinv2.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips asserts, so an invariant the results depend on
    # must raise a real exception instead
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
