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


def test_benchmark_tracer_finds_every_traced_name(monkeypatch):
    # benchmarks/tracer.py wraps library names from outside; a renamed
    # one (or q_monomials losing its lru_cache) breaks --trace 1, so
    # install it here, read its snapshot and take it off again
    import sys

    import vecinv2.cli  # noqa: F401  (the tracer wraps cli.main too)
    from vecinv2 import oracle

    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "benchmarks"))
    import tracer

    original = oracle.q_monomials
    traced = tracer.Tracer()
    try:
        traced.install()
        assert oracle.q_monomials.__wrapped__ is original
        assert "oracle.q_monomials.misses" in traced.snapshot()
    finally:
        traced.uninstall()
        for name in ("tracer", "reference"):
            sys.modules.pop(name, None)
    assert oracle.q_monomials is original
