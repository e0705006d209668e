"""Rules about the library source itself."""

import ast
import io
import tokenize
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


def test_every_module_stays_under_the_token_budget():
    # CPython 3.11's parser doubles its token array past about 4,096
    # tokens; oracle.py's compile peak, which sets most of the
    # benchmark's peak_rss_mb, then jumps by about 0.24 MB with nothing
    # more run.  So no module reaches 4,000 tokens, counting the
    # tokenize tokens other than comments and non-logical newlines
    counts = {path.name: sum(
        token.type not in (tokenize.COMMENT, tokenize.NL)
        for token in tokenize.generate_tokens(
            io.StringIO(path.read_text()).readline))
        for path in SOURCES}
    assert counts["oracle.py"] > 3000
    assert {name: n for name, n in counts.items() if n >= 4000} == {}


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


def _named(nodes) -> set[str]:
    """Every identifier the ``nodes`` read, as a name, an attribute or a
    string (the benchmark tracer looks names up by string)."""
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                found.add(node.value)
    return found


def _exports(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        getattr(target, "id", None) == "__all__" for target in node.targets)


def test_every_public_name_has_a_caller_besides_the_tests():
    # each public module-level function or class is named by library
    # code outside its own definition and the package's re-exports, or
    # by the benchmarks; what only tests call is not library code
    tops = [node for path in SOURCES if path.name != "__init__.py"
            for node in ast.parse(path.read_text()).body
            if not _exports(node)]
    named = [(node, _named([node])) for node in tops]
    benchmarks = Path(__file__).parents[1] / "benchmarks"
    outside = _named(ast.parse(path.read_text())
                     for path in benchmarks.glob("*.py"))
    unnamed = [node.name for node in tops
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")
               and node.name not in outside
               and not any(node.name in names
                           for other, names in named if other is not node)]
    assert unnamed == []


def test_every_command_is_in_the_verb_table():
    # the parsers are built from cli._VERBS alone, so a _cmd_ function
    # left out of the table would be no verb at all
    from vecinv2 import cli

    commands = {name for name in vars(cli) if name.startswith("_cmd_")}
    assert commands
    assert {command.__name__ for *_, command in cli._VERBS} == commands
