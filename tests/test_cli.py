"""End-to-end checks of the command-line front end: golden outputs,
exit statuses, JSON shape, and byte-for-byte determinism."""

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import vecinv2
from vecinv2 import cli
from vecinv2.oracle import verify_relation_ideal
from vecinv2.poly import Poly
from vecinv2.qring import QPoly, formal_trace
from vecinv2.relations import Relation, relation_basis


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# golden text outputs
# ---------------------------------------------------------------------------

def test_gens_text(capsys):
    code, out, err = run_cli(capsys, "gens", "-m", "2")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "x1 (degree 1): x1",
        "x2 (degree 1): x2",
        "N1 (degree 2): y1^2 + x1*y1",
        "N2 (degree 2): y2^2 + x2*y2",
        "tr_11 (degree 2): x1*y2 + x2*y1 + x1*x2",
        "count: 5",
    ]


def test_trace_text(capsys):
    code, out, _ = run_cli(capsys, "trace", "--subset", "11")
    assert code == 0
    assert out == "x1*y2 + x2*y1 + x1*x2\n"
    code, out, _ = run_cli(capsys, "trace", "-m", "2", "--subset", "10")
    assert code == 0
    assert out == "x1\n"


def test_relation_text(capsys):
    code, out, _ = run_cli(capsys, "relation", "--flavor", "I",
                           "--subset", "111")
    assert code == 0
    assert out == ("I A=111 degree=3: x3*Tr(110) + x2*Tr(101)"
                   " + x1*Tr(011) + x1*x2*x3\n")
    code, out, _ = run_cli(capsys, "relation", "--flavor", "III",
                           "--product", "1100,0011")
    assert code == 0
    assert out.startswith("IIIa A=1100 B=0011 index=3 degree=4: ")


def test_basis_text(capsys):
    code, out, _ = run_cli(capsys, "basis", "-m", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "count: 11"
    assert len(lines) == 12
    assert lines[0].startswith("I A=111 degree=3: ")


def test_reduce_text(capsys):
    code, out, _ = run_cli(capsys, "reduce", "-m", "2",
                           "--product", "11,11")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "apply IIIb A=11 B=11 index=1 degree=4 times 1"
    assert lines[-1] == "x1*x2*Tr(11) + x2^2*N1 + x1^2*N2"


def test_verify_text(capsys):
    code, out, err = run_cli(capsys, "verify", "-m", "3")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == (
        "PASS: generation + minimality, 11 relations, max degree 6")
    code, out, _ = run_cli(capsys, "verify", "-m", "2", "--flavor", "II")
    assert code == 0
    assert out.splitlines()[-1] == (
        "PASS: generation + minimality, 1 relations, max degree 4")


def test_count_text(capsys):
    code, out, _ = run_cli(capsys, "count", "-m", "4")
    assert code == 0
    assert out.splitlines() == [
        "generators: 19",
        "relations: 71",
        "max relation degree: 8",
    ]
    code, out, _ = run_cli(capsys, "count", "-m", "1")
    assert out.splitlines() == [
        "generators: 2",
        "relations: 0",
        "max relation degree: 0",
    ]


# ---------------------------------------------------------------------------
# JSON output
# ---------------------------------------------------------------------------

def test_gens_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "gens", "-m", "2", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["schema"] == 1
    assert blob["count"] == 5
    for gen in blob["generators"]:
        parsed = Poly.parse(2, gen["poly"])
        assert {sum(t) for t in parsed.terms} == {gen["degree"]}


def test_trace_json(capsys):
    code, out, _ = run_cli(capsys, "trace", "--subset", "110",
                           "--format", "json")
    blob = json.loads(out)
    assert blob == {
        "schema": 1,
        "m": 3,
        "subset": "110",
        "element": "x1*y2 + x2*y1 + x1*x2",
    }


def test_relation_json(capsys):
    code, out, _ = run_cli(capsys, "relation", "--flavor", "II",
                           "--product", "110,011", "--format", "json")
    blob = json.loads(out)
    assert blob["schema"] == 1
    assert blob["family"] == "II"
    assert QPoly.parse(3, blob["element"]) == QPoly.parse(
        3, "Tr(110)*Tr(011) + x2*Tr(111) + x1*x3*N2")


def test_basis_json(capsys):
    code, out, _ = run_cli(capsys, "basis", "-m", "2", "--format", "json")
    blob = json.loads(out)
    assert blob["schema"] == 1
    assert blob["count"] == 1
    assert blob["relations"][0]["family"] == "IIIb"


def test_reduce_json(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--product", "11,11",
                           "--format", "json")
    blob = json.loads(out)
    assert blob["schema"] == 1
    assert blob["result"] == "x1*x2*Tr(11) + x2^2*N1 + x1^2*N2"
    assert len(blob["steps"]) == 1


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "-m", "2", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["schema"] == 1
    assert blob["ok"] is True
    assert [d["degree"] for d in blob["degrees"]] == [2, 3, 4]


def test_count_json(capsys):
    code, out, _ = run_cli(capsys, "count", "-m", "3", "--format", "json")
    blob = json.loads(out)
    assert blob == {
        "schema": 1,
        "m": 3,
        "generators": 10,
        "relations": 11,
        "max_degree": 6,
    }


def test_output_is_deterministic(capsys):
    seen = {}
    for verb in (
        ("basis", "-m", "3", "--format", "json"),
        ("verify", "-m", "2"),
        ("gens", "-m", "3"),
        ("reduce", "--product", "111,110"),
    ):
        _, first, _ = run_cli(capsys, *verb)
        _, second, _ = run_cli(capsys, *verb)
        assert first == second
        seen[verb] = first
    assert len(seen) == 4


# ---------------------------------------------------------------------------
# goldens of the whole surface: help, usage errors and runs
# ---------------------------------------------------------------------------

# Each entry is one argv with the exit status, stdout and stderr that
# cli.main gave for it, at a terminal width of 80 columns.
CLI_GOLDENS = json.loads(
    (Path(__file__).parent / "cli_goldens.json").read_text())


def test_cli_goldens(capsys, monkeypatch):
    # argparse wraps help and usage to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    assert len(CLI_GOLDENS) > 80
    differ = []
    for case in CLI_GOLDENS:
        got = run_cli(capsys, *case["argv"])
        if got != (case["code"], case["stdout"], case["stderr"]):
            differ.append(case["argv"])
    assert differ == []


def test_main_builds_no_parser_or_the_full_one(capsys, monkeypatch):
    # a plain call is read off the verb table and builds no parser; every
    # call the table declines, verb first or not, builds all seven
    # subparsers
    parsers, built = [], []
    init = argparse.ArgumentParser.__init__
    add_parser = argparse._SubParsersAction.add_parser

    def counting_init(self, *args, **kwargs):
        parsers.append(self)
        init(self, *args, **kwargs)

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    every = ["gens", "trace", "relation", "basis", "reduce", "verify",
             "count"]
    for argv, names in ((["verify", "-m", "2"], []),
                        (["verify", "-m", "2", "--bogus"], every),
                        (["verify", "-h"], every),
                        (["bogus"], every), (["-h"], every)):
        parsers.clear()
        built.clear()
        cli.main(argv)
        assert built == names, argv
        # the top-level parser and one per subparser, or none at all
        assert len(parsers) == (len(names) + 1 if names else 0), argv
    capsys.readouterr()


# Each verb's flags, written out here rather than read from cli._VERBS,
# and values for each flag: two valid ones, drawn most often, then more
# that argparse reads in its own way or refuses.
GRAMMAR = {
    "gens": ("-m", "--format"),
    "trace": ("-m", "--subset", "--format"),
    "relation": ("-m", "--flavor", "--subset", "--product", "--format"),
    "basis": ("-m", "--flavor", "--format"),
    "reduce": ("-m", "--product", "--format"),
    "verify": ("-m", "--dmax", "--flavor", "--budget", "--format"),
    "count": ("-m", "--format"),
}
VALUES = {
    "-m": ("2", "3", "1", " 2", "\u0663", "0", "-3", "x", "", "2.0"),
    "--dmax": ("4", "7", "1", "-1", "x", ""),
    "--budget": ("100", "10000", "0", "-5", "1e3", ""),
    "--flavor": ("II", "III", "I", "IV", "iii", ""),
    "--format": ("text", "json", "xml", "", "-"),
    "--subset": ("110", "10", "", "1a", "-1"),
    "--product": ("11,11", "110,011", "11", "", "-1,1"),
}


def _fuzzed_value(rng, flag):
    values = VALUES[flag]
    return rng.choice(values[:2] if rng.random() < 0.85 else values)


def _fuzzed_argv(rng):
    """One argv from ``GRAMMAR``, and whether it is spelled as a plain
    call (a verb, then FLAG VALUE pairs with each flag once).  Options
    are left out at random, so required ones go missing; about half the
    calls get one of argparse's other spellings or a stray token."""
    verb = rng.choice(list(GRAMMAR) * 6 + ["bogus", "verif", "", "-h"])
    pairs = [[flag, _fuzzed_value(rng, flag)]
             for flag in GRAMMAR.get(verb, ("-m",)) if rng.random() < 0.8]
    rng.shuffle(pairs)
    plain = verb in GRAMMAR
    kind = rng.choice(("none",) * 5 + ("joined", "abbreviated", "repeated",
                                       "dropped", "token"))
    if kind == "token" or (kind != "none" and not pairs):
        token = rng.choice(("extra", "3", "", "-x", "--bogus", "--", "-h",
                            "--help", "-m", "--format"))
        tokens = [t for pair in pairs for t in pair]
        tokens.insert(rng.randrange(len(tokens) + 1), token)
        return [verb] + tokens, False
    if kind != "none":
        plain = False
        i = rng.randrange(len(pairs))
        flag, value = pairs[i]
        if kind == "joined":
            pairs[i] = [flag + ("=" if flag.startswith("--") else "") + value]
        elif kind == "abbreviated":  # --fo for --format; -mm is no flag
            pairs[i][0] = (flag[:rng.randrange(3, len(flag))]
                           if flag.startswith("--") else flag + flag[-1])
        elif kind == "repeated":
            pairs.insert(rng.randrange(len(pairs) + 1),
                         [flag, _fuzzed_value(rng, flag)])
        else:
            pairs[i] = [rng.choice(pairs[i])]
    return [verb] + [t for pair in pairs for t in pair], plain


def test_table_parse_agrees_with_argparse(capsys):
    # whenever the table reads a call, argparse reads it too, to an
    # equal namespace; any other spelling is left to argparse
    assert set(GRAMMAR) == {name for name, *_ in cli._VERBS}
    rng = random.Random(3301)
    parser = cli.build_parser()
    accepted = declined_plain = 0
    for _ in range(4000):
        argv, plain = _fuzzed_argv(rng)
        table = cli._table_parse(argv)
        if not plain:
            assert table is None, argv
            continue
        if table is None:
            declined_plain += 1
            continue
        accepted += 1
        try:
            parsed = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses {argv!r}")
        assert vars(table) == vars(parsed), argv
    assert capsys.readouterr() == ("", "")
    # neither side of the split may be vacuous
    assert accepted > 1000 and declined_plain > 300, (accepted, declined_plain)


def _argparse_spellings(argv):
    """``argv`` spelled in ways only argparse reads: its last option
    joined to its value (``--format=json``, ``-m3``), and each long
    flag cut by one letter (``--forma``)."""
    *head, flag, value = argv
    joined = head + [flag + ("=" if flag.startswith("--") else "") + value]
    cut = [t[:-1] if t.startswith("--") else t for t in argv]
    return [joined] + ([cut] if cut != argv else [])


def test_table_path_prints_what_argparse_prints(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    read = [case["argv"] for case in CLI_GOLDENS
            if cli._table_parse(case["argv"]) is not None]
    # every golden run but the help texts takes the table path
    runs = [case["argv"] for case in CLI_GOLDENS
            if case["code"] == 0 and not case["stdout"].startswith("usage:")]
    assert runs and all(argv in read for argv in runs)
    for argv in read:
        table = run_cli(capsys, *argv)
        for spelled in _argparse_spellings(argv):
            assert cli._table_parse(spelled) is None, spelled
            assert run_cli(capsys, *spelled) == table, spelled


def test_main_reads_sys_argv_or_any_iterable(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["vecinv2", "count", "-m", "2"])
    for argv in (None, ("count", "-m", "2"), iter(["count", "-m", "2"])):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == "generators: 5"


# ---------------------------------------------------------------------------
# exit statuses
# ---------------------------------------------------------------------------

def test_usage_errors_exit_two(capsys):
    cases = [
        ("trace", "--subset", "10a"),
        ("trace", "-m", "2", "--subset", "111"),
        ("relation", "--flavor", "I"),
        ("relation", "--flavor", "II", "--product", "11"),
        ("relation", "--flavor", "I", "--subset", "110"),  # vacuous
        ("reduce", "--product", "11,111"),
        ("reduce", "-m", "3", "--product", "11,11"),
        ("count",),  # missing -m
        ("basis", "-m", "3", "--flavor", "IV"),
        ("nonsense",),
        # nothing to check: these must not pass vacuously
        ("verify", "-m", "0"),
        ("verify", "-m", "-3"),
        ("verify", "-m", "2", "--dmax", "1"),
        ("verify", "-m", "2", "--budget", "0"),
        ("basis", "-m", "0"),
        ("basis", "-m", "-3"),
    ]
    for argv in cases:
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == "", argv
        assert "error:" in captured.err, argv


def test_verification_failure_exits_one(capsys, monkeypatch):
    # no honest basis fails, so substitute a report built from an
    # empty relation list to drive the failure path
    broken = verify_relation_ideal(2, relations=[])
    monkeypatch.setattr(cli, "verify_relation_ideal",
                        lambda *a, **k: broken)
    code, out, err = run_cli(capsys, "verify", "-m", "2")
    assert code == 1
    lines = out.splitlines()
    assert "degree 4: kernel 1, span 0, NOT GENERATED" in lines
    assert lines[-1] == "FAIL: generation"
    assert any(line.startswith("  counterexample: ") for line in lines)
    # the real check, on a family with the non-relation Tr(110) appended
    monkeypatch.undo()
    family = relation_basis(3) + [
        Relation("bogus", (1, 1, 0), None, None, formal_trace((1, 1, 0)), 2)]
    monkeypatch.setattr(cli, "verify_relation_ideal", lambda *a, **k:
                        verify_relation_ideal(*a, **k, relations=family))
    code, out, err = run_cli(capsys, "verify", "-m", "3")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[:2] == ["degree 2: kernel 0, span 1, NOT GENERATED",
                         "  counterexample: Tr(110)"]
    assert lines[-1] == "FAIL: generation"


def test_budget_exceeded_exits_three(capsys):
    code, out, err = run_cli(capsys, "verify", "-m", "3",
                             "--budget", "100")
    assert code == 3
    assert err.startswith("budget exceeded: ")
    assert out == ""


def test_module_entry_point():
    # the child imports the same package as this process, wherever the
    # test run found it
    package_root = str(Path(vecinv2.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root,
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "vecinv2", "count", "-m", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "generators: 5"


@pytest.mark.parametrize("argv", [
    ["verify", "-m", "3", "--format", "json"],
    ["reduce", "-m", "3", "--product", "111,110"],
])
def test_optimized_run_matches_plain_run(argv):
    # python -O strips assert statements, so no output may hang on one:
    # each command prints the same and exits the same with -O as without
    package_root = str(Path(vecinv2.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root,
                                         os.environ.get("PYTHONPATH")]))
    plain, optimized = (subprocess.run(
        [sys.executable, *flags, "-m", "vecinv2", *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}) for flags in ([], ["-O"]))
    assert plain.returncode == 0, plain.stderr
    assert plain.stdout
    assert (optimized.stdout, optimized.returncode) == (
        plain.stdout, plain.returncode)
