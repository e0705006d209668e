"""End-to-end checks of the command-line front end: golden outputs,
exit statuses, JSON shape, and byte-for-byte determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vecinv2
from vecinv2 import cli, oracle
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
        assert parsed.homogeneous_degree() == gen["degree"]


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
    monkeypatch.setattr(oracle, "relation_basis", lambda m, flavor: family)
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
