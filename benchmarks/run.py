"""Benchmark for vecinv2: one workload, whole rounds, one JSON result line.

    python3 benchmarks/run.py --workload verify-deep --seed 1 --seconds 20 --trace 0

Each round runs the workload's operations one at a time in a fresh
interpreter (``child.py``), so the program's caches start cold, as they
do on every ``vecinv2`` command.  Rounds repeat until ``--seconds`` have
passed (at least one).  Extra interpreters that only import ``vecinv2``
add samples of the set-up time.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's rounds.  ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones, the untraced time of
each part of the workload, and the tracing overhead; span files go to
``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
LIMIT_S = 170          # the whole run must end well within 180 s
SETUP_PROBES = 8       # before the rounds and again after them

HEADLINE = {
    "verify-deep": "verify_m4_d8",
    "verify-wide": "verify_m5_d6",
    "rewrite": "normal_form",
}

# Untraced time per part of a workload, reported by the traced run.
PARTS = {
    "verify_m4_d8_s": "verify_m4_d8",
    "verify_m5_d6_s": "verify_m5_d6",
    "normal_form_s": "normal_form",
    "trace_check_s": "trace_check",
    "linear_certify_s": "linear_certify",
}

# Per-layer metrics read from the traced rounds' snapshots, with units.
LAYERS = {
    "oracle.kernel_basis.self_s": "s",
    "oracle.kernel_basis.calls": "count",
    "oracle.verify.self_s": "s",
    "oracle.linear_kernel_basis.self_s": "s",
    "oracle.q_monomials.s": "s",
    "oracle.q_monomials.misses": "count",
    "oracle.poly_monomials.s": "s",
    "oracle.matrix_entries": "count",
    "f2.left_kernel.s": "s",
    "f2.left_kernel.calls": "count",
    "f2.left_kernel.rows": "count",
    "f2.rowspan.add.s": "s",
    "f2.rowspan.add.calls": "count",
    "f2.rowspan.contains.s": "s",
    "f2.rowspan.contains.calls": "count",
    "qring.mul.s": "s",
    "qring.mul.calls": "count",
    "qring.mul.term_pairs": "count",
    "qring.add.s": "s",
    "qring.evaluate.s": "s",
    "qring.evaluate.calls": "count",
    "poly.mul.s": "s",
    "poly.mul.calls": "count",
    "poly.mul.term_pairs": "count",
    "invariants.transfer.s": "s",
    "invariants.transfer.misses": "count",
    "relations.type_iii.s": "s",
    "relations.type_iii.calls": "count",
    "relations.type_i.s": "s",
    "relations.type_i.calls": "count",
    "relations.relation_basis.s": "s",
    "rewrite.normal_form.self_s": "s",
    "rewrite.normal_form.steps": "count",
    "rewrite.linear_reduce.self_s": "s",
    "rewrite.linear_reduce.steps": "count",
    "rewrite.trace_verify.self_s": "s",
    "cli.main.self_s": "s",
}


class BenchError(RuntimeError):
    pass


def _child(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start one interpreter; returns (start clock, its JSON result)."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, CHILD] + args, env=env,
                              stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}")
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    module = os.path.realpath(result["module"])
    if not module.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"imported vecinv2 from {module}, not from {SRC}")
    return start, result


def _setup_sample(deadline: float) -> float:
    start, result = _child(["setup"], deadline)
    return result["ready"] - start


def _round(workload: str, seed: int, trace: bool, deadline: float,
           spans_path: str) -> tuple[float, dict]:
    start, result = _child(["round", workload, str(seed), "1" if trace else "0",
                            spans_path], deadline)
    for problem in result["problems"]:
        print(problem, file=sys.stderr)
    return result["ready"] - start, result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    began = time.perf_counter()
    deadline = began + LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "vecinv2", "__init__.py")):
        raise BenchError(f"no vecinv2 package under {SRC}")
    if trace:
        os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")

    _setup_sample(deadline)        # writes the bytecode caches once
    setups = [_setup_sample(deadline) for _ in range(SETUP_PROBES)]
    rounds_began = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while (not plain or (trace and not traced)
           or time.perf_counter() - rounds_began < seconds):
        if time.perf_counter() + longest > deadline:
            break
        is_traced = trace and len(traced) < len(plain)
        start = time.perf_counter()
        setup, result = _round(workload, seed, is_traced, deadline, spans_path)
        longest = max(longest, time.perf_counter() - start)
        setups.append(setup)
        (traced if is_traced else plain).append(result)
    setups += [_setup_sample(deadline) for _ in range(SETUP_PROBES)]

    rounds = plain + traced
    shapes = {(r["attempted"], r["failed"]) for r in rounds}
    correct = len(shapes) == 1 and all(r["wrong"] == 0 for r in rounds)
    if len(shapes) != 1:
        print(f"rounds differ in (attempted, failed): {shapes}", file=sys.stderr)

    def median_of(results: list[dict], key) -> float:
        return statistics.median(key(r) for r in results)

    def wall(r: dict) -> float:
        return sum(r["kinds"].values())

    if not trace:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_kref": _metric(
                median_of(plain, lambda r: sum(r["kref"].values())), "kref"),
            "headline_kref": _metric(
                median_of(plain, lambda r: r["kref"][HEADLINE[workload]]), "kref"),
            "peak_rss_mb": _metric(
                median_of(plain, lambda r: r["peak_rss_mb"]), "MB"),
        }
    else:
        layers = [r["layers"] for r in traced]
        metrics = {}
        for name, unit in LAYERS.items():
            values = [layer[name] for layer in layers]
            if unit == "count" and len(set(values)) != 1:
                correct = False
                print(f"count {name} differs between rounds: {values}", file=sys.stderr)
            metrics[name] = _metric(statistics.median(values), unit)
        adds = layers[0]["f2.rowspan.add.calls"]
        metrics["f2.rowspan.add.useful_ratio"] = _metric(
            layers[0]["f2.rowspan.add.useful"] / adds if adds else 0.0, "ratio")
        metrics["wall_s"] = _metric(median_of(plain, wall), "s")
        for name, kind in PARTS.items():
            metrics[name] = _metric(
                median_of(plain, lambda r: r["kinds"].get(kind, 0.0)), "s")
        metrics["trace.overhead_s"] = _metric(
            median_of(traced, wall) - median_of(plain, wall), "s")
    return {"correct": correct,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(HEADLINE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace == 1)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
