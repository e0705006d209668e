"""Command-line front end.

Verbs:

* ``gens``       list the generators for a given number of variable pairs
* ``trace``      print one transfer polynomial
* ``relation``   print one relation element (type I, II, or III)
* ``basis``      print the declared relation basis
* ``reduce``     rewrite a product of two traces; the last line is the result
* ``verify``     certify generation + minimality up to a degree
* ``count``      closed-form generator and relation counts

Exit status: 0 success, 1 a verification failed (a counterexample is
printed), 2 usage error, 3 the matrix budget was exceeded.

Each verb is one row of ``_VERBS``, and its options are data there: a
flag and its ``add_argument`` keywords.  ``main`` reads a plain call,
the verb's name and then each of its flags at most once with a value,
straight off that table (``_table_parse``), because building a parser
is most of what a short command costs.  Any other call goes to the
full argparse parser, all seven subparsers, so help, usage and error
text come from argparse alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable

from .invariants import generator_set, transfer
from .oracle import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    verify_relation_ideal,
)
from .poly import bits_to_subset, subset_to_bits
from .qring import QPoly
from .relations import (
    count_relations,
    relation_basis,
    type_i_relation,
    type_ii_relation,
    type_iii_relation,
)
from .rewrite import reduce_product

__all__ = ["main", "run"]


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _emit_json(blob) -> int:
    _emit(json.dumps(blob, indent=2, sort_keys=True))
    return 0


def _parse_product(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--product wants 'BITS,BITS', got {text!r}")
    a, b = (bits_to_subset(p.strip()) for p in parts)
    if len(a) != len(b):
        raise ValueError("--product subsets must have equal length")
    return a, b


def _usage(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 2


def _cmd_gens(args) -> int:
    gens = generator_set(args.m)
    if args.format == "json":
        return _emit_json(gens.to_json())
    for name, degree, poly in gens.members():
        _emit(f"{name} (degree {degree}): {poly}")
    _emit(f"count: {gens.count}")
    return 0


def _check_m(args, subset) -> None:
    if args.m is not None and args.m != len(subset):
        raise ValueError(
            f"-m {args.m} does not match bitstring length {len(subset)}")


def _cmd_trace(args) -> int:
    subset = bits_to_subset(args.subset)
    _check_m(args, subset)
    poly = transfer(subset)
    if args.format == "json":
        return _emit_json({
            "schema": 1,
            "m": len(subset),
            "subset": subset_to_bits(subset),
            "element": str(poly),
        })
    _emit(str(poly))
    return 0


def _cmd_relation(args) -> int:
    if args.flavor == "I":
        if args.subset is None:
            return _usage("--flavor I wants --subset BITS")
        subset = bits_to_subset(args.subset)
        _check_m(args, subset)
        relation = type_i_relation(subset)
    else:
        if args.product is None:
            return _usage(f"--flavor {args.flavor} wants --product BITS,BITS")
        a, b = _parse_product(args.product)
        _check_m(args, a)
        make = type_ii_relation if args.flavor == "II" else type_iii_relation
        relation = make(a, b)
    if args.format == "json":
        return _emit_json(relation.to_json())
    _emit(f"{relation.label()}: {relation.element}")
    return 0


def _cmd_basis(args) -> int:
    rels = relation_basis(args.m, args.flavor)
    if args.format == "json":
        return _emit_json({
            "schema": 1,
            "m": args.m,
            "flavor": args.flavor,
            "count": len(rels),
            "relations": [r.to_json() for r in rels],
        })
    for relation in rels:
        _emit(f"{relation.label()}: {relation.element}")
    _emit(f"count: {len(rels)}")
    return 0


def _cmd_reduce(args) -> int:
    a, b = _parse_product(args.product)
    _check_m(args, a)
    trace = reduce_product(a, b)
    if args.format == "json":
        return _emit_json(trace.to_json())
    for step in trace.steps:
        label = step.relation.label()
        _emit(f"apply {label} times {QPoly.monomial(step.multiplier)}")
    _emit(str(trace.result))
    return 0


def _cmd_verify(args) -> int:
    try:
        report = verify_relation_ideal(args.m, d_max=args.dmax,
                                       flavor=args.flavor,
                                       budget=args.budget)
    except BudgetExceeded as err:
        sys.stderr.write(f"budget exceeded: {err}\n")
        return 3
    if args.format == "json":
        _emit_json(report.to_json())
    else:
        _emit(report.to_text())
    return 0 if report.ok else 1


def _cmd_count(args) -> int:
    gens = 2 ** args.m + args.m - 1
    rels = count_relations(args.m)
    max_degree = 2 * args.m if args.m >= 2 else 0
    if args.format == "json":
        return _emit_json({
            "schema": 1,
            "m": args.m,
            "generators": gens,
            "relations": rels,
            "max_degree": max_degree,
        })
    _emit(f"generators: {gens}")
    _emit(f"relations: {rels}")
    _emit(f"max relation degree: {max_degree}")
    return 0


# Options shared by several verbs, each a flag and its add_argument
# keywords.
_FORMAT = ("--format", dict(choices=("text", "json"), default="text",
                            help="output format (default: text)"))
_M = ("-m", dict(type=int, required=True, metavar="M",
                 help="number of variable pairs"))
_CHECKED_M = ("-m", dict(type=int, default=None, metavar="M",
                         help="number of variable pairs (checked against "
                              "BITS)"))

# Each verb once: (name, help, options, command).
_VERBS = (
    ("gens", "list the generators", (_M, _FORMAT), _cmd_gens),
    ("trace", "print one transfer polynomial", (
        _CHECKED_M,
        ("--subset", dict(required=True, metavar="BITS",
                          help="subset as a 0/1 string, one character "
                               "per pair")),
        _FORMAT), _cmd_trace),
    ("relation", "print one relation element", (
        _CHECKED_M,
        ("--flavor", dict(choices=("I", "II", "III"), required=True)),
        ("--subset", dict(metavar="BITS", help="defining subset (type I)")),
        ("--product", dict(metavar="BITS,BITS",
                           help="trace pair (types II and III)")),
        _FORMAT), _cmd_relation),
    ("basis", "print the relation basis", (
        _M,
        ("--flavor", dict(choices=("II", "III"), default="III",
                          help="quadratic family to use (default: III)")),
        _FORMAT), _cmd_basis),
    ("reduce", "rewrite a product of two traces", (
        _CHECKED_M,
        ("--product", dict(required=True, metavar="BITS,BITS")),
        _FORMAT), _cmd_reduce),
    ("verify", "check generation and minimality", (
        _M,
        ("--dmax", dict(type=int, default=None, metavar="D",
                        help="largest degree to check (default: 2m)")),
        ("--flavor", dict(choices=("II", "III"), default="III")),
        ("--budget", dict(type=int, default=DEFAULT_BUDGET,
                          help="matrix entry budget (default: %(default)s)")),
        _FORMAT), _cmd_verify),
    ("count", "closed-form counts", (_M, _FORMAT), _cmd_count),
)
_BY_NAME = {row[0]: row for row in _VERBS}


def build_parser() -> argparse.ArgumentParser:
    """The parser for every verb."""
    parser = argparse.ArgumentParser(
        prog="vecinv2",
        description="Exact workbench for mod-2 vector invariants of an "
                    "order-two group action.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, options, command in _VERBS:
        p = sub.add_parser(name, help=text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=command)
    return parser


def _table_parse(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives, read off
    ``_VERBS``, for a plain call: a verb's name, then ``FLAG VALUE``
    pairs, each flag spelled as declared and given at most once, each
    value not starting with ``-``, of its option's type and among its
    choices, with every required option given.  None for any other
    call, which argparse then parses."""
    row = _BY_NAME.get(argv[0]) if argv else None
    given = dict(zip(argv[1::2], argv[2::2]))
    if row is None or 2 * len(given) + 1 != len(argv):
        return None
    args = argparse.Namespace(command=argv[0])
    for flag, keywords in row[2]:
        text = given.pop(flag, None)
        if text is None:
            if keywords.get("required"):
                return None
            value = keywords.get("default")
        else:
            try:
                value = keywords.get("type", str)(text)
            except ValueError:
                return None
            if text.startswith("-") or value not in keywords.get(
                    "choices", (value,)):
                return None
        setattr(args, flag.lstrip("-"), value)
    if given:
        return None
    args.func = row[3]
    return args


def main(argv: Iterable[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _table_parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as err:
            return err.code if isinstance(err.code, int) else 2
    try:
        return args.func(args)
    except ValueError as err:
        return _usage(str(err))


def run() -> None:
    sys.exit(main(sys.argv[1:]))
