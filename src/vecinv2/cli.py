"""Command-line front end.

Verbs:

* ``gens``       list the generators for a given number of variable pairs
* ``trace``      print one transfer polynomial
* ``relation``   print one relation element (type I, II, or III)
* ``basis``      print the declared relation basis
* ``reduce``     rewrite a product of two traces; the last line is the result
* ``verify``     brute-force generation + minimality check up to a degree
* ``count``      closed-form generator and relation counts

Exit status: 0 success, 1 a verification failed (a counterexample is
printed), 2 usage error, 3 the matrix budget was exceeded.

Each verb is one row of ``_VERBS``.  When the first argument is exactly
a verb's name, ``main`` builds the parser with that verb's subparser
alone, because the six unused subparsers are most of a full parser's
cost.  Otherwise (no argument, an option first, or an unknown verb) it
builds all seven, so every help text and error that lists the verbs
comes from the full parser.
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


class _UsageError(Exception):
    pass


def _parse_subset(text: str):
    try:
        return bits_to_subset(text)
    except ValueError as err:
        raise _UsageError(str(err))


def _parse_product(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"--product wants 'BITS,BITS', got {text!r}")
    a, b = (_parse_subset(p.strip()) for p in parts)
    if len(a) != len(b):
        raise _UsageError("--product subsets must have equal length")
    return a, b


def _usage(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 2


def _cmd_gens(args) -> int:
    gens = generator_set(args.m)
    if args.format == "json":
        _emit(json.dumps(gens.to_json(), indent=2, sort_keys=True))
        return 0
    for name, degree, poly in gens.members():
        _emit(f"{name} (degree {degree}): {poly}")
    _emit(f"count: {gens.count}")
    return 0


def _check_m(args, subset) -> None:
    if args.m is not None and args.m != len(subset):
        raise _UsageError(
            f"-m {args.m} does not match bitstring length {len(subset)}")


def _cmd_trace(args) -> int:
    subset = _parse_subset(args.subset)
    _check_m(args, subset)
    poly = transfer(subset)
    if args.format == "json":
        _emit(json.dumps({
            "schema": 1,
            "m": len(subset),
            "subset": subset_to_bits(subset),
            "element": str(poly),
        }, indent=2, sort_keys=True))
        return 0
    _emit(str(poly))
    return 0


def _cmd_relation(args) -> int:
    if args.flavor == "I":
        if args.subset is None:
            return _usage("--flavor I wants --subset BITS")
        subset = _parse_subset(args.subset)
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
        _emit(json.dumps(relation.to_json(), indent=2, sort_keys=True))
        return 0
    _emit(f"{relation.label()}: {relation.element}")
    return 0


def _cmd_basis(args) -> int:
    rels = relation_basis(args.m, args.flavor)
    if args.format == "json":
        _emit(json.dumps({
            "schema": 1,
            "m": args.m,
            "flavor": args.flavor,
            "count": len(rels),
            "relations": [r.to_json() for r in rels],
        }, indent=2, sort_keys=True))
        return 0
    for relation in rels:
        _emit(f"{relation.label()}: {relation.element}")
    _emit(f"count: {len(rels)}")
    return 0


def _cmd_reduce(args) -> int:
    a, b = _parse_product(args.product)
    _check_m(args, a)
    trace = reduce_product(a, b)
    if args.format == "json":
        _emit(json.dumps(trace.to_json(), indent=2, sort_keys=True))
        return 0
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
        _emit(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        _emit(report.to_text())
    return 0 if report.ok else 1


def _cmd_count(args) -> int:
    gens = 2 ** args.m + args.m - 1
    rels = count_relations(args.m)
    max_degree = 2 * args.m if args.m >= 2 else 0
    if args.format == "json":
        _emit(json.dumps({
            "schema": 1,
            "m": args.m,
            "generators": gens,
            "relations": rels,
            "max_degree": max_degree,
        }, indent=2, sort_keys=True))
        return 0
    _emit(f"generators: {gens}")
    _emit(f"relations: {rels}")
    _emit(f"max relation degree: {max_degree}")
    return 0


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")


def _add_m(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-m", type=int, required=True, metavar="M",
                        help="number of variable pairs")


def _add_checked_m(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-m", type=int, default=None, metavar="M",
                        help="number of variable pairs (checked against BITS)")


def _args_m(p: argparse.ArgumentParser) -> None:
    _add_m(p)
    _add_format(p)


def _args_trace(p: argparse.ArgumentParser) -> None:
    _add_checked_m(p)
    p.add_argument("--subset", required=True, metavar="BITS",
                   help="subset as a 0/1 string, one character per pair")
    _add_format(p)


def _args_relation(p: argparse.ArgumentParser) -> None:
    _add_checked_m(p)
    p.add_argument("--flavor", choices=("I", "II", "III"), required=True)
    p.add_argument("--subset", metavar="BITS",
                   help="defining subset (type I)")
    p.add_argument("--product", metavar="BITS,BITS",
                   help="trace pair (types II and III)")
    _add_format(p)


def _args_basis(p: argparse.ArgumentParser) -> None:
    _add_m(p)
    p.add_argument("--flavor", choices=("II", "III"), default="III",
                   help="quadratic family to use (default: III)")
    _add_format(p)


def _args_reduce(p: argparse.ArgumentParser) -> None:
    _add_checked_m(p)
    p.add_argument("--product", required=True, metavar="BITS,BITS")
    _add_format(p)


def _args_verify(p: argparse.ArgumentParser) -> None:
    _add_m(p)
    p.add_argument("--dmax", type=int, default=None, metavar="D",
                   help="largest degree to check (default: 2m)")
    p.add_argument("--flavor", choices=("II", "III"), default="III")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="matrix entry budget (default: %(default)s)")
    _add_format(p)


# Each verb once: (name, help, argument adder, command).
_VERBS = (
    ("gens", "list the generators", _args_m, _cmd_gens),
    ("trace", "print one transfer polynomial", _args_trace, _cmd_trace),
    ("relation", "print one relation element", _args_relation,
     _cmd_relation),
    ("basis", "print the relation basis", _args_basis, _cmd_basis),
    ("reduce", "rewrite a product of two traces", _args_reduce, _cmd_reduce),
    ("verify", "check generation and minimality", _args_verify, _cmd_verify),
    ("count", "closed-form counts", _args_m, _cmd_count),
)
_NAMES = tuple(name for name, *_ in _VERBS)


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser for every verb, or, given a verb's name, for that
    verb alone.  The one-verb parser spells out the subcommand metavar,
    so that its usage line still lists every verb.  The full parser
    must not: an explicit metavar would rename ``argument command`` in
    its "required" and "invalid choice" errors."""
    parser = argparse.ArgumentParser(
        prog="vecinv2",
        description="Exact workbench for mod-2 vector invariants of an "
                    "order-two group action.")
    metavar = None if verb is None else "{" + ",".join(_NAMES) + "}"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=metavar)
    for name, text, add_arguments, command in _VERBS:
        if verb in (None, name):
            p = sub.add_parser(name, help=text)
            add_arguments(p)
            p.set_defaults(func=command)
    return parser


def main(argv: Iterable[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv[0] if argv and argv[0] in _NAMES else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    try:
        return args.func(args)
    except (_UsageError, ValueError) as err:
        return _usage(str(err))


def run() -> None:
    sys.exit(main(sys.argv[1:]))
