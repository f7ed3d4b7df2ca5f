"""Command-line front end.

Successful commands print their payload (JSON, edge-list text, or TSV)
on stdout.  Failures print a structured error document on stderr and
exit with: 2 for usage or input errors, 3 for solver or resource
errors, 4 for a verification that ran but did not cover.

JSON documents are written as the exact text of ``json.dumps(doc,
indent=2)`` by ``_encode``, which encodes sibling values a column at a
time (see ``_column``) and, on an unencodable value, lets the stdlib
encoder raise its own error.

The argument parser is built once per process, on the first call of
``main``, and reused by every later call; each call parses into a fresh
namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import accumulate, chain
from pathlib import Path as FilePath

from . import construct, formulas, graph, solver, verify
from .errors import (
    AssignmentInfeasible,
    DiameterTooSmall,
    Disconnected,
    MalformedWitness,
    ParseError,
    SgeoError,
    SizeLimitExceeded,
)

_RESOURCE_ERRORS = (SizeLimitExceeded, Disconnected, DiameterTooSmall, AssignmentInfeasible)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_UNCOVERED = 4


def _encode(o, ind: str = "\n") -> str:
    """``json.dumps(o, indent=2)``.  Siblings are encoded a column at a
    time, so the first error met need not be the stdlib's: on one, the
    stdlib encoder runs to raise its own."""
    try:
        return _value(o, ind)
    except (TypeError, ValueError):
        json.dumps(o, indent=2)
        raise


def _value(o, ind: str) -> str:
    """``json.dumps(o, indent=2)`` at indent ind, joined in C; a list's
    elements are one column, and no bool joins as an int: it would print 1."""
    inner = ind + "  "
    if isinstance(o, dict) and o:
        key = json.encoder.encode_basestring_ascii
        items = [(key(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]) + ": "
                 + (int.__repr__(v) if type(v) is int else _value(v, inner)) for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + ind + "}"
    if isinstance(o, (list, tuple)) and o:
        return "[" + inner + ("," + inner).join(_column(o, inner)) + ind + "]"
    return json.dumps(o)


def _column(col: list | tuple, ind: str) -> list[str]:
    """``_value(x, ind)`` for each sibling x in col, several at once.

    A column of exact ints is one map.  Two or more non-empty lists
    encode all their elements as one column and regroup them by length.
    Two or more dicts with the same str keys in the same order encode
    each key's values as one column into one %-template.  Any other
    column is encoded value by value."""
    types = set(map(type, col))
    if types <= {int}:
        return list(map(int.__repr__, col))
    if len(types) == 1 and len(col) > 1 and all(col):
        kind, inner = types.pop(), ind + "  "
        sep = "," + inner
        if issubclass(kind, (list, tuple)):
            items = _column(list(chain.from_iterable(col)), inner)
            ends = list(accumulate(map(len, col)))
            return ["[" + inner + sep.join(items[i:j]) + ind + "]" for i, j in zip([0] + ends, ends)]
        keys = list(col[0]) if issubclass(kind, dict) else None
        if keys and set(map(type, keys)) == {str} and all(map(keys.__eq__, map(list, col))):
            key = json.encoder.encode_basestring_ascii
            template = sep.join(key(k).replace("%", "%%") + ": %s" for k in keys)
            template = "{" + inner + template + ind + "}"
            values = [_column(v, inner) for v in zip(*[o.values() for o in col])]
            return [template % row for row in zip(*values)]
    return [_value(o, ind) for o in col]


def _emit(doc, file=None) -> None:
    print(_encode(doc), file=file)


def _fail(exc: SgeoError) -> int:
    doc = {
        "status": "error",
        "payload": {"code": exc.code, "message": str(exc)},
        "diagnostics": [],
    }
    _emit(doc, sys.stderr)
    return EXIT_RESOURCE if isinstance(exc, _RESOURCE_ERRORS) else EXIT_USAGE


def _load_graph(path: str) -> graph.Graph:
    try:
        text = FilePath(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"graph file is not readable text: {exc}") from None
    return graph.from_edge_list(text)


# The number of parameters of each family.
_ARITY = {"hypercube": 1, "kbipartite": 2, "crown": 1}


def _params(args) -> list[int]:
    """The family parameters of ``args``, checked against their count."""
    want, got = _ARITY[args.family], len(args.params)
    if got != want:
        raise SgeoError(f"{args.command} {args.family} takes {want} parameter(s), got {got}")
    return args.params


# Looked up per call, so a wrapper installed on a module later is called.
def cmd_gen(args) -> int:
    make = {"hypercube": graph.hypercube, "kbipartite": graph.complete_bipartite, "crown": graph.crown}
    g = make[args.family](*_params(args))
    sys.stdout.writelines(graph._edge_lines(g))
    return EXIT_OK


def cmd_exact(args) -> int:
    if args.max_size <= 0:
        raise SgeoError(f"--max-size must be a positive integer, got {args.max_size}")
    g = _load_graph(args.graph)
    result = solver.sg_exact(g, max_vertices=args.max_size)
    _emit(result.to_dict())
    return EXIT_OK


def cmd_formula(args) -> int:
    closed_form = {"kbipartite": formulas.sg_complete_bipartite, "crown": formulas.sg_crown}
    _emit(closed_form[args.family](*_params(args)).to_dict())
    return EXIT_OK


def _bounds(n: int) -> dict:
    """The hypercube bounds at n, each None below the dimension where it
    is defined."""
    return {
        "lower": formulas.hypercube_lower(n) if n >= 2 else None,
        "upper_basic": formulas.hypercube_upper_basic(n) if n >= 1 else None,
        "upper_improved": formulas.hypercube_upper_improved(n) if n >= 6 else None,
    }


def cmd_bounds(args) -> int:
    # Checked first: the n0 sweep grows with n, and json.dumps has an int-to-str limit.
    if not 0 <= args.n <= 10_000:
        raise SgeoError("dimension must be in [0, 10000]")
    _emit({**_bounds(args.n), "known": formulas.small_hypercube_known(args.n)})
    return EXIT_OK


def cmd_construct(args) -> int:
    if args.family != "hypercube" and (args.n0 is not None or args.improved):
        raise SgeoError("--n0 and --improved apply to construct hypercube only")
    params = _params(args)
    if args.family == "hypercube":
        build = construct.build_hypercube_improved if args.improved else construct.build_hypercube_basic
        params = [params[0], (params[0] + 2) // 2 if args.n0 is None else args.n0]
    elif args.family == "crown":
        build = construct.build_crown_witness
    else:
        build = construct.build_bipartite_witness
    built = build(*params)

    doc = {
        "witness": verify.witness_to_dict(built.witness),
        "report": built.report,
    }
    if built.plan is not None:
        doc["plan"] = built.plan._asdict()
    if args.verify:
        doc["coverage"] = verify.report_to_dict(built.coverage)
    _emit(doc)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    try:
        data = json.loads(FilePath(args.witness).read_bytes())
    except (ValueError, RecursionError) as exc:
        raise MalformedWitness(f"witness is not JSON: {exc!r}") from None
    if isinstance(data, dict) and "witness" in data and "set" not in data:
        data = data["witness"]
    w = verify.witness_from_dict(data)
    report = verify.verify_witness(g, w)
    _emit(verify.report_to_dict(report))
    return EXIT_OK if report.covered else EXIT_UNCOVERED


def cmd_table(args) -> int:
    if not 1 <= args.max_n <= 60:
        raise SgeoError("--max-n must be in [1, 60]")
    ns = list(range(1, args.max_n + 1))
    bounds = [_bounds(n) for n in ns]
    rows = {"n": ns}
    for key in ("lower", "upper_improved", "upper_basic"):
        rows[key] = [b[key] for b in bounds]
    if args.format == "json":
        _emit(rows)
        return EXIT_OK
    for name, row in rows.items():
        cells = ("" if x is None else str(x) for x in row)
        sys.stdout.write(name + "\t" + "\t".join(cells) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an SgeoError, so it keeps the JSON error
    contract instead of printing usage text."""

    def error(self, message):
        raise SgeoError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sgeo", description="Strong geodetic set toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit an edge list for a graph family")
    p.add_argument("family", choices=list(_ARITY))
    p.add_argument("params", type=int, nargs="+")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("exact", help="exact strong geodetic number of a graph file")
    p.add_argument("graph")
    p.add_argument("--max-size", type=int, default=solver.DEFAULT_MAX_VERTICES)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("formula", help="closed-form value for a graph family")
    p.add_argument("family", choices=["kbipartite", "crown"])
    p.add_argument("params", type=int, nargs="+")
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("bounds", help="hypercube bound summary")
    p.add_argument("family", choices=["hypercube"])
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("construct", help="build a verified witness")
    p.add_argument("family", choices=list(_ARITY))
    p.add_argument("params", type=int, nargs="+")
    p.add_argument("--n0", type=int, default=None)
    p.add_argument("--improved", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check a witness file against a graph file")
    p.add_argument("graph")
    p.add_argument("witness")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="bound table over hypercube dimensions")
    p.add_argument("--max-n", type=int, default=15)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left; send the unsent rest and the final flush nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except SgeoError as exc:
        return _fail(exc)
    except OSError as exc:
        # A missing, unreadable or directory path is an input error.
        return _fail(SgeoError(str(exc)))


if __name__ == "__main__":
    sys.exit(main())
