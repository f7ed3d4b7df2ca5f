"""Command-line front end.

Successful commands print their payload (JSON, edge-list text, or TSV)
on stdout.  Failures print a structured error document on stderr and
exit with: 2 for usage or input errors, 3 for solver or resource
errors, 4 for a verification that ran but did not cover.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path as FilePath

from . import construct, formulas, graph, solver, verify
from .errors import (
    AssignmentInfeasible,
    DiameterTooSmall,
    Disconnected,
    GeodesicExplosion,
    MalformedWitness,
    SgeoError,
    SizeLimitExceeded,
)

_RESOURCE_ERRORS = (
    GeodesicExplosion,
    SizeLimitExceeded,
    Disconnected,
    DiameterTooSmall,
    AssignmentInfeasible,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_UNCOVERED = 4


def _positive(name: str, value) -> int:
    try:
        number = int(value)
    except ValueError:
        number = 0
    if number <= 0:
        raise SgeoError(f"{name} must be a positive integer, got {value!r}")
    return number


def _cap(args) -> int:
    """``--cap``, else a nonempty ``SG_GEODESIC_CAP``, else the default."""
    if args.cap is not None:
        return _positive("--cap", args.cap)
    env = os.environ.get("SG_GEODESIC_CAP")
    if env:
        return _positive("SG_GEODESIC_CAP", env)
    return graph.DEFAULT_GEODESIC_CAP


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


def _fail(exc: SgeoError) -> int:
    doc = {
        "status": "error",
        "payload": {"code": exc.code, "message": str(exc)},
        "diagnostics": [],
    }
    print(json.dumps(doc, indent=2), file=sys.stderr)
    return EXIT_RESOURCE if isinstance(exc, _RESOURCE_ERRORS) else EXIT_USAGE


def _load_graph(path: str) -> graph.Graph:
    return graph.from_edge_list(FilePath(path).read_text())


def _gen_graph(family: str, params: list[int]) -> graph.Graph:
    if family == "hypercube":
        if len(params) != 1:
            raise SgeoError("hypercube takes one parameter")
        return graph.hypercube(params[0])
    if family == "kbipartite":
        if len(params) != 2:
            raise SgeoError("kbipartite takes two parameters")
        return graph.complete_bipartite(params[0], params[1])
    if len(params) != 1:
        raise SgeoError("crown takes one parameter")
    return graph.crown(params[0])


def cmd_gen(args) -> int:
    g = _gen_graph(args.family, args.params)
    sys.stdout.writelines(graph._edge_lines(g))
    return EXIT_OK


def cmd_exact(args) -> int:
    cap = _cap(args)
    max_size = _positive("--max-size", args.max_size)
    g = _load_graph(args.graph)
    result = solver.sg_exact(g, cap=cap, max_vertices=max_size)
    _emit(result.to_dict())
    return EXIT_OK


def cmd_formula(args) -> int:
    if args.family == "kbipartite":
        if len(args.params) != 2:
            raise SgeoError("kbipartite takes two parameters")
        result = formulas.sg_complete_bipartite(args.params[0], args.params[1])
    else:
        if len(args.params) != 1:
            raise SgeoError("crown takes one parameter")
        result = formulas.sg_crown(args.params[0])
    _emit(result.to_dict())
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
    if args.family == "hypercube":
        if len(args.params) != 1:
            raise SgeoError("construct hypercube takes the dimension")
        n = args.params[0]
        n0 = args.n0 if args.n0 is not None else (n + 2) // 2
        if args.improved:
            built = construct.build_hypercube_improved(n, n0)
        else:
            built = construct.build_hypercube_basic(n, n0)
    elif args.family == "kbipartite":
        if len(args.params) != 2:
            raise SgeoError("construct kbipartite takes two parameters")
        built = construct.build_bipartite_witness(args.params[0], args.params[1])
    else:
        if len(args.params) != 1:
            raise SgeoError("construct crown takes one parameter")
        built = construct.build_crown_witness(args.params[0])

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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sgeo", description="Strong geodetic set toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit an edge list for a graph family")
    p.add_argument("family", choices=["hypercube", "kbipartite", "crown"])
    p.add_argument("params", type=int, nargs="+")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("exact", help="exact strong geodetic number of a graph file")
    p.add_argument("graph")
    p.add_argument("--cap", type=int, default=None)
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
    p.add_argument("family", choices=["hypercube", "kbipartite", "crown"])
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
    except FileNotFoundError as exc:
        return _fail(SgeoError(str(exc)))


if __name__ == "__main__":
    sys.exit(main())
