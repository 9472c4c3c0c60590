"""Command-line interface.

Subcommands
-----------
ehrhart       Ehrhart polynomial of P(m, n) by a chosen engine, optionally
              evaluated at a dilation t.
volume        exact volume of P(m, n).
fpoly         face-count polynomial (``--stable`` for the shared n >= m form).
vertices      vertex list of P(m, n).
facets        facet inequalities of P(m, n).
count-points  exact lattice-point count of t*P(m, n), from the facets alone.
graphs        the multigraph family behind the combinatorial engines
              (``--stats`` for the census by loop/single/double signature).
parking       number of integer points of the parking-function polytope.
verify        run the full cross-verification suite.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
2 invalid parameters (the message names the violated precondition),
3 resource-budget refusal.  Exact rationals are printed as "p/q" ("p"
when the denominator is 1); JSON output never contains floats.

Usage examples
--------------
  permutoehr ehrhart --m 2 --n 2 --method closed --format json
  permutoehr ehrhart --m 4 --n 5 --t 3
  permutoehr count-points --m 2 --n 1 --t 1
  permutoehr graphs --m 3 --stats
  permutoehr verify --max-m 4 --max-t 2

The environment variable PERMUTOEHR_BUDGET overrides the work budget
(default 10^8).  count-points and parking count by a dynamic programme
over (entries placed, running sum) states of the sorted points, and are
refused when its work bound, values * states * run lengths =
t*n * (K + 1)(S + 1) * K with S the dilated full-sum bound and
K = min(m, S), exceeds the budget.  vertices and facets are refused when
the number of items they would list exceeds it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache

from .ehrhart import (
    METHOD_NAMES,
    compute_ehrhart,
    f_polynomial,
    f_polynomial_stable,
    volume_closed,
)
from .errors import BudgetError, DEFAULT_POINT_BUDGET
from .graphs import enumerate_graphs, graph_census, vertex_pairs
from .polynomials import Poly
from .polytope import PartialPermutohedron, count_parking_functions
from .verify import run_all


def _point_budget() -> int:
    raw = os.environ.get("PERMUTOEHR_BUDGET")
    if raw is None:
        return DEFAULT_POINT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"PERMUTOEHR_BUDGET must be an integer, got {raw!r}")
    if budget < 1:
        raise ValueError("PERMUTOEHR_BUDGET must be positive")
    return budget


def _refuse_listing_above_budget(count: int, what: str) -> None:
    """Refuse, before enumerating, a listing longer than the budget."""
    budget = _point_budget()
    if count > budget:
        # past 2^64 the count is stated by its size: str() of an int over
        # 4300 digits raises
        bits = count.bit_length()
        stated = str(count) if bits <= 64 else f"more than 2^{bits - 1}"
        raise BudgetError(f"{stated} {what} exceeds budget {budget}")


def _frac_str(value: Fraction) -> str:
    return str(value)


def _poly_coeff_strings(poly: Poly) -> list[str]:
    return [_frac_str(c) for c in poly.coeffs] or ["0"]


def _emit_json(report: dict) -> None:
    print(json.dumps(report, indent=2))


def _emit_poly(args, poly: Poly, report: dict, value: Fraction | None) -> None:
    if args.format == "json":
        report["coefficients"] = _poly_coeff_strings(poly)
        report["value"] = None if value is None else _frac_str(value)
        _emit_json(report)
    elif args.format == "csv":
        print("power,coefficient")
        for i, c in enumerate(_poly_coeff_strings(poly)):
            print(f"{i},{c}")
        if value is not None:
            print(f"value,{_frac_str(value)}")
    else:
        print(poly)
        if value is not None:
            print(f"value at t={args.t}: {_frac_str(value)}")


def _start_report(command: str, args, fields: tuple[str, ...]) -> dict:
    report: dict = {"command": command}
    for name in fields:
        report[name] = getattr(args, name, None)
    return report


def cmd_ehrhart(args) -> int:
    if args.t is not None and args.t < 1:
        raise ValueError("evaluation point t must be >= 1")
    started = time.monotonic()
    result = compute_ehrhart(args.m, args.n, args.method)
    value = None
    if args.t is not None:
        value = result.polynomial(args.t)
    report = _start_report("ehrhart", args, ("m", "n", "t", "method"))
    report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    _emit_poly(args, result.polynomial, report, value)
    return 0


def cmd_volume(args) -> int:
    started = time.monotonic()
    volume = volume_closed(args.m, args.n)
    if args.format == "json":
        report = _start_report("volume", args, ("m", "n"))
        report["volume"] = _frac_str(volume)
        report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
        _emit_json(report)
    elif args.format == "csv":
        print("volume")
        print(_frac_str(volume))
    else:
        print(_frac_str(volume))
    return 0


def cmd_fpoly(args) -> int:
    started = time.monotonic()
    if args.stable:
        poly = f_polynomial_stable(args.m, args.n)
    else:
        if args.n is None:
            raise ValueError("fpoly needs --n unless --stable is given")
        poly = f_polynomial(args.m, args.n)
    report = _start_report("fpoly", args, ("m", "n"))
    report["stable"] = args.stable
    report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    _emit_poly(args, poly, report, None)
    return 0


def cmd_vertices(args) -> int:
    started = time.monotonic()
    poly = PartialPermutohedron(args.m, args.n)
    _refuse_listing_above_budget(poly.vertex_count(), "vertices")
    vertices = sorted(poly.vertices())
    if args.format == "json":
        report = _start_report("vertices", args, ("m", "n"))
        report["count"] = len(vertices)
        report["vertices"] = [list(v) for v in vertices]
        report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
        _emit_json(report)
    elif args.format == "csv":
        print(",".join(f"x{i + 1}" for i in range(args.m)))
        for v in vertices:
            print(",".join(str(c) for c in v))
    else:
        for v in vertices:
            print(" ".join(str(c) for c in v))
        print(f"# {len(vertices)} vertices", file=sys.stderr)
    return 0


def cmd_facets(args) -> int:
    started = time.monotonic()
    poly = PartialPermutohedron(args.m, args.n)
    _refuse_listing_above_budget(poly.facet_count(), "facets")
    facets = poly.facets()
    if args.format == "json":
        report = _start_report("facets", args, ("m", "n"))
        report["count"] = len(facets)
        report["facets"] = [
            {"coeffs": list(f.coeffs), "sense": f.sense, "bound": f.bound}
            for f in facets
        ]
        report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
        _emit_json(report)
    elif args.format == "csv":
        print(",".join(f"c{i + 1}" for i in range(args.m)) + ",sense,bound")
        for f in facets:
            print(",".join(str(c) for c in f.coeffs) + f",{f.sense},{f.bound}")
    else:
        for f in facets:
            print(f)
        print(f"# {len(facets)} facets", file=sys.stderr)
    return 0


def cmd_count_points(args) -> int:
    started = time.monotonic()
    poly = PartialPermutohedron(args.m, args.n)
    count = poly.count_lattice_points(args.t, budget=_point_budget())
    if args.format == "json":
        report = _start_report("count-points", args, ("m", "n", "t"))
        report["count"] = count
        report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
        _emit_json(report)
    elif args.format == "csv":
        print("count")
        print(count)
    else:
        print(count)
    return 0


def _graph_json(loops: list[int], edges: dict[str, int]) -> str:
    """One graph as ``json.dumps(..., indent=2)`` lays it out as an element
    of the report's "graphs" list (two levels deep), without the pure-Python
    encoder that ``indent`` selects."""
    loop_lines = ",\n".join(f"        {c}" for c in loops)
    if edges:
        edge_lines = ",\n".join(f'        "{k}": {v}' for k, v in edges.items())
        edge_block = "{\n" + edge_lines + "\n      }"
    else:
        edge_block = "{}"
    return (
        '    {\n      "loops": [\n' + loop_lines
        + '\n      ],\n      "edges": ' + edge_block + "\n    }"
    )


def cmd_graphs(args) -> int:
    started = time.monotonic()
    if args.stats:
        census = sorted(graph_census(args.m).items())
        if args.format == "json":
            report = _start_report("graphs", args, ("m",))
            report["census"] = [
                {"loops": k.n_loops, "single": k.n_single, "pairs": k.n_pairs, "count": c}
                for k, c in census
            ]
            report["total"] = sum(c for _, c in census)
            report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
            _emit_json(report)
        elif args.format == "csv":
            print("loops,single,pairs,count")
            for k, c in census:
                print(f"{k.n_loops},{k.n_single},{k.n_pairs},{c}")
        else:
            for k, c in census:
                print(f"loops={k.n_loops} single={k.n_single} pairs={k.n_pairs}: {c}")
            print(f"total: {sum(c for _, c in census)}")
        return 0
    pairs = vertex_pairs(args.m)

    def rows():
        for graph in enumerate_graphs(args.m):
            edges = {
                f"{i + 1},{j + 1}": c for (i, j), c in zip(pairs, graph.pair_mult) if c
            }
            yield list(graph.loops), edges

    # Each graph is printed as it is enumerated: at m = 7 there are 1.26 M.
    if args.format == "json":
        # the document json.dumps(report, indent=2) gives, written piece by piece
        report = _start_report("graphs", args, ("m",))
        report["count"] = sum(graph_census(args.m).values())
        out = sys.stdout
        out.write(json.dumps(report, indent=2)[: -len("\n}")] + ',\n  "graphs": [')
        separator = "\n"
        for loops, edges in rows():
            out.write(separator + _graph_json(loops, edges))
            separator = ",\n"
        elapsed_ms = int((time.monotonic() - started) * 1000)
        out.write(f'\n  ],\n  "elapsed_ms": {elapsed_ms}\n}}\n')
    elif args.format == "csv":
        print("loops,edges")
        for loops, edges in rows():
            edge_str = ";".join(f"{k}:{v}" for k, v in edges.items())
            print(" ".join(str(c) for c in loops) + "," + edge_str)
    else:
        count = 0
        for loops, edges in rows():
            edge_str = " ".join(f"{{{k}}}x{v}" for k, v in edges.items()) or "-"
            print(f"loops={tuple(loops)} edges: {edge_str}")
            count += 1
        print(f"# {count} graphs", file=sys.stderr)
    return 0


def cmd_parking(args) -> int:
    started = time.monotonic()
    count = count_parking_functions(args.m, budget=_point_budget())
    if args.format == "json":
        report = _start_report("parking", args, ("m",))
        report["count"] = count
        report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
        _emit_json(report)
    elif args.format == "csv":
        print("count")
        print(count)
    else:
        print(count)
    return 0


def cmd_verify(args) -> int:
    results = run_all(max_m=args.max_m, max_t=args.max_t, seed=args.seed)
    for result in sorted(results, key=lambda r: r.name):
        print(result.line())
    failures = [r for r in results if not r.passed]
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return 1 if failures else 0


def _add_format(sub) -> None:
    sub.add_argument(
        "--format",
        choices=("plain", "json", "csv"),
        default="plain",
        help="output encoding (default: plain)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permutoehr",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ehrhart", help="Ehrhart polynomial of P(m, n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=None, help="evaluate at this dilation")
    p.add_argument("--method", choices=METHOD_NAMES, default="closed")
    _add_format(p)
    p.set_defaults(func=cmd_ehrhart)

    p = sub.add_parser("volume", help="volume of P(m, n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("fpoly", help="face-count polynomial of P(m, n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument(
        "--stable",
        action="store_true",
        help="the polynomial shared by all n >= m (then --n is optional)",
    )
    _add_format(p)
    p.set_defaults(func=cmd_fpoly)

    p = sub.add_parser("vertices", help="vertex list of P(m, n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_vertices)

    p = sub.add_parser("facets", help="facet inequalities of P(m, n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_facets)

    p = sub.add_parser("count-points", help="lattice points of t*P(m, n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_count_points)

    p = sub.add_parser("graphs", help="the multigraph family for m vertices")
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--stats",
        action="store_true",
        help="census by (loops, single edges, doubled pairs) instead of a listing",
    )
    _add_format(p)
    p.set_defaults(func=cmd_graphs)

    p = sub.add_parser(
        "parking", help="integer points of the parking-function polytope (m >= 2)"
    )
    p.add_argument("--m", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_parking)

    p = sub.add_parser("verify", help="run the cross-verification suite")
    p.add_argument("--max-m", type=int, default=4)
    p.add_argument("--max-t", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process, built on the first call to :func:`main`
    rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
