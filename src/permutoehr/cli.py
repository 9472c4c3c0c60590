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

Data goes to stdout, diagnostics to stderr.  Every subcommand but verify
takes ``--format plain`` (the default), ``csv`` or ``json``, and all three
go through one emitter: a JSON report holds the command, its arguments,
the payload and ``elapsed_ms``; csv puts its header row first; plain sends
its notes (the item count of a listing) to stderr.  Exit codes: 0 success,
1 a ``verify`` check failed, 2 invalid parameters (the message names the
violated precondition), 3 resource-budget refusal, 141 (128 + SIGPIPE)
output cut short by a closed pipe (``permutoehr vertices --m 7 --n 7 |
head -1``), with no traceback.  Exact rationals are printed as "p/q" ("p"
when the denominator is 1); JSON output never contains floats.

Usage examples
--------------
  permutoehr ehrhart --m 2 --n 2 --method closed --format json
  permutoehr ehrhart --m 4 --n 5 --t 3
  permutoehr count-points --m 2 --n 1 --t 1
  permutoehr graphs --m 3 --stats
  permutoehr verify --max-m 4 --max-t 2

The environment variable PERMUTOEHR_BUDGET overrides the work budget
(default 10^8).  A budgeted command is refused with exit 3, before any
work, when its work estimate exceeds the budget; the refusal states the
estimate ("more than 2^k" past 2^64).  Route: estimate (unit)
  ehrhart, volume,  loop count * size of 2^m m! (2n+1)^m (loops * 64-bit
  fpoly             words); m^2 loops for closed, recurrence, egf and
                    fpoly, m^3 for egf-tree and fpoly --stable, m for volume
  count-points,     t*n * (K + 1)(S + 1) * K with S = t*full_sum_bound()
  parking           and K = min(m, S) (values * states * run lengths of
                    the dynamic programme over (entries placed, running
                    sum) states of the sorted points; parking is t = 1)
  verify            that bound for its oracle's largest count, at
                    (min(max_m, 4), 4, max_t)
  ehrhart --method  m(m+1)/2 * 4^m (slot steps * states of the Hall DP
  postnikov         over the sequences)
  ehrhart --method  m * 3^m (vertex steps * states of the component DP
  graphsum, graphs  over the multigraphs)
  --stats           both census estimates are stated as "more than 2^m"
                    past m = 64, without taking the power
  vertices, facets, the length of the listing (items); graphs reads it
  graphs            off the census; both polytope counts exceed
                    2^min(m, n), so past min(m, n) = 64 they are stated
                    as "more than 2^min(m, n)" without counting
The graphs listing also refuses m > 7, whatever the budget.  Parameters
outside a command's domain exit 2 before any budget test.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .ehrhart import (
    FORMULA_WORK,
    METHOD_NAMES,
    compute_ehrhart,
    f_polynomial,
    f_polynomial_stable,
    formula_work,
    volume_closed,
)
from .errors import BudgetError, point_budget, refuse_above_budget, refuse_past_floor
from .graphs import enumerate_graphs, graph_census, vertex_pairs
from .polynomials import Poly
from .polytope import PartialPermutohedron, count_parking_functions
from .verify import run_all


def _write_lines(lines) -> None:
    """Write ``lines`` to stdout, each ended by a newline, in blocks of
    4096; the lines made before an error are still written, as they would
    be by one print per line."""
    out = sys.stdout
    block = []
    try:
        for line in lines:
            block.append(line)
            if len(block) == 4096:
                full, block = block, []
                out.write("\n".join(full) + "\n")
    finally:
        if block:
            out.write("\n".join(block) + "\n")


def _emit(args, report, rows, lines, note=None) -> None:
    """Write one result in the encoding ``--format`` chose:
    - json: the command, then the dict ``report()`` builds (its arguments
      and its payload), then ``elapsed_ms``, indented by two;
    - csv: the ``rows``, header first, fields joined by commas;
    - plain: the ``lines``, then the line ``note()`` builds on stderr.
    Only the chosen encoding is built: ``report`` and ``note`` are
    callables, and ``rows`` and ``lines`` are read lazily."""
    if args.format == "json":
        report = {"command": args.subcommand, **report()}
        report["elapsed_ms"] = int((time.monotonic() - args.started) * 1000)
        print(json.dumps(report, indent=2))
    elif args.format == "csv":
        _write_lines(",".join(map(str, row)) for row in rows)
    else:
        _write_lines(lines)
        if note is not None:
            print(note(), file=sys.stderr)


def _emit_scalar(args, head: dict, key: str, value) -> None:
    """One value, under ``key`` in the JSON report and as the csv header."""
    _emit(args, lambda: {**head, key: value}, ((key,), (value,)), (str(value),))


def _emit_poly(args, head: dict, poly: Poly, value: Fraction | None) -> None:
    """A polynomial's coefficients from the constant term up ("0" for the
    zero polynomial), and its value at ``--t`` when one was given."""

    def coefficients():
        return [str(c) for c in poly.coeffs] or ["0"]

    def report():
        # elapsed_ms comes before the coefficients; _emit sets it in place
        return {**head, "elapsed_ms": None, "coefficients": coefficients(), "value": text}

    def rows():
        yield "power", "coefficient"
        yield from enumerate(coefficients())
        if text is not None:
            yield "value", text

    def lines():
        yield str(poly)
        if text is not None:
            yield f"value at t={args.t}: {text}"

    text = None if value is None else str(value)
    _emit(args, report, rows(), lines())


def cmd_ehrhart(args) -> int:
    if args.t is not None and args.t < 1:
        raise ValueError("evaluation point t must be >= 1")
    work = formula_work(args.method, args.m, args.n)
    budget = point_budget()
    if work is not None:  # postnikov and graphsum refuse on their census DP's estimate
        loops, words = work
        refuse_above_budget(loops * words, args.method + FORMULA_WORK, budget, *work)
    poly = compute_ehrhart(args.m, args.n, args.method, budget).polynomial
    value = None if args.t is None else poly(args.t)
    head = {"m": args.m, "n": args.n, "t": args.t, "method": args.method}
    _emit_poly(args, head, poly, value)
    return 0


def cmd_volume(args) -> int:
    loops, words = formula_work("volume", args.m, args.n)
    refuse_above_budget(loops * words, "volume" + FORMULA_WORK, point_budget(), loops, words)
    volume = volume_closed(args.m, args.n)
    _emit_scalar(args, {"m": args.m, "n": args.n}, "volume", str(volume))
    return 0


def cmd_fpoly(args) -> int:
    if not args.stable and args.n is None:
        raise ValueError("fpoly needs --n unless --stable is given")
    route = "fpoly-stable" if args.stable else "fpoly"
    loops, words = formula_work(route, args.m, args.n)
    refuse_above_budget(loops * words, route + FORMULA_WORK, point_budget(), loops, words)
    poly = (f_polynomial_stable if args.stable else f_polynomial)(args.m, args.n)
    _emit_poly(args, {"m": args.m, "n": args.n, "stable": args.stable}, poly, None)
    return 0


def cmd_vertices(args) -> int:
    poly = PartialPermutohedron(args.m, args.n)
    # past min(m, n) = 3 the count exceeds min(m, n)! > 2^min(m, n)
    refuse_past_floor(poly.vertex_count, "{} vertices", min(args.m, args.n), point_budget())
    vertices = sorted(poly.vertices())
    _emit(
        args,
        lambda: {"m": args.m, "n": args.n, "count": len(vertices),
                 "vertices": [list(v) for v in vertices]},
        chain([[f"x{i + 1}" for i in range(args.m)]], vertices),
        (" ".join(map(str, v)) for v in vertices),
        lambda: f"# {len(vertices)} vertices",
    )
    return 0


def cmd_facets(args) -> int:
    poly = PartialPermutohedron(args.m, args.n)
    # for 2 <= min(m, n) the count exceeds 2^min(m, n)
    refuse_past_floor(poly.facet_count, "{} facets", min(args.m, args.n), point_budget())
    facets = poly.facets()
    _emit(
        args,
        lambda: {"m": args.m, "n": args.n, "count": len(facets), "facets": [
            {"coeffs": list(f.coeffs), "sense": f.sense, "bound": f.bound} for f in facets
        ]},
        chain(
            [[*(f"c{i + 1}" for i in range(args.m)), "sense", "bound"]],
            ((*f.coeffs, f.sense, f.bound) for f in facets),
        ),
        map(str, facets),
        lambda: f"# {len(facets)} facets",
    )
    return 0


def cmd_count_points(args) -> int:
    poly = PartialPermutohedron(args.m, args.n)
    count = poly.count_lattice_points(args.t, budget=point_budget())
    _emit_scalar(args, {"m": args.m, "n": args.n, "t": args.t}, "count", count)
    return 0


def _edge_labels(pairs, form: str) -> list[list[str]]:
    """``form`` filled with the 1-based ends of each pair and each
    multiplicity 0, 1, 2: a listing row looks its edges up here."""
    return [[form.format(i + 1, j + 1, c) for c in range(3)] for i, j in pairs]


def _edges(labels, mult, separator: str) -> str:
    return separator.join([row[c] for row, c in zip(labels, mult) if c])


def _graph_json(loops, edges: str) -> str:
    """One graph as ``json.dumps(..., indent=2)`` lays it out as an element
    of the report's "graphs" list (two levels deep), without the pure-Python
    encoder that ``indent`` selects; ``edges`` holds its "edges" members."""
    loop_lines = ",\n".join(f"        {c}" for c in loops)
    edge_block = "{\n" + edges + "\n      }" if edges else "{}"
    return (
        '    {\n      "loops": [\n' + loop_lines
        + '\n      ],\n      "edges": ' + edge_block + "\n    }"
    )


def cmd_graphs(args) -> int:
    if args.stats:
        census = graph_census(args.m, point_budget())
        count = sum(census.values())
        header = ("loops", "single", "pairs", "count")
        rows = [(*k, c) for k, c in census.items()]
        _emit(
            args,
            lambda: {"m": args.m, "census": [dict(zip(header, row)) for row in rows],
                     "total": count},
            chain([header], rows),
            chain(
                ("loops={} single={} pairs={}: {}".format(*row) for row in rows),
                [f"total: {count}"],
            ),
        )
        return 0
    # The first member is taken before anything is written, so that m is
    # checked against the listing bound first; the listing is then refused
    # on its length, read off the census, which at m <= 7 stays far inside
    # the default budget.
    members = enumerate_graphs(args.m)
    graphs = chain([next(members)], members)
    count = sum(graph_census(args.m).values())
    refuse_above_budget(count, "{} graphs", point_budget())
    # Each graph is written as it is enumerated: at m = 7 there are 1.26 M.
    pairs = vertex_pairs(args.m)
    if args.format == "json":
        # the document json.dumps(report, indent=2) gives, written piece by piece
        report = {"command": "graphs", "m": args.m, "count": count}
        out = sys.stdout
        out.write(json.dumps(report, indent=2)[: -len("\n}")] + ',\n  "graphs": [')
        labels = _edge_labels(pairs, '        "{},{}": {}')
        separator = "\n"
        for graph in graphs:
            edges = _edges(labels, graph.pair_mult, ",\n")
            out.write(separator + _graph_json(graph.loops, edges))
            separator = ",\n"
        elapsed_ms = int((time.monotonic() - args.started) * 1000)
        out.write(f'\n  ],\n  "elapsed_ms": {elapsed_ms}\n}}\n')
        return 0
    csv_labels = _edge_labels(pairs, "{},{}:{}")
    plain_labels = _edge_labels(pairs, "{{{},{}}}x{}")
    _emit(
        args,
        None,  # the JSON listing is streamed above
        chain(
            [("loops", "edges")],
            (
                (" ".join(map(str, g.loops)), _edges(csv_labels, g.pair_mult, ";"))
                for g in graphs
            ),
        ),
        (
            f"loops={g.loops} edges: {_edges(plain_labels, g.pair_mult, ' ') or '-'}"
            for g in graphs
        ),
        lambda: f"# {count} graphs",
    )
    return 0


def cmd_parking(args) -> int:
    count = count_parking_functions(args.m, budget=point_budget())
    _emit_scalar(args, {"m": args.m}, "count", count)
    return 0


def cmd_verify(args) -> int:
    results = run_all(
        max_m=args.max_m, max_t=args.max_t, seed=args.seed, budget=point_budget()
    )
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
    args.started = time.monotonic()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader is gone: point stdout at the null device so that the
        # interpreter's flush at exit writes nothing and raises nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
