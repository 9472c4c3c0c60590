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
head -1``), with no traceback.  Exact rationals are printed in full as
"p/q" ("p" when the denominator is 1), past CPython's 4300-digit limit on
int-to-str conversion; JSON output never contains floats.

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
  ehrhart, volume,  loop count * size W of 2^m m! (2n+1)^m (loops * 64-bit
  fpoly             words); m^2 loops for closed, recurrence, egf,
                    egf-tree and fpoly, m^3 for fpoly --stable, m for
                    volume; egf-tree multiplies two such operands per
                    loop, stated as W*isqrt(W) words
  count-points,     t*n * (K + 1)(S + 1) * K with S = t*full_sum_bound()
  parking           and K = min(m, S) (values * states * run lengths of
                    the dynamic programme over (entries placed, running
                    sum) states of the sorted points; parking is t = 1)
  verify            that bound for its oracle's largest count, at
                    (min(max_m, 4), 4, max_t), the Hall DP's at max_m,
                    the component DP's at max_m + 1 and the graph
                    listing's length at max_m, all before any check runs
  ehrhart --method  m(m+1)/2 * 4^m (slot steps * states of the Hall DP
  postnikov         over the sequences)
  ehrhart --method  m * 3^m (vertex steps * states of the component DP
  graphsum, graphs  over the multigraphs)
  --stats           both census estimates are stated as "more than 2^m"
                    past m = 64, without taking the power
  vertices, facets  the entries the listing builds, m per item (vertex
                    entries, facet coefficients); both counts exceed
                    2^min(m, n), so past min(m, n) = 64 they are stated
                    as "more than 2^min(m, n)" without counting
  graphs            the length of the listing (graphs), read off the
                    census
The graphs listing also refuses m > 7, whatever the budget.  Parameters
outside a command's domain exit 2 before any budget test.
"""

from __future__ import annotations

import os
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .ehrhart import (
    METHOD_NAMES,
    compute_ehrhart,
    f_polynomial,
    f_polynomial_stable,
    volume_closed,
)
from .errors import BudgetError
from .graphs import enumerate_graphs, graph_census, graph_count, vertex_pairs
from .polynomials import Poly
from .polytope import PartialPermutohedron, count_parking_functions

if TYPE_CHECKING:  # argparse is imported only when a parser is built
    import argparse


def _write_lines(lines, separator: str = "\n") -> None:
    """Write ``lines`` to stdout, each followed by ``separator`` but the
    last by a newline, in blocks of 4096; the lines made before an error
    are still written, as they would be by one print per line."""
    out = sys.stdout
    block = []
    try:
        for line in lines:
            if len(block) == 4096:
                out.write(separator.join(block) + separator)
                block = []
            block.append(line)
    finally:
        if block:
            out.write(separator.join(block) + "\n")


def _json_ints(values, depth: int) -> str:
    """A nonempty list of ints as ``json.dumps(..., indent=2)`` lays it out
    ``depth`` levels deep, without the pure-Python encoder that ``indent``
    selects."""
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(map(str, values)) + "\n" + "  " * depth + "]"


def _emit(args, report, rows, lines, note=None, listing=None) -> None:
    """Write one result in the encoding ``--format`` chose:
    - json: the command, then the dict ``report()`` builds (its arguments
      and its payload), then ``elapsed_ms``, indented by two; a
      ``listing``, given as (key, item texts laid out two levels deep),
      comes last before ``elapsed_ms`` and is written item by item, as
      each item is made (every listing holds at least one item);
    - csv: the ``rows``, header first, fields joined by commas;
    - plain: the ``lines``, then the line ``note()`` builds on stderr.
    Only the chosen encoding is built: ``report`` and ``note`` are
    callables, and ``rows``, ``lines`` and the items are read lazily."""
    if args.format == "json":
        import json

        report = {"command": args.subcommand, **report()}
        if listing is None:
            report["elapsed_ms"] = int((time.monotonic() - args.started) * 1000)
            print(json.dumps(report, indent=2))
            return
        # the document json.dumps gives with the items under ``key``
        key, items = listing
        out = sys.stdout
        out.write(json.dumps(report, indent=2)[: -len("\n}")] + f',\n  "{key}": [\n    ')
        _write_lines(items, ",\n    ")
        elapsed_ms = int((time.monotonic() - args.started) * 1000)
        out.write(f'  ],\n  "elapsed_ms": {elapsed_ms}\n}}\n')
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
    poly = compute_ehrhart(args.m, args.n, args.method)
    value = None if args.t is None else poly(args.t)
    head = {"m": args.m, "n": args.n, "t": args.t, "method": args.method}
    _emit_poly(args, head, poly, value)
    return 0


def cmd_volume(args) -> int:
    volume = volume_closed(args.m, args.n)
    _emit_scalar(args, {"m": args.m, "n": args.n}, "volume", str(volume))
    return 0


def cmd_fpoly(args) -> int:
    if not args.stable and args.n is None:
        raise ValueError("fpoly needs --n unless --stable is given")
    poly = (f_polynomial_stable if args.stable else f_polynomial)(args.m, args.n)
    _emit_poly(args, {"m": args.m, "n": args.n, "stable": args.stable}, poly, None)
    return 0


def cmd_vertices(args) -> int:
    vertices = sorted(PartialPermutohedron(args.m, args.n).vertices())
    _emit(
        args,
        lambda: {"m": args.m, "n": args.n, "count": len(vertices)},
        chain([[f"x{i + 1}" for i in range(args.m)]], vertices),
        (" ".join(map(str, v)) for v in vertices),
        lambda: f"# {len(vertices)} vertices",
        ("vertices", (_json_ints(v, 2) for v in vertices)),
    )
    return 0


def cmd_facets(args) -> int:
    facets = PartialPermutohedron(args.m, args.n).facets()
    _emit(
        args,
        lambda: {"m": args.m, "n": args.n, "count": len(facets)},
        chain(
            [[*(f"c{i + 1}" for i in range(args.m)), "sense", "bound"]],
            ((*f.coeffs, f.sense, f.bound) for f in facets),
        ),
        map(str, facets),
        lambda: f"# {len(facets)} facets",
        ("facets", (
            '{\n      "coeffs": ' + _json_ints(f.coeffs, 3)
            + f',\n      "sense": "{f.sense}",\n      "bound": {f.bound}\n    }}'
            for f in facets
        )),
    )
    return 0


def cmd_count_points(args) -> int:
    poly = PartialPermutohedron(args.m, args.n)
    count = poly.count_lattice_points(args.t)
    _emit_scalar(args, {"m": args.m, "n": args.n, "t": args.t}, "count", count)
    return 0


def _edge_labels(pairs, form: str) -> list[list[str]]:
    """``form`` filled with the 1-based ends of each pair and each
    multiplicity 0, 1, 2: a listing row looks its edges up here."""
    return [[form.format(i + 1, j + 1, c) for c in range(3)] for i, j in pairs]


def _edges(labels, mult, separator: str) -> str:
    return separator.join([row[c] for row, c in zip(labels, mult) if c])


def cmd_graphs(args) -> int:
    if args.stats:
        census = graph_census(args.m)
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
    # checked against the listing bound, and the listing refused on its
    # length, first.
    members = enumerate_graphs(args.m)
    graphs = chain([next(members)], members)
    count = graph_count(args.m)
    # Each graph is written as it is enumerated: at m = 7 there are 1.26 M.
    pairs = vertex_pairs(args.m)
    form = {"json": '        "{},{}": {}', "csv": "{},{}:{}", "plain": "{{{},{}}}x{}"}
    labels = _edge_labels(pairs, form[args.format])
    _emit(
        args,
        lambda: {"m": args.m, "count": count},
        chain(
            [("loops", "edges")],
            ((" ".join(map(str, g.loops)), _edges(labels, g.pair_mult, ";")) for g in graphs),
        ),
        (
            f"loops={g.loops} edges: {_edges(labels, g.pair_mult, ' ') or '-'}"
            for g in graphs
        ),
        lambda: f"# {count} graphs",
        ("graphs", (
            '{\n      "loops": ' + _json_ints(g.loops, 3) + ',\n      "edges": '
            + ("{\n" + edges + "\n      }" if edges else "{}") + "\n    }"
            for g in graphs
            for edges in (_edges(labels, g.pair_mult, ",\n"),)
        )),
    )
    return 0


def cmd_parking(args) -> int:
    count = count_parking_functions(args.m)
    _emit_scalar(args, {"m": args.m}, "count", count)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(max_m=args.max_m, max_t=args.max_t, seed=args.seed)
    for result in sorted(results, key=lambda r: r.name):
        print(result.line())
    failures = [r for r in results if not r.passed]
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return 1 if failures else 0


# The option table: each subcommand's handler, its help line and its
# options, as (flag, keyword arguments of argparse's add_argument).
# build_parser() hands these to argparse as they stand, and
# _parse_canonical() reads the same entries (type, choices, action
# "store_true", required, default) to parse the canonical spellings,
# "--opt value" and bare store_true flags, without building the parser.
# It declines, and argparse parses the argv (so help, error messages and
# exit code 2 are argparse's), on -h/--help, on a flag the subcommand does
# not declare exactly (an abbreviation such as --meth, the --opt=value
# form, "--"), on a value that is missing, empty, starts with "-" or is
# not a str, on a failed type conversion, on a value outside the choices,
# on a missing required option, and on any other token.
_FORMAT = (
    "--format",
    {"choices": ("plain", "json", "csv"), "default": "plain",
     "help": "output encoding (default: plain)"},
)
_M = ("--m", {"type": int, "required": True})
_N = ("--n", {"type": int, "required": True})

_COMMANDS = {
    "ehrhart": (cmd_ehrhart, "Ehrhart polynomial of P(m, n)", (
        _M,
        _N,
        ("--t", {"type": int, "default": None, "help": "evaluate at this dilation"}),
        ("--method", {"choices": METHOD_NAMES, "default": "closed"}),
        _FORMAT,
    )),
    "volume": (cmd_volume, "volume of P(m, n)", (_M, _N, _FORMAT)),
    "fpoly": (cmd_fpoly, "face-count polynomial of P(m, n)", (
        _M,
        ("--n", {"type": int, "default": None}),
        ("--stable", {
            "action": "store_true",
            "help": "the polynomial shared by all n >= m (then --n is optional)",
        }),
        _FORMAT,
    )),
    "vertices": (cmd_vertices, "vertex list of P(m, n)", (_M, _N, _FORMAT)),
    "facets": (cmd_facets, "facet inequalities of P(m, n)", (_M, _N, _FORMAT)),
    "count-points": (cmd_count_points, "lattice points of t*P(m, n)", (
        _M, _N, ("--t", {"type": int, "required": True}), _FORMAT,
    )),
    "graphs": (cmd_graphs, "the multigraph family for m vertices", (
        _M,
        ("--stats", {
            "action": "store_true",
            "help": "census by (loops, single edges, doubled pairs) instead of a listing",
        }),
        _FORMAT,
    )),
    "parking": (
        cmd_parking,
        "integer points of the parking-function polytope (m >= 2)",
        (_M, _FORMAT),
    ),
    "verify": (cmd_verify, "run the cross-verification suite", (
        ("--max-m", {"type": int, "default": 4}),
        ("--max-t", {"type": int, "default": 2}),
        ("--seed", {"type": int, "default": 0}),
    )),
}


def _parse_canonical(argv: list) -> SimpleNamespace | None:
    """The attributes of the namespace argparse would build from ``argv``,
    read off the option table, or None where the table's rule declines the
    argv."""
    if not argv or not isinstance(argv[0], str) or argv[0] not in _COMMANDS:
        return None
    func, _, options = _COMMANDS[argv[0]]
    values = {"subcommand": argv[0], "func": func}
    declared, required = {}, set()
    for flag, kwargs in options:
        dest = flag.lstrip("-").replace("-", "_")
        store_true = kwargs.get("action") == "store_true"
        values[dest] = kwargs.get("default", False if store_true else None)
        declared[flag] = dest, kwargs, store_true
        if kwargs.get("required"):
            required.add(flag)
    tokens = iter(argv[1:])
    for flag in tokens:
        if not isinstance(flag, str) or flag not in declared:
            return None
        dest, kwargs, store_true = declared[flag]
        required.discard(flag)
        if store_true:
            values[dest] = True
            continue
        value = next(tokens, None)
        if not isinstance(value, str) or not value or value[0] == "-":
            return None
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except ValueError:
                return None
        choices = kwargs.get("choices")
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return None if required else SimpleNamespace(**values)


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="permutoehr",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (func, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process, built on the first argv that the option
    table declines rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_canonical(argv)
    if args is None:
        args = _shared_parser().parse_args(argv)
    args.started = time.monotonic()
    # An exact result may run past CPython's int-to-str digit limit, which
    # is lifted while the command runs (refusals state their counts by
    # errors._stated, not by str).
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        digits = sys.get_int_max_str_digits()
        set_digits(0)
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
    finally:
        if set_digits is not None:
            set_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
