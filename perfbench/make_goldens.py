"""Generate ``goldens.json``: the expected output of every cell the seeded
workloads can draw, each cross-checked by an independent route.

    python3 perfbench/make_goldens.py

Cross-checks (the script stops at the first disagreement):

* Ehrhart polynomials: closed, recurrence and egf agree on (m, n);
  the golden is the CLI's ``--method closed`` output for that cell;
* volume: equals the leading Ehrhart coefficient;
* face-count polynomial: f(0) is the vertex count, f(-1) = 1 (Euler),
  and for n >= m it equals the stable form;
* census: its weighted sum is the closed Ehrhart polynomial at n = m;
* structure counts: m^(m-2), m^(m-1), (m-1) m^(m-2) and the labelled
  unicyclic count sum_k C(m, k) (k-1)!/2 * k m^(m-k-1);
* lattice and parking counts: ehrhart_closed(m, n)(t);
* contains pools: the answers of the ``facets()`` inequalities;
* verify: every line PASS, exit code 0, the same text for every seed.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class CrossCheckError(RuntimeError):
    pass


def require(condition: bool, what: str) -> None:
    if not condition:
        raise CrossCheckError(what)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads as wl
    from permutoehr import ehrhart as eh
    from permutoehr import graphs
    from permutoehr.polynomials import Poly
    from permutoehr.polytope import PartialPermutohedron

    agreed: dict[tuple[int, int], Poly] = {}

    def ehrhart_poly(m, n):
        if (m, n) not in agreed:
            closed = eh.ehrhart_closed(m, n)
            require(eh.ehrhart_recurrence(m, n) == closed, f"recurrence != closed at ({m}, {n})")
            require(eh.ehrhart_egf(m, n) == closed, f"egf != closed at ({m}, {n})")
            agreed[(m, n)] = closed
        return agreed[(m, n)]

    def cli_text(argv):
        code, text, _ = wl.run_cli(argv)
        require(code == 0, f"{' '.join(argv)}: exit code {code}")
        return text

    def opt(argv, name):
        return int(argv[argv.index(name) + 1])

    cells: dict[str, str] = {}
    pool_digests: dict[str, str] = {}
    verify_texts = set()
    for workload in wl.WORKLOADS:
        for req in wl.all_cells(workload):
            if req.kind == "structure_counts":
                m = req.args[0]
                counts = graphs.structure_counts(m)
                unicyclic = sum(
                    Fraction(comb(m, k) * factorial(k - 1), 2) * k * Fraction(m) ** (m - k - 1)
                    for k in range(3, m + 1)
                )
                require(
                    tuple(counts) == (m ** (m - 2), m ** (m - 1), (m - 1) * m ** (m - 2), unicyclic),
                    f"structure counts at m={m}",
                )
                cells[req.cell] = wl.digest(wl.structure_text(counts))
                continue
            if req.kind == "contains":
                m, n, t, _ = req.args
                points = wl.pool_points(m, n, t)
                facets = PartialPermutohedron(m, n).facets()
                bits = "".join("1" if all(f.satisfied(x, t) for f in facets) else "0" for x in points)
                cells[req.cell] = bits
                pool_digests[req.cell] = wl.pool_digest(points)
                continue
            argv = list(req.args)
            command = argv[0]
            if command == "ehrhart":
                m, n = opt(argv, "--m"), opt(argv, "--n")
                poly = ehrhart_poly(m, n)
                closed_argv = argv[:]
                closed_argv[closed_argv.index("--method") + 1] = "closed"
                text = cli_text(closed_argv)
                require(text.splitlines()[0] == str(poly), f"{req.cell}: printed polynomial")
            elif command == "volume":
                m, n = opt(argv, "--m"), opt(argv, "--n")
                text = cli_text(argv)
                require(
                    Fraction(text.strip()) == ehrhart_poly(m, n).leading_coefficient,
                    f"{req.cell}: volume vs leading coefficient",
                )
            elif command == "fpoly":
                m, n = opt(argv, "--m"), opt(argv, "--n")
                text = cli_text(argv)
                f = eh.f_polynomial(m, n)
                require(text.strip() == str(f), f"{req.cell}: printed polynomial")
                require(f(0) == PartialPermutohedron(m, n).vertex_count(), f"{req.cell}: f(0)")
                require(f(-1) == 1, f"{req.cell}: Euler characteristic")
                if n >= m:
                    require(f == eh.f_polynomial_stable(m, n), f"{req.cell}: stable form")
            elif command == "graphs":
                m = opt(argv, "--m")
                text = cli_text(argv)
                weights = (Poly([0, 1]), Poly([0, 1]), Poly([0, Fraction(1, 2), Fraction(1, 2)]))
                total = Poly()
                for stats, count in graphs.graph_census(m).items():
                    term = Poly([count])
                    for w, e in zip(weights, stats):
                        term = term * w**e
                    total = total + term
                require(total == ehrhart_poly(m, m), f"{req.cell}: census weights vs closed form")
                require(
                    text.splitlines()[-1] == f"total: {sum(graphs.graph_census(m).values())}",
                    f"{req.cell}: printed total",
                )
            elif command == "count-points":
                m, n, t = opt(argv, "--m"), opt(argv, "--n"), opt(argv, "--t")
                text = cli_text(argv)
                require(int(text) == ehrhart_poly(m, n)(t), f"{req.cell}: count vs closed form")
            elif command == "parking":
                m = opt(argv, "--m")
                text = cli_text(argv)
                require(int(text) == ehrhart_poly(m, m - 1)(1), f"{req.cell}: count vs closed form")
            elif command == "verify":
                text = cli_text(argv)
                lines = text.splitlines()
                require(all(line.startswith("PASS ") for line in lines[:-1]), f"{req.cell}: a check failed")
                require(lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed", f"{req.cell}: summary")
                verify_texts.add(text)
            else:
                raise CrossCheckError(f"no cross-check for {req.cell}")
            cells[req.cell] = wl.digest(text)
    require(len(verify_texts) == 1, "verify output depends on the seed")

    out = {
        "source_sha256": wl.source_digest(ROOT),
        "cells": dict(sorted(cells.items())),
        "pool_digests": dict(sorted(pool_digests.items())),
    }
    with open(wl.GOLDENS_PATH, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(cells)} cells to {wl.GOLDENS_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
