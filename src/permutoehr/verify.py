"""Cross-verification harness.

Each check pits at least two independent routes against each other:
formula engines against one another, engines against brute-force lattice
point counts, enumerated structure counts against closed forms and
generating-function coefficients, and the two presentations of the
multigraph bijection against each other.  Everything is an exact equality
test; there are no tolerances anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import factorial

from . import ehrhart, graphs
from ._record import Record
from .errors import DEFAULT_GRAPH_BOUND, refuse_above_budget
from .polynomials import Poly
from .polytope import LATTICE_WORK, PartialPermutohedron

RANDOM_CASES = 50  # seeded random polynomials in the transfer check


class CheckResult(Record):
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def _verdict(name: str, bad: list, ok: str, failed: str = "mismatch at") -> CheckResult:
    """A check that passes with the detail ``ok`` when ``bad`` is empty, and
    fails naming the cases in ``bad`` otherwise."""
    return CheckResult(name, not bad, ok if not bad else f"{failed} " + ", ".join(bad))


def _grid(max_m: int):
    for m in range(1, max_m + 1):
        for off in (-1, 0, 1, 2):
            n = m + off
            if n >= 1:
                yield m, n


def check_engine_agreement(max_m: int = 4) -> list[CheckResult]:
    """Every engine against the closed form, over m <= max_m and
    n in {m-1, ..., m+2} (clipped to n >= 1).

    ``egf`` and ``egf-tree`` share one helper by design,
    ``ehrhart._exp_over_t``, the expansion of exp(w(u)/t) in 1/t: a fault
    there can reach both of their lines, so each is compared with
    ``closed``, never with the other."""
    others = ("postnikov", "graphsum", "egf", "egf-tree", "recurrence")
    mismatches: dict[str, list[str]] = {name: [] for name in others}
    cases = 0
    for m, n in _grid(max_m):
        cases += 1
        reference = ehrhart.ehrhart_closed(m, n)
        for name in others:
            if ehrhart.compute_ehrhart(m, n, name) != reference:
                mismatches[name].append(f"(m={m}, n={n})")
    return [
        _verdict(f"closed-vs-{name}", mismatches[name], f"{cases} cases agree")
        for name in others
    ]


def check_oracle_agreement(max_m: int = 4, max_t: int = 2) -> CheckResult:
    """Closed form evaluated at t against brute-force counts, each within
    the work budget, for m <= min(max_m, 4), n up to 4, t up to max_t."""
    bad = []
    cases = 0
    for m in range(1, min(max_m, 4) + 1):
        for n in range(max(1, m - 1), 5):
            poly = ehrhart.ehrhart_closed(m, n)
            poly_points = PartialPermutohedron(m, n)
            for t in range(1, max_t + 1):
                cases += 1
                if poly(t) != poly_points.count_lattice_points(t):
                    bad.append(f"(m={m}, n={n}, t={t})")
    return _verdict("closed-vs-brute-force", bad, f"{cases} counts match")


def check_volume(max_m: int = 4) -> CheckResult:
    """Leading Ehrhart coefficient, by the recurrence in m, against the
    closed volume formula: the recurrence reaches no closed-form code."""
    bad = []
    cases = 0
    for m in range(1, max_m + 1):
        for n in (m - 1, m, m + 1):
            if n < 1:
                continue
            cases += 1
            lead = ehrhart.ehrhart_recurrence(m, n).leading_coefficient
            if lead != ehrhart.volume_closed(m, n):
                bad.append(f"(m={m}, n={n})")
    return _verdict("volume-vs-leading-coefficient", bad, f"{cases} cases match")


def check_structure_counts(max_m: int = 5) -> list[CheckResult]:
    """The component DP's connected-graph counts, m <= max_m, against the
    closed forms m^(m-2), m^(m-1), (m-1) m^(m-2) and, for the simple
    unicyclic count, against m! [z^m] (-T/2 - T^2/4 - log sqrt(1 - T))."""
    bad_closed = []
    bad_series = []
    order = max(max_m, 1)
    tree = ehrhart.tree_function(order)
    tree_sq = tree * tree
    log_term = (-tree + 1).log()  # log(1 - T)
    quasi_series = tree * Fraction(-1, 2) + tree_sq * Fraction(-1, 4) + log_term * Fraction(-1, 2)
    for m in range(1, max_m + 1):
        counts = graphs.structure_counts(m)
        expected = (
            m ** (m - 2) if m >= 2 else 1,
            m ** (m - 1),
            (m - 1) * m ** (m - 2) if m >= 2 else 0,
        )
        if (counts.trees, counts.looped_trees, counts.enhanced_trees) != expected:
            bad_closed.append(f"m={m}")
        egf_quasi = quasi_series.coefficient(m) * factorial(m)
        if counts.quasitrees != egf_quasi:
            bad_series.append(f"m={m}")
    return [
        _verdict("structure-counts-closed-forms", bad_closed, f"m <= {max_m} match"),
        _verdict("quasitree-count-vs-series", bad_series, f"m <= {max_m} match"),
    ]


def check_bijection(max_m: int = 4) -> list[CheckResult]:
    """Round trip of the sequence/multigraph bijection on every graph with
    at most max_m vertices and equality of the two listings as sets, plus
    the Hall-vs-cycle equivalence over the extended multiplicity box."""
    bad_round = []
    for m in range(1, max_m + 1):
        listed = set()
        for graph in graphs.enumerate_graphs(m):
            listed.add((graph.loops, graph.pair_mult))
            if graphs.to_multigraph(graphs.from_multigraph(graph)) != graph:
                bad_round.append(f"m={m}")
                break
        else:
            if listed != {(s.loop, s.pair) for s in graphs.enumerate_sequences(m)}:
                bad_round.append(f"m={m} (the listings differ)")
    bad_equiv = []
    for m in range(1, min(max_m, 3) + 1):
        n_pairs = m * (m - 1) // 2
        for loop in product(range(3), repeat=m):
            for pair in product(range(4), repeat=n_pairs):
                seq = graphs._member(graphs.EdgeMultiplicities, m=m, loop=loop, pair=pair)
                graph = graphs._member(graphs.Multigraph, m=m, loops=loop, pair_mult=pair)
                if graphs.satisfies_hall(seq) != graphs.component_cycle_check(graph):
                    bad_equiv.append(f"m={m}, a={loop + pair}")
    return [
        _verdict("bijection-round-trip", bad_round, "identity on every graph", "failed at"),
        _verdict(
            "hall-vs-cycle-equivalence",
            bad_equiv[:5],
            "equivalent over the extended box",
            "diverge at",
        ),
    ]


def check_transfer_identity(seed: int = 0) -> CheckResult:
    """The tree-function coefficient identity for every monomial z^d with
    d, k <= 8 and for seeded random rational polynomials."""
    bad = []
    for d in range(9):
        f = Poly.monomial(d)
        for k in range(9):
            lhs, rhs = ehrhart.coefficient_transfer_check(f, k)
            if lhs != rhs:
                bad.append(f"z^{d}, k={k}")
    rng = random.Random(seed)
    for case in range(RANDOM_CASES):
        degree = rng.randint(0, 6)
        f = Poly(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)]
        )
        k = rng.randint(0, 8)
        lhs, rhs = ehrhart.coefficient_transfer_check(f, k)
        if lhs != rhs:
            bad.append(f"random case {case}")
    return _verdict(
        "tree-coefficient-transfer",
        bad[:5],
        f"monomials and {RANDOM_CASES} random polynomials agree",
    )


def run_all(max_m: int = 4, max_t: int = 2, seed: int = 0) -> list[CheckResult]:
    """Every check; its brute-force counts, census DPs and listings are
    bounded by the work budget."""
    if max_m < 1:
        raise ValueError("need max_m >= 1")
    if max_t < 1:
        raise ValueError("need max_t >= 1")
    cap = DEFAULT_GRAPH_BOUND - 1
    if max_m > cap:
        listed = graphs.graph_count(cap + 1)
        raise ValueError(
            f"max_m is capped at {cap} to keep the run short; at m={cap + 1} "
            f"the bijection check would list {listed:,} graphs and as many "
            "sequences"
        )
    # the oracle's largest count, the census DPs at the largest m a check
    # runs them at and the longest listing, each refused before any check runs
    work = PartialPermutohedron(min(max_m, 4), 4).count_work(max_t)
    refuse_above_budget(work, LATTICE_WORK)
    refuse_above_budget(graphs.hall_work(max_m), graphs.HALL_WORK)
    refuse_above_budget(graphs.component_work(max_m + 1), graphs.COMPONENT_WORK)
    refuse_above_budget(graphs.graph_count(max_m), "{} graphs")
    results = []
    results.extend(check_engine_agreement(max_m))
    results.append(check_oracle_agreement(max_m, max_t))
    results.append(check_volume(max_m))
    results.extend(check_structure_counts(max_m + 1))
    results.extend(check_bijection(max_m))
    results.append(check_transfer_identity(seed))
    return results
