"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single pass line once its criterion holds (visible
under ``pytest -s``); a failure surfaces as an ordinary assertion error
naming the offending case.  The m = 1 rows of the grids are clipped to
n >= 1, since P(m, n) is only defined for positive n.
"""

import random
from fractions import Fraction
from math import comb, factorial

from permutoehr.ehrhart import (
    coefficient_transfer_check,
    compute_ehrhart,
    ehrhart_closed,
    f_polynomial,
    f_polynomial_stable,
    tree_function,
    volume_closed,
)
from permutoehr.graphs import (
    EdgeMultiplicities,
    Multigraph,
    component_cycle_check,
    enumerate_graphs,
    enumerate_sequences,
    from_multigraph,
    satisfies_hall,
    structure_counts,
    to_multigraph,
)
from permutoehr.polynomials import Poly
from permutoehr.polytope import PartialPermutohedron


def _passed(number, detail):
    print(f"[acceptance] criterion {number}: PASS - {detail}")


def test_criterion_1_five_way_engine_agreement():
    methods = ("postnikov", "graphsum", "egf", "egf-tree", "recurrence")
    cases = 0
    for m in range(1, 7):
        for n in range(max(1, m - 1), m + 3):
            reference = ehrhart_closed(m, n)
            for method in methods:
                assert compute_ehrhart(m, n, method) == reference, (
                    f"{method} disagrees with the closed form at m={m}, n={n}"
                )
            cases += 1
    # the two combinatorial engines, on DPs that share no code: postnikov
    # up to m = 10, graphsum up to m = 12
    for m in range(1, 13):
        for n in (m - 1, m, m + 3):
            if n < 1:
                continue
            reference = ehrhart_closed(m, n)
            for method in ("postnikov", "graphsum") if m <= 10 else ("graphsum",):
                assert compute_ehrhart(m, n, method) == reference, (
                    f"{method} disagrees with the closed form at m={m}, n={n}"
                )
            cases += 1
    # the formula routes further out: integer closed sum, integer recurrence,
    # egf extraction in 1/t over z and over T(z) by Lagrange inversion
    for m in (12, 16, 36, 60, 100):
        for n in (m - 1, m, m + 5):
            reference = ehrhart_closed(m, n)
            for method in ("egf", "egf-tree", "recurrence"):
                assert compute_ehrhart(m, n, method) == reference, (
                    f"{method} disagrees with the closed form at m={m}, n={n}"
                )
            cases += 1
    _passed(
        1,
        f"six routes identical on {cases} (m, n) pairs up to m = 6, "
        "postnikov also up to m = 10 and graphsum up to m = 12, "
        "the formula routes at m = 12, 16, 36, 60, 100",
    )


def test_criterion_2_brute_force_oracle():
    checks = 0
    grid = [
        (m, n, t)
        for m in range(1, 7)
        for n in range(max(1, m - 1), max(5, m + 2))
        for t in (1, 2, 3)
    ]
    grid += [(7, n, t) for n in (6, 7) for t in (1, 2)]
    grid += [(m, n, t) for m in (8, 9, 10) for n in (m - 1, m) for t in (1, 2, 3)]
    for m, n, t in grid:
        count = PartialPermutohedron(m, n).count_lattice_points(t)
        assert ehrhart_closed(m, n)(t) == count, (
            f"count mismatch at m={m}, n={n}, t={t}"
        )
        checks += 1
    # anchored quadratic for m = 2
    for n in range(1, 5):
        anchored = Poly([1, 2 * n - Fraction(1, 2), n * n - Fraction(1, 2)])
        assert ehrhart_closed(2, n) == anchored
        polytope = PartialPermutohedron(2, n)
        for t in (1, 2, 3):
            assert anchored(t) == polytope.count_lattice_points(t)
            checks += 1
    _passed(2, f"{checks} exact lattice-point counts reproduced")


def test_criterion_3_volume_is_leading_coefficient():
    cases = 0
    for m in range(1, 7):
        for n in (m - 1, m, m + 1):
            if n < 1:
                continue
            assert ehrhart_closed(m, n).leading_coefficient == volume_closed(m, n), (
                f"volume mismatch at m={m}, n={n}"
            )
            cases += 1
    for n in range(1, 5):
        assert volume_closed(2, n) == n * n - Fraction(1, 2)
    _passed(3, f"volume equals the leading coefficient in {cases} cases")


def test_criterion_4_vertex_and_facet_counts():
    for m in range(1, 6):
        for n in range(1, 6):
            polytope = PartialPermutohedron(m, n)
            expected_vertices = sum(
                factorial(m) // factorial(m - i) for i in range(min(m, n) + 1)
            )
            expected_facets = m + sum(comb(m, i) for i in range(min(m, n)))
            assert len(list(polytope.vertices())) == expected_vertices, f"m={m}, n={n}"
            assert len(polytope.facets()) == expected_facets, f"m={m}, n={n}"
    _passed(4, "vertex and facet counts match the closed forms for m, n <= 5")


def test_criterion_5_structure_counts_vs_generating_functions():
    order = 7
    tree = tree_function(order)
    half_square = (tree * tree) * Fraction(1, 2)
    tree_series = tree - half_square
    quasi_series = (
        tree * Fraction(-1, 2)
        + (tree * tree) * Fraction(-1, 4)
        + (1 - tree).log() * Fraction(-1, 2)
    )
    for m in range(1, 8):
        counts = structure_counts(m)
        # closed forms
        assert counts.trees == (m ** (m - 2) if m >= 2 else 1), f"trees at m={m}"
        assert counts.looped_trees == m ** (m - 1), f"looped trees at m={m}"
        assert counts.enhanced_trees == (
            (m - 1) * m ** (m - 2) if m >= 2 else 0
        ), f"enhanced trees at m={m}"
        # exponential generating functions, coefficient by coefficient
        scale = factorial(m)
        assert counts.looped_trees == tree.coefficient(m) * scale
        assert counts.enhanced_trees == half_square.coefficient(m) * scale
        assert counts.trees == tree_series.coefficient(m) * scale
        assert counts.quasitrees == quasi_series.coefficient(m) * scale, (
            f"quasitrees at m={m}"
        )
    _passed(5, "enumerated structure counts match the closed forms and series to m = 7")


def test_criterion_6_bijection_and_hall_suites():
    for m in range(1, 5):
        graphs = list(enumerate_graphs(m))
        sequences = list(enumerate_sequences(m))
        assert len(graphs) == len(sequences)
        for graph in graphs:
            assert to_multigraph(from_multigraph(graph)) == graph
        for seq in sequences:
            assert from_multigraph(to_multigraph(seq)) == seq
    from itertools import product

    for m in range(1, 4):
        n_pairs = m * (m - 1) // 2
        for loop in product(range(3), repeat=m):
            for pair in product(range(4), repeat=n_pairs):
                hall = satisfies_hall(EdgeMultiplicities(m, loop, pair))
                cycle = component_cycle_check(Multigraph(m, loop, pair))
                assert hall == cycle, f"m={m}, a={loop + pair}"
    _passed(6, "bijection round-trips (m <= 4) and Hall/cycle equivalence (m <= 3)")


def test_criterion_7_tree_coefficient_identity():
    for d in range(9):
        for k in range(9):
            lhs, rhs = coefficient_transfer_check(Poly.monomial(d), k)
            assert lhs == rhs, f"monomial z^{d} at k={k}"
    rng = random.Random(20230405)
    for case in range(50):
        degree = rng.randint(0, 6)
        f = Poly(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)]
        )
        k = rng.randint(0, 8)
        lhs, rhs = coefficient_transfer_check(f, k)
        assert lhs == rhs, f"random case {case}"
    _passed(7, "identity holds for all monomials d, k <= 8 and 50 seeded polynomials")


def test_criterion_8_f_polynomials():
    assert f_polynomial(2, 1) == Poly([3, 3, 1])
    assert f_polynomial(2, 2) == Poly([5, 5, 1])
    assert f_polynomial_stable(2) == Poly([5, 5, 1])
    # f_polynomial sums integer lists; f_polynomial_stable composes Polys
    for m in range(1, 11):
        stable = f_polynomial_stable(m)
        for n in range(m, m + 4):
            assert f_polynomial(m, n) == stable, f"m={m}, n={n}"
    _passed(8, "triangle/pentagon anchors and n-independence for n >= m, m <= 10")


def test_criterion_9_parking_function_counts():
    # m = 1 would need P(1, 0), which sits outside the n >= 1 domain
    for m in range(2, 13):
        expected = PartialPermutohedron(m, m - 1).count_lattice_points(1)
        assert ehrhart_closed(m, m - 1)(1) == expected, f"m={m}"
    _passed(9, "integer points of the parking-function polytope for m = 2 .. 12")
