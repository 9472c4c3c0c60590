import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permutoehr.errors import BudgetError
from permutoehr.polytope import (
    PartialPermutohedron,
    count_parking_functions,
    summands_support_value,
)


def box_points(top, m):
    return product(range(top + 1), repeat=m)


def full_sum(m, n):
    """The most a point of P(m, n) may sum to: max(1, n - m + 1) + ... + n."""
    return sum(range(max(1, n - m + 1), n + 1))


def subset_form_contains(poly, t, x):
    """Literal facet-form membership oracle: every proper subset S with
    |S| <= min(m, n) - 1 is checked separately against n + (n - 1) + ...
    over |S| terms, plus the full sum.  It reads n, not the package's cap
    sequence, so that it stays a second side."""
    m, n = poly.m, poly.n
    if any(xi < 0 for xi in x):
        return False
    for k in range(1, min(m, n)):
        bound = t * sum(range(n - k + 1, n + 1))
        for subset in combinations(range(m), k):
            if sum(x[i] for i in subset) > bound:
                return False
    return sum(x) <= t * full_sum(m, n)


class TestVertices:
    def test_segment(self):
        assert list(PartialPermutohedron(1, 1).vertices()) == [(0,), (1,)]

    def test_pentagon(self):
        assert list(PartialPermutohedron(2, 2).vertices()) == [
            (0, 0),
            (0, 2),
            (1, 2),
            (2, 0),
            (2, 1),
        ]

    def test_triangle(self):
        assert list(PartialPermutohedron(2, 1).vertices()) == [(0, 0), (0, 1), (1, 0)]

    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_walk_is_the_sorted_box_filter(self, m, n):
        # the vectors of {0..n}^m whose nonzero entries are distinct and
        # are n, n - 1, ..., in the lexicographic order product gives
        expected = []
        for x in box_points(n, m):
            nonzero = sorted((xi for xi in x if xi), reverse=True)
            if nonzero == [n - r for r in range(len(nonzero))]:
                expected.append(x)
        assert list(PartialPermutohedron(m, n).vertices()) == expected

    @pytest.mark.parametrize("m", range(1, 8))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_walk_is_increasing_and_counted(self, m, n):
        poly = PartialPermutohedron(m, n)
        vertices = list(poly.vertices())
        assert all(a < b for a, b in zip(vertices, vertices[1:]))
        assert len(vertices) == poly.vertex_count()

    def test_walk_of_a_long_vector(self):
        # few nonzero entries: the walk skips runs of zeros
        m = 1000
        vertices = list(PartialPermutohedron(m, 1).vertices())
        assert vertices == [(0,) * m] + [
            (0,) * p + (1,) + (0,) * (m - p - 1) for p in range(m - 1, -1, -1)
        ]

    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_count_formula(self, m, n):
        poly = PartialPermutohedron(m, n)
        vertices = list(poly.vertices())
        expected = sum(comb(m, i) * factorial(i) for i in range(min(m, n) + 1))
        assert len(vertices) == expected
        assert poly.vertex_count() == expected

    @pytest.mark.parametrize("m", range(1, 5))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_vertices_are_exactly_the_described_points(self, m, n):
        poly = PartialPermutohedron(m, n)
        vertices = set(poly.vertices())
        facets = poly.facets()
        for v in vertices:
            assert all(f.satisfied(v) for f in facets)
        # every box point in the polytope whose nonzero entries are the
        # distinct top values n, n-1, ... must be a vertex, and nothing else
        reconstructed = set()
        for x in box_points(n, m):
            if not all(f.satisfied(x) for f in facets):
                continue
            nonzero = sorted((xi for xi in x if xi), reverse=True)
            if len(set(nonzero)) != len(nonzero):
                continue
            if nonzero == [n - r for r in range(len(nonzero))]:
                reconstructed.add(x)
        assert reconstructed == vertices


class TestCountsWithoutEnumerating:
    @pytest.mark.parametrize("m", range(1, 41, 3))
    def test_counts_equal_the_step_by_step_sums(self, m):
        for n in range(1, 45, 2):  # n < m, n = m +- 1 and n > m
            poly = PartialPermutohedron(m, n)
            vertices = facets = 0
            falling = 1
            for i in range(min(m, n) + 1):
                vertices += falling
                falling *= m - i
                if i < min(m, n):
                    facets += comb(m, i)
            assert poly.vertex_count() == vertices
            assert poly.facet_count() == m + facets


class TestFacets:
    def test_triangle_inequalities(self):
        facets = PartialPermutohedron(2, 1).facets()
        as_tuples = {(f.coeffs, f.sense, f.bound) for f in facets}
        assert as_tuples == {
            ((1, 0), ">=", 0),
            ((0, 1), ">=", 0),
            ((1, 1), "<=", 1),
        }

    def test_pentagon_inequalities(self):
        facets = PartialPermutohedron(2, 2).facets()
        as_tuples = {(f.coeffs, f.sense, f.bound) for f in facets}
        assert as_tuples == {
            ((1, 0), ">=", 0),
            ((0, 1), ">=", 0),
            ((1, 0), "<=", 2),
            ((0, 1), "<=", 2),
            ((1, 1), "<=", 3),
        }

    def test_count_formula_m3_n3(self):
        assert PartialPermutohedron(3, 3).facet_count() == 10
        assert len(PartialPermutohedron(3, 3).facets()) == 10

    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_count_formula(self, m, n):
        poly = PartialPermutohedron(m, n)
        expected = m + sum(comb(m, i) for i in range(min(m, n)))
        assert len(poly.facets()) == expected
        assert poly.facet_count() == expected

    @pytest.mark.parametrize("m", range(1, 5))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_simplicity(self, m, n):
        poly = PartialPermutohedron(m, n)
        facets = poly.facets()
        for v in poly.vertices():
            assert sum(1 for f in facets if f.value(v) == f.bound) == m

    def test_str(self):
        rendered = {str(f) for f in PartialPermutohedron(2, 1).facets()}
        assert rendered == {"x1 >= 0", "x2 >= 0", "x1 + x2 <= 1"}


class TestContains:
    def test_examples(self):
        assert not PartialPermutohedron(2, 1).contains((1, 1), t=1)
        assert PartialPermutohedron(2, 2).contains((2, 1), t=1)
        assert PartialPermutohedron(3, 2).contains((4, 2, 0), t=2)

    def test_negative_coordinates(self):
        assert not PartialPermutohedron(2, 2).contains((-1, 0))

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            PartialPermutohedron(2, 2).contains((1, 1, 1))

    @pytest.mark.parametrize("t", (1.5, 1.0, True, False, "1", None, -1))
    def test_rejects_bad_dilation(self, t):
        # as lift does, and a negative t
        poly = PartialPermutohedron(2, 1)
        with pytest.raises(ValueError, match="t must be an integer"):
            poly.contains((1, 1), t)
        if t != -1:
            with pytest.raises(ValueError, match="t must be an integer"):
                poly.lift((1, 1), t)

    def test_zero_dilate_is_the_origin(self):
        poly = PartialPermutohedron(2, 1)
        assert poly.contains((0, 0), 0)
        assert not poly.contains((1, 0), 0)

    @pytest.mark.parametrize("x", ((0.5, 0), (True, 0), (Fraction(1, 2), 0)))
    def test_rejects_non_integer_entries(self, x):
        # as lift does: each of these lies in P(2, 1) as a real point
        with pytest.raises(ValueError, match=r"x\[0\] must be an integer"):
            PartialPermutohedron(2, 1).contains(x)

    @pytest.mark.parametrize("m", range(1, 5))
    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("t", (1, 2))
    def test_sorted_prefix_matches_subset_form(self, m, n, t):
        poly = PartialPermutohedron(m, n)
        for x in box_points(t * n, m):
            assert poly.contains(x, t) == subset_form_contains(poly, t, x)


class TestCounting:
    def test_triangle(self):
        assert PartialPermutohedron(2, 1).count_lattice_points(1) == 3

    def test_pentagon_matches_quadratic(self):
        # (n^2 - 1/2) t^2 + (2n - 1/2) t + 1 at n = 2, t = 1
        assert PartialPermutohedron(2, 2).count_lattice_points(1) == 8

    def test_segment_dilate(self):
        assert PartialPermutohedron(1, 3).count_lattice_points(2) == 7

    @pytest.mark.parametrize("m", range(1, 5))
    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("t", (1, 2))
    def test_against_box_filter(self, m, n, t):
        poly = PartialPermutohedron(m, n)
        expected = sum(
            1 for x in box_points(t * n, m) if subset_form_contains(poly, t, x)
        )
        assert poly.count_lattice_points(t) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
    )
    def test_against_box_filter_everywhere(self, m, n, t):
        # any n, below the formulas' n >= m - 1 included, in a small box
        assume((t * n + 1) ** m <= 2500)
        poly = PartialPermutohedron(m, n)
        expected = sum(
            1 for x in box_points(t * n, m) if subset_form_contains(poly, t, x)
        )
        assert poly.count_lattice_points(t) == expected

    @pytest.mark.parametrize("m", range(1, 11))
    def test_standard_simplex(self, m):
        # P(m, 1) is the standard simplex, with C(t + m, m) points in t*P
        poly = PartialPermutohedron(m, 1)
        for t in range(1, 6):
            assert poly.count_lattice_points(t) == comb(t + m, m)

    def test_budget_guard(self, monkeypatch):
        # the DP's work bound at (4, 4, 2) is 3360, one above this budget
        monkeypatch.setenv("PERMUTOEHR_BUDGET", "3359")
        with pytest.raises(BudgetError):
            PartialPermutohedron(4, 4).count_lattice_points(2)

    def test_budget_message_states_the_work(self, monkeypatch):
        # values t*n = 8, states (K + 1)(S + 1) = 5 * 21 with S = 2 * 10 the
        # dilated full sum and K = min(m, S) = 4, run lengths K = 4
        monkeypatch.setenv("PERMUTOEHR_BUDGET", "100")
        with pytest.raises(
            BudgetError,
            match=r"values\*states\*run lengths tn\*\(K\+1\)\(S\+1\)\*K = 3360 "
            r"exceeds budget 100",
        ):
            PartialPermutohedron(4, 4).count_lattice_points(2)
        monkeypatch.setenv("PERMUTOEHR_BUDGET", "3360")
        assert PartialPermutohedron(4, 4).count_lattice_points(2) > 0

    def test_long_vector_few_nonzero_entries(self, monkeypatch):
        # the DP's states follow the nonzero entries (at most one here),
        # not m, so its work bound is 1 * 2 * 2 * 1 = 4
        monkeypatch.setenv("PERMUTOEHR_BUDGET", "4")
        assert PartialPermutohedron(100000, 1).count_lattice_points(1) == 100001

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            PartialPermutohedron(2, 2).count_lattice_points(0)

    @pytest.mark.parametrize("t", (True, 1.5, 2.0, "2", None))
    def test_rejects_non_integer_t(self, t):
        with pytest.raises(ValueError):
            PartialPermutohedron(2, 2).count_lattice_points(t)


class TestLift:
    def test_examples(self):
        assert PartialPermutohedron(2, 2).lift((2, 1)) == (2, 1, 0)
        assert PartialPermutohedron(2, 2).lift((0, 0)) == (0, 0, 3)
        assert PartialPermutohedron(3, 2).lift((0, 0, 0)) == (0, 0, 0, 3)

    @pytest.mark.parametrize("m", range(1, 4))
    @pytest.mark.parametrize("t", (1, 2))
    def test_lifted_points_cover_the_hyperplane_slice(self, m, t):
        for n in range(max(1, m - 1), m + 2):
            poly = PartialPermutohedron(m, n)
            constant = t * full_sum(m, n)
            lifted = set()
            for x in box_points(t * n, m):
                if poly.contains(x, t):
                    y = poly.lift(x, t)
                    assert sum(y) == constant
                    assert all(c >= 0 for c in y)
                    lifted.add(y)
            # independent recount: integer points of the box slice whose
            # first m coordinates land in the dilate
            sliced = 0
            for y in box_points(constant, m + 1):
                if sum(y) == constant and poly.contains(y[:m], t):
                    sliced += 1
            assert sliced == len(lifted) == poly.count_lattice_points(t)

    @pytest.mark.parametrize(
        "x, t", (((0.5, 0.5), 1), ((1, True), 1), ((1, 1), 2.5), ((1, 1), True), (("1", 1), 1))
    )
    def test_rejects_non_integer_entries_and_t(self, x, t):
        with pytest.raises(ValueError, match="must be an integer"):
            PartialPermutohedron(2, 2).lift(x, t)


class TestTwoSides:
    """The facet side reads the cap sequence z, the vertex side reads n:
    with every facet-side name refused, the vertex side still computes."""

    FACET_SIDE = ("cap", "facets", "facet_count", "contains", "count_work",
                  "count_lattice_points", "lift")

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("the vertex side reached the facet side")

    def test_vertex_side_reads_no_cap(self, monkeypatch):
        rng = random.Random(6000)
        cells = {}
        for m, n in product(range(1, 6), range(1, 7)):
            poly = PartialPermutohedron(m, n)
            directions = [tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(20)]
            cells[m, n] = directions, (
                list(poly.vertices()),
                poly.vertex_count(),
                [poly.support_value(d) for d in directions],
            )
        for name in self.FACET_SIDE:
            monkeypatch.setattr(PartialPermutohedron, name, self.refuse)
        # a cached property is read, not called
        monkeypatch.setattr(PartialPermutohedron, "caps", property(self.refuse))
        with pytest.raises(AssertionError):
            PartialPermutohedron(2, 2).caps
        for (m, n), (directions, expected) in cells.items():
            poly = PartialPermutohedron(m, n)
            assert (
                list(poly.vertices()),
                poly.vertex_count(),
                [poly.support_value(d) for d in directions],
            ) == expected


class TestMinkowski:
    def test_triangle_decomposition(self):
        summands = PartialPermutohedron(2, 1).minkowski_summands()
        segments = [s for s in summands if len(s[1]) == 2]
        triangles = [s for s in summands if len(s[1]) == 3]
        assert [c for c, _ in segments] == [0, 0]
        assert [c for c, _ in triangles] == [1]

    def test_segment_coefficient_grows_with_n(self):
        summands = PartialPermutohedron(2, 3).minkowski_summands()
        segments = [s for s in summands if len(s[1]) == 2]
        assert [c for c, _ in segments] == [2, 2]
        assert sum(1 for s in summands if len(s[1]) == 3) == 1

    def test_m3_n2(self):
        summands = PartialPermutohedron(3, 2).minkowski_summands()
        segments = [s for s in summands if len(s[1]) == 2]
        triangles = [s for s in summands if len(s[1]) == 3]
        assert len(segments) == 3 and all(c == 0 for c, _ in segments)
        assert len(triangles) == 3 and all(c == 1 for c, _ in triangles)

    def test_rejects_below_domain(self):
        with pytest.raises(ValueError):
            PartialPermutohedron(3, 1).minkowski_summands()

    def test_support_examples(self):
        poly = PartialPermutohedron(2, 2)
        assert poly.support_value((1, 1)) == 3
        assert poly.support_value((1, 0)) == 2
        assert poly.support_value((-1, -1)) == 0

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_support_additivity(self, m):
        rng = random.Random(4000 + m)
        for n in range(max(1, m - 1), m + 2):
            poly = PartialPermutohedron(m, n)
            summands = poly.minkowski_summands()
            for _ in range(200):
                direction = tuple(rng.randint(-5, 5) for _ in range(m))
                assert poly.support_value(direction) == summands_support_value(
                    summands, direction
                )

    @pytest.mark.parametrize("m", range(1, 6))
    def test_support_is_the_vertex_maximum(self, m):
        # zero, negative and tied entries included, n below, at and above m
        rng = random.Random(5000 + m)
        for n in range(1, 7):
            poly = PartialPermutohedron(m, n)
            vertices = list(poly.vertices())
            for _ in range(150):
                direction = tuple(rng.randint(-4, 4) for _ in range(m))
                assert poly.support_value(direction) == max(
                    sum(d * vi for d, vi in zip(direction, v)) for v in vertices
                ), (m, n, direction)

    @pytest.mark.parametrize("direction", ((0.5, 1), (1, True), (1.0, 1), ("1", 1)))
    def test_support_rejects_non_integer_directions(self, direction):
        poly = PartialPermutohedron(2, 2)
        with pytest.raises(ValueError, match="must be an integer"):
            poly.support_value(direction)
        with pytest.raises(ValueError, match="must be an integer"):
            summands_support_value(poly.minkowski_summands(), direction)


class TestValidation:
    def test_descriptor_bounds(self):
        with pytest.raises(ValueError):
            PartialPermutohedron(0, 1)
        with pytest.raises(ValueError):
            PartialPermutohedron(1, 0)

    @pytest.mark.parametrize("m, n", [(True, 2), (2, True), (True, True), (2.0, 2)])
    def test_rejects_bool_and_non_integer_descriptors(self, m, n):
        with pytest.raises(ValueError):
            PartialPermutohedron(m, n)


class TestParkingCount:
    def test_small_values(self):
        # length 2: exactly the three parking functions (1,1), (1,2), (2,1)
        assert count_parking_functions(2) == 3
        # length 3: the 16 parking functions plus the interior point (2,2,2)
        assert count_parking_functions(3) == 17

    def test_rejects_m1(self):
        with pytest.raises(ValueError):
            count_parking_functions(1)
