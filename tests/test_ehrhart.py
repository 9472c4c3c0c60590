from fractions import Fraction
from math import comb, factorial

import pytest

from permutoehr.ehrhart import (
    EhrhartResult,
    coefficient_transfer_check,
    compute_ehrhart,
    ehrhart_closed,
    ehrhart_egf,
    ehrhart_egf_tree,
    ehrhart_graphsum,
    ehrhart_postnikov,
    ehrhart_recurrence,
    f_polynomial,
    f_polynomial_stable,
    tree_function,
    volume_closed,
)
from permutoehr import ehrhart, graphs
from permutoehr.errors import BudgetError
from permutoehr.graphs import graph_census, sequence_census, structure_counts
from permutoehr.polynomials import Poly, convolve, double_factorial, eulerian, rising_binomial
from permutoehr.polytope import PartialPermutohedron, count_parking_functions

T = Poly([0, 1])

ENGINES = (
    ehrhart_closed,
    ehrhart_postnikov,
    ehrhart_graphsum,
    ehrhart_egf,
    ehrhart_egf_tree,
    ehrhart_recurrence,
)


def pentagon_family(n):
    """The explicit quadratic for m = 2: (n^2 - 1/2) t^2 + (2n - 1/2) t + 1."""
    return Poly([1, 2 * n - Fraction(1, 2), n * n - Fraction(1, 2)])


def lagrange_interpolate(points):
    """Exact Lagrange interpolation oracle: points are (x, y) pairs."""
    total = Poly()
    for i, (xi, yi) in enumerate(points):
        basis = Poly([1])
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = basis * Poly([-xj, 1]) * Fraction(1, xi - xj)
        total = total + basis * yi
    return total


class TestClosedForm:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_segment(self, n):
        assert ehrhart_closed(1, n) == Poly([1, n])

    @pytest.mark.parametrize("n", range(1, 5))
    def test_pentagon_family(self, n):
        assert ehrhart_closed(2, n) == pentagon_family(n)

    def test_matches_count_at_triangle(self):
        assert ehrhart_closed(2, 1)(1) == PartialPermutohedron(2, 1).count_lattice_points(1)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            ehrhart_closed(3, 1)
        with pytest.raises(ValueError):
            ehrhart_closed(0, 1)
        with pytest.raises(ValueError):
            ehrhart_closed(2, 0)


NON_INTEGER_DESCRIPTORS = ((True, True), (True, 2), (2, False), (2.0, 2), (2, Fraction(2)), ("2", 2))


class TestInputTypes:
    @pytest.mark.parametrize("m, n", NON_INTEGER_DESCRIPTORS)
    @pytest.mark.parametrize("entry", ENGINES + (volume_closed, f_polynomial))
    def test_engines_reject_non_integer_m_n(self, entry, m, n):
        with pytest.raises(ValueError, match="must be an integer"):
            entry(m, n)

    @pytest.mark.parametrize("m, n", NON_INTEGER_DESCRIPTORS)
    def test_stable_f_polynomial_rejects_non_integer_m_n(self, m, n):
        with pytest.raises(ValueError, match="must be an integer"):
            f_polynomial_stable(m, n)

    @pytest.mark.parametrize("m", (True, 2.0, Fraction(2), "2"))
    def test_stable_f_polynomial_rejects_non_integer_m(self, m):
        with pytest.raises(ValueError, match="must be an integer"):
            f_polynomial_stable(m)

    @pytest.mark.parametrize("value", (True, 2.0, "2"))
    @pytest.mark.parametrize(
        "entry",
        (
            count_parking_functions,
            eulerian,
            double_factorial,
            lambda a: rising_binomial(T, a),
            Poly.monomial,
            lambda m: PartialPermutohedron(m, 3),
            lambda n: PartialPermutohedron(3, n),
            lambda t: PartialPermutohedron(3, 3).count_lattice_points(t),
            graph_census,
        ),
        ids=(
            "count_parking_functions", "eulerian", "double_factorial", "rising_binomial",
            "Poly.monomial", "PartialPermutohedron-m", "PartialPermutohedron-n",
            "count_lattice_points", "graph_census",
        ),
    )
    def test_integer_arguments_reject_bool_float_and_str(self, entry, value):
        # the type check comes before every domain check
        with pytest.raises(ValueError, match="must be an integer, got"):
            entry(value)


class TestPostnikovSum:
    def test_m2_n2(self):
        assert ehrhart_postnikov(2, 2) == Poly([1, Fraction(7, 2), Fraction(7, 2)])

    def test_m1_n1_two_terms(self):
        # a = (0) contributes 1, a = (1) contributes (n - m + 1) t = t
        assert ehrhart_postnikov(1, 1) == Poly([1, 1])

    def test_m2_n1_loop_terms_vanish(self):
        # only the loop-free sequences survive: 1 + t + t(t+1)/2
        expected = Poly([1]) + T + rising_binomial(T, 2)
        assert ehrhart_postnikov(2, 1) == expected


class TestGraphSum:
    def test_m1_n3(self):
        # edgeless graph weighs 1, the loop graph weighs (n - m + 1) t = 3t
        assert ehrhart_graphsum(1, 3) == Poly([1, 3])

    def test_m3_n2_matches_closed(self):
        assert ehrhart_graphsum(3, 2) == ehrhart_closed(3, 2)

    def test_weight_bijection_with_postnikov(self):
        assert ehrhart_graphsum(2, 2) == ehrhart_postnikov(2, 2)


class TestTreeFunction:
    def test_first_coefficients(self):
        tree = tree_function(5)
        assert tree.coefficient(0) == 0
        assert tree.coefficient(1) == 1
        assert tree.coefficient(2) == 1
        assert tree.coefficient(3) == Fraction(3, 2)
        assert tree.coefficient(4) == Fraction(8, 3)

    def test_functional_equation(self):
        # T = z exp(T) to order 10
        order = 10
        tree = tree_function(order)
        z = Poly([0, 1])
        from permutoehr.series import TruncatedSeries

        z_series = TruncatedSeries.from_poly(z, order)
        assert tree == z_series * tree.exp()

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            tree_function(0)

    @pytest.mark.parametrize("order", (True, 2.0, Fraction(2), "2"))
    def test_rejects_non_integer_order(self, order):
        with pytest.raises(ValueError, match="must be an integer"):
            tree_function(order)


class TestEgf:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_segment(self, n):
        assert ehrhart_egf(1, n) == Poly([1, n])

    def test_m2_n2(self):
        assert ehrhart_egf(2, 2) == Poly([1, Fraction(7, 2), Fraction(7, 2)])

    @pytest.mark.parametrize("m", range(1, 6))
    def test_tree_route_agrees(self, m):
        for n in (m - 1, m, m + 2):
            if n < 1:
                continue
            assert ehrhart_egf_tree(m, n) == ehrhart_closed(m, n)


class TestRecurrence:
    def test_seed_values(self):
        assert ehrhart_recurrence(3, 2) == ehrhart_closed(3, 2)
        assert ehrhart_recurrence(1, 4) == ehrhart_closed(1, 4)

    def test_m4_n3(self):
        assert ehrhart_recurrence(4, 3) == ehrhart_closed(4, 3)

    def test_m5_n5(self):
        assert ehrhart_recurrence(5, 5) == ehrhart_closed(5, 5)

    def test_reaches_no_closed_form_code(self, monkeypatch):
        # started from E(0) = 1, the recurrence has no closed-form seeds, so
        # a wrong closed sum cannot reach both sides of their comparison
        expected = {m: ehrhart_closed(m, m + 1) for m in range(1, 7)}
        monkeypatch.setattr(ehrhart, "ehrhart_closed", _refuse)
        monkeypatch.setattr(ehrhart, "double_factorial", _refuse)
        for m, poly in expected.items():
            assert ehrhart_recurrence(m, m + 1) == poly


class TestVolume:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_segment_length(self, n):
        assert volume_closed(1, n) == n

    def test_unit_right_triangle(self):
        assert volume_closed(2, 1) == Fraction(1, 2)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_pentagon_area(self, n):
        assert volume_closed(2, n) == n * n - Fraction(1, 2)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_leading_coefficient(self, m):
        for n in (m - 1, m, m + 1):
            if n < 1:
                continue
            assert ehrhart_closed(m, n).leading_coefficient == volume_closed(m, n)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            volume_closed(3, 1)


class TestFPolynomial:
    def test_triangle(self):
        assert f_polynomial(2, 1) == Poly([3, 3, 1])

    def test_pentagon(self):
        assert f_polynomial(2, 2) == Poly([5, 5, 1])

    def test_stable_matches(self):
        assert f_polynomial_stable(2) == Poly([5, 5, 1])
        assert f_polynomial_stable(1) == Poly([2, 1])

    @pytest.mark.parametrize("m", range(1, 4))
    def test_constant_term_counts_vertices(self, m):
        for n in range(1, m + 3):
            assert f_polynomial(m, n).coefficient(0) == PartialPermutohedron(
                m, n
            ).vertex_count()

    @pytest.mark.parametrize("m", range(1, 5))
    def test_n_independence_above_m(self, m):
        stable = f_polynomial_stable(m)
        for n in range(m, m + 4):
            assert f_polynomial(m, n) == stable
            assert f_polynomial_stable(m, n) == stable

    def test_below_m_differs_and_stable_rejects(self):
        assert f_polynomial(2, 1) != f_polynomial_stable(2)
        with pytest.raises(ValueError):
            f_polynomial_stable(2, 1)

    def test_top_coefficient_is_one(self):
        for m, n in ((1, 1), (2, 3), (3, 2), (4, 4)):
            assert f_polynomial(m, n).leading_coefficient == 1
            assert f_polynomial(m, n).degree == m


def reference_closed(m, n):
    """The closed form's double sum over (i, j), one multinomial term times
    a stored power of the base 2 + (2n+1)t at a time."""
    base_pow = [[1]]
    for _ in range(m):
        base_pow.append(convolve(base_pow[-1], [2, 2 * n + 1]))
    total = [0] * (m + 1)
    for i in range(m // 2 + 1):
        for j in range(2 * i, m + 1):
            multinom = factorial(m) // (
                factorial(m - j) * factorial(j - 2 * i) * factorial(i) ** 2
            )
            scalar = (
                (-1) ** (i + 1)
                * multinom
                * factorial(i)
                * double_factorial(2 * (j - 2 * i) - 3)
            )
            for k, c in enumerate(base_pow[m - j], start=j - i):
                total[k] += scalar * c
    return Poly([Fraction(c, 2**m) for c in total])


def reference_f_polynomial(m, n):
    """1 + sum_{i<n} C(m, i) A_i(t+1) sum_{j=1..m-i} (t+1)^j, term by term,
    with each A_i(t+1) the Eulerian polynomial shifted by binomials."""
    total = [1] + [0] * m
    for i in range(min(n, m + 1)):
        eulerian_coeffs = eulerian(i).nums
        shifted = [
            sum(a * comb(k, r) for k, a in enumerate(eulerian_coeffs))
            for r in range(len(eulerian_coeffs))
        ]
        geometric = [comb(m - i + 1, r + 1) for r in range(m - i + 1)]
        geometric[0] -= 1
        for r, c in enumerate(convolve(shifted, geometric)):
            total[r] += comb(m, i) * c
    return Poly(total)


def reference_graphsum(m, n):
    """The edge-weighted sum over the multigraph census in ``Poly``, one
    product of powers of the three edge weights per census entry."""
    loop_w = Poly([0, n - m + 1])
    single_w = Poly([0, 1])
    double_w = Poly([0, Fraction(1, 2), Fraction(1, 2)])  # t(t+1)/2
    total = Poly()
    for (loops, single, doubled), count in graph_census(m).items():
        total = total + loop_w**loops * single_w**single * double_w**doubled * count
    return total


def reference_postnikov(m, n):
    """The sum over the Hall-feasible sequence census in ``Poly``, one
    product of rising binomials per census entry."""
    loop_factor = [rising_binomial(Poly([0, n - m + 1]), a) for a in range(2)]
    pair_factor = [rising_binomial(T, a) for a in range(3)]
    total = Poly()
    for (loop_mults, pair_mults), count in sequence_census(m).items():
        term = Poly([count])
        for a in loop_mults:
            term = term * loop_factor[a]
        for a in pair_mults:
            term = term * pair_factor[a]
        total = total + term
    return total


def combinatorial_cells(m):
    """n in {m - 1, m, m + 1, m + 5, m + 20}, clipped to n >= 1; the large n
    make k = n - m + 1 large."""
    return [n for n in (m - 1, m, m + 1, m + 5, m + 20) if n >= 1]


class TestAgainstTermByTermSums:
    """The Horner, ordered-set-partition and integer census forms against
    the sums they regroup, evaluated term by term."""

    @pytest.mark.parametrize("m", range(1, 61))
    def test_closed(self, m):
        for n in (m - 1, m, m + 1, m + 5):
            if n >= 1:
                assert ehrhart_closed(m, n) == reference_closed(m, n)

    @pytest.mark.parametrize("m", range(1, 31))
    def test_f_polynomial(self, m):
        for n in range(1, m + 4):
            assert f_polynomial(m, n) == reference_f_polynomial(m, n)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_graphsum(self, m):
        for n in combinatorial_cells(m):
            assert ehrhart_graphsum(m, n) == reference_graphsum(m, n)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_postnikov(self, m):
        for n in combinatorial_cells(m):
            assert ehrhart_postnikov(m, n) == reference_postnikov(m, n)


def face_identity_cells():
    """(m, n) for m <= 30 and n in {1, 2, m // 2, m - 2, m - 1, m, m + 3}."""
    return [
        (m, n)
        for m in range(1, 31)
        for n in sorted({1, 2, m // 2, m - 2, m - 1, m, m + 3})
        if n >= 1
    ]


class TestFaceCountIdentities:
    """P(m, n) is a simple m-polytope for every n >= 1, so its f-vector
    satisfies Euler's relation, 2 f_1 = m f_0 and the Dehn-Sommerville
    symmetry of its h-vector."""

    cells = face_identity_cells()

    def test_cell_count(self):
        assert len(self.cells) == 196

    @pytest.mark.parametrize("m, n", cells)
    def test_identities(self, m, n):
        f = f_polynomial(m, n)
        faces = [f.coefficient(i) for i in range(m + 1)]
        assert sum((-1) ** i * c for i, c in enumerate(faces)) == 1
        assert 2 * faces[1] == m * faces[0]
        # sum_i f_i (t - 1)^i = sum_k h_k t^k
        h = [f.compose(Poly([-1, 1])).coefficient(k) for k in range(m + 1)]
        assert h == h[::-1]
        assert all(c >= 1 for c in h)


class TestCoefficientTransfer:
    def test_identity_function_at_k3(self):
        lhs, rhs = coefficient_transfer_check(T, 3)
        assert lhs == rhs == Fraction(3, 2)

    def test_constant_at_k0(self):
        assert coefficient_transfer_check(Poly([1]), 0) == (1, 1)

    def test_square_at_k2(self):
        lhs, rhs = coefficient_transfer_check(Poly([0, 0, 1]), 2)
        assert lhs == rhs == 1

    @pytest.mark.parametrize("k", (True, 2.0, Fraction(2), "2"))
    def test_rejects_non_integer_k(self, k):
        with pytest.raises(ValueError, match="must be an integer"):
            coefficient_transfer_check(Poly([0, 1]), k)


class TestShape:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_degree_constant_positivity(self, m):
        for n in range(max(1, m - 1), m + 3):
            poly = ehrhart_closed(m, n)
            assert poly.degree == m
            assert poly.coefficient(0) == 1
            assert all(c > 0 for c in poly.coeffs)

    @pytest.mark.parametrize("m", range(1, 5))
    @pytest.mark.parametrize("t", (1, 2, 3))
    def test_polynomial_in_dilation_scaled_offset(self, m, t):
        # for fixed m and t, the value at n = m - 1 + p is a degree-m
        # polynomial in x = p*t with positive integer coefficients;
        # n = m - 1 + p must stay >= 1, so the m = 1 window starts at p = 1
        base = 0 if m >= 2 else 1
        points = [
            (p * t, ehrhart_postnikov(m, m - 1 + p)(t))
            for p in range(base, base + m + 1)
        ]
        fitted = lagrange_interpolate(points)
        assert fitted.degree == m
        for c in fitted.coeffs:
            assert c > 0 and c.denominator == 1
        # extrapolation makes the degree claim meaningful
        for p in (base + m + 1, base + m + 2):
            assert fitted(p * t) == ehrhart_postnikov(m, m - 1 + p)(t)


class TestDispatch:
    def test_compute(self):
        result = compute_ehrhart(2, 2, "egf")
        assert isinstance(result, EhrhartResult)
        assert result.polynomial == ehrhart_closed(2, 2)
        assert result.method == "egf"

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            compute_ehrhart(2, 2, "montecarlo")

    @pytest.mark.parametrize("m", range(1, 5))
    def test_all_engines_agree(self, m):
        for n in range(max(1, m - 1), m + 3):
            values = {engine(m, n) for engine in ENGINES}
            assert len(values) == 1


def _refuse(*args, **kwargs):
    raise AssertionError("this engine must not reach here")


class TestIndependentEnumerators:
    """postnikov and graphsum, and the two listings, run on counts and walks
    that share no code, so their agreement with each other witnesses the
    Hall <=> at-most-one-cycle bijection.  The cached tallies are swapped
    for their uncached bodies so that each engine test counts afresh."""

    MULTIGRAPH = (
        "_component_tally", "_root", "enumerate_graphs", "component_cycle_check"
    )
    HALL_DP = ("_hall_tally", "_take", "_minimal", "_add")
    MATCHING = HALL_DP + ("_hall_walk", "_augment", "find_sdr", "satisfies_hall")

    def test_postnikov_reaches_no_union_find_code(self, monkeypatch):
        # nor the Hall walk or its augmenting paths: the census is a DP
        for name in self.MULTIGRAPH + ("_hall_walk", "_augment"):
            monkeypatch.setattr(graphs, name, _refuse)
        monkeypatch.setattr(ehrhart, "graph_census", _refuse)
        monkeypatch.setattr(graphs, "_hall_tally", graphs._hall_tally.__wrapped__)
        assert ehrhart_postnikov(4, 4) == ehrhart_closed(4, 4)

    def test_graphsum_reaches_no_matching_code(self, monkeypatch):
        for name in self.MATCHING:
            monkeypatch.setattr(graphs, name, _refuse)
        monkeypatch.setattr(ehrhart, "sequence_census", _refuse)
        monkeypatch.setattr(graphs, "_graph_census", graphs._graph_census.__wrapped__)
        monkeypatch.setattr(
            graphs, "_component_tally", graphs._component_tally.__wrapped__
        )
        assert ehrhart_graphsum(4, 4) == ehrhart_closed(4, 4)

    def test_sequence_listing_reaches_no_union_find_code(self, monkeypatch):
        expected = sum(graphs.graph_census(4).values())
        for name in self.MULTIGRAPH:
            monkeypatch.setattr(graphs, name, _refuse)
        assert sum(1 for _ in graphs.enumerate_sequences(4)) == expected

    def test_graph_listing_reaches_no_matching_code(self, monkeypatch):
        expected = sum(graphs.sequence_census(4).values())
        for name in self.MATCHING:
            monkeypatch.setattr(graphs, name, _refuse)
        assert sum(1 for _ in graphs.enumerate_graphs(4)) == expected


class TestEnumerationBound:
    def test_refused_before_any_walk(self, monkeypatch):
        # below its DP's work estimate a census route is refused before any
        # DP step; at the default budget it runs past the listings' bound
        hall, component = graphs.hall_work(8), graphs.component_work(8)
        with monkeypatch.context() as patched:
            patched.setattr(graphs, "_hall_tally", _refuse)
            patched.setattr(graphs, "_component_tally", _refuse)
            with pytest.raises(BudgetError, match=f"= {hall} exceeds budget {hall - 1}"):
                ehrhart_postnikov(8, 8, budget=hall - 1)
            with pytest.raises(BudgetError, match=f"= {component} exceeds budget"):
                structure_counts(8, budget=component - 1)
        assert ehrhart_postnikov(8, 8) == ehrhart_closed(8, 8)
        assert structure_counts(8) == (8**6, 8**7, 7 * 8**6, 1436568)

    def test_huge_m_refused_before_any_allocation(self, monkeypatch):
        # each engine reads its census, and is refused on the floor 2^m,
        # before it builds anything of length m
        monkeypatch.setattr(graphs, "_hall_tally", _refuse)
        monkeypatch.setattr(graphs, "_component_tally", _refuse)
        for engine in (ehrhart_postnikov, ehrhart_graphsum):
            with pytest.raises(BudgetError, match=r"= more than 2\^100000000 exceeds"):
                engine(10**8, 10**8)

    def test_census_total_m7(self):
        assert sum(graph_census(7).values()) == 1261748
