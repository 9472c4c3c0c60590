"""The two sides of each ``verify`` check can fail independently.

For each check, one side's private entry points are patched to raise, and
the other side still computes the value it is compared with.  Where the
two sides share code by design, the test names what they share instead.  The
engine checks but ``closed-vs-egf`` are covered in test_ehrhart.py
(``TestRecurrence``, ``TestIndependentEnumerators``,
``TestIndependentTreeRoute``), and so are the two listings that
``bijection-round-trip`` compares.

Every side here returns its result through the exact-rational core
(``Poly``, ``TruncatedSeries``, ``Fraction``), which is the arithmetic the
comparison itself is made in; that core is never refused.  The census
DPs are cached per process, so they are swapped for their uncached bodies
wherever a side is to compute afresh.
"""

from fractions import Fraction
from itertools import product
from math import comb, factorial

from permutoehr import ehrhart, graphs, verify
from permutoehr.polynomials import Poly
from permutoehr.polytope import PartialPermutohedron
from permutoehr.series import TruncatedSeries


def _refuse(*args, **kwargs):
    raise AssertionError("one side of a check reached the other side's code")


def refuse(monkeypatch, owner, *names):
    for name in names:
        monkeypatch.setattr(owner, name, _refuse)


def refuse_lattice(monkeypatch):
    """The lattice DP's names refused, its cached cap tuple among them: a
    function set over a cached property would be read, not called."""
    refuse(monkeypatch, PartialPermutohedron, *LATTICE)
    monkeypatch.setattr(PartialPermutohedron, "caps", property(_refuse))


def uncached_census(monkeypatch):
    """The component DP recomputed on every call, not read from its cache."""
    monkeypatch.setattr(graphs, "_component_states", graphs._component_states.__wrapped__)
    monkeypatch.setattr(graphs, "_graph_census", graphs._graph_census.__wrapped__)


# closed-vs-brute-force: the grid check_oracle_agreement covers at its
# default max_t = 2
ORACLE_CELLS = [
    (m, n, t) for m in range(1, 5) for n in range(max(1, m - 1), 5) for t in (1, 2)
]
# the closed form's own code, the lattice DP's, and the series arithmetic
CLOSED = ("ehrhart_closed", "double_factorial")
FORMULA = CLOSED + ("_refuse_formula_work", "_require_formula_domain")
LATTICE = ("count_lattice_points", "count_work", "contains", "cap")
SERIES = ("exp", "log", "sqrt", "compose", "__mul__")


class TestClosedVersusBruteForce:
    def test_lattice_count_reaches_no_closed_form_code(self, monkeypatch):
        expected = {(m, n, t): ehrhart.ehrhart_closed(m, n)(t) for m, n, t in ORACLE_CELLS}
        refuse(monkeypatch, ehrhart, *FORMULA)
        refuse(monkeypatch, Poly, "__call__")
        for (m, n, t), value in expected.items():
            assert PartialPermutohedron(m, n).count_lattice_points(t) == value

    def test_closed_form_reaches_no_lattice_code(self, monkeypatch):
        expected = {
            (m, n, t): PartialPermutohedron(m, n).count_lattice_points(t)
            for m, n, t in ORACLE_CELLS
        }
        refuse_lattice(monkeypatch)
        for (m, n, t), value in expected.items():
            assert ehrhart.ehrhart_closed(m, n)(t) == value

    def test_the_check_passes_on_those_cells(self):
        result = verify.check_oracle_agreement(4, 2)
        assert result.line() == f"PASS closed-vs-brute-force: {len(ORACLE_CELLS)} counts match"


class TestClosedVersusEgf:
    """``egf`` shares ``_exp_over_t`` with ``egf-tree`` by design, never
    with ``closed``.  Both run the formula routes' domain check and budget
    refusal, which compute nothing the check compares."""

    CELLS = list(verify._grid(4))
    EGF = ("ehrhart_egf", "_exp_over_t", "one_minus_z")

    def test_egf_reaches_no_closed_form_code(self, monkeypatch):
        expected = {(m, n): ehrhart.ehrhart_closed(m, n) for m, n in self.CELLS}
        refuse(monkeypatch, ehrhart, *CLOSED)
        for (m, n), poly in expected.items():
            assert ehrhart.compute_ehrhart(m, n, "egf") == poly

    def test_closed_form_reaches_no_egf_code(self, monkeypatch):
        expected = {(m, n): ehrhart.compute_ehrhart(m, n, "egf") for m, n in self.CELLS}
        refuse(monkeypatch, ehrhart, *self.EGF)
        refuse(monkeypatch, TruncatedSeries, *SERIES)
        for (m, n), poly in expected.items():
            assert ehrhart.ehrhart_closed(m, n) == poly


class TestStructureCounts:
    """``check_structure_counts`` sets the component DP's counts against
    closed forms (int powers written in the check) and the unicyclic count
    against the series of the tree function."""

    MAX_M = 6
    DP = ("_component_states", "_graph_census", "component_work")

    def lines_without_the_dp(self, monkeypatch):
        counts = {m: graphs.structure_counts(m) for m in range(1, self.MAX_M + 1)}
        monkeypatch.setattr(graphs, "structure_counts", counts.__getitem__)
        refuse(monkeypatch, graphs, *self.DP)
        return {r.name: r.line() for r in verify.check_structure_counts(self.MAX_M)}

    def test_closed_forms_reach_no_dp_code(self, monkeypatch):
        lines = self.lines_without_the_dp(monkeypatch)
        assert lines["structure-counts-closed-forms"] == (
            f"PASS structure-counts-closed-forms: m <= {self.MAX_M} match"
        )

    def test_series_reaches_no_dp_code(self, monkeypatch):
        lines = self.lines_without_the_dp(monkeypatch)
        assert lines["quasitree-count-vs-series"] == (
            f"PASS quasitree-count-vs-series: m <= {self.MAX_M} match"
        )

    def test_dp_reaches_no_series_code(self, monkeypatch):
        tree = ehrhart.tree_function(self.MAX_M)
        series = tree * Fraction(-1, 2) + (tree * tree) * Fraction(-1, 4)
        series = series + (-tree + 1).log() * Fraction(-1, 2)
        quasi = {m: series.coefficient(m) * factorial(m) for m in range(1, self.MAX_M + 1)}
        uncached_census(monkeypatch)
        refuse(monkeypatch, ehrhart, "tree_function", "one_minus_z")
        refuse(monkeypatch, TruncatedSeries, *SERIES)
        for m, expected in quasi.items():
            counts = graphs.structure_counts(m)
            assert counts.quasitrees == expected
            if m > 1:
                assert counts[:3] == (m ** (m - 2), m ** (m - 1), (m - 1) * m ** (m - 2))


def hall_box():
    """The sequences and multigraphs check_bijection compares the Hall
    condition and the cycle check on: every multiplicity vector of the
    box, m <= 3, read both ways."""
    for m in range(1, 4):
        for loop in product(range(3), repeat=m):
            for pair in product(range(4), repeat=comb(m, 2)):
                yield (
                    graphs._member(graphs.EdgeMultiplicities, m=m, loop=loop, pair=pair),
                    graphs._member(graphs.Multigraph, m=m, loops=loop, pair_mult=pair),
                )


class TestHallVersusCycles:
    """Both sides index the pairs of vertices through ``vertex_pairs``,
    which fixes the layout of the multiplicity vector they read."""

    MATCHING = ("satisfies_hall", "find_sdr", "_augment", "edge_slots")
    UNION_FIND = ("component_cycle_check", "_root")

    def test_hall_condition_reaches_no_union_find_code(self, monkeypatch):
        box = list(hall_box())
        expected = [graphs.component_cycle_check(graph) for _, graph in box]
        refuse(monkeypatch, graphs, *self.UNION_FIND)
        assert [graphs.satisfies_hall(seq) for seq, _ in box] == expected

    def test_cycle_check_reaches_no_matching_code(self, monkeypatch):
        box = list(hall_box())
        expected = [graphs.satisfies_hall(seq) for seq, _ in box]
        refuse(monkeypatch, graphs, *self.MATCHING)
        assert [graphs.component_cycle_check(graph) for _, graph in box] == expected
        # both answers occur
        assert 0 < sum(expected) < len(expected)


def transfer_sides(f: Poly, k: int):
    """The two sides of ehrhart.coefficient_transfer_check, as it writes
    them: composition with T(z), and a product with (1 - z) exp(kz)."""
    order = max(k, 1)
    f_series = TruncatedSeries.from_poly(f, order)

    def by_composition():
        return f_series.compose(ehrhart.tree_function(order)).coefficient(k)

    def by_product():
        kz = TruncatedSeries([0, k], order=order)
        return (f_series * ehrhart.one_minus_z(order) * kz.exp()).coefficient(k)

    return by_composition, by_product


class TestTreeCoefficientTransfer:
    """Both sides multiply series with ``TruncatedSeries.__mul__``: the
    composition builds the powers of T(z) with it."""

    CASES = [(Poly.monomial(d), k) for d in range(5) for k in range(6)] + [
        (Poly([Fraction(3, 7), -2, Fraction(5, 3)]), 4),
        (Poly([0, Fraction(-1, 9), 0, 4]), 7),
    ]

    def test_sides_are_the_checks(self):
        for f, k in self.CASES:
            by_composition, by_product = transfer_sides(f, k)
            assert ehrhart.coefficient_transfer_check(f, k) == (by_composition(), by_product())

    def test_composition_reaches_no_exp_code(self, monkeypatch):
        sides = [transfer_sides(f, k) for f, k in self.CASES]
        expected = [by_product() for _, by_product in sides]
        refuse(monkeypatch, ehrhart, "one_minus_z")
        refuse(monkeypatch, TruncatedSeries, "exp", "log", "sqrt")
        assert [by_composition() for by_composition, _ in sides] == expected

    def test_product_reaches_no_composition_code(self, monkeypatch):
        sides = [transfer_sides(f, k) for f, k in self.CASES]
        expected = [by_composition() for by_composition, _ in sides]
        refuse(monkeypatch, ehrhart, "tree_function")
        refuse(monkeypatch, TruncatedSeries, "compose")
        assert [by_product() for _, by_product in sides] == expected


class TestVolumeVersusLeadingCoefficient:
    """``volume_closed`` against the top coefficient of
    ``ehrhart_recurrence``, which reaches no closed-form code."""

    CELLS = [(m, n) for m in range(1, 5) for n in (m - 1, m, m + 1) if n >= 1]

    def test_recurrence_reaches_no_closed_form_code(self, monkeypatch):
        expected = {(m, n): ehrhart.volume_closed(m, n) for m, n in self.CELLS}
        refuse(monkeypatch, ehrhart, *CLOSED)
        for (m, n), volume in expected.items():
            assert ehrhart.ehrhart_recurrence(m, n).leading_coefficient == volume

    def test_volume_reaches_no_recurrence_code(self, monkeypatch):
        expected = {
            (m, n): ehrhart.ehrhart_recurrence(m, n).leading_coefficient for m, n in self.CELLS
        }
        refuse(monkeypatch, ehrhart, "ehrhart_recurrence")
        for (m, n), lead in expected.items():
            assert ehrhart.volume_closed(m, n) == lead

    def test_the_check_reaches_no_closed_form_polynomial(self, monkeypatch):
        # volume_closed itself takes its (2i - 3)!! from double_factorial
        refuse(monkeypatch, ehrhart, "ehrhart_closed")
        result = verify.check_volume(4)
        assert result.line() == (
            f"PASS volume-vs-leading-coefficient: {len(self.CELLS)} cases match"
        )
