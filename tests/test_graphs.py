from fractions import Fraction
from itertools import product

import pytest

from permutoehr.errors import BudgetError
from permutoehr.graphs import (
    EdgeMultiplicities,
    GraphStats,
    Multigraph,
    component_cycle_check,
    enumerate_graphs,
    enumerate_sequences,
    find_sdr,
    from_multigraph,
    graph_census,
    graph_stats,
    satisfies_hall,
    sequence_census,
    structure_counts,
    to_multigraph,
    vertex_pairs,
)

# the eight feasible sequences for m = 2, written (a_{1}, a_{2}, a_{12})
FEASIBLE_M2 = {
    (0, 0, 0),
    (0, 0, 1),
    (0, 0, 2),
    (1, 0, 0),
    (0, 1, 0),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
}


def seq2(a1, a2, a12):
    return EdgeMultiplicities(2, (a1, a2), (a12,))


class TestHall:
    def test_empty_family_passes(self):
        assert satisfies_hall(seq2(0, 0, 0))

    def test_overfull_fails(self):
        # three slots over two vertices
        assert not satisfies_hall(seq2(1, 1, 1))

    def test_loop_plus_edge_passes(self):
        assert satisfies_hall(seq2(0, 1, 1))

    def test_double_loop_fails(self):
        assert not satisfies_hall(EdgeMultiplicities(1, (2,), ()))

    def test_sdr_is_a_system_of_distinct_representatives(self):
        for m in range(1, 4):
            for seq in enumerate_sequences(m):
                reps = find_sdr(seq)
                assert reps is not None
                slots = []
                for i, c in enumerate(seq.loop):
                    slots.extend([(i,)] * c)
                for (i, j), c in zip(vertex_pairs(m), seq.pair):
                    slots.extend([(i, j)] * c)
                assert len(set(reps)) == len(reps)
                assert all(reps[s] in slots[s] for s in range(len(slots)))


class TestCycleCheck:
    def test_edgeless(self):
        assert component_cycle_check(Multigraph(2, (0, 0), (0,)))

    def test_double_edge_plus_loop_fails(self):
        assert not component_cycle_check(Multigraph(2, (1, 0), (2,)))

    def test_two_loops_on_distinct_vertices(self):
        assert component_cycle_check(Multigraph(2, (1, 1), (0,)))

    def test_triangle_plus_chord_fails(self):
        # 3 vertices, 4 edges in one component
        graph = Multigraph(3, (0, 0, 0), (2, 1, 1))
        assert not component_cycle_check(graph)


class TestBijection:
    def test_m2_sequences_match_known_listing(self):
        assert {s.loop + s.pair for s in enumerate_sequences(2)} == FEASIBLE_M2

    def test_listed_correspondences(self):
        # (0,0,2) <-> the double-edge graph
        assert to_multigraph(seq2(0, 0, 2)) == Multigraph(2, (0, 0), (2,))
        # (1,0,1) <-> loop at vertex 1 plus a single edge
        assert to_multigraph(seq2(1, 0, 1)) == Multigraph(2, (1, 0), (1,))
        # all zeros <-> edgeless
        assert to_multigraph(seq2(0, 0, 0)) == Multigraph(2, (0, 0), (0,))

    def test_round_trip_m_le_4(self):
        for m in range(1, 5):
            for graph in enumerate_graphs(m):
                seq = from_multigraph(graph)
                assert to_multigraph(seq) == graph
            for seq in enumerate_sequences(m):
                assert from_multigraph(to_multigraph(seq)) == seq

    def test_preconditions(self):
        with pytest.raises(ValueError):
            to_multigraph(seq2(1, 1, 1))
        with pytest.raises(ValueError):
            from_multigraph(Multigraph(2, (1, 0), (2,)))

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_hall_iff_cycle_limit_extended_box(self, m):
        n_pairs = m * (m - 1) // 2
        for loop in product(range(3), repeat=m):
            for pair in product(range(4), repeat=n_pairs):
                seq = EdgeMultiplicities(m, loop, pair)
                graph = Multigraph(m, loop, pair)
                assert satisfies_hall(seq) == component_cycle_check(graph)


class TestEnumeration:
    def test_m1(self):
        graphs = list(enumerate_graphs(1))
        assert len(graphs) == 2
        assert {g.loops for g in graphs} == {(0,), (1,)}

    def test_m2(self):
        assert len(list(enumerate_graphs(2))) == 8

    def test_m3_against_hall_filter(self):
        brute = sum(
            1
            for loop in product(range(2), repeat=3)
            for pair in product(range(3), repeat=3)
            if satisfies_hall(EdgeMultiplicities(3, loop, pair))
        )
        enumerated = list(enumerate_graphs(3))
        assert len(enumerated) == brute
        assert len(set(enumerated)) == brute  # no duplicates

    def test_members_satisfy_cycle_limit(self):
        for graph in enumerate_graphs(4):
            assert component_cycle_check(graph)

    def test_bound(self):
        with pytest.raises(BudgetError):
            next(enumerate_graphs(8))
        with pytest.raises(BudgetError):
            next(enumerate_graphs(5, bound=4))
        with pytest.raises(ValueError):
            next(enumerate_graphs(0))


class TestCensusAndStats:
    def test_stats_fields(self):
        graph = Multigraph(4, (1, 0, 1, 0), (1, 2, 0, 0, 1, 0))
        assert graph_stats(graph) == GraphStats(n_loops=2, n_single=2, n_pairs=1)

    def test_census_totals(self):
        assert sum(graph_census(2).values()) == 8
        assert sum(graph_census(3).values()) == len(list(enumerate_graphs(3)))

    def test_census_m2_breakdown(self):
        census = graph_census(2)
        assert census[GraphStats(0, 0, 0)] == 1  # edgeless
        assert census[GraphStats(1, 0, 0)] == 2  # one loop, either vertex
        assert census[GraphStats(2, 0, 0)] == 1  # both loops
        assert census[GraphStats(0, 1, 0)] == 1  # single edge
        assert census[GraphStats(0, 0, 1)] == 1  # doubled edge
        assert census[GraphStats(1, 1, 0)] == 2  # loop plus edge


class TestSequenceCensus:
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_against_cycle_filter_extended_box(self, m):
        # multiplicities up to 2 per loop and 3 per pair, kept when the
        # multigraph passes the union-find cycle check
        n_pairs = m * (m - 1) // 2
        brute: dict = {}
        for loop in product(range(3), repeat=m):
            for pair in product(range(4), repeat=n_pairs):
                if component_cycle_check(Multigraph(m, loop, pair)):
                    key = (
                        tuple(sorted(a for a in loop if a)),
                        tuple(sorted(a for a in pair if a)),
                    )
                    brute[key] = brute.get(key, 0) + 1
        assert sequence_census(m) == brute

    @pytest.mark.parametrize("m", range(1, 7))
    def test_projects_onto_graph_census(self, m):
        projected: dict = {}
        for (loop_mults, pair_mults), count in sequence_census(m).items():
            key = GraphStats(len(loop_mults), pair_mults.count(1), pair_mults.count(2))
            projected[key] = projected.get(key, 0) + count
        assert projected == graph_census(m)

    def test_bound(self):
        with pytest.raises(BudgetError):
            sequence_census(8)


class TestStructureCounts:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_closed_forms(self, m):
        counts = structure_counts(m)
        assert counts.trees == (m ** (m - 2) if m >= 2 else 1)
        assert counts.looped_trees == m ** (m - 1)
        assert counts.enhanced_trees == ((m - 1) * m ** (m - 2) if m >= 2 else 0)

    def test_quasitree_anchors(self):
        # the triangle is the unique simple connected unicyclic graph on 3
        # vertices with cycle length >= 3
        assert structure_counts(3).quasitrees == 1
        assert structure_counts(4).quasitrees == 15
        assert structure_counts(5).quasitrees == 222


def _connected(graph):
    """Whether the edges (loops aside) join all m vertices: grow the set
    reached from vertex 0, one pass over the pairs per vertex."""
    reached = {0}
    for _ in range(graph.m):
        for (i, j), c in zip(vertex_pairs(graph.m), graph.pair_mult):
            if c and (i in reached or j in reached):
                reached |= {i, j}
    return len(reached) == graph.m


class TestSymmetricWalks:
    """The counting walks visit one loop set per loop count and weight it
    by the number of loop sets of that size; the listing walks every loop
    set, so it checks the weights."""

    @pytest.mark.parametrize("m", range(1, 6))
    def test_census_matches_the_listing(self, m):
        listed: dict = {}
        for graph in enumerate_graphs(m):
            key = graph_stats(graph)
            listed[key] = listed.get(key, 0) + 1
        assert graph_census(m) == listed

    @pytest.mark.parametrize("m", range(1, 6))
    def test_structure_counts_match_the_listing(self, m):
        shapes = [0, 0, 0, 0]  # trees, looped, enhanced, quasitrees
        for graph in enumerate_graphs(m):
            if not _connected(graph):
                continue
            edges = sum(graph.loops) + sum(graph.pair_mult)
            if edges == m - 1:
                shapes[0] += 1
            elif any(graph.loops):
                shapes[1] += 1
            elif 2 in graph.pair_mult:
                shapes[2] += 1
            else:
                shapes[3] += 1
        assert tuple(structure_counts(m)) == tuple(shapes)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_loops_at_most_once_and_pairs_at_most_twice(self, m):
        for loop_mults, pair_mults in sequence_census(m):
            assert all(a == 1 for a in loop_mults)
            assert all(a <= 2 for a in pair_mults)


class TestOrientationWitness:
    def test_indegree_profiles_m4(self):
        for graph in enumerate_graphs(4):
            seq = from_multigraph(graph)
            reps = find_sdr(seq)
            assert reps is not None
            # directing every edge slot to its representative gives
            # indegree <= 1 everywhere
            indeg = [0] * graph.m
            for v in reps:
                indeg[v] += 1
            assert all(d <= 1 for d in indeg)
            # connected graphs: trees leave exactly one vertex unused,
            # unicyclic graphs use every vertex
            if _connected(graph):
                edges = sum(graph.loops) + sum(graph.pair_mult)
                if edges == graph.m - 1:
                    assert sum(indeg) == graph.m - 1
                else:
                    assert edges == graph.m
                    assert all(d == 1 for d in indeg)


class TestConventionsM1:
    def test_sequences(self):
        assert {s.loop + s.pair for s in enumerate_sequences(1)} == {(0,), (1,)}

    def test_graphs(self):
        assert {(g.loops, g.pair_mult) for g in enumerate_graphs(1)} == {
            ((0,), ()),
            ((1,), ()),
        }


class TestValidation:
    def test_lengths_checked(self):
        with pytest.raises(ValueError):
            EdgeMultiplicities(2, (0,), (0,))
        with pytest.raises(ValueError):
            Multigraph(3, (0, 0, 0), (0,))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EdgeMultiplicities(2, (0, -1), (0,))

    @pytest.mark.parametrize("m", (True, 2.0, Fraction(2), "2"))
    @pytest.mark.parametrize(
        "entry",
        (graph_census, structure_counts, sequence_census,
         lambda m: next(enumerate_graphs(m)), lambda m: next(enumerate_sequences(m))),
        ids=("graph_census", "structure_counts", "sequence_census",
             "enumerate_graphs", "enumerate_sequences"),
    )
    def test_non_integer_m_rejected(self, entry, m):
        with pytest.raises(ValueError, match="must be an integer"):
            entry(m)
