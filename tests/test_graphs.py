from fractions import Fraction
from itertools import product

import pytest

from permutoehr import graphs
from permutoehr.errors import BudgetError
from permutoehr.graphs import (
    EdgeMultiplicities,
    GraphStats,
    Multigraph,
    component_cycle_check,
    component_work,
    enumerate_graphs,
    enumerate_sequences,
    find_sdr,
    from_multigraph,
    graph_census,
    hall_work,
    satisfies_hall,
    sequence_census,
    structure_counts,
    to_multigraph,
    vertex_pairs,
    _component_states,
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


def _refuse(*args, **kwargs):
    raise AssertionError("a DP step ran")


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
        # each listing, in order, is the lexicographically sorted part of
        # {0,1}^m x {0,1,2}^C(m,2) that its own feasibility test keeps
        for m in range(1, 5):
            box = sorted(
                (loop, pair)
                for loop in product(range(2), repeat=m)
                for pair in product(range(3), repeat=m * (m - 1) // 2)
            )
            graphs = [(g.loops, g.pair_mult) for g in enumerate_graphs(m)]
            assert graphs == [
                member for member in box if component_cycle_check(Multigraph(m, *member))
            ]
            sequences = [(s.loop, s.pair) for s in enumerate_sequences(m)]
            assert sequences == [
                member for member in box if satisfies_hall(EdgeMultiplicities(m, *member))
            ]

    @pytest.mark.parametrize("m", (5, 6))
    def test_sequence_listing_strictly_increasing_past_m4(self, m):
        # strict lexicographic order rules out repeats, and the census
        # total, from the component DP, then rules out gaps in the count
        listed = [(s.loop, s.pair) for s in enumerate_sequences(m)]
        assert all(a < b for a, b in zip(listed, listed[1:]))
        assert len(listed) == sum(graph_census(m).values())

    def test_members_satisfy_cycle_limit(self):
        for graph in enumerate_graphs(4):
            assert component_cycle_check(graph)

    def test_bound(self):
        with pytest.raises(BudgetError):
            next(enumerate_graphs(8))
        with pytest.raises(ValueError):
            next(enumerate_graphs(0))

    @pytest.mark.parametrize(
        "listing, member",
        ((enumerate_graphs, Multigraph), (enumerate_sequences, EdgeMultiplicities)),
    )
    def test_refused_on_its_entries_alone(self, monkeypatch, listing, member):
        # 24,724,187 members of 8 loops and 28 pairs at m = 8, each listing
        # counted by its own DP; no vertex bound refuses it
        monkeypatch.setenv("PERMUTOEHR_BUDGET", "890070732")
        assert next(listing(8)) == member(8, (0,) * 8, (0,) * 28)
        monkeypatch.setenv("PERMUTOEHR_BUDGET", "890070731")
        refusal = "^890070732 graph entries exceeds budget 890070731$"
        with pytest.raises(BudgetError, match=refusal):
            next(listing(8))


class TestCensusAndStats:
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

    @pytest.mark.parametrize("census", (graph_census, sequence_census))
    def test_a_mutated_census_leaves_the_next_call_intact(self, census):
        first = census(5)
        key = next(iter(first))
        first[key] += 1
        del first[next(reversed(first))]
        again = census(5)
        assert again[key] == first[key] - 1
        assert sum(again.values()) == 5254


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
                    # the signature holds every multiplicity only up to these
                    assert max(loop) <= 1 and max(pair, default=0) <= 2
                    key = GraphStats(sum(loop), pair.count(1), pair.count(2))
                    brute[key] = brute.get(key, 0) + 1
        assert sequence_census(m) == brute

    @pytest.mark.parametrize("m", range(1, 11))
    def test_projects_onto_graph_census(self, m):
        assert sequence_census(m) == graph_census(m)

    def test_bound(self, monkeypatch):
        # below the Hall DP's work estimate the census is refused before any
        # DP step; at the default budget it runs at m = 8, where the
        # listings are refused on their entries
        work = hall_work(8)
        with monkeypatch.context() as patched:
            for name in ("_hall_tally", "_component_states"):
                patched.setattr(graphs, name, _refuse)
            patched.setenv("PERMUTOEHR_BUDGET", str(work - 1))
            with pytest.raises(BudgetError, match=f"= {work} exceeds budget {work - 1}"):
                sequence_census(8)
        assert sum(sequence_census(8).values()) == 24724187

    def test_both_censuses_past_the_listing_bound(self):
        # two Hall readings that share no code, SDR families and components,
        # agree signature by signature at m = 8
        census = sequence_census(8)
        assert census == graph_census(8)
        assert sum(census.values()) == 24724187


class TestCensusBudget:
    @pytest.mark.parametrize("census", (sequence_census, graph_census, structure_counts))
    def test_huge_m_refused_without_the_power(self, monkeypatch, census):
        # 4^(10^8) alone has 200 million bits; the refusal states 2^m
        for name in ("_hall_tally", "_component_states"):
            monkeypatch.setattr(graphs, name, _refuse)
        with pytest.raises(BudgetError, match=r"= more than 2\^100000000 exceeds budget 100000000$"):
            census(10**8)

    def test_floor_takes_over_past_m_64(self):
        # under a budget below 2^64 the estimate itself is stated up to
        # m = 64, and the floor 2^m from m = 65 on
        bits = component_work(64).bit_length()
        with pytest.raises(BudgetError, match=rf"m\*3\^m = more than 2\^{bits - 1} exceeds"):
            graph_census(64)
        with pytest.raises(BudgetError, match=r"m\*3\^m = more than 2\^65 exceeds"):
            graph_census(65)


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

    @pytest.mark.parametrize("m", (8, 9, 10))
    def test_component_dp_past_the_enumeration_bound(self, m):
        # the DP behind the public counts, checked against the closed forms:
        # every state's tally, unpacked, a graph being connected when its
        # multiset holds one component
        shapes = [0, 0, 0]  # trees, looped, enhanced
        total = 0
        tallies = (
            (len(parts) == 1, packed, count)
            for parts, tally in _component_states(m).items()
            for packed, count in tally.items()
        )
        for connected, packed, count in tallies:
            fields = (packed >> k * graphs._FIELD & graphs._MASK for k in range(3))
            loops, single, doubled = fields
            total += count
            if not connected:
                continue
            if loops + single + 2 * doubled == m - 1:
                shapes[0] += count
            elif loops:
                shapes[1] += count
            elif doubled:
                shapes[2] += count
        assert shapes == [m ** (m - 2), m ** (m - 1), (m - 1) * m ** (m - 2)]
        if m == 8:
            assert total == 24724187


def _clear_component_caches():
    for cached in (graphs._component_states, graphs._graph_census):
        cached.cache_clear()


class TestSharedComponentStates:
    """The component DP builds its states after k vertices once, from those
    after k - 1, and every m >= k reads them: no count may depend on the
    order in which the m come."""

    def _counts(self, order, clear_each):
        _clear_component_caches()
        out = {}
        for m in order:
            if clear_each:
                _clear_component_caches()
            out[m] = (graph_census(m), structure_counts(m))
        return out

    def test_counts_do_not_depend_on_the_order(self):
        ascending = self._counts(range(1, 10), clear_each=False)
        assert self._counts(range(9, 0, -1), clear_each=False) == ascending
        assert self._counts(range(1, 10), clear_each=True) == ascending

    def test_smaller_m_builds_no_state(self):
        _clear_component_caches()
        graph_census(6)
        before = graphs._component_states.cache_info()
        graph_census(5)
        after = graphs._component_states.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 1


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
    """The census comes from the component DP, and the sequence census from
    the Hall DP over SDR families; each listing walks every loop set by a
    route of its own, so it checks its own presentation's counts."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_census_matches_the_listing(self, m):
        listed: dict = {}
        for graph in enumerate_graphs(m):
            mults = graph.pair_mult
            key = GraphStats(sum(graph.loops), mults.count(1), mults.count(2))
            listed[key] = listed.get(key, 0) + 1
        assert graph_census(m) == listed

    @pytest.mark.parametrize("m", range(1, 7))
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
    def test_sequence_census_matches_the_listing(self, m):
        listed: dict = {}
        for seq in enumerate_sequences(m):
            # the signature holds every multiplicity only up to these
            assert max(seq.loop) <= 1 and max(seq.pair, default=0) <= 2
            key = GraphStats(sum(seq.loop), seq.pair.count(1), seq.pair.count(2))
            listed[key] = listed.get(key, 0) + 1
        assert sequence_census(m) == listed


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


def assert_twin(member, twin):
    assert type(member) is type(twin)
    assert member == twin
    assert hash(member) == hash(twin)


class TestMembersMatchPublicTwins:
    """The listings and the bijection build their members without the
    public constructors' checks; each equals, and hashes as, the member the
    public constructor builds from the same parts."""

    @pytest.mark.parametrize("m", range(1, 6))
    def test_graph_listing_and_from_multigraph(self, m):
        for graph in enumerate_graphs(m):
            assert_twin(graph, Multigraph(m, graph.loops, graph.pair_mult))
            assert_twin(
                from_multigraph(graph), EdgeMultiplicities(m, graph.loops, graph.pair_mult)
            )

    @pytest.mark.parametrize("m", range(1, 6))
    def test_sequence_listing_and_to_multigraph(self, m):
        for seq in enumerate_sequences(m):
            assert_twin(seq, EdgeMultiplicities(m, seq.loop, seq.pair))
            assert_twin(to_multigraph(seq), Multigraph(m, seq.loop, seq.pair))


class TestValidation:
    def test_lengths_checked(self):
        with pytest.raises(ValueError):
            EdgeMultiplicities(2, (0,), (0,))
        with pytest.raises(ValueError):
            Multigraph(3, (0, 0, 0), (0,))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EdgeMultiplicities(2, (0, -1), (0,))

    @pytest.mark.parametrize("cls", (EdgeMultiplicities, Multigraph))
    @pytest.mark.parametrize(
        "m, per_vertex, per_pair, match",
        (
            (True, (1,), (), "m must be an integer"),
            (2.0, (0, 0), (1,), "m must be an integer"),
            (2, (0.5, 0), (1,), r"\[0\] must be an integer, got 0.5"),
            (2, (0, True), (1,), r"\[1\] must be an integer, got True"),
            (2, (0, 0), (Fraction(1),), r"\[0\] must be an integer"),
            (2, [0, 0], (1,), "must be a tuple"),
            (2, (0, 0), [1], "must be a tuple"),
        ),
        ids=("bool-m", "float-m", "float-entry", "bool-entry", "fraction-entry",
             "list-per-vertex", "list-per-pair"),
    )
    def test_public_constructors_reject_non_int_parts(self, cls, m, per_vertex, per_pair, match):
        # a float entry used to reach satisfies_hall and raise TypeError there,
        # and a list made the frozen member unhashable
        with pytest.raises(ValueError, match=match):
            cls(m, per_vertex, per_pair)

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
