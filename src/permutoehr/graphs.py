"""Labelled multigraphs whose components each have at most one cycle.

The objects here come in two equivalent presentations:

* ``EdgeMultiplicities``: a nonnegative integer for every singleton and
  pair of {1..m} (loop counts and edge multiplicities), feasible exactly
  when the family of edge slots has a system of distinct representatives
  (Hall's marriage theorem);
* ``Multigraph``: the graph with those loops and parallel edges, feasible
  exactly when every connected component has at most as many edges as
  vertices.

``to_multigraph`` / ``from_multigraph`` realize the bijection between the
two feasible sets.

The multigraphs are counted by a component DP and listed by a
union-find walk; the sequences are counted and listed by one Hall walk.

* The component DP adds the vertices one at a time and keeps only the
  multiset of (size, has a cycle) of the components so far, with the
  tallies, since the counts factor over connected components.  It counts
  multigraphs by (loops, single edges, doubled pairs, connected) for
  ``graph_census`` (and the ``graphsum`` engine) and ``structure_counts``.
* The union-find walk ``enumerate_graphs`` gives a pair multiplicity 0, 1
  or 2, pruning any branch in which a component acquires a second cycle.
* The Hall walk ``_hall_walk``, for one loop set, keeps a live
  slot-to-vertex matching, the copy of each loop matched to its vertex,
  and steps like an odometer through the pair multiplicities in one
  frame: a pair takes one more copy while an augmenting path extends the
  matching.  ``enumerate_sequences`` runs it on every loop set.  The
  count behind ``sequence_census`` (and the ``postnikov`` engine), run
  once per m and process, runs it on one loop set per loop count
  (relabelling the vertices, that set stands for every loop set of its
  size) and counts sequences by the multisets of their nonzero loop and
  pair multiplicities.

Each listing walks every loop set and builds every member, in
lexicographic order.  The DP, the union-find walk and the Hall walk share
no code, so the census and the graph listing, like the two presentations,
can fail independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb
from typing import Iterator, NamedTuple, Optional

from .errors import BudgetError, DEFAULT_GRAPH_BOUND, require_int


@lru_cache(maxsize=None)
def vertex_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """All pairs (i, j) with 0 <= i < j < m, in lexicographic order; this
    fixes the indexing of the ``pair`` tuples throughout the module."""
    return tuple(combinations(range(m), 2))


@dataclass(frozen=True)
class EdgeMultiplicities:
    """Candidate member of the Hall-feasible sequence set: ``loop[i]`` is
    the multiplicity of singleton {i+1}, ``pair[k]`` the multiplicity of
    the k-th pair from :func:`vertex_pairs`."""

    m: int
    loop: tuple[int, ...]
    pair: tuple[int, ...]

    def __post_init__(self):
        if len(self.loop) != self.m or len(self.pair) != self.m * (self.m - 1) // 2:
            raise ValueError("multiplicity tuple lengths do not match m")
        if any(c < 0 for c in self.loop) or any(c < 0 for c in self.pair):
            raise ValueError("multiplicities must be nonnegative")


@dataclass(frozen=True)
class Multigraph:
    """Labelled multigraph on m vertices with loop counts and pairwise edge
    multiplicities (indexed as in :func:`vertex_pairs`)."""

    m: int
    loops: tuple[int, ...]
    pair_mult: tuple[int, ...]

    def __post_init__(self):
        if len(self.loops) != self.m or len(self.pair_mult) != self.m * (self.m - 1) // 2:
            raise ValueError("multiplicity tuple lengths do not match m")
        if any(c < 0 for c in self.loops) or any(c < 0 for c in self.pair_mult):
            raise ValueError("edge counts must be nonnegative")


class GraphStats(NamedTuple):
    """Census signature: loop count, single-edge count, doubled-pair count."""

    n_loops: int
    n_single: int
    n_pairs: int


def edge_slots(seq: EdgeMultiplicities) -> list[tuple[int, ...]]:
    """The family of edge slots: each singleton/pair repeated by its
    multiplicity, as tuples of endpoints."""
    slots = []
    for i, c in enumerate(seq.loop):
        slots.extend([(i,)] * c)
    for (i, j), c in zip(vertex_pairs(seq.m), seq.pair):
        slots.extend([(i, j)] * c)
    return slots


def _augment(s: int, slots, owner: list[int], seen: list[bool]) -> bool:
    """Match slot ``s`` to one of its endpoints, re-routing the slots that
    own the endpoints along an augmenting path if need be (``owner[v]`` is
    the slot matched to vertex v, or -1).  False, with ``owner``
    unchanged, if no augmenting path exists."""
    for v in slots[s]:
        if not seen[v]:
            seen[v] = True
            if owner[v] < 0 or _augment(owner[v], slots, owner, seen):
                owner[v] = s
                return True
    return False


def find_sdr(seq: EdgeMultiplicities) -> Optional[list[int]]:
    """A system of distinct representatives for the edge slots of ``seq``
    (one vertex per slot, each an endpoint, all distinct), or None.

    Augmenting-path bipartite matching between slots and vertices; there
    are at most m slots in any feasible case, so this stays tiny."""
    slots = edge_slots(seq)
    if len(slots) > seq.m:
        return None
    owner = [-1] * seq.m
    for s in range(len(slots)):
        if not _augment(s, slots, owner, [False] * seq.m):
            return None
    reps = [0] * len(slots)
    for v, s in enumerate(owner):
        if s >= 0:
            reps[s] = v
    return reps


def satisfies_hall(seq: EdgeMultiplicities) -> bool:
    """Whether every subfamily of edge slots covers at least as many
    vertices as it has slots (equivalently: an SDR exists; the empty
    family passes)."""
    return find_sdr(seq) is not None


def _root(parent: list[int], v: int) -> int:
    while parent[v] != v:
        v = parent[v]
    return v


def component_cycle_check(graph: Multigraph) -> bool:
    """True iff every connected component has #edges <= #vertices, i.e. at
    most one cycle (a loop counts as one edge and one cycle)."""
    parent = list(range(graph.m))
    size = [1] * graph.m
    edges = list(graph.loops)
    for (i, j), c in zip(vertex_pairs(graph.m), graph.pair_mult):
        if c:
            i, j = _root(parent, i), _root(parent, j)
            if i != j:
                parent[j] = i
                size[i] += size[j]
                edges[i] += edges[j]
            edges[i] += c
    return all(edges[r] <= size[r] for r in range(graph.m) if parent[r] == r)


def to_multigraph(seq: EdgeMultiplicities) -> Multigraph:
    """Attach loop[i] loops at vertex i and pair[k] parallel edges on the
    k-th pair; requires the Hall condition."""
    if not satisfies_hall(seq):
        raise ValueError("sequence violates the Hall condition")
    return Multigraph(seq.m, seq.loop, seq.pair)


def from_multigraph(graph: Multigraph) -> EdgeMultiplicities:
    """Read the loop and pair multiplicities back off; requires every
    component to have at most one cycle."""
    if not component_cycle_check(graph):
        raise ValueError("a component has more edges than vertices")
    return EdgeMultiplicities(graph.m, graph.loops, graph.pair_mult)


def _check_enum_bound(m: int):
    require_int(m=m)
    if m < 1:
        raise ValueError("need m >= 1")
    if m > DEFAULT_GRAPH_BOUND:
        raise BudgetError(f"enumeration for m={m} exceeds the bound {DEFAULT_GRAPH_BOUND}")


def enumerate_graphs(m: int) -> Iterator[Multigraph]:
    """Yield every labelled multigraph on m vertices in which each
    component has at most one cycle, exactly once, in lexicographic order
    of (loops, pair_mult).  The union-find forest lives in flat lists
    (no path compression), each union undone inline on the way back."""
    _check_enum_bound(m)
    pairs = vertex_pairs(m)
    n_pairs = len(pairs)
    parent = list(range(m))
    size = [1] * m
    edges = [0] * m
    mult = [0] * n_pairs

    def walk(k: int, used: int) -> Iterator[Multigraph]:
        # m edges saturate every component, so the remaining pairs stay 0
        if k == n_pairs or used == m:
            yield Multigraph(m, loops, tuple(mult))
            return
        yield from walk(k + 1, used)
        i, j = pairs[k]
        i, j = _root(parent, i), _root(parent, j)
        e, s = edges[i], size[i]
        joined_e, joined_s = (e, s) if i == j else (e + edges[j], s + size[j])
        parent[j] = i  # a no-op when both ends are already in one component
        size[i] = joined_s
        for c in (1, 2):
            if joined_e + c > joined_s:
                break
            mult[k] = c
            edges[i] = joined_e + c
            yield from walk(k + 1, used + c)
        mult[k] = 0
        parent[j] = j
        size[i] = s
        edges[i] = e

    for loops in product((0, 1), repeat=m):
        edges[:] = loops
        yield from walk(0, sum(loops))


def _hall_walk(m: int, loops: tuple[int, ...]) -> Iterator[list[int]]:
    """Yield the live pair-multiplicity list (indexed as in
    :func:`vertex_pairs`) once for every Hall-feasible sequence with the
    0/1 loop multiplicities ``loops``, in lexicographic order; read it
    before the next step.

    The walk keeps a live copy-to-vertex matching, each loop's copy matched
    to its vertex, and steps like an odometer.  From the last pair
    backwards, a pair takes one more copy if an augmenting path extends
    the matching, and the walk yields and, unless the matching is now
    perfect, starts again from the last pair; otherwise the pair frees its
    copies' vertices and the pair before it is tried.  Hall's condition is closed downwards, so each step reaches
    the lexicographically next sequence.  Copies sit in pair order, so the
    copies a pair frees are the last ones matched."""
    pairs = vertex_pairs(m)
    copies: list[tuple[int, ...]] = [(v,) for v in range(m) if loops[v]]
    owner = [-1] * m  # vertex -> index into copies
    for s, (v,) in enumerate(copies):
        owner[v] = s
    mult = [0] * len(pairs)
    yield mult
    k = len(pairs) - 1
    while k >= 0:
        # a perfect matching leaves no free vertex for another copy
        if len(copies) < m:
            copies.append(pairs[k])
            if _augment(len(copies) - 1, copies, owner, [False] * m):
                mult[k] += 1
                yield mult
                if len(copies) < m:  # else the pairs after k stay at 0
                    k = len(pairs) - 1
                continue
            copies.pop()
        for _ in range(mult[k]):
            owner[owner.index(len(copies) - 1)] = -1
            copies.pop()
        mult[k] = 0
        k -= 1


def enumerate_sequences(m: int) -> Iterator[EdgeMultiplicities]:
    """Yield every Hall-feasible multiplicity sequence exactly once, in
    lexicographic order of (loop, pair), from one Hall walk per loop set.
    A loop multiplicity is 0 or 1, as two copies of {v} have no distinct
    representatives."""
    _check_enum_bound(m)
    for loop in product((0, 1), repeat=m):
        for mult in _hall_walk(m, loop):
            yield EdgeMultiplicities(m, loop, tuple(mult))


@lru_cache(maxsize=None)
def _component_tally(m: int) -> tuple[tuple[tuple[int, int, int, bool], int], ...]:
    """Counts of the multigraphs on m vertices by (loops, single edges,
    doubled pairs, connected), by a dynamic programme over components.

    The vertices come one at a time.  A state is the sorted multiset of
    (size, has a cycle) of the components so far, with the tallies.  A new
    vertex takes a loop or not, then joins each earlier component of size s
    by no edge, by one single edge (s ways) or, if neither side has a cycle
    yet, by two single edges to distinct vertices (C(s, 2) ways) or one
    doubled edge (s ways); a branch whose merged component would hold two
    cycles is dropped.  The graph fixes each vertex's edges to the earlier
    ones, so each multigraph arises exactly once."""
    states = {((), 0, 0, 0): 1}  # (components, loops, single, doubled) -> graphs
    for _ in range(m):
        grown: dict = {}
        for (parts, loops, single, doubled), count in states.items():
            for loop in (0, 1):
                # (parts left apart, merged size, merged cycles, single, doubled)
                branches = {((), 1, loop, single, doubled): count}
                for s, cyc in parts:
                    step: dict = {}
                    for (kept, size, c, si, do), w in branches.items():
                        joined = size + s
                        joins = [((kept + ((s, cyc),), size, c, si, do), w)]
                        if c + cyc <= 1:
                            joins.append(((kept, joined, c + cyc, si + 1, do), w * s))
                        if c + cyc == 0:
                            joins.append(((kept, joined, 1, si, do + 1), w * s))
                            joins.append(((kept, joined, 1, si + 2, do), w * comb(s, 2)))
                        for key, weight in joins:
                            if weight:  # C(1, 2) = 0: a lone vertex takes no two edges
                                step[key] = step.get(key, 0) + weight
                    branches = step
                for (kept, size, c, si, do), w in branches.items():
                    key = (tuple(sorted(kept + ((size, c),))), loops + loop, si, do)
                    grown[key] = grown.get(key, 0) + w
        states = grown
    tally: dict[tuple[int, int, int, bool], int] = {}
    for (parts, loops, single, doubled), count in states.items():
        key = (loops, single, doubled, len(parts) == 1)
        tally[key] = tally.get(key, 0) + count
    return tuple(tally.items())


def graph_census(m: int) -> dict[GraphStats, int]:
    """Counts of graphs by (n_loops, n_single, n_pairs) signature, in
    signature order."""
    _check_enum_bound(m)
    counts: dict[GraphStats, int] = {}
    for (loops, single, doubled, _), count in _component_tally(m):
        key = GraphStats(loops, single, doubled)
        counts[key] = counts.get(key, 0) + count
    return dict(sorted(counts.items()))


class StructureCounts(NamedTuple):
    trees: int
    looped_trees: int
    enhanced_trees: int
    quasitrees: int


def structure_counts(m: int) -> StructureCounts:
    """Counts of the connected graphs, split into the four shapes a
    connected at-most-one-cycle multigraph can take: tree (#edges = m-1),
    tree plus one loop, tree with one edge doubled, and simple unicyclic
    with cycle length >= 3."""
    _check_enum_bound(m)
    trees = looped = enhanced = quasi = 0
    for (loops, single, doubled, connected), count in _component_tally(m):
        if not connected:
            continue
        if loops + single + 2 * doubled == m - 1:
            trees += count
        elif loops:
            looped += count
        elif doubled:
            enhanced += count
        else:
            quasi += count
    return StructureCounts(trees, looped, enhanced, quasi)


@lru_cache(maxsize=None)
def _hall_tally(m: int) -> tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], int], ...]:
    """Counts of the Hall-feasible multiplicity sequences for m by the
    multisets of their nonzero loop and pair multiplicities (each a sorted
    tuple), from one Hall walk per loop count.

    Relabelling the vertices keeps Hall's condition and both multisets, so
    for each l = 0 .. m the walk puts the loops on vertices 0 .. l - 1 and
    counts every sequence C(m, l) times.  A pair has two endpoints, so its
    multiplicity is at most 2 and (l, #pairs of 1, #pairs of 2) names the
    multisets."""
    counts: dict[tuple[int, int, int], int] = {}
    for loops in range(m + 1):
        weight = comb(m, loops)
        for mult in _hall_walk(m, (1,) * loops + (0,) * (m - loops)):
            key = (loops, mult.count(1), mult.count(2))
            counts[key] = counts.get(key, 0) + weight
    return tuple(
        (((1,) * loops, (1,) * single + (2,) * double), count)
        for (loops, single, double), count in counts.items()
    )


def sequence_census(m: int) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """Counts of the Hall-feasible multiplicity sequences by
    (loop multiplicities, pair multiplicities): the nonzero entries of
    ``loop`` and of ``pair``, each as a sorted tuple.  Read off the Hall
    walk, which shares no code with the multigraph census or listing."""
    _check_enum_bound(m)
    return dict(sorted(_hall_tally(m)))
