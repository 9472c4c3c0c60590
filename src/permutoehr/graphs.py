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

Each presentation has a counting walk and its own lazy listing, both
depth-first assignments of multiplicities.  A counting walk tallies its
leaves instead of building them, once per m and process: relabelling the
vertices keeps every tallied quantity, so for each loop count l = 0 .. m
it puts the loops on vertices 0 .. l - 1, assigns the pairs only, and
counts each leaf C(m, l) times.  A listing walks every loop set and
builds every member, in lexicographic order.

* The union-find walks give a pair multiplicity 0, 1 or 2, pruning any
  branch in which a component acquires a second cycle.  The tally counts
  multigraphs by (loops, single edges, doubled pairs, connected) for
  ``graph_census`` (and the ``graphsum`` engine) and ``structure_counts``;
  the listing is ``enumerate_graphs``.
* The Hall walks keep a live slot-to-vertex matching, the copy of each
  loop matched to its vertex, and give a pair one more copy for as long
  as an augmenting path extends the matching.  The tally counts sequences
  by the multisets of their nonzero loop and pair multiplicities for
  ``sequence_census`` (and the ``postnikov`` engine); the listing is
  ``enumerate_sequences``.

The walks of one presentation share no code with the other's, so the two
listings, like the two tallies, can fail independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb
from typing import Iterator, NamedTuple, Optional

from .errors import BudgetError, DEFAULT_GRAPH_BOUND


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


def graph_stats(graph: Multigraph) -> GraphStats:
    return GraphStats(
        n_loops=sum(graph.loops),
        n_single=sum(1 for c in graph.pair_mult if c == 1),
        n_pairs=sum(1 for c in graph.pair_mult if c == 2),
    )


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


def _check_enum_bound(m: int, bound: int):
    if isinstance(m, bool) or not isinstance(m, int):
        raise ValueError(f"m must be an integer, got {m!r}")
    if m < 1:
        raise ValueError("need m >= 1")
    if m > bound:
        raise BudgetError(f"enumeration for m={m} exceeds the bound {bound}")


def enumerate_graphs(
    m: int, bound: int = DEFAULT_GRAPH_BOUND
) -> Iterator[Multigraph]:
    """Yield every labelled multigraph on m vertices in which each
    component has at most one cycle, exactly once, in lexicographic order
    of (loops, pair_mult).  The union-find forest lives in flat lists
    (no path compression), each union undone inline on the way back."""
    _check_enum_bound(m, bound)
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


def enumerate_sequences(
    m: int, bound: int = DEFAULT_GRAPH_BOUND
) -> Iterator[EdgeMultiplicities]:
    """Yield every Hall-feasible multiplicity sequence exactly once, in
    lexicographic order of (loop, pair).  A loop multiplicity is 0 or 1,
    as two copies of {v} have no distinct representatives; each pair copy
    frees its vertex on the way back."""
    _check_enum_bound(m, bound)
    pairs = vertex_pairs(m)
    n_pairs = len(pairs)
    copies: list[tuple[int, ...]] = []  # endpoints of each matched copy
    owner = [-1] * m  # vertex -> index into copies
    mult = [0] * n_pairs

    def walk(k: int) -> Iterator[EdgeMultiplicities]:
        # a perfect matching leaves no free vertex, so the remaining pairs stay 0
        if k == n_pairs or len(copies) == m:
            yield EdgeMultiplicities(m, loop, tuple(mult))
            return
        yield from walk(k + 1)
        copies.append(pairs[k])
        while _augment(len(copies) - 1, copies, owner, [False] * m):
            mult[k] += 1
            yield from walk(k + 1)
            copies.append(pairs[k])
        copies.pop()
        for _ in range(mult[k]):
            owner[owner.index(len(copies) - 1)] = -1
            copies.pop()
        mult[k] = 0

    for loop in product((0, 1), repeat=m):
        copies[:] = [(v,) for v in range(m) if loop[v]]
        owner[:] = [copies.index((v,)) if loop[v] else -1 for v in range(m)]
        yield from walk(0)


@lru_cache(maxsize=None)
def _union_find_tally(m: int) -> tuple[tuple[tuple[int, int, int, bool], int], ...]:
    """Counts of the multigraphs on m vertices by (loops, single edges,
    doubled pairs, connected), from one depth-first walk per loop count.

    Relabelling the vertices keeps that signature, so for each l = 0 .. m
    the walk puts one loop on each of vertices 0 .. l - 1, assigns the pairs
    (0, 1 or 2 edges each) and counts every leaf C(m, l) times.  The
    union-find forest lives in flat lists (no path compression, union by
    size), each union undone inline on the way back.  The signature travels
    down as one integer with a digit per field in base m + 1, the last one
    counting unions: the graph is connected when they reach m - 1."""
    pairs = vertex_pairs(m)
    n_pairs = len(pairs)
    parent = list(range(m))
    size = [1] * m
    edges = [0] * m
    base = m + 1
    loop_w, single_w, double_w = base**3, base**2, base
    codes: dict[int, int] = {}
    weight = 1

    def walk(k: int, code: int, used: int):
        # m edges saturate every component, so the remaining pairs stay 0
        if k == n_pairs or used == m:
            codes[code] = codes.get(code, 0) + weight
            return
        walk(k + 1, code, used)
        i, j = pairs[k]
        while parent[i] != i:
            i = parent[i]
        while parent[j] != j:
            j = parent[j]
        e, s = edges[i], size[i]
        if i == j:  # both ends already in one component
            if e < s:
                edges[i] = e + 1
                walk(k + 1, code + single_w, used + 1)
                if e + 1 < s:
                    edges[i] = e + 2
                    walk(k + 1, code + double_w, used + 2)
                edges[i] = e
        else:
            if s < size[j]:
                i, j = j, i
                e, s = edges[i], size[i]
            joined_e, joined_s = e + edges[j] + 1, s + size[j]
            if joined_e <= joined_s:
                parent[j] = i
                size[i] = joined_s
                edges[i] = joined_e
                walk(k + 1, code + single_w + 1, used + 1)
                if joined_e < joined_s:
                    edges[i] = joined_e + 1
                    walk(k + 1, code + double_w + 1, used + 2)
                parent[j] = j
                size[i] = s
                edges[i] = e

    for loops in range(m + 1):
        edges[:loops] = [1] * loops  # one loop at each of vertices 0 .. loops - 1
        weight = comb(m, loops)
        walk(0, loops * loop_w, loops)
    tally: dict[tuple[int, int, int, bool], int] = {}
    for code, count in codes.items():
        code, unions = divmod(code, base)
        code, doubled = divmod(code, base)
        loops, single = divmod(code, base)
        key = (loops, single, doubled, unions == m - 1)
        tally[key] = tally.get(key, 0) + count
    return tuple(tally.items())


def graph_census(m: int, bound: int = DEFAULT_GRAPH_BOUND) -> dict[GraphStats, int]:
    """Counts of graphs by (n_loops, n_single, n_pairs) signature, in
    signature order."""
    _check_enum_bound(m, bound)
    counts: dict[GraphStats, int] = {}
    for (loops, single, doubled, _), count in _union_find_tally(m):
        key = GraphStats(loops, single, doubled)
        counts[key] = counts.get(key, 0) + count
    return dict(sorted(counts.items()))


class StructureCounts(NamedTuple):
    trees: int
    looped_trees: int
    enhanced_trees: int
    quasitrees: int


def structure_counts(m: int, bound: int = DEFAULT_GRAPH_BOUND) -> StructureCounts:
    """Counts of the connected graphs, split into the four shapes a
    connected at-most-one-cycle multigraph can take: tree (#edges = m-1),
    tree plus one loop, tree with one edge doubled, and simple unicyclic
    with cycle length >= 3."""
    _check_enum_bound(m, bound)
    trees = looped = enhanced = quasi = 0
    for (loops, single, doubled, connected), count in _union_find_tally(m):
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
    tuple), from one depth-first walk per loop count.

    Two copies of one singleton {v} have no distinct representatives, so a
    loop multiplicity is 0 or 1 and its copy is matched to v.  Relabelling
    the vertices keeps Hall's condition and both multisets, so for each
    l = 0 .. m the walk seeds the live copy-to-vertex matching with loops
    on vertices 0 .. l - 1 and counts every leaf C(m, l) times.  Pair by
    pair it adds one more copy for as long as one augmenting path extends
    the matching (Hall's condition alone decides how far a multiplicity
    goes), and frees each copy's vertex on the way back.  The multisets
    travel down as one integer in base m + 1: digit 0 counts the loops,
    digit a the pairs of multiplicity a."""
    pairs = vertex_pairs(m)
    n_pairs = len(pairs)
    base = m + 1
    pair_w = [base**a for a in range(m + 1)]
    copies: list[tuple[int, ...]] = []  # endpoints of each matched copy
    owner = [-1] * m  # vertex -> index into copies
    codes: dict[int, int] = {}
    weight = 1

    def walk(k: int, code: int):
        # a perfect matching leaves no free vertex, so the remaining pairs stay 0
        if k == n_pairs or len(copies) == m:
            codes[code] = codes.get(code, 0) + weight
            return
        walk(k + 1, code)
        copies.append(pairs[k])
        a = 0
        while _augment(len(copies) - 1, copies, owner, [False] * m):
            a += 1
            walk(k + 1, code + pair_w[a])
            copies.append(pairs[k])
        copies.pop()
        for _ in range(a):
            owner[owner.index(len(copies) - 1)] = -1
            copies.pop()

    for loops in range(m + 1):
        copies[:] = [(v,) for v in range(loops)]
        owner[:] = list(range(loops)) + [-1] * (m - loops)
        weight = comb(m, loops)
        walk(0, loops)
    tally = []
    for code, count in codes.items():
        code, loops = divmod(code, base)
        pair_mults: list[int] = []
        for a in range(1, m + 1):
            code, times = divmod(code, base)
            pair_mults += [a] * times
        tally.append((((1,) * loops, tuple(pair_mults)), count))
    return tuple(tally)


def sequence_census(
    m: int, bound: int = DEFAULT_GRAPH_BOUND
) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """Counts of the Hall-feasible multiplicity sequences by
    (loop multiplicities, pair multiplicities): the nonzero entries of
    ``loop`` and of ``pair``, each as a sorted tuple.  Read off the Hall
    walk, which shares no code with the multigraph walks."""
    _check_enum_bound(m, bound)
    return dict(sorted(_hall_tally(m)))
