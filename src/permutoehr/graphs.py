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

Each presentation has its own counting walk: a depth-first assignment of
multiplicities slot by slot (singletons, then pairs) that tallies its
leaves instead of building them, once per m and process.

* The union-find walk enumerates multigraphs.  It gives a pair
  multiplicity 0, 1 or 2 and a vertex at most one loop, pruning any branch
  in which a component acquires a second cycle, and tallies the graphs by
  (loops, single edges, doubled pairs, connected).  ``graph_census`` (and
  with it the ``graphsum`` engine) and ``structure_counts`` read it.
* The Hall walk enumerates multiplicity sequences.  It keeps a live
  slot-to-vertex matching and gives a slot one more copy for as long as an
  augmenting path extends the matching, and tallies the sequences by the
  multisets of their nonzero loop and pair multiplicities.
  ``sequence_census`` (and with it the ``postnikov`` engine) reads it.

The listings ``enumerate_graphs`` and ``enumerate_sequences`` walk the
multigraphs lazily and build every member.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
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


def component_cycle_check(graph: Multigraph) -> bool:
    """True iff every connected component has #edges <= #vertices, i.e. at
    most one cycle (a loop counts as one edge and one cycle)."""
    dsu = _DisjointSet(graph.m)
    for i, c in enumerate(graph.loops):
        for _ in range(c):
            dsu.add_loop(i)
    for (i, j), c in zip(vertex_pairs(graph.m), graph.pair_mult):
        for _ in range(c):
            dsu.add_edge(i, j)
    return all(
        dsu.edges[r] <= dsu.size[r] for r in range(graph.m) if dsu.parent[r] == r
    )


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


class _DisjointSet:
    """Union-find with per-component vertex and edge counters.

    No path compression, so unions can be rolled back from an undo log;
    the enumerator leans on that to reuse one structure across the whole
    depth-first search.
    """

    __slots__ = ("parent", "size", "edges", "log")

    def __init__(self, m: int):
        self.parent = list(range(m))
        self.size = [1] * m
        self.edges = [0] * m
        self.log: list[tuple] = []

    def find(self, i: int) -> int:
        p = self.parent
        while p[i] != i:
            i = p[i]
        return i

    def add_loop(self, i: int) -> bool:
        """Add one edge wholly inside i's component; False if that gives
        the component a second cycle."""
        r = self.find(i)
        self.edges[r] += 1
        self.log.append(("e", r))
        return self.edges[r] <= self.size[r]

    def add_edge(self, i: int, j: int) -> bool:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return self.add_loop(ri)
        if self.size[ri] < self.size[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        self.size[ri] += self.size[rj]
        self.edges[ri] += self.edges[rj] + 1
        self.log.append(("u", rj, ri))
        return self.edges[ri] <= self.size[ri]

    def mark(self) -> int:
        return len(self.log)

    def rollback(self, mark: int):
        while len(self.log) > mark:
            op = self.log.pop()
            if op[0] == "e":
                self.edges[op[1]] -= 1
            else:
                _, child, root = op
                self.parent[child] = child
                self.size[root] -= self.size[child]
                self.edges[root] -= self.edges[child] + 1


def _iter_raw(m: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield (loops, pair_mult) for every feasible assignment; the caller
    wraps into Multigraph where object identity matters."""
    pairs = vertex_pairs(m)
    n_pairs = len(pairs)
    loops = [0] * m
    mult = [0] * n_pairs
    dsu = _DisjointSet(m)

    def walk(slot: int):
        if slot == m + n_pairs:
            yield tuple(loops), tuple(mult)
            return
        if slot < m:
            yield from walk(slot + 1)
            mark = dsu.mark()
            if dsu.add_loop(slot):
                loops[slot] = 1
                yield from walk(slot + 1)
                loops[slot] = 0
            dsu.rollback(mark)
        else:
            k = slot - m
            i, j = pairs[k]
            yield from walk(slot + 1)
            mark = dsu.mark()
            if dsu.add_edge(i, j):
                mult[k] = 1
                yield from walk(slot + 1)
                mark2 = dsu.mark()
                if dsu.add_edge(i, j):
                    mult[k] = 2
                    yield from walk(slot + 1)
                dsu.rollback(mark2)
                mult[k] = 0
            dsu.rollback(mark)

    yield from walk(0)


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
    component has at most one cycle, exactly once."""
    _check_enum_bound(m, bound)
    for loops, mult in _iter_raw(m):
        yield Multigraph(m, loops, mult)


def enumerate_sequences(
    m: int, bound: int = DEFAULT_GRAPH_BOUND
) -> Iterator[EdgeMultiplicities]:
    """Yield every Hall-feasible multiplicity sequence, via the bijection."""
    _check_enum_bound(m, bound)
    for loops, mult in _iter_raw(m):
        yield EdgeMultiplicities(m, loops, mult)


@lru_cache(maxsize=None)
def _union_find_tally(m: int) -> tuple[tuple[tuple[int, int, int, bool], int], ...]:
    """Counts of the multigraphs on m vertices by (loops, single edges,
    doubled pairs, connected), from one depth-first walk.

    The walk assigns the slots in the order of :func:`_iter_raw`, keeps the
    union-find forest in flat lists (no path compression, union by size) and
    undoes each union inline on the way back.  The signature travels down
    as one integer with a digit per field in base m + 1, the last digit
    counting unions, so a leaf costs one dict increment; the graph is
    connected when the unions reach m - 1."""
    pairs = vertex_pairs(m)
    ends = [(v, v) for v in range(m)] + list(pairs)
    n_slots = len(ends)
    parent = list(range(m))
    size = [1] * m
    edges = [0] * m
    base = m + 1
    loop_w, single_w, double_w = base**3, base**2, base
    codes: dict[int, int] = {}

    def walk(k: int, code: int, used: int):
        # m edges saturate every component, so the remaining slots stay 0
        if k == n_slots or used == m:
            codes[code] = codes.get(code, 0) + 1
            return
        walk(k + 1, code, used)
        i, j = ends[k]
        while parent[i] != i:
            i = parent[i]
        while parent[j] != j:
            j = parent[j]
        e, s = edges[i], size[i]
        if k < m:  # a loop at vertex k
            if e < s:
                edges[i] = e + 1
                walk(k + 1, code + loop_w, used + 1)
                edges[i] = e
        elif i == j:  # both ends already in one component
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

    walk(0, 0, 0)
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
    tuple), from one depth-first walk.

    Slot by slot (singletons, then pairs in :func:`vertex_pairs` order), the
    walk tries multiplicity 0 and then adds one more copy of the slot for as
    long as one augmenting path extends the live copy-to-vertex matching;
    Hall's condition alone decides how far a multiplicity goes.  Backtracking
    frees the vertex of each removed copy.  The multisets travel down as one
    integer with a digit per (loop or pair, multiplicity) in base m + 1."""
    family = [(v,) for v in range(m)] + list(vertex_pairs(m))
    n_slots = len(family)
    base = m + 1
    # digit of "one more loop (pair) slot with multiplicity a", a = 1..m
    loop_w = [0] + [base ** (a - 1) for a in range(1, m + 1)]
    pair_w = [0] + [base ** (m + a - 1) for a in range(1, m + 1)]
    copies: list[tuple[int, ...]] = []  # endpoints of each matched copy
    owner = [-1] * m  # vertex -> index into copies
    codes: dict[int, int] = {}

    def walk(k: int, code: int):
        # a perfect matching leaves no free vertex, so the remaining slots stay 0
        if k == n_slots or len(copies) == m:
            codes[code] = codes.get(code, 0) + 1
            return
        walk(k + 1, code)
        weights = loop_w if k < m else pair_w
        copies.append(family[k])
        a = 0
        while _augment(len(copies) - 1, copies, owner, [False] * m):
            a += 1
            walk(k + 1, code + weights[a])
            copies.append(family[k])
        copies.pop()
        for _ in range(a):
            owner[owner.index(len(copies) - 1)] = -1
            copies.pop()

    walk(0, 0)
    tally = []
    for code, count in codes.items():
        multisets = []
        for _ in ("loop", "pair"):
            mults: list[int] = []
            for a in range(1, m + 1):
                code, times = divmod(code, base)
                mults += [a] * times
            multisets.append(tuple(mults))
        tally.append((tuple(multisets), count))
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
