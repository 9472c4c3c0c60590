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
union-find walk; the sequences are counted by a Hall DP and listed by a
Hall walk.

* The component DP adds the vertices one at a time and keeps only the
  multiset of (size, has a cycle) of the components so far, since the
  counts factor over connected components; each multiset carries its
  multigraphs tallied by (loops, single edges, doubled pairs).
  ``graph_census`` (and the ``graphsum`` engine) sums the tallies of the
  states after m vertices over the multisets; ``structure_counts`` reads
  only the two states of one component, ((m, 0),) and ((m, 1),).
* The union-find walk ``enumerate_graphs``, for one loop set, steps like
  an odometer through the pair multiplicities (0, 1 or 2) in one frame: a
  pair takes one more copy unless its component would then hold a second
  cycle.
* The Hall DP ``_hall_tally`` takes the slots in lexicographic order and
  keeps, per state, the family of minimal vertex sets that a system of
  distinct representatives of the slots so far uses; a vertex leaves
  every set once its last slot is past.  It counts sequences by
  ``GraphStats`` (loops, single pairs, doubled pairs), the signature the
  component DP counts multigraphs by, for ``sequence_census`` (and the
  ``postnikov`` engine).
* The Hall walk ``_hall_walk``, for one loop set, keeps a live
  slot-to-vertex matching, the copy of each loop matched to its vertex,
  and steps like an odometer through the pair multiplicities in one
  frame: a pair takes one more copy while an augmenting path extends the
  matching.  ``enumerate_sequences`` runs it on every loop set.

The Hall DP runs once per m and process.  The component DP builds its
states after k vertices once per k and process, from those after k - 1,
and every m >= k reads them, so no m starts again from vertex 0.  Each DP
is refused up front when its work estimate (``component_work``,
``hall_work``) exceeds the budget.
Each listing walks every loop set and builds every member, in
lexicographic order, and stops at the vertex bound ``DEFAULT_GRAPH_BOUND``,
as its work is its output.  The graph listing is also refused up front when
its length, ``graph_count``, exceeds the budget; the sequence listing is
capped only, so that the Hall walk reads no component DP.  The two DPs and
the two walks share no code, so the censuses and the listings, like the two
presentations, can fail independently.

The listings, the bijection and the extended box of ``verify`` build
their members from parts they know valid through ``_member``, which skips
the checks that the public ``Multigraph`` and ``EdgeMultiplicities``
constructors make on outside input.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import comb
from typing import Iterator, NamedTuple, Optional

from ._record import Record
from .errors import (
    DEFAULT_GRAPH_BOUND,
    BudgetError,
    refuse_above_budget,
    refuse_past_floor,
    require_int,
)


@lru_cache(maxsize=None)
def vertex_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """All pairs (i, j) with 0 <= i < j < m, in lexicographic order; this
    fixes the indexing of the ``pair`` tuples throughout the module."""
    return tuple(combinations(range(m), 2))


def _check_parts(m, **parts) -> None:
    """The public constructors' checks: ``m`` an int and the two parts, per
    vertex and then per pair of :func:`vertex_pairs`, tuples of m and
    C(m, 2) nonnegative ints."""
    require_int(m=m)
    for (name, part), length in zip(parts.items(), (m, m * (m - 1) // 2)):
        if not isinstance(part, tuple):
            raise ValueError(f"{name} must be a tuple, got {part!r}")
        require_int(**{f"{name}[{k}]": c for k, c in enumerate(part)})
        if len(part) != length:
            raise ValueError("multiplicity tuple lengths do not match m")
        if any(c < 0 for c in part):
            raise ValueError(f"{name} must be nonnegative")


class EdgeMultiplicities(Record):
    """Candidate member of the Hall-feasible sequence set: ``loop[i]`` is
    the multiplicity of singleton {i+1}, ``pair[k]`` the multiplicity of
    the k-th pair from :func:`vertex_pairs`."""

    m: int
    loop: tuple[int, ...]
    pair: tuple[int, ...]

    def _check(self):
        _check_parts(self.m, loop=self.loop, pair=self.pair)


class Multigraph(Record):
    """Labelled multigraph on m vertices with loop counts and pairwise edge
    multiplicities (indexed as in :func:`vertex_pairs`)."""

    m: int
    loops: tuple[int, ...]
    pair_mult: tuple[int, ...]

    def _check(self):
        _check_parts(self.m, loops=self.loops, pair_mult=self.pair_mult)


def _member(cls, **fields):
    """The ``cls`` (:class:`EdgeMultiplicities` or :class:`Multigraph`)
    with ``fields``, built without the public constructor's checks, for
    parts the package made itself and knows valid."""
    out = object.__new__(cls)
    out.__dict__.update(fields)
    return out


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
    if sum(seq.loop) + sum(seq.pair) > seq.m:
        return None  # more slots than vertices
    slots = edge_slots(seq)
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
    return _member(Multigraph, m=seq.m, loops=seq.loop, pair_mult=seq.pair)


def from_multigraph(graph: Multigraph) -> EdgeMultiplicities:
    """Read the loop and pair multiplicities back off; requires every
    component to have at most one cycle."""
    if not component_cycle_check(graph):
        raise ValueError("a component has more edges than vertices")
    return _member(EdgeMultiplicities, m=graph.m, loop=graph.loops, pair=graph.pair_mult)


def _require_vertex_count(m: int):
    require_int(m=m)
    if m < 1:
        raise ValueError("need m >= 1")


def _check_enum_bound(m: int):
    """The listings' vertex bound, whatever the budget: their work is
    their output."""
    _require_vertex_count(m)
    if m > DEFAULT_GRAPH_BOUND:
        raise BudgetError(f"enumeration for m={m} exceeds the bound {DEFAULT_GRAPH_BOUND}")


def enumerate_graphs(m: int) -> Iterator[Multigraph]:
    """Yield every labelled multigraph on m vertices in which each
    component has at most one cycle, exactly once, in lexicographic order
    of (loops, pair_mult), from one walk per loop set in one frame.

    The walk steps like an odometer.  From the last pair backwards, a pair
    takes one more copy unless the component its ends then share would
    hold more edges than vertices, and the walk yields and, unless the m
    edges now saturate every component, starts again from the last pair;
    otherwise the pair gives its copies back and the pair before it is
    tried.  The union-find forest lives in flat lists (no path
    compression); a pair's first copy makes its union and saves what that
    overwrote, and giving the copies back restores it, later pairs first.

    Past the vertex bound, or when :func:`graph_count` exceeds the budget,
    the first ``next`` raises before anything is yielded."""
    refuse_above_budget(graph_count(m), "{} graphs")
    pairs = vertex_pairs(m)
    last = len(pairs) - 1
    parent = list(range(m))
    size = [1] * m
    edges = [0] * m
    mult = [0] * len(pairs)
    undo: list = [None] * len(pairs)  # pair k's (root i, root j, edges[i], size[i])
    for loops in product((0, 1), repeat=m):
        edges[:] = loops
        used = sum(loops)
        k = -1
        while True:
            yield _member(Multigraph, m=m, loops=loops, pair_mult=tuple(mult))
            if used < m:  # else the pairs after k stay at 0
                k = last
            while k >= 0:
                c = mult[k]
                if c:
                    i, j, e, s = undo[k]
                    if c == 1 and edges[i] < size[i]:
                        edges[i] += 1
                        mult[k] = 2
                        used += 1
                        break
                    parent[j] = j  # a no-op when i == j
                    size[i] = s
                    edges[i] = e
                    mult[k] = 0
                    used -= c
                else:
                    i, j = pairs[k]
                    while parent[i] != i:
                        i = parent[i]
                    while parent[j] != j:
                        j = parent[j]
                    e, s = edges[i], size[i]
                    joined_e, joined_s = (e, s) if i == j else (e + edges[j], s + size[j])
                    if joined_e < joined_s:
                        undo[k] = (i, j, e, s)
                        parent[j] = i
                        size[i] = joined_s
                        edges[i] = joined_e + 1
                        mult[k] = 1
                        used += 1
                        break
                k -= 1
            else:  # every pair is back at 0: the loop set is done
                break


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
    copies' vertices and the pair before it is tried.  Hall's condition is
    closed downwards, so each step reaches the lexicographically next
    sequence.  Copies sit in pair order, so the copies a pair frees are the
    last ones matched."""
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
            yield _member(EdgeMultiplicities, m=m, loop=loop, pair=tuple(mult))


# the census DPs' work estimates as a refusal states them
COMPONENT_WORK = "component DP work estimate vertices*states m*3^m = {}"
HALL_WORK = "Hall DP work estimate slots*states m(m+1)/2*4^m = {}"


def component_work(m: int) -> int:
    """Work estimate of the component DP behind :func:`graph_census` and
    :func:`structure_counts`, for m >= 1: m vertex steps times 3^m.
    Counted from a cold start up to m, the DP's branch steps, run once per
    multiset of components, number at most a third of this up to m = 14,
    the last m the default budget admits (292,417, or 0.44 %, at m = 14),
    and grow about twofold per vertex, 1.75-fold at m = 14; the
    convolutions of their tally shifts with the multisets' tallies number
    about as many (333,288 at m = 14).  A refusal states it as
    :data:`COMPONENT_WORK` does."""
    return m * 3**m


def hall_work(m: int) -> int:
    """Work estimate of the Hall DP behind :func:`sequence_census`, for
    m >= 1: m(m+1)/2 slot steps times 4^m.  The tallies the DP carries
    through its slots number under 4^m in all up to m = 10, the last m the
    default budget admits, and grow close to fourfold per vertex.  A
    refusal states it as :data:`HALL_WORK` does."""
    return m * (m + 1) // 2 * 4**m


# the component DP packs a tally (loops, single edges, doubled pairs) into
# one int, a field of this many bits each; a field never exceeds the
# vertex count, and no run reaches m = 2^10, where m * 3^m passes 10^491
_FIELD = 10
_MASK = (1 << _FIELD) - 1
_SINGLE = 1 << _FIELD
_DOUBLED = 1 << 2 * _FIELD


@lru_cache(maxsize=None)
def _component_states(k: int) -> dict[tuple[tuple[int, int], ...], dict[int, int]]:
    """The component DP's states after k vertices: the sorted multiset of
    (size, has a cycle) of the components so far, each with its multigraphs
    tallied by packed (loops, single edges, doubled pairs).  Built from the
    states after k - 1 vertices and shared by every m >= k; read only.

    A new vertex takes a loop or not, then joins each earlier component of
    size s by no edge, by one single edge (s ways) or, if neither side has
    a cycle yet, by two single edges to distinct vertices (C(s, 2) ways) or
    one doubled edge (s ways); a branch whose merged component would hold
    two cycles is dropped.  The branches depend on the multiset alone, so
    they run once per multiset, and each branch's tally shift is convolved
    with the multiset's tally once, at the end.  The graph fixes each
    vertex's edges to the earlier ones, so each multigraph arises exactly
    once."""
    if k == 0:
        return {(): {0: 1}}
    grown: dict = {}
    for parts, tally in _component_states(k - 1).items():
        # (parts left apart, merged size, merged cycles, tally shift) -> ways,
        # the new vertex without and with a loop
        branches = {((), 1, 0, 0): 1, ((), 1, 1, 1): 1}
        for part in parts:
            s, cyc = part
            pairs = comb(s, 2)  # 0 for a lone vertex: it takes no two edges
            step: dict = {}
            for (kept, size, c, shift), w in branches.items():
                key = (kept + (part,), size, c, shift)
                step[key] = step.get(key, 0) + w
                if c + cyc > 1:
                    continue
                joined = size + s
                key = (kept, joined, c + cyc, shift + _SINGLE)
                step[key] = step.get(key, 0) + w * s
                if c + cyc:
                    continue
                key = (kept, joined, 1, shift + _DOUBLED)
                step[key] = step.get(key, 0) + w * s
                if pairs:
                    key = (kept, joined, 1, shift + 2 * _SINGLE)
                    step[key] = step.get(key, 0) + w * pairs
            branches = step
        moves: dict = {}  # (components, tally shift) -> ways
        for (kept, size, c, shift), w in branches.items():
            key = (tuple(sorted(kept + ((size, c),))), shift)
            moves[key] = moves.get(key, 0) + w
        for (key, shift), w in moves.items():
            target = grown.setdefault(key, {})
            for packed, count in tally.items():
                target[packed + shift] = target.get(packed + shift, 0) + w * count
    return grown


@lru_cache(maxsize=None)
def _graph_census(m: int) -> tuple[tuple[GraphStats, int], ...]:
    """The tallies of :func:`_component_states` after m vertices, unpacked
    and summed over the multisets of components, in signature order."""
    counts: dict[int, int] = {}
    for tally in _component_states(m).values():
        for packed, count in tally.items():
            counts[packed] = counts.get(packed, 0) + count
    return tuple(sorted(
        (GraphStats(packed & _MASK, packed >> _FIELD & _MASK, packed >> 2 * _FIELD), count)
        for packed, count in counts.items()
    ))


def graph_count(m: int) -> int:
    """The number of graphs :func:`enumerate_graphs` lists for m, read off
    the component DP without the census's own refusal (m*3^m = 18 at m = 2,
    above the 8 graphs listed); m is held to the listings' vertex bound."""
    _check_enum_bound(m)
    return sum(count for _, count in _graph_census(m))


def graph_census(m: int) -> dict[GraphStats, int]:
    """Counts of graphs by (n_loops, n_single, n_pairs) signature, in
    signature order, refused up front when :func:`component_work` exceeds
    the budget.  Each call returns a fresh dict."""
    _require_vertex_count(m)
    refuse_past_floor(lambda: component_work(m), COMPONENT_WORK, m)
    return dict(_graph_census(m))


class StructureCounts(NamedTuple):
    trees: int
    looped_trees: int
    enhanced_trees: int
    quasitrees: int


def structure_counts(m: int) -> StructureCounts:
    """Counts of the connected graphs, split into the four shapes a
    connected at-most-one-cycle multigraph can take: tree (#edges = m-1),
    tree plus one loop, tree with one edge doubled, and simple unicyclic
    with cycle length >= 3.  Read off the two one-component states of
    :func:`_component_states` after m vertices: the trees are the tally of
    ((m, 0),), and the tally of ((m, 1),) splits by its loop and doubled
    fields.  Refused up front when :func:`component_work` exceeds the
    budget."""
    _require_vertex_count(m)
    refuse_past_floor(lambda: component_work(m), COMPONENT_WORK, m)
    states = _component_states(m)
    looped = enhanced = quasi = 0
    for packed, count in states[((m, 1),)].items():
        if packed & _MASK:
            looped += count
        elif packed >> 2 * _FIELD:
            enhanced += count
        else:
            quasi += count
    return StructureCounts(sum(states[((m, 0),)].values()), looped, enhanced, quasi)


def _minimal(sets) -> frozenset[int]:
    """The inclusion-minimal members of ``sets``, vertex sets as bitmasks."""
    ordered = sorted(set(sets), key=int.bit_count)
    if not ordered or ordered[0].bit_count() == ordered[-1].bit_count():
        return frozenset(ordered)  # sets of one size are incomparable
    kept: list[int] = []
    for w in ordered:
        for k in kept:
            if k & w == k:
                break
        else:
            kept.append(w)
    return frozenset(kept)


def _take(family: frozenset[int], slot: int) -> frozenset[int]:
    """The SDR family after one more copy of ``slot``: the minimal sets
    W | {v} with W in ``family`` and v in ``slot`` outside W; empty when no
    SDR takes the copy."""
    grown = []
    for w in family:
        free = slot & ~w
        while free:
            v = free & -free
            grown.append(w | v)
            free ^= v
    return _minimal(grown)


def _add(states: dict, family: frozenset[int], tally: dict[int, int], shift: int):
    """Add ``tally``, every key moved up by ``shift``, to the tally of
    ``family`` in ``states``."""
    target = states.get(family)
    if target is None:
        states[family] = {key + shift: count for key, count in tally.items()}
        return
    for key, count in tally.items():
        target[key + shift] = target.get(key + shift, 0) + count


@lru_cache(maxsize=None)
def _hall_tally(m: int) -> tuple[tuple[GraphStats, int], ...]:
    """Counts of the Hall-feasible multiplicity sequences for m by
    :class:`GraphStats` signature, in signature order, by a transfer DP
    over the slots.

    The slots come in lexicographic order, each vertex i's row being its
    loop {i} and then the pairs {i, j} with j > i.  A state is the family of
    minimal vertex sets (bitmasks) that some system of distinct
    representatives of the slots so far uses: each SDR of a longer slot
    list restricts to one of the shorter, and a later copy needs a vertex
    outside the set, so a copy of slot e maps the family to the minimal
    sets among W | {v}, v in e outside W (:func:`_take`), and an empty
    family means Hall's condition fails.  Two copies of {i}, or three of a
    pair, have no distinct representatives, so a loop takes at most one
    copy and a pair two.  After row i no later slot holds i, so i is
    dropped from every set and the family made minimal again.

    Each family carries its sequences tallied by (loops, single pairs,
    doubled pairs), packed as one int in base m + 1.  No matching,
    union-find or component code is reached."""
    width = m + 1
    states = {frozenset((0,)): {0: 1}}  # family -> {packed tally: sequences}
    for i in range(m):
        slots = [(1 << i, (1,))]
        slots += [((1 << i) | (1 << j), (width, width * width)) for j in range(i + 1, m)]
        for slot, shifts in slots:  # shifts[c - 1]: the tally step of c copies
            # no copy of the slot keeps every family and tally
            grown = {family: dict(tally) for family, tally in states.items()}
            for family, tally in states.items():
                taken = family
                for shift in shifts:
                    taken = _take(taken, slot)
                    if not taken:
                        break
                    _add(grown, taken, tally, shift)
            states = grown
        keep = ~(1 << i)
        retired: dict = {}
        for family, tally in states.items():
            _add(retired, _minimal(w & keep for w in family), tally, 0)
        states = retired
    (tally,) = states.values()  # every vertex retired: the family {empty set}
    return tuple(sorted(
        (GraphStats(key % width, key // width % width, key // width**2), count)
        for key, count in tally.items()
    ))


def sequence_census(m: int) -> dict[GraphStats, int]:
    """Counts of the Hall-feasible multiplicity sequences by
    :class:`GraphStats` signature (the number of loops, of pairs of
    multiplicity 1 and of pairs of multiplicity 2; Hall's condition allows
    no more), in signature order, the keys :func:`graph_census` counts
    multigraphs by.  Read off the Hall DP, which shares no code with the
    multigraph census or listing, and refused up front when
    :func:`hall_work` exceeds the budget.  Each call returns a fresh dict."""
    _require_vertex_count(m)
    refuse_past_floor(lambda: hall_work(m), HALL_WORK, m)
    return dict(_hall_tally(m))
