"""Geometry of the partial permutohedron P(m, n).

P(m, n) is the convex hull of the vectors in {0, 1, ..., n}^m whose
nonzero entries are distinct.  This module gives its vertices (walked in
lexicographic order and never held), facet inequalities, membership in
integer dilates, an exact lattice-point count by a dynamic programme over
the (entries placed, running sum) states of the sorted points, the lift
into the hyperplane in R^(m+1), and its decomposition as a Minkowski sum
of dilated coordinate simplices (valid for n >= m - 1).

Its facets are x_i >= 0 and sum_{i in S} x_i <= z(|S|) for one cap sequence
z, :meth:`PartialPermutohedron.cap`: the facet side reads z alone and the
vertex side n, so that the two describe P(m, n) independently.

Everything is integer arithmetic on explicit data; the formula engines
live in :mod:`permutoehr.ehrhart` and are cross-checked against the
counts produced here.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterator

from ._record import Record
from .errors import refuse_above_budget, refuse_past_floor, require_int

# the lattice DP's work bound as a refusal states it
LATTICE_WORK = "lattice DP work bound values*states*run lengths tn*(K+1)(S+1)*K = {}"


class FacetInequality(Record):
    """One affine halfspace: sum(coeffs[i] * x[i]) <sense> bound.

    In the dilate t*P the right-hand side scales to t*bound.
    """

    coeffs: tuple[int, ...]
    sense: str  # "<=" or ">="
    bound: int

    def value(self, x) -> int:
        return sum(c * xi for c, xi in zip(self.coeffs, x))

    def satisfied(self, x, t: int = 1) -> bool:
        v = self.value(x)
        return v <= t * self.bound if self.sense == "<=" else v >= t * self.bound

    def __str__(self):
        terms = [
            ("x%d" % (i + 1)) if c == 1 else ("%d*x%d" % (c, i + 1))
            for i, c in enumerate(self.coeffs)
            if c
        ]
        lhs = " + ".join(terms) if terms else "0"
        return f"{lhs} {self.sense} {self.bound}"


class PartialPermutohedron:
    """P(m, n) for positive integers m (ambient dimension) and n (value cap)."""

    def __init__(self, m: int, n: int):
        require_int(m=m, n=n)
        if m < 1 or n < 1:
            raise ValueError(f"P(m, n) needs m >= 1 and n >= 1, got m={m}, n={n}")
        self.m = m
        self.n = n

    def __repr__(self):
        return f"PartialPermutohedron({self.m}, {self.n})"

    # -- the cap sequence z of the facet side -------------------------------

    def cap(self, k: int) -> int:
        """z(k) for 0 <= k <= m: n + (n-1) + ... + (n-j+1), j = min(k, n)."""
        j = min(k, self.n)
        return j * self.n - j * (j - 1) // 2

    @cached_property
    def caps(self) -> tuple[int, ...]:
        """z(1), ..., z(min(m, n)), the last of which is z(m)."""
        return tuple(map(self.cap, range(1, min(self.m, self.n) + 1)))

    # -- V- and H-descriptions --------------------------------------------

    def vertices(self) -> Iterator[tuple[int, ...]]:
        """All vertices, walked in lexicographic order and never held: zeros
        in m-i positions, the other i entries being n, n-1, ..., n-i+1 in
        any order, for i = 0 .. min(m, n).  Refused up front, before the
        walk is returned, when the entries it yields, :meth:`vertex_count`
        times m, exceed the budget."""
        m, n = self.m, self.n
        # past min(m, n) = 3 the count exceeds min(m, n)! > 2^min(m, n)
        refuse_past_floor(lambda: self.vertex_count() * m, "{} vertex entries", min(m, n))
        return self._walk_vertices()

    def _walk_vertices(self) -> Iterator[tuple[int, ...]]:
        """The depth-first walk of :meth:`vertices`.

        A node is a prefix ending in a nonzero entry (or the empty prefix),
        with ``least``, its least nonzero entry (n + 1 if none), and
        ``holes``, the values between ``least`` and n it lacks, ascending.
        Its zero-padded prefix is a vertex once it has no holes, and comes
        before the rest of its subtree.  Its children place their next
        nonzero entry x at a position p past the prefix, zeros between: a
        later p first, then x ascending, which is lexicographic order.  x is
        a hole, or a value below ``least`` whose new holes still fit in the
        m - p - 1 positions after p, so every branch reaches a vertex."""
        m, n = self.m, self.n
        zeros = (0,) * m
        # a pushed child is (its parent's prefix, p, (x,), least, holes),
        # its prefix built when it is popped, so that the stack holds no
        # copy of a prefix; children are pushed in reverse print order
        stack = [((), 0, (), n + 1, ())]
        while stack:
            base, p, entry, least, holes = stack.pop()
            prefix = base + zeros[len(base) : p] + entry
            d, missing = len(prefix), len(holes)
            if not missing:
                yield prefix + zeros[d:]
                if least == 1:
                    continue
            # a child at the last position has no subtree and comes first:
            # it is the one hole, or else least - 1
            if missing < 2 and d < m:
                yield prefix + zeros[d + 1 :] + (holes or (least - 1,))
            for p in range(d, min(m - 1, m - missing + 1)):
                for i in range(missing - 1, -1, -1):
                    stack.append((prefix, p, holes[i : i + 1], least, holes[:i] + holes[i + 1 :]))
                # x = least - 1 - j opens j new holes, which the m - p - 1
                # positions after p must hold
                room = m - p - 1 - missing
                for x in range(least - 1, max(0, least - 2 - room), -1):
                    stack.append((prefix, p, (x,), x, (*range(x + 1, least), *holes)))

    def vertex_count(self) -> int:
        """sum_{i=0..min(m,n)} m!/(m-i)!, without enumerating, by Horner's
        rule on 1 + m(1 + (m-1)(1 + ...))."""
        total = 1
        for j in range(min(self.m, self.n) - 1, -1, -1):
            total = 1 + (self.m - j) * total
        return total

    def facets(self) -> list[FacetInequality]:
        """One inequality per facet: x_i >= 0; the sum over S at most z(|S|)
        for |S| < min(m, n); the full sum at most z(m).  Refused up front
        when the coefficients built, :meth:`facet_count` times m, exceed the budget."""
        m = self.m
        # for 2 <= min(m, z(1)) = min(m, n) the count exceeds 2^min(m, n)
        rank = min(m, self.cap(1))
        refuse_past_floor(lambda: self.facet_count() * m, "{} facet coefficients", rank)
        out = [
            FacetInequality(tuple(1 if j == i else 0 for j in range(m)), ">=", 0)
            for i in range(m)
        ]
        for k, bound in enumerate(self.caps[:-1], 1):
            for subset in combinations(range(m), k):
                coeffs = tuple(1 if j in subset else 0 for j in range(m))
                out.append(FacetInequality(coeffs, "<=", bound))
        out.append(FacetInequality((1,) * m, "<=", self.caps[-1]))
        return out

    def facet_count(self) -> int:
        """m + sum_{i=0..min(m,n)-1} C(m, i), without enumerating."""
        m = self.m
        total, binom = m, 1
        for i in range(len(self.caps)):
            total += binom
            binom = binom * (m - i) // (i + 1)
        return total

    # -- membership and counting ------------------------------------------

    def contains(self, x, t: int = 1) -> bool:
        """Whether x lies in the dilate t*P(m, n).

        The subset inequalities with |S| = k all share one right-hand
        side, t*z(k), so the binding subset is the one holding the k
        largest entries; sorting once replaces the 2^m - 2 subset checks.
        The entries of x and t must be ints, as :meth:`lift` asks, t >= 0.
        """
        x = tuple(x)
        if len(x) != self.m:
            raise ValueError(f"point has length {len(x)}, expected {self.m}")
        if type(t) is not int:  # in line: require_int's call costs more
            require_int(t=t)
        if t < 0:
            raise ValueError(f"t must be an integer >= 0, got {t}")
        for v in x:
            if type(v) is not int:
                require_int(**{f"x[{i}]": xi for i, xi in enumerate(x)})
        ordered = sorted(x, reverse=True)
        if ordered[-1] < 0:
            return False
        caps = self.caps
        prefix = 0
        for xi, bound in zip(ordered, caps):
            prefix += xi
            if prefix > t * bound:
                return False
        return len(caps) == self.m or sum(x) <= t * caps[-1]

    def count_work(self, t: int) -> int:
        """Work bound of :meth:`count_lattice_points` at ``t``: values *
        states * run lengths = t*z(1) * (K + 1)(S + 1) * K, where
        S = t*z(m) bounds the total of a point of t*P and K = min(m, S)
        its nonzero entries (each is >= 1).  A refusal states it as
        :data:`LATTICE_WORK` does."""
        require_int(t=t)
        if t < 1:
            raise ValueError("dilation factor t must be >= 1")
        full = t * self.cap(self.m)
        most = min(self.m, full)
        return t * self.cap(1) * (most + 1) * (full + 1) * most

    def count_lattice_points(self, t: int) -> int:
        """Exact number of integer points in t*P(m, n), by a dynamic
        programme over the sorted forms of the points.

        t*P(m, n) is invariant under permuting coordinates, so each point
        is counted through its weakly decreasing rearrangement: runs of
        r_v copies of each value v = t*z(1), ..., 1, then zeros.  Every
        facet test on that form (the sum of the k largest entries at most
        t*z(k)) reads only how many entries are placed and their running
        sum: the test :meth:`contains` makes after sorting, with no
        Ehrhart formula involved.  The programme goes over the
        values in decreasing order and keeps, per state (idx, total) of
        nonzero entries placed and their sum, the weight idx!/prod(r_v!)
        summed over the runs reaching it.  A run of r copies of v is cut
        at the first position whose prefix sum breaks its cap and
        multiplies the weight by C(idx + r, r); the completion by m - idx
        zeros multiplies it by C(m, idx), giving the orbit size
        m!/(prod(r_v!) (m - idx)!).

        The count is refused up front when its work bound,
        :meth:`count_work`, exceeds the budget."""
        refuse_above_budget(self.count_work(t), LATTICE_WORK)
        m = self.m
        full = t * self.cap(m)
        most = min(m, full)
        # caps[i] = t*z(i + 1) bounds the sum of the i + 1 largest
        # entries, flat at the full sum past min(m, n).  The list stops at
        # K positions, so a long vector of few nonzero entries costs
        # nothing in m.
        caps = [t * bound for bound in self.caps[:most]]
        caps += [full] * (most - len(caps))
        # levels[idx] maps the running sum of idx placed entries to its
        # weight idx!/prod(r_v!)
        levels = [{} for _ in range(most + 1)]
        levels[0][0] = 1
        for v in range(caps[0], 0, -1):
            # top level first, so that no state gains two runs of v
            for idx in range(most - 1, -1, -1):
                level = levels[idx]
                if not level:
                    continue
                # limit: the largest total before a run of r copies of v
                # (r * v = shift) that keeps every prefix of the run
                # within its cap
                limit = full
                binom = 1
                shift = 0
                for pos in range(idx, most):
                    shift += v
                    if caps[pos] - shift < limit:
                        limit = caps[pos] - shift
                        if limit < 0:
                            break
                    binom = binom * (pos + 1) // (pos + 1 - idx)
                    reached = levels[pos + 1]
                    for total, weight in level.items():
                        if total <= limit:
                            key = total + shift
                            reached[key] = reached.get(key, 0) + weight * binom
        return sum(comb(m, idx) * sum(level.values()) for idx, level in enumerate(levels))

    # -- lift to R^(m+1) ----------------------------------------------------

    def lift(self, x, t: int = 1) -> tuple[int, ...]:
        """Append t*z(m) - sum(x), placing t*P on the hyperplane where all
        m+1 coordinates sum to that constant.  The entries of x and t must
        be ints."""
        x = tuple(x)
        if len(x) != self.m:
            raise ValueError(f"point has length {len(x)}, expected {self.m}")
        require_int(t=t, **{f"x[{i}]": xi for i, xi in enumerate(x)})
        return x + (t * self.cap(self.m) - sum(x),)

    # -- Minkowski decomposition -------------------------------------------

    def minkowski_summands(self) -> list[tuple[int, tuple[tuple[int, ...], ...]]]:
        """(coefficient, simplex vertex set) pairs whose weighted Minkowski
        sum is P(m, n): the m segments conv{0, e_i} with coefficient
        n - m + 1 and the C(m, 2) triangles conv{0, e_i, e_j} with
        coefficient 1.  Only valid for n >= m - 1."""
        m, n = self.m, self.n
        if n < m - 1:
            raise ValueError(
                f"Minkowski decomposition requires n >= m - 1, got m={m}, n={n}"
            )
        origin = (0,) * m

        def unit(i):
            return tuple(1 if j == i else 0 for j in range(m))

        out = [(n - m + 1, (origin, unit(i))) for i in range(m)]
        out.extend(
            (1, (origin, unit(i), unit(j))) for i, j in combinations(range(m), 2)
        )
        return out

    def support_value(self, direction) -> int:
        """max over vertices of <direction, v>, for a direction of ints,
        without building a vertex: by the rearrangement inequality, the
        sum of the largest min(m, n) positive entries, in decreasing
        order, times n, n-1, and so on."""
        direction = tuple(direction)
        if len(direction) != self.m:
            raise ValueError(f"direction has length {len(direction)}, expected {self.m}")
        require_int(**{f"direction[{i}]": d for i, d in enumerate(direction)})
        positive = sorted((d for d in direction if d > 0), reverse=True)
        return sum(d * (self.n - r) for r, d in enumerate(positive[: min(self.m, self.n)]))


def summands_support_value(summands, direction) -> int:
    """Support value of a weighted Minkowski sum: the coefficient-weighted
    sum of the per-summand support values, for a direction of ints."""
    direction = tuple(direction)
    require_int(**{f"direction[{i}]": d for i, d in enumerate(direction)})
    total = 0
    for coeff, simplex in summands:
        total += coeff * max(
            sum(d * vi for d, vi in zip(direction, v)) for v in simplex
        )
    return total


def count_parking_functions(m: int) -> int:
    """Number of integer points of the parking-function polytope of length
    m >= 2, i.e. the convex hull of all parking functions of length m.

    That polytope is P(m, m-1) translated by (1, ..., 1), and translation
    by an integer vector preserves lattice-point counts, so this is the
    t = 1 count for P(m, m-1)."""
    require_int(m=m)
    if m < 2:
        raise ValueError("parking-function polytope count needs m >= 2")
    return PartialPermutohedron(m, m - 1).count_lattice_points(1)
