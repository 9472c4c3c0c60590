"""Geometry of the partial permutohedron P(m, n).

P(m, n) is the convex hull of the vectors in {0, 1, ..., n}^m whose
nonzero entries are distinct.  This module gives its vertices, facet
inequalities, membership in integer dilates, an exact lattice-point count
by a dynamic programme over the (entries placed, running sum) states of
the sorted points, the lift into the hyperplane in R^(m+1), and its
decomposition as a Minkowski sum of dilated coordinate simplices (valid
for n >= m - 1).

Everything is integer arithmetic on explicit data; the formula engines
live in :mod:`permutoehr.ehrhart` and are cross-checked against the
counts produced here.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, permutations
from math import comb

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

    # -- bounds of the facet inequalities ---------------------------------

    def largest_entries_bound(self, k: int) -> int:
        """Max allowed sum of the k largest entries: n + (n-1) + ... + (n-k+1)."""
        return k * self.n - k * (k - 1) // 2

    def full_sum_bound(self) -> int:
        """Max allowed total: sum of i for i = max(1, n-m+1) .. n."""
        lo = max(1, self.n - self.m + 1)
        return (lo + self.n) * (self.n - lo + 1) // 2

    # -- V- and H-descriptions --------------------------------------------

    def vertices(self) -> set[tuple[int, ...]]:
        """All vertices: zeros in m-i positions, the other i entries being
        n, n-1, ..., n-i+1 in any order, for i = 0 .. min(m, n).  Refused
        up front when the entries built, :meth:`vertex_count` times m,
        exceed the budget."""
        m, n = self.m, self.n
        # past min(m, n) = 3 the count exceeds min(m, n)! > 2^min(m, n)
        refuse_past_floor(lambda: self.vertex_count() * m, "{} vertex entries", min(m, n))
        out = set()
        for i in range(min(m, n) + 1):
            values = [n - r for r in range(i)]
            for positions in permutations(range(m), i):
                v = [0] * m
                for value, pos in zip(values, positions):
                    v[pos] = value
                out.add(tuple(v))
        return out

    def vertex_count(self) -> int:
        """sum_{i=0..min(m,n)} m!/(m-i)!, without enumerating, by Horner's
        rule on 1 + m(1 + (m-1)(1 + ...))."""
        total = 1
        for j in range(min(self.m, self.n) - 1, -1, -1):
            total = 1 + (self.m - j) * total
        return total

    def facets(self) -> list[FacetInequality]:
        """One inequality per facet: x_i >= 0; the |S| <= min(m,n)-1 subset
        sums; and the full-sum inequality.  Refused up front when the
        coefficients built, :meth:`facet_count` times m, exceed the budget."""
        m = self.m
        # for 2 <= min(m, n) the count exceeds 2^min(m, n)
        refuse_past_floor(lambda: self.facet_count() * m, "{} facet coefficients", min(m, self.n))
        out = [
            FacetInequality(tuple(1 if j == i else 0 for j in range(m)), ">=", 0)
            for i in range(m)
        ]
        for k in range(1, min(m, self.n)):
            bound = self.largest_entries_bound(k)
            for subset in combinations(range(m), k):
                coeffs = tuple(1 if j in subset else 0 for j in range(m))
                out.append(FacetInequality(coeffs, "<=", bound))
        out.append(FacetInequality((1,) * m, "<=", self.full_sum_bound()))
        return out

    def facet_count(self) -> int:
        """m + sum_{i=0..min(m,n)-1} C(m, i), without enumerating."""
        m = self.m
        total, binom = m, 1
        for i in range(min(m, self.n)):
            total += binom
            binom = binom * (m - i) // (i + 1)
        return total

    # -- membership and counting ------------------------------------------

    @cached_property
    def subset_bounds(self) -> tuple[int, ...]:
        """Undilated right-hand sides of the subset facets: entry k - 1 is
        largest_entries_bound(k), for k = 1 .. min(m, n) - 1."""
        return tuple(self.largest_entries_bound(k) for k in range(1, min(self.m, self.n)))

    def contains(self, x, t: int = 1) -> bool:
        """Whether x lies in the dilate t*P(m, n).

        The subset inequalities with |S| = k all share one right-hand
        side, so the binding subset is the one holding the k largest
        entries; sorting once replaces the 2^m - 2 subset checks.
        """
        x = tuple(x)
        if len(x) != self.m:
            raise ValueError(f"point has length {len(x)}, expected {self.m}")
        ordered = sorted(x, reverse=True)
        if ordered[-1] < 0:
            return False
        prefix = 0
        for xi, bound in zip(ordered, self.subset_bounds):
            prefix += xi
            if prefix > t * bound:
                return False
        return sum(x) <= t * self.full_sum_bound()

    def count_work(self, t: int) -> int:
        """Work bound of :meth:`count_lattice_points` at ``t``: values *
        states * run lengths = t*n * (K + 1)(S + 1) * K, where
        S = t*full_sum_bound() bounds the total of a point of t*P and
        K = min(m, S) its nonzero entries (each is >= 1).  A refusal states
        it as :data:`LATTICE_WORK` does."""
        require_int(t=t)
        if t < 1:
            raise ValueError("dilation factor t must be >= 1")
        full = t * self.full_sum_bound()
        most = min(self.m, full)
        return t * self.n * (most + 1) * (full + 1) * most

    def count_lattice_points(self, t: int) -> int:
        """Exact number of integer points in t*P(m, n), by a dynamic
        programme over the sorted forms of the points.

        t*P(m, n) is invariant under permuting coordinates, so each point
        is counted through its weakly decreasing rearrangement: runs of
        r_v copies of each value v = t*n, ..., 1, then zeros.  Every facet
        test on that form (the sum of the k largest entries at most
        t*largest_entries_bound(k) for k < min(m, n), the total at most
        t*full_sum_bound()) reads only how many entries are placed and
        their running sum: the test :meth:`contains` makes after sorting,
        with no Ehrhart formula involved.  The programme goes over the
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
        m, n = self.m, self.n
        full = t * self.full_sum_bound()
        most = min(m, full)
        # caps[i] bounds the sum of the i + 1 largest entries; past the
        # subset facets only the full sum binds, entries being >= 0.  The
        # list stops at K positions, so a long vector of few nonzero
        # entries costs nothing in m.
        caps = [t * bound for bound in self.subset_bounds[:most]]
        caps += [full] * (most - len(caps))
        # levels[idx] maps the running sum of idx placed entries to its
        # weight idx!/prod(r_v!)
        levels = [{} for _ in range(most + 1)]
        levels[0][0] = 1
        for v in range(t * n, 0, -1):
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
        """Append t*full_sum_bound - sum(x), placing t*P on the hyperplane
        where all m+1 coordinates sum to that constant.  The entries of x
        and t must be ints."""
        x = tuple(x)
        if len(x) != self.m:
            raise ValueError(f"point has length {len(x)}, expected {self.m}")
        require_int(t=t, **{f"x[{i}]": xi for i, xi in enumerate(x)})
        return x + (t * self.full_sum_bound() - sum(x),)

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
