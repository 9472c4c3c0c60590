"""Geometry of the partial permutohedron P(m, n).

P(m, n) is the convex hull of the vectors in {0, 1, ..., n}^m whose
nonzero entries are distinct.  This module gives its vertices, facet
inequalities, membership in integer dilates, an exact lattice-point count
by a walk over sorted orbit representatives, the lift into the hyperplane
in R^(m+1), and its decomposition as a Minkowski sum of dilated
coordinate simplices (valid for n >= m - 1).

Everything is integer arithmetic on explicit data; the formula engines
live in :mod:`permutoehr.ehrhart` and are cross-checked against the
counts produced here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb

from .errors import BudgetError, DEFAULT_POINT_BUDGET


@dataclass(frozen=True)
class FacetInequality:
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
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (m, n)):
            raise ValueError(f"m and n must be integers, got m={m!r}, n={n!r}")
        if m < 1 or n < 1:
            raise ValueError(f"P(m, n) needs m >= 1 and n >= 1, got m={m}, n={n}")
        self.m = m
        self.n = n

    @property
    def ehrhart_formula_applies(self) -> bool:
        """Whether the closed Ehrhart formulas cover this polytope (n >= m - 1)."""
        return self.n >= self.m - 1

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
        n, n-1, ..., n-i+1 in any order, for i = 0 .. min(m, n)."""
        m, n = self.m, self.n
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
        """sum_{i=0..min(m,n)} m!/(m-i)!, without enumerating."""
        m = self.m
        total = 0
        for i in range(min(m, self.n) + 1):
            prod = 1
            for r in range(i):
                prod *= m - r
            total += prod
        return total

    def facets(self) -> list[FacetInequality]:
        """One inequality per facet: x_i >= 0; the |S| <= min(m,n)-1 subset
        sums; and the full-sum inequality."""
        m = self.m
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
        return self.m + sum(comb(self.m, i) for i in range(min(self.m, self.n)))

    # -- membership and counting ------------------------------------------

    def contains(self, x, t: int = 1) -> bool:
        """Whether x lies in the dilate t*P(m, n).

        The subset inequalities with |S| = k all share one right-hand
        side, so the binding subset is the one holding the k largest
        entries; sorting once replaces the 2^m - 2 subset checks.
        """
        x = tuple(x)
        if len(x) != self.m:
            raise ValueError(f"point has length {len(x)}, expected {self.m}")
        if any(xi < 0 for xi in x):
            return False
        ordered = sorted(x, reverse=True)
        prefix = 0
        for k in range(1, min(self.m, self.n)):
            prefix += ordered[k - 1]
            if prefix > t * self.largest_entries_bound(k):
                return False
        return sum(x) <= t * self.full_sum_bound()

    def count_lattice_points(self, t: int, budget: int = DEFAULT_POINT_BUDGET) -> int:
        """Exact number of integer points in t*P(m, n), by a walk over one
        representative per orbit of the coordinate permutations.

        t*P(m, n) is invariant under permuting coordinates, so the walk
        visits only weakly decreasing vectors x_1 >= ... >= x_m and weights
        each by m!/prod(multiplicity!), the size of its orbit.  A prefix is
        extended only while its sum stays within t*largest_entries_bound(k)
        (k < min(m, n)) and the total within t*full_sum_bound(): the test
        :meth:`contains` makes after sorting, with no Ehrhart formula
        involved.  Refuses when C(t*n + m, m), the number of weakly
        decreasing vectors in the box [0, t*n]^m and so a bound on the
        representatives visited, exceeds the budget."""
        if isinstance(t, bool) or not isinstance(t, int):
            raise ValueError(f"dilation factor t must be an integer, got {t!r}")
        if t < 1:
            raise ValueError("dilation factor t must be >= 1")
        m, n = self.m, self.n
        representatives = comb(t * n + m, m)
        if representatives > budget:
            raise BudgetError(
                f"orbit representatives C(tn+m, m) = {representatives} "
                f"exceeds budget {budget}"
            )
        full = t * self.full_sum_bound()
        # caps[k] bounds the sum of the k + 1 largest entries; past the
        # subset facets only the full sum binds, entries being >= 0.  The
        # list has min(m, n) - 1 entries, not m, so a long vector of few
        # nonzero entries costs no memory in m.
        caps = [t * self.largest_entries_bound(k) for k in range(1, min(m, n))]

        def walk(idx: int, top: int, total: int, run: int, falling: int, denom: int) -> int:
            # Orbit-weighted count of the completions of x_1 .. x_idx, whose
            # last entry top ends a run of length run; falling is
            # m!/(m - idx)! and denom the product of the factorials of the
            # run lengths so far (the root passes the box cap t*n as top,
            # with run 0).  The completion by zeros, of weight
            # m!/(denom * (m - idx)!), is counted here, so the recursion
            # takes only v >= 1 and its depth is the number of nonzero
            # entries, not m.
            acc = falling // denom
            if idx == m:
                return acc
            cap = caps[idx] if idx < len(caps) else full
            child = falling * (m - idx)
            for v in range(1, min(top, cap - total) + 1):
                if v == top:
                    acc += walk(idx + 1, v, total + v, run + 1, child, denom * (run + 1))
                else:
                    acc += walk(idx + 1, v, total + v, 1, child, denom)
            return acc

        return walk(0, t * n, 0, 0, 1, 1)

    # -- lift to R^(m+1) ----------------------------------------------------

    def lift(self, x, t: int = 1) -> tuple[int, ...]:
        """Append t*full_sum_bound - sum(x), placing t*P on the hyperplane
        where all m+1 coordinates sum to that constant."""
        x = tuple(x)
        if len(x) != self.m:
            raise ValueError(f"point has length {len(x)}, expected {self.m}")
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
        """max over vertices of <direction, v>."""
        direction = tuple(direction)
        if len(direction) != self.m:
            raise ValueError(f"direction has length {len(direction)}, expected {self.m}")
        return max(
            sum(d * vi for d, vi in zip(direction, v)) for v in self.vertices()
        )


def summands_support_value(summands, direction) -> int:
    """Support value of a weighted Minkowski sum: the coefficient-weighted
    sum of the per-summand support values."""
    direction = tuple(direction)
    total = 0
    for coeff, simplex in summands:
        total += coeff * max(
            sum(d * vi for d, vi in zip(direction, v)) for v in simplex
        )
    return total


def count_parking_functions(m: int, budget: int = DEFAULT_POINT_BUDGET) -> int:
    """Number of integer points of the parking-function polytope of length
    m >= 2, i.e. the convex hull of all parking functions of length m.

    That polytope is P(m, m-1) translated by (1, ..., 1), and translation
    by an integer vector preserves lattice-point counts, so this is the
    t = 1 count for P(m, m-1)."""
    if m < 2:
        raise ValueError("parking-function polytope count needs m >= 2")
    return PartialPermutohedron(m, m - 1).count_lattice_points(1, budget=budget)
