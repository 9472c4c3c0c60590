"""Five independent computations of the Ehrhart polynomial of P(m, n).

The Ehrhart polynomial ehr(t) of the partial permutohedron P(m, n) is the
polynomial whose value at a positive integer t is the number of integer
points in the dilate t*P(m, n).  For n >= m - 1 it admits several very
different exact expressions, all implemented here over exact rationals:

``ehrhart_closed``      an explicit double sum with multinomials and
                        double factorials;
``ehrhart_postnikov``   a sum over Hall-feasible edge-multiplicity
                        sequences of products of rising-factorial
                        binomials (lattice points of a Minkowski sum of
                        dilated coordinate simplices), over the sequences
                        the Hall walk of :mod:`.graphs` enumerates;
``ehrhart_graphsum``    an edge-weighted sum over labelled multigraphs
                        whose components each have at most one cycle,
                        over the graphs the union-find walk enumerates;
``ehrhart_egf``         m! t^m [z^m] sqrt(1-z) exp((n+1/2+1/t) z - z^2/(4t)),
                        extracted from a series with Laurent-in-t
                        coefficients (``ehrhart_egf_tree`` takes the
                        equivalent route through the tree function T(z));
``ehrhart_recurrence``  a three-term recurrence in m.

The two combinatorial engines share no enumerator, so their agreement
witnesses the bijection between Hall-feasible sequences and multigraphs
with at most one cycle per component.  Agreement of all of them, and of
their values with brute-force lattice point counts, is what the
verification harness checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import DEFAULT_GRAPH_BOUND
from .graphs import graph_census, sequence_census
from .polynomials import (
    LaurentPoly,
    Poly,
    double_factorial,
    eulerian,
    multinomial,
    rising_binomial,
)
from .series import TruncatedSeries, one_minus_z

METHOD_NAMES = ("closed", "postnikov", "graphsum", "egf", "egf-tree", "recurrence")


def _require_formula_domain(m: int, n: int):
    if not (isinstance(m, int) and isinstance(n, int)) or m < 1 or n < 1:
        raise ValueError(f"need integers m >= 1 and n >= 1, got m={m}, n={n}")
    if n < m - 1:
        raise ValueError(
            f"Ehrhart formulas require n >= m - 1, got m={m}, n={n}"
        )


def ehrhart_closed(m: int, n: int) -> Poly:
    """Closed-form Ehrhart polynomial of P(m, n) for n >= m - 1.

    (1/2^m) sum over 0 <= i <= floor(m/2), 2i <= j <= m of
    (-1)^(i+1) * multinom(m; m-j, j-2i, i, i) * i! * (2j-4i-3)!!
    * t^(j-i) * (2nt + t + 2)^(m-j),
    with the (-3)!! = -1 double-factorial convention.
    """
    _require_formula_domain(m, n)
    base = Poly([2, 2 * n + 1])  # 2nt + t + 2
    base_pow = [Poly([1])]
    for _ in range(m):
        base_pow.append(base_pow[-1] * base)
    total = Poly()
    for i in range(m // 2 + 1):
        for j in range(2 * i, m + 1):
            scalar = Fraction(
                (-1) ** (i + 1)
                * multinomial(m, (m - j, j - 2 * i, i, i))
                * factorial(i)
                * double_factorial(2 * (j - 2 * i) - 3)
            )
            total = total + Poly.monomial(j - i, scalar) * base_pow[m - j]
    return total * Fraction(1, 2**m)


def ehrhart_postnikov(m: int, n: int, bound: int = DEFAULT_GRAPH_BOUND) -> Poly:
    """Sum over Hall-feasible multiplicity sequences a of
    prod_i binom((n-m+1)t + a_{i} - 1, a_{i}) *
    prod_{i<j} binom(t + a_{ij} - 1, a_{ij}).

    The product depends only on the multisets of nonzero loop and pair
    multiplicities, so the sum runs over :func:`.graphs.sequence_census`,
    the Hall walk's tally; no multigraph or union-find code is reached."""
    _require_formula_domain(m, n)
    loop_arg = Poly([0, n - m + 1])  # (n - m + 1) t
    pair_arg = Poly([0, 1])  # t
    factor = lru_cache(maxsize=None)(rising_binomial)
    total = Poly()
    for (loop_mults, pair_mults), count in sequence_census(m, bound=bound).items():
        term = Poly([count])
        for a in loop_mults:
            term = term * factor(loop_arg, a)
        for a in pair_mults:
            term = term * factor(pair_arg, a)
        total = total + term
    return total


def ehrhart_graphsum(m: int, n: int, bound: int = DEFAULT_GRAPH_BOUND) -> Poly:
    """Sum over multigraphs G (components with at most one cycle) of
    ((n-m+1)t)^n_loops * t^n_single * (t(t+1)/2)^n_pairs."""
    _require_formula_domain(m, n)
    loop_w = Poly([0, n - m + 1])
    single_w = Poly([0, 1])
    double_w = Poly([0, Fraction(1, 2), Fraction(1, 2)])  # t(t+1)/2
    total = Poly()
    for stats, count in graph_census(m, bound=bound).items():
        weight = (
            loop_w ** stats.n_loops
            * single_w ** stats.n_single
            * double_w ** stats.n_pairs
        )
        total = total + weight * count
    return total


def tree_function(order: int) -> TruncatedSeries:
    """The tree function T(z) = sum_{k>=1} k^(k-1) z^k / k! (the EGF of
    rooted labelled trees, equal to -W(-z) in Lambert W terms), truncated
    at the given order.  Satisfies T = z exp(T)."""
    if order < 1:
        raise ValueError("tree_function needs order >= 1")
    return TruncatedSeries(
        [Fraction(0)]
        + [Fraction(k ** (k - 1), factorial(k)) for k in range(1, order + 1)]
    )


def _laurent_exponent_series(linear: LaurentPoly, m: int) -> TruncatedSeries:
    """The series c1 * z - z^2/(4t) truncated at order m, Laurent coefficients."""
    zero = LaurentPoly()
    coeffs = [zero] * (m + 1)
    coeffs[1] = linear
    if m >= 2:
        coeffs[2] = LaurentPoly.term(Fraction(-1, 4), -1)
    return TruncatedSeries(coeffs)


def _extract_ehrhart(series: TruncatedSeries, m: int) -> Poly:
    """m! t^m [z^m] of a Laurent-coefficient series; the t^m factor must
    clear every negative power of t."""
    coeff = series.coefficient(m)
    cleared = coeff.shifted(m) * factorial(m)
    assert cleared.is_zero or cleared.min_exp >= 0, (
        "negative powers of t survived the t^m multiplication"
    )
    return cleared.as_poly()


def ehrhart_egf(m: int, n: int) -> Poly:
    """m! t^m [z^m] sqrt(1-z) exp((n + 1/2 + 1/t) z - z^2/(4t))."""
    _require_formula_domain(m, n)
    one = LaurentPoly.constant(1)
    linear = LaurentPoly.constant(Fraction(2 * n + 1, 2)) + LaurentPoly.term(1, -1)
    exponential = _laurent_exponent_series(linear, m).exp()
    root = one_minus_z(m, one=one).sqrt()
    return _extract_ehrhart(root * exponential, m)


def ehrhart_egf_tree(m: int, n: int) -> Poly:
    """m! t^m [z^m] exp((n - m + 1/2 + 1/t) T(z) - T(z)^2/(4t)) / sqrt(1 - T(z)),
    computed by composing the z-series with the tree function."""
    _require_formula_domain(m, n)
    one = LaurentPoly.constant(1)
    linear = LaurentPoly.constant(Fraction(2 * (n - m) + 1, 2)) + LaurentPoly.term(1, -1)
    gaussian = _laurent_exponent_series(linear, m).exp()
    # 1/sqrt(1-z) as exp(-log(1-z)/2)
    inv_root = (one_minus_z(m, one=one).log() * Fraction(-1, 2)).exp()
    tree = tree_function(m).map_coeffs(LaurentPoly.constant)
    return _extract_ehrhart((gaussian * inv_root).compose(tree), m)


def ehrhart_recurrence(m: int, n: int) -> Poly:
    """Three-term recurrence in m:

    ehr(m) = (mt + nt - t + 1) ehr(m-1)
             - (m-1)(nt + t/2 + 3/2) t ehr(m-2)
             + (m-1)(m-2) t^2 ehr(m-3) / 2,

    seeded with the closed form at m = 1, 2, 3."""
    _require_formula_domain(m, n)
    if m <= 3:
        return ehrhart_closed(m, n)
    e3, e2, e1 = (ehrhart_closed(k, n) for k in (1, 2, 3))
    for mm in range(4, m + 1):
        first = Poly([1, mm + n - 1]) * e1
        second = Poly([0, Fraction(3, 2), Fraction(2 * n + 1, 2)]) * (mm - 1) * e2
        third = Poly.monomial(2, Fraction((mm - 1) * (mm - 2), 2)) * e3
        e3, e2, e1 = e2, e1, first - second + third
    return e1


def volume_closed(m: int, n: int) -> Fraction:
    """Volume of P(m, n) for n >= m - 1:
    -(1/2^m) sum_{i=0..m} C(m, i) (2i-3)!! (2n+1)^(m-i)."""
    _require_formula_domain(m, n)
    total = 0
    for i in range(m + 1):
        total += comb(m, i) * double_factorial(2 * i - 3) * (2 * n + 1) ** (m - i)
    return Fraction(-total, 2**m)


def f_polynomial(m: int, n: int) -> Poly:
    """Face-count polynomial of P(m, n): the coefficient of t^i is the
    number of i-dimensional faces (the polytope itself included).

    1 + sum_{i=0..n-1} C(m, i) A_i(t+1) sum_{j=1..m-i} (t+1)^j,
    with A_i the Eulerian polynomial."""
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    shift = Poly([1, 1])  # t + 1
    total = Poly([1])
    for i in range(min(n, m + 1)):  # C(m, i) = 0 beyond i = m
        geometric = Poly()
        power = Poly([1])
        for _ in range(m - i):
            power = power * shift
            geometric = geometric + power
        total = total + comb(m, i) * eulerian(i).compose(shift) * geometric
    return total


def f_polynomial_stable(m: int, n: int | None = None) -> Poly:
    """Face-count polynomial shared by all P(m, n) with n >= m (they are
    all combinatorially equivalent): 1 + (t+1) sum_{i=1..m} C(m, i) A_i(t+1).

    Does not hold below n = m: P(2, 1) is a triangle, not a pentagon."""
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    if n is not None and n < m:
        raise ValueError(f"the stable face-count formula requires n >= m, got n={n}")
    shift = Poly([1, 1])
    acc = Poly()
    for i in range(1, m + 1):
        acc = acc + comb(m, i) * eulerian(i).compose(shift)
    return Poly([1]) + shift * acc


def coefficient_transfer_check(f: Poly, k: int) -> tuple[Fraction, Fraction]:
    """Both sides of the tree-function coefficient identity
    [z^k] f(T(z)) = [z^k] f(z) (1 - z) exp(k z), computed independently
    (composition with T on the left, direct multiplication on the right)."""
    if k < 0:
        raise ValueError("need k >= 0")
    order = max(k, 1)
    f_series = TruncatedSeries.from_poly(f, order)
    lhs = f_series.compose(tree_function(order)).coefficient(k)
    kz = TruncatedSeries([Fraction(0), Fraction(k)], order=order)
    rhs = (f_series * one_minus_z(order) * kz.exp()).coefficient(k)
    return lhs, rhs


_ENGINES = {
    "closed": ehrhart_closed,
    "postnikov": ehrhart_postnikov,
    "graphsum": ehrhart_graphsum,
    "egf": ehrhart_egf,
    "egf-tree": ehrhart_egf_tree,
    "recurrence": ehrhart_recurrence,
}


@dataclass(frozen=True)
class EhrhartResult:
    m: int
    n: int
    method: str
    polynomial: Poly


def compute_ehrhart(m: int, n: int, method: str = "closed") -> EhrhartResult:
    """Run one named engine; all engines agree for every valid (m, n)."""
    try:
        engine = _ENGINES[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; choose from {', '.join(METHOD_NAMES)}"
        ) from None
    return EhrhartResult(m, n, method, engine(m, n))
