"""Five independent computations of the Ehrhart polynomial of P(m, n).

The Ehrhart polynomial ehr(t) of the partial permutohedron P(m, n) is the
polynomial whose value at a positive integer t is the number of integer
points in the dilate t*P(m, n).  For n >= m - 1 it admits several very
different exact expressions, all implemented here in exact arithmetic:

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

Each engine works in the cheapest exact ring for what it returns.  Since
2^m ehr(t) has integer coefficients, ``ehrhart_closed`` and
``ehrhart_recurrence`` (like ``f_polynomial``) run on Python int coefficient
lists and divide once at the end: O(m^3) and O(m^2) integer operations.
``ehrhart_postnikov`` and ``ehrhart_graphsum`` sum one product of small
polynomials per census entry in ``Poly``, whose int numerators over one
common denominator make every product an int convolution and every sum
one rescaling and one gcd.
``ehrhart_egf`` builds the Laurent-coefficient exponential (O(m) Laurent
products) and forms only [z^m] of its product with the Fraction series
sqrt(1-z) (O(m) more); ``ehrhart_egf_tree`` composes that exponential with
a Fraction tree function (O(m^2) Laurent-by-scalar products plus O(m^3)
Fraction operations) and forms [z^m] of its product with the Fraction
series 1/sqrt(1 - T(z)) the same way.

The two combinatorial engines share no enumerator, so their agreement
witnesses the bijection between Hall-feasible sequences and multigraphs
with at most one cycle per component.  Agreement of all of them, and of
their values with brute-force lattice point counts, is what the
verification harness checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import DEFAULT_GRAPH_BOUND
from .graphs import graph_census, sequence_census
from .polynomials import (
    LaurentPoly,
    Poly,
    _poly,
    convolve,
    double_factorial,
    eulerian,
    multinomial,
    rising_binomial,
)
from .series import TruncatedSeries, one_minus_z

METHOD_NAMES = ("closed", "postnikov", "graphsum", "egf", "egf-tree", "recurrence")


def _require_int(**values):
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"{name} must be an integer, got {v!r}")


def _require_formula_domain(m: int, n: int):
    _require_int(m=m, n=n)
    if m < 1 or n < 1:
        raise ValueError(f"need integers m >= 1 and n >= 1, got m={m}, n={n}")
    if n < m - 1:
        raise ValueError(
            f"Ehrhart formulas require n >= m - 1, got m={m}, n={n}"
        )


def _closed_scaled(m: int, n: int) -> list[int]:
    """2^m ehr(t) of P(m, n) as integer coefficients, from the closed form."""
    base = [2, 2 * n + 1]  # 2nt + t + 2
    base_pow = [[1]]
    for _ in range(m):
        base_pow.append(convolve(base_pow[-1], base))
    total = [0] * (m + 1)
    for i in range(m // 2 + 1):
        for j in range(2 * i, m + 1):
            scalar = (
                (-1) ** (i + 1)
                * multinomial(m, (m - j, j - 2 * i, i, i))
                * factorial(i)
                * double_factorial(2 * (j - 2 * i) - 3)
            )
            for k, c in enumerate(base_pow[m - j], start=j - i):
                total[k] += scalar * c
    return total


def ehrhart_closed(m: int, n: int) -> Poly:
    """Closed-form Ehrhart polynomial of P(m, n) for n >= m - 1.

    (1/2^m) sum over 0 <= i <= floor(m/2), 2i <= j <= m of
    (-1)^(i+1) * multinom(m; m-j, j-2i, i, i) * i! * (2j-4i-3)!!
    * t^(j-i) * (2nt + t + 2)^(m-j),
    with the (-3)!! = -1 double-factorial convention.  The sum is taken in
    integers and divided by 2^m once.
    """
    _require_formula_domain(m, n)
    return _poly(_closed_scaled(m, n), 2**m)


def ehrhart_postnikov(m: int, n: int, bound: int = DEFAULT_GRAPH_BOUND) -> Poly:
    """Sum over Hall-feasible multiplicity sequences a of
    prod_i binom((n-m+1)t + a_{i} - 1, a_{i}) *
    prod_{i<j} binom(t + a_{ij} - 1, a_{ij}).

    The product depends only on the multisets of nonzero loop and pair
    multiplicities, so the sum runs over :func:`.graphs.sequence_census`,
    the Hall walk's tally; no multigraph or union-find code is reached."""
    _require_formula_domain(m, n)
    census = sequence_census(m, bound=bound)
    # rising binomials by multiplicity: Hall's condition on the copies of
    # one slot allows at most 1 copy of a loop and 2 of a pair
    loop_factor = [rising_binomial(Poly([0, n - m + 1]), a) for a in range(2)]
    pair_factor = [rising_binomial(Poly([0, 1]), a) for a in range(3)]
    total = Poly()
    for (loop_mults, pair_mults), count in census.items():
        term = Poly([count])
        for a in loop_mults:
            term = term * loop_factor[a]
        for a in pair_mults:
            term = term * pair_factor[a]
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
    for (loops, single, doubled), count in graph_census(m, bound=bound).items():
        total = total + loop_w**loops * single_w**single * double_w**doubled * count
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


def _extract_ehrhart(laurent: TruncatedSeries, scalar: TruncatedSeries, m: int) -> Poly:
    """m! t^m [z^m] of laurent * scalar, a Laurent-coefficient and a Fraction
    series, forming that one coefficient only: m + 1 Laurent-by-scalar
    products, a shift and a scaling.  The t^m factor must clear every
    negative power of t; ``as_poly`` refuses any that survive."""
    coeff = LaurentPoly()
    for j in range(m + 1):
        coeff = coeff + laurent.coefficient(m - j) * scalar.coefficient(j)
    return (coeff.shifted(m) * factorial(m)).as_poly()


def ehrhart_egf(m: int, n: int) -> Poly:
    """m! t^m [z^m] sqrt(1-z) exp((n + 1/2 + 1/t) z - z^2/(4t)).

    Only [z^m] of the product is formed, with sqrt(1-z) a Fraction series."""
    _require_formula_domain(m, n)
    linear = LaurentPoly.constant(Fraction(2 * n + 1, 2)) + LaurentPoly.term(1, -1)
    exponential = _laurent_exponent_series(linear, m).exp()
    root = one_minus_z(m).sqrt()
    return _extract_ehrhart(exponential, root, m)


def ehrhart_egf_tree(m: int, n: int) -> Poly:
    """m! t^m [z^m] exp((n - m + 1/2 + 1/t) T(z) - T(z)^2/(4t)) / sqrt(1 - T(z)),
    with the Laurent-coefficient exponential composed with the tree function
    over Fraction powers of T(z), and 1/sqrt(1 - T(z)) a Fraction series.
    Only [z^m] of their product is formed."""
    _require_formula_domain(m, n)
    linear = LaurentPoly.constant(Fraction(2 * (n - m) + 1, 2)) + LaurentPoly.term(1, -1)
    tree = tree_function(m)
    gaussian = _laurent_exponent_series(linear, m).exp().compose(tree)
    # 1/sqrt(1 - T) as exp(-log(1 - T)/2)
    inv_root = ((1 - tree).log() * Fraction(-1, 2)).exp()
    return _extract_ehrhart(gaussian, inv_root, m)


def ehrhart_recurrence(m: int, n: int) -> Poly:
    """Three-term recurrence in m:

    ehr(m) = (mt + nt - t + 1) ehr(m-1)
             - (m-1)(nt + t/2 + 3/2) t ehr(m-2)
             + (m-1)(m-2) t^2 ehr(m-3) / 2,

    run on E(m) = 2^m ehr(m), which has integer coefficients:

    E(m) = (2 + 2(m+n-1)t) E(m-1) - (m-1)(6t + 2(2n+1)t^2) E(m-2)
           + 4(m-1)(m-2) t^2 E(m-3),

    seeded with the closed form's integer sums at m = 1, 2, 3."""
    _require_formula_domain(m, n)
    e3, e2, e1 = (_closed_scaled(k, n) for k in (1, 2, 3))
    if m <= 3:
        return _poly((e3, e2, e1)[m - 1], 2**m)
    for mm in range(4, m + 1):
        nxt = convolve([2, 2 * (mm + n - 1)], e1)
        for k, c in enumerate(convolve([0, 6, 2 * (2 * n + 1)], e2)):
            nxt[k] -= (mm - 1) * c
        for k, c in enumerate(e3, start=2):
            nxt[k] += 4 * (mm - 1) * (mm - 2) * c
        e3, e2, e1 = e2, e1, nxt
    return _poly(e1, 2**m)


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
    with A_i the Eulerian polynomial; every term is an integer polynomial,
    summed on int coefficient lists."""
    _require_int(m=m, n=n)
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    total = [1] + [0] * m
    for i in range(min(n, m + 1)):  # C(m, i) = 0 beyond i = m
        eulerian_coeffs = eulerian(i).nums  # den 1: A_i has int coefficients
        # A_i(t+1): the coefficient of t^r is sum_k a_k C(k, r)
        shifted = [
            sum(a * comb(k, r) for k, a in enumerate(eulerian_coeffs))
            for r in range(len(eulerian_coeffs))
        ]
        # sum_{j=1..m-i} (t+1)^j: the coefficient of t^r is C(m-i+1, r+1) - [r = 0]
        geometric = [comb(m - i + 1, r + 1) for r in range(m - i + 1)]
        geometric[0] -= 1
        for r, c in enumerate(convolve(shifted, geometric)):
            total[r] += comb(m, i) * c
    return _poly(total, 1)


def f_polynomial_stable(m: int, n: int | None = None) -> Poly:
    """Face-count polynomial shared by all P(m, n) with n >= m (they are
    all combinatorially equivalent): 1 + (t+1) sum_{i=1..m} C(m, i) A_i(t+1).

    Does not hold below n = m: P(2, 1) is a triangle, not a pentagon."""
    _require_int(m=m)
    if n is not None:
        _require_int(n=n)
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
