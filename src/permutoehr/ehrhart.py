"""Six computations of the Ehrhart polynomial of P(m, n), independent but
for two helpers shared by design: ``_exp_over_t``, shared by ``egf`` and
``egf-tree``, and ``_census_sum``, shared by ``postnikov`` and ``graphsum``.

The Ehrhart polynomial ehr(t) of the partial permutohedron P(m, n) is the
polynomial whose value at a positive integer t is the number of integer
points in the dilate t*P(m, n).  For n >= m - 1 it admits several very
different exact expressions, all implemented here in exact arithmetic:

``ehrhart_closed``      an explicit double sum with multinomials and
                        double factorials, taken by Horner's rule in
                        the base 2 + (2n+1)t;
``ehrhart_postnikov``   a sum over Hall-feasible edge-multiplicity
                        sequences of products of rising-factorial
                        binomials (lattice points of a Minkowski sum of
                        dilated coordinate simplices), over the census
                        the Hall DP of :mod:`.graphs` counts;
``ehrhart_graphsum``    the same weight summed over labelled multigraphs
                        whose components each have at most one cycle,
                        over the census the component DP of
                        :mod:`.graphs` counts;
``ehrhart_egf``         m! t^m [z^m] sqrt(1-z) exp((n+1/2+1/t) z - z^2/(4t)),
                        with exp(.../t) expanded in powers of 1/t over
                        rational series;
``ehrhart_egf_tree``    the equivalent extraction through the tree
                        function T(z), whose powers it reads by Lagrange
                        inversion, without series;
``ehrhart_recurrence``  a three-term recurrence in m, started from the
                        single point P(0, n).

Each engine works in the cheapest exact ring for what it returns.  Since
2^m ehr(t) has integer coefficients, ``ehrhart_closed`` and
``ehrhart_recurrence`` (like ``f_polynomial``) run on Python int coefficient
lists and divide once at the end, each in O(m^2) integer operations:
``ehrhart_closed`` by Horner's rule in its base polynomial, with scalars
from one factorial and one double-factorial table, ``ehrhart_recurrence``
in m one-pass steps of width at most m + 1, and ``f_polynomial`` on
ordered-set-partition rows summed by Horner's rule in t + 1.
``volume_closed`` is one Horner pass, O(m).  These routes and the two
generating-function engines below each pass their loop count to
``_refuse_formula_work`` before their first loop, which refuses the route
when that count times a bound on its operand size exceeds the work budget.
The two combinatorial engines are one sum over two censuses:
``_census_sum`` adds count * k^a 2^(m-c) C(c, i) to one int coefficient
of 2^m ehr(t) per census entry (a loops, c doubled pairs,
k = n - m + 1) and i = 0..c, and divides once; ``ehrhart_postnikov``
hands it the Hall DP's census, ``ehrhart_graphsum`` the component DP's.
The generating-function engines write ehr(t) as
m! t^m [z^m] F exp(w(u)/t) with w(u) = u - u^2/4, u = z or T(z).
Expanding exp(w/t) = sum_k u^k (1 - u/4)^k / (k! t^k) leaves only the
numbers [z^m] u^i F, which one integer double sum turns into the
coefficients of t^(m-k), divided once (``_exp_over_t``, O(m^2) int
products).  ``ehrhart_egf`` reads those numbers off the rational series
F = sqrt(1-z) exp((n+1/2) z), whose int numerators over one denominator
(see :mod:`.series`) form no ``Fraction`` per coefficient (O(m^2) int
products).  ``ehrhart_egf_tree`` reaches no series: it sums the int
coefficients of G(y) = exp((n-m+1/2) y)/sqrt(1-y), one convolution,
against the numbers [z^m] T^k that Lagrange inversion gives in closed
form, in O(m^2) products of two operands of about the size of
2^m m! (2n+1)^m.

The two combinatorial engines share no counting code, so their agreement
witnesses the bijection between Hall-feasible sequences and multigraphs
with at most one cycle per component.  ``ehrhart_recurrence`` reaches no
code of ``ehrhart_closed``, so a wrong closed sum at any m shows up on one
side of their comparison only.  ``ehrhart_egf_tree`` reaches no series
arithmetic and no code of ``ehrhart_closed`` or ``ehrhart_egf``; the two
generating-function engines share ``_exp_over_t`` by design.  Agreement
of all of them, and of
their values with brute-force lattice point counts, is what the
verification harness checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, isqrt
from operator import mul

from .errors import refuse_above_budget, require_int
from .graphs import GraphStats, graph_census, sequence_census
from .polynomials import (
    Poly,
    _poly,
    convolve,
    double_factorial,
    eulerian,
)
from .series import TruncatedSeries, _series, one_minus_z


def _require_formula_domain(m: int, n: int):
    require_int(m=m, n=n)
    if m < 1 or n < 1:
        raise ValueError(f"need integers m >= 1 and n >= 1, got m={m}, n={n}")
    if n < m - 1:
        raise ValueError(
            f"Ehrhart formulas require n >= m - 1, got m={m}, n={n}"
        )


# a formula route's work as a refusal states it, after the route's name
FORMULA_WORK = " work bound loops*64-bit operand words {}*{} = {}"


def _refuse_formula_work(route: str, loops: int, m: int, n: int):
    """Refuse the formula route ``route`` on P(m, n), through
    :func:`.errors.refuse_above_budget` and stated by
    ``route + FORMULA_WORK``, when its work bound exceeds the budget: its
    loop count ``loops`` times its operand size in 64-bit words.

    The operand size is that of 2^m m! (2n+1)^m, of W words for at most
    m (1 + bits(m) + bits(2n+1)) bits; the face counts pass n capped at m,
    where they stop growing.  The other routes multiply such an operand by
    a word-sized one per step, ``egf-tree`` two such operands, stated as
    W isqrt(W) words: at n = m, m = 100..400, its time was 0.5 sqrt(W) to
    0.7 sqrt(W) times that of ``closed``."""
    words = m * (1 + m.bit_length() + (2 * n + 1).bit_length()) // 64 + 1
    if route == "egf-tree":
        words *= isqrt(words)
    refuse_above_budget(loops * words, route + FORMULA_WORK, loops, words)


def ehrhart_closed(m: int, n: int) -> Poly:
    """Closed-form Ehrhart polynomial of P(m, n) for n >= m - 1.

    (1/2^m) sum over 0 <= i <= floor(m/2), 2i <= j <= m of
    (-1)^(i+1) * multinom(m; m-j, j-2i, i, i) * i! * (2j-4i-3)!!
    * t^(j-i) * (2nt + t + 2)^(m-j),
    with the (-3)!! = -1 double-factorial convention.  Grouped by j, the
    sum is sum_j Q_j(t) B(t)^(m-j) with B = 2 + (2n+1)t and
    Q_j(t) = sum_i (-1)^(i+1) m!/((m-j)! (j-2i)! i!) (2(j-2i)-3)!! t^(j-i),
    which Horner's rule acc <- acc * B + Q_j takes in O(m^2) integer
    operations, its scalars read from one factorial and one double-factorial
    table.  The sum is taken in integers and divided by 2^m once.
    """
    _require_formula_domain(m, n)
    _refuse_formula_work("closed", m * m, m, n)
    fact = [1]
    for k in range(1, m + 1):
        fact.append(fact[-1] * k)
    odd = [double_factorial(-3)]  # (2k - 3)!! for k = 0..m, by k!! = k (k - 2)!!
    for k in range(1, m + 1):
        odd.append(odd[-1] * (2 * k - 3))
    slope = 2 * n + 1
    acc: list[int] = []
    for j in range(m + 1):
        acc = [2 * a + slope * b for a, b in zip(acc + [0], [0] + acc)]
        falling = fact[m] // fact[m - j]  # m! / (m-j)!
        for i in range(j // 2 + 1):
            c = falling // (fact[j - 2 * i] * fact[i]) * odd[j - 2 * i]
            acc[j - i] += c if i % 2 else -c
    return _poly(acc, 2**m)


def _census_sum(census: dict[GraphStats, int], m: int, n: int) -> Poly:
    """ehr(t) of P(m, n) summed over a census of signatures (a loops,
    b single pairs, c doubled pairs) on m vertices, each weighing
    (kt)^a t^b (t(t+1)/2)^c, k = n - m + 1: C(kt, 1) per loop, C(t, 1) per
    single pair and C(t + 1, 2) per doubled pair.
    Since t(t+1)/2 = t (t+1)/2, an entry counted N times adds
    N k^a 2^(m-c) C(c, i) to the coefficient of t^(a+b+c+i) in 2^m ehr(t),
    i = 0..c (c <= m, and a + b + 2c <= m edges).  The sum is taken in
    integers and divided by 2^m once."""
    k = n - m + 1
    nums = [0] * (m + 1)
    for (loops, single, doubled), count in census.items():
        scale = count * k**loops << (m - doubled)
        low = loops + single + doubled
        for i in range(doubled + 1):
            nums[low + i] += scale * comb(doubled, i)
    return _poly(nums, 2**m)


def ehrhart_postnikov(m: int, n: int) -> Poly:
    """Sum over Hall-feasible multiplicity sequences a of
    prod_i binom((n-m+1)t + a_{i} - 1, a_{i}) *
    prod_{i<j} binom(t + a_{ij} - 1, a_{ij}).

    Hall's condition on the copies of one slot allows at most 1 copy of a
    loop and 2 of a pair, so the product depends only on the
    :class:`.graphs.GraphStats` signature of a, and is the weight
    :func:`_census_sum` gives it.  The sum runs over
    :func:`.graphs.sequence_census`, the Hall DP's tally by that
    signature, refused up front past the work budget; no multigraph or
    union-find code is reached."""
    _require_formula_domain(m, n)
    return _census_sum(sequence_census(m), m, n)


def ehrhart_graphsum(m: int, n: int) -> Poly:
    """Sum over multigraphs G (components with at most one cycle) of
    ((n-m+1)t)^n_loops * t^n_single * (t(t+1)/2)^n_pairs.

    The weight is :func:`_census_sum`'s, over :func:`.graphs.graph_census`,
    the component DP's tally by signature, refused up front past the work
    budget; no Hall or matching code is reached."""
    _require_formula_domain(m, n)
    return _census_sum(graph_census(m), m, n)


def tree_function(order: int) -> TruncatedSeries:
    """The tree function T(z) = sum_{k>=1} k^(k-1) z^k / k! (the EGF of
    rooted labelled trees, equal to -W(-z) in Lambert W terms), truncated
    at the given order.  Satisfies T = z exp(T)."""
    require_int(order=order)
    if order < 1:
        raise ValueError("tree_function needs order >= 1")
    top = factorial(order)
    nums, fall = [0], top  # fall = order! / k!
    for k in range(1, order + 1):
        fall //= k
        nums.append(k ** (k - 1) * fall)
    return _series(nums, top)


def _exp_over_t(c: list[int], den: int, m: int) -> Poly:
    """m! t^m [z^m] F(z) exp(w(u)/t), w(u) = u - u^2/4 for a series u with
    zero constant term, from c_i = c[i] / den = [z^m] u^i F (i = 0..m).

    exp(w/t) = sum_k u^k (1 - u/4)^k / (k! t^k), so the coefficient of
    t^(m-k) is (m!/k!) sum_{j <= min(k, m-k)} C(k, j) (-1/4)^j c_(k+j);
    it is summed in integers scaled by 4^m den and divided once."""
    nums = [0] * (m + 1)
    falling = 1  # m!/k!
    for k in range(m, -1, -1):
        acc, binom = 0, 1  # binom = (-1)^j C(k, j)
        for j in range(min(k, m - k) + 1):
            acc += binom * c[k + j] << 2 * (m - j)
            binom = -binom * (k - j) // (j + 1)
        nums[m - k] = falling * acc
        falling *= k
    return _poly(nums, 4**m * den)


def ehrhart_egf(m: int, n: int) -> Poly:
    """m! t^m [z^m] sqrt(1-z) exp((n + 1/2 + 1/t) z - z^2/(4t)).

    With F = sqrt(1-z) exp((n + 1/2) z), a rational series, [z^m] z^i F is
    the coefficient of z^(m-i) in F, and the 1/t part expands in
    :func:`_exp_over_t`."""
    _require_formula_domain(m, n)
    _refuse_formula_work("egf", m * m, m, n)
    linear = TruncatedSeries([0, Fraction(2 * n + 1, 2)], order=m)
    f = one_minus_z(m).sqrt() * linear.exp()
    return _exp_over_t(f.nums[::-1], f.den, m)


def _tree_power_coefficients(m: int) -> list[int]:
    """m! [z^m] T(z)^k for k = 0..m, as ints.  Lagrange inversion of
    T = z exp(T) gives [z^m] T^k = (k/m) m^(m-k) / (m-k)!, so the number is
    k m^(m-k-1) m!/(m-k)! for 1 <= k < m, m! at k = m and 0 at k = 0."""
    out = [0] * (m + 1)
    falling, power = 1, m ** (m - 1)  # m!/(m-k)! and m^(m-k-1), at k = 0
    for k in range(1, m):
        falling *= m - k + 1
        power //= m
        out[k] = k * power * falling
    out[m] = falling
    return out


def ehrhart_egf_tree(m: int, n: int) -> Poly:
    """m! t^m [z^m] exp((n - m + 1/2 + 1/t) T(z) - T(z)^2/(4t)) / sqrt(1 - T(z)).

    With G(y) = exp((n - m + 1/2) y) / sqrt(1 - y), [z^m] T^i G(T) is
    sum_{k >= i} G_(k-i) [z^m] T^k, and the 1/t part expands in
    :func:`_exp_over_t`.  The numbers [z^m] T^k = (k/m) m^(m-k) / (m-k)!
    come from the Lagrange Inversion Theorem (Flajolet and Sedgewick,
    *Analytic Combinatorics*, 2009), not from the powers of the series T;
    G is one int convolution of b^j 2^(m-j) m!/j! (b = 2(n - m) + 1, from
    exp(b y / 2)) and C(2i, i) 4^(m-i) (from (1 - y)^(-1/2)) over the
    denominator 8^m m!.  m^2 int products, each of two operands of about
    the size of 2^m m! (2n+1)^m."""
    _require_formula_domain(m, n)
    _refuse_formula_work("egf-tree", m * m, m, n)
    b, fact = 2 * (n - m) + 1, factorial(m)
    exp_part = [fact << m]  # b^j 2^(m-j) m!/j!
    root_part = [4**m]  # C(2i, i) 4^(m-i)
    for j in range(m):
        exp_part.append(exp_part[-1] * b // (2 * j + 2))
        root_part.append(root_part[-1] * (2 * j + 1) // (2 * j + 2))
    g = convolve(exp_part, root_part, m + 1)
    at_m = _tree_power_coefficients(m)
    c = [sum(map(mul, g, at_m[i:])) for i in range(m + 1)]
    return _exp_over_t(c, 8**m * fact * fact, m)


def ehrhart_recurrence(m: int, n: int) -> Poly:
    """Three-term recurrence in m:

    ehr(m) = (mt + nt - t + 1) ehr(m-1)
             - (m-1)(nt + t/2 + 3/2) t ehr(m-2)
             + (m-1)(m-2) t^2 ehr(m-3) / 2,

    run on E(m) = 2^m ehr(m), which has integer coefficients:

    E(m) = (2 + 2(m+n-1)t) E(m-1) - (m-1)(6t + 2(2n+1)t^2) E(m-2)
           + 4(m-1)(m-2) t^2 E(m-3),

    from E(0) = 1, the single point P(0, n); the factors m - 1 and
    (m-1)(m-2) cancel the terms before it at m = 1 and 2.  Each step is
    one pass over the three lists, zero-padded and shifted to the powers
    of t they meet.  No other engine's code is reached."""
    _require_formula_domain(m, n)
    _refuse_formula_work("recurrence", m * m, m, n)
    e3, e2, e1 = [], [], [1]
    for mm in range(1, m + 1):
        p, q = 2 * (mm + n - 1), 6 * (mm - 1)
        r, s = 2 * (2 * n + 1) * (mm - 1), 4 * (mm - 1) * (mm - 2)
        nxt = [
            2 * x + p * y - q * u - r * v + s * w
            for x, y, u, v, w in zip(
                e1 + [0], [0] + e1, [0] + e2 + [0], [0, 0] + e2, [0, 0] + e3 + [0]
            )
        ]
        e3, e2, e1 = e2, e1, nxt
    return _poly(e1, 2**m)


def volume_closed(m: int, n: int) -> Fraction:
    """Volume of P(m, n) for n >= m - 1:
    -(1/2^m) sum_{i=0..m} C(m, i) (2i-3)!! (2n+1)^(m-i),
    taken by Horner's rule in 2n + 1: O(m) integer operations."""
    _require_formula_domain(m, n)
    _refuse_formula_work("volume", m, m, n)
    total, term = 0, double_factorial(-3)  # term = C(m, i) (2i - 3)!!
    for i in range(m + 1):
        total = total * (2 * n + 1) + term
        term = term * (m - i) * (2 * i - 1) // (i + 1)
    return Fraction(-total, 2**m)


def f_polynomial(m: int, n: int) -> Poly:
    """Face-count polynomial of P(m, n): the coefficient of t^i is the
    number of i-dimensional faces (the polytope itself included).

    1 + sum_{i=0..n-1} C(m, i) A_i(t+1) sum_{j=1..m-i} (t+1)^j,
    with A_i the Eulerian polynomial, read through the ordered-set-partition
    numbers T(i, k) = k! S(i, k): A_i(t+1) = sum_{k=1..i} T(i, k) t^(i-k)
    (A_0 = 1), each row from the last by T(i, k) = k (T(i-1, k) + T(i-1, k-1)).
    Regrouped by the power of t + 1, the sum is
    sum_{j=1..m} (t+1)^j P_(m-j) with the prefix sums
    P_k = sum_{i <= min(k, n-1)} C(m, i) A_i(t+1), taken by Horner's rule
    in t + 1: O(m^2) integer operations on int coefficient lists."""
    require_int(m=m, n=n)
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    _refuse_formula_work("fpoly", m * m, m, min(n, m))
    row = [1]  # T(i, k) for k = 0..i
    prefix = [1]  # P_i, from P_0 = A_0 = 1
    binom = 1  # C(m, i)
    acc = [1]  # sum_{k=0..i} (t+1)^(i-k) P_k
    for i in range(1, m):
        if i < n:
            row = [0] + [k * (a + b) for k, (a, b) in enumerate(zip(row[1:] + [0], row), 1)]
            binom = binom * (m - i + 1) // i
            # A_i(t+1) has i coefficients; P_(i-1) has i - 1, or 1 at i = 1
            prefix = [a + binom * b for a, b in zip(prefix + [0], reversed(row[1:]))]
        acc = [a + b for a, b in zip(acc + [0], [0] + acc)]  # times t + 1
        for r, c in enumerate(prefix):
            acc[r] += c
    total = [a + b for a, b in zip(acc + [0], [0] + acc)]
    total[0] += 1
    return _poly(total, 1)


def f_polynomial_stable(m: int, n: int | None = None) -> Poly:
    """Face-count polynomial shared by all P(m, n) with n >= m (they are
    all combinatorially equivalent): 1 + (t+1) sum_{i=1..m} C(m, i) A_i(t+1).

    Does not hold below n = m: P(2, 1) is a triangle, not a pentagon."""
    require_int(m=m)
    if n is not None:
        require_int(n=n)
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    if n is not None and n < m:
        raise ValueError(f"the stable face-count formula requires n >= m, got n={n}")
    # an Eulerian polynomial and its shift per i
    _refuse_formula_work("fpoly-stable", m**3, m, m)
    shift = Poly([1, 1])
    acc = Poly()
    for i in range(1, m + 1):
        acc = acc + comb(m, i) * eulerian(i).compose(shift)
    return Poly([1]) + shift * acc


def coefficient_transfer_check(f: Poly, k: int) -> tuple[Fraction, Fraction]:
    """Both sides of the tree-function coefficient identity
    [z^k] f(T(z)) = [z^k] f(z) (1 - z) exp(k z), computed independently
    (composition with T on the left, direct multiplication on the right)."""
    require_int(k=k)
    if k < 0:
        raise ValueError("need k >= 0")
    order = max(k, 1)
    f_series = TruncatedSeries.from_poly(f, order)
    lhs = f_series.compose(tree_function(order)).coefficient(k)
    kz = TruncatedSeries([0, k], order=order)
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
METHOD_NAMES = tuple(_ENGINES)


def compute_ehrhart(m: int, n: int, method: str = "closed") -> Poly:
    """The Ehrhart polynomial of P(m, n) by one named engine, all engines
    agreeing for every valid (m, n).  The engine refuses itself past the
    work budget."""
    engine = _ENGINES.get(method) if isinstance(method, str) else None
    if engine is None:
        raise ValueError(
            f"unknown method {method!r}; choose from {', '.join(METHOD_NAMES)}"
        )
    return engine(m, n)
