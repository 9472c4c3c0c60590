import copy
import operator
import pickle
import random
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutoehr.polynomials import (
    LaurentPoly,
    Poly,
    double_factorial,
    eulerian,
    rising_binomial,
)

T = Poly([0, 1])


def brute_force_eulerian(i):
    """Descent-counting oracle: coefficient of t^j = #permutations of
    {1..i} with j descents."""
    if i == 0:
        return Poly([1])
    counts = [0] * i
    for perm in permutations(range(i)):
        descents = sum(1 for k in range(i - 1) if perm[k] > perm[k + 1])
        counts[descents] += 1
    return Poly(counts)


class TestPoly:
    def test_normalization_trims_trailing_zeros(self):
        assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
        assert Poly([0, 0]).coeffs == ()

    def test_zero_degree_sentinel(self):
        assert Poly().degree == -1
        assert Poly([5]).degree == 0
        assert Poly([0, 0, 3]).degree == 2

    def test_eval_and_str(self):
        p = Poly([1, Fraction(7, 2), Fraction(7, 2)])
        assert p(1) == 8
        assert p(2) == 22
        assert str(p) == "(7/2)*t^2 + (7/2)*t + 1"
        assert str(Poly()) == "0"
        assert str(Poly([0, -1, 1])) == "t^2 - t"

    def test_pow_and_compose(self):
        p = (T + 1) ** 3
        assert p == Poly([1, 3, 3, 1])
        assert Poly([0, 0, 1]).compose(T + 1) == Poly([1, 2, 1])

    def test_distributivity_and_eval_homomorphism(self):
        rng = random.Random(20240817)

        def rand_poly():
            deg = rng.randint(0, 6)
            return Poly(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg + 1)]
            )

        for _ in range(60):
            p, q, r = rand_poly(), rand_poly(), rand_poly()
            assert (p + q) * r == p * r + q * r
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert (p * q)(c) == p(c) * q(c)

    def test_immutable_and_hashable(self):
        p = Poly([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = ()
        assert len({Poly([1, 2]), Poly([1, 2]), Poly([2, 1])}) == 2

    @pytest.mark.parametrize("ring", (Poly, LaurentPoly))
    @pytest.mark.parametrize("bad", (0.1, True, "1/3"))
    def test_rejects_coefficients_outside_the_rationals(self, ring, bad):
        with pytest.raises(TypeError, match="ints or Fractions"):
            ring([1, bad])

    @pytest.mark.parametrize("ring", (Poly, LaurentPoly))
    @pytest.mark.parametrize("bad", (0.5, True, False, "1/3"))
    @pytest.mark.parametrize(
        "op",
        (operator.add, operator.sub, operator.mul,
         lambda a, b: b + a, lambda a, b: b - a, lambda a, b: b * a),
        ids=("add", "sub", "mul", "radd", "rsub", "rmul"),
    )
    def test_operators_reject_scalars_outside_the_rationals(self, ring, bad, op):
        for value in (ring([1, 2]), ring()):
            with pytest.raises(TypeError):
                op(value, bad)

    @pytest.mark.parametrize("bad", (0.5, True, "1/3"))
    def test_laurent_division_rejects_scalars_outside_the_rationals(self, bad):
        with pytest.raises(TypeError):
            LaurentPoly([1, 2], min_exp=-1) / bad

    @pytest.mark.parametrize("bad", (0.5, True, "1/3"))
    def test_evaluation_rejects_points_outside_the_rationals(self, bad):
        for p in (Poly([1, 1]), Poly()):
            with pytest.raises(TypeError, match="ints or Fractions"):
                p(bad)

    @pytest.mark.parametrize("ring", (Poly, LaurentPoly))
    def test_a_bool_is_unequal_without_raising(self, ring):
        assert ring([1]) == 1 and ring([1]) != True  # noqa: E712
        assert ring() == 0 and ring() != False  # noqa: E712


class TestRisingBinomial:
    def test_a_zero_is_one(self):
        assert rising_binomial(T, 0) == Poly([1])
        assert rising_binomial(Poly([3, 7]), 0) == Poly([1])

    def test_t_choose_two_shifted(self):
        # binom(t+1, 2) = t(t+1)/2
        assert rising_binomial(T, 2) == Poly([0, Fraction(1, 2), Fraction(1, 2)])

    def test_zero_argument(self):
        assert rising_binomial(Poly(), 3) == Poly()

    def test_degree(self):
        assert rising_binomial(T, 4).degree == 4
        assert rising_binomial(Poly([0, 0, 1]), 3).degree == 6

    @pytest.mark.parametrize("x0", range(1, 7))
    @pytest.mark.parametrize("a", range(7))
    def test_matches_ordinary_binomial_at_integers(self, x0, a):
        assert rising_binomial(T, a)(x0) == comb(x0 + a - 1, a)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rising_binomial(T, -1)


class TestDoubleFactorial:
    def test_convention_anchors(self):
        assert double_factorial(-3) == -1
        assert double_factorial(-1) == 1
        assert double_factorial(1) == 1
        assert double_factorial(3) == 3
        assert double_factorial(5) == 15
        assert double_factorial(7) == 105

    def test_recurrence(self):
        for k in range(-1, 12, 2):
            assert double_factorial(k) == k * double_factorial(k - 2)

    def test_rejects_even_and_below_range(self):
        with pytest.raises(ValueError):
            double_factorial(2)
        with pytest.raises(ValueError):
            double_factorial(-5)


class TestEulerian:
    def test_small_values(self):
        assert eulerian(0) == Poly([1])
        assert eulerian(1) == Poly([1])
        assert eulerian(2) == Poly([1, 1])
        assert eulerian(3) == Poly([1, 4, 1])

    @pytest.mark.parametrize("i", range(9))
    def test_against_descent_counting(self, i):
        assert eulerian(i) == brute_force_eulerian(i)

    @pytest.mark.parametrize("i", range(9))
    def test_sums_to_factorial(self, i):
        assert eulerian(i)(1) == factorial(i)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            eulerian(-1)


class TestLaurentPoly:
    def test_normalization(self):
        p = LaurentPoly([0, 1, 2, 0], min_exp=-2)
        assert p.min_exp == -1
        assert p.coeffs == (Fraction(1), Fraction(2))
        assert LaurentPoly([0, 0]).is_zero
        assert LaurentPoly().min_exp == 0

    def test_arithmetic(self):
        inv_t = LaurentPoly.term(1, -1)
        assert inv_t * inv_t == LaurentPoly.term(1, -2)
        assert inv_t * LaurentPoly.term(1, 1) == 1
        p = inv_t + 2
        assert p.coefficient(-1) == 1 and p.coefficient(0) == 2
        assert p - inv_t == 2
        assert (p * 3) / 3 == p

    def test_shift_and_as_poly(self):
        p = LaurentPoly([1, Fraction(1, 2)], min_exp=-1)
        q = p.shifted(1)
        assert q.as_poly() == Poly([1, Fraction(1, 2)])
        with pytest.raises(ValueError):
            p.as_poly()
        assert LaurentPoly().as_poly() == Poly()

    def test_scalar_equality(self):
        assert LaurentPoly.constant(Fraction(3, 2)) == Fraction(3, 2)
        assert LaurentPoly() == 0
        assert LaurentPoly.term(1, -1) != 1


class TestHashEqContract:
    @pytest.mark.parametrize("value", (0, 3, -2, Fraction(3, 2)))
    def test_constants_hash_as_their_scalar(self, value):
        for const in (Poly([value]), LaurentPoly.constant(value)):
            assert const == value
            assert hash(const) == hash(value)
            assert len({const, value}) == 1
            assert {value: "v"}[const] == "v"
            assert {const: "c"}[value] == "c"

    def test_non_constants_stay_distinct(self):
        assert len({Poly([0, 1]), Poly([1]), 1}) == 2
        assert len({LaurentPoly.term(1, -1), LaurentPoly.constant(1), 1}) == 2


class TestCopyAndPickle:
    @pytest.mark.parametrize(
        "value",
        (
            Poly(),
            Poly([7]),
            Poly([Fraction(1, 2), 0, Fraction(-3, 7)]),
            LaurentPoly(),
            LaurentPoly.constant(Fraction(-5, 3)),
            LaurentPoly([Fraction(1, 3), 0, 2], -2),
        ),
        ids=repr,
    )
    def test_round_trips(self, value):
        for twin in (
            copy.copy(value),
            copy.deepcopy(value),
            pickle.loads(pickle.dumps(value)),
        ):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)
            assert repr(twin) == repr(value)
            with pytest.raises(AttributeError):
                twin.coeffs = ()


# small coefficient and exponent ranges, so that values collide often
collide_scalars = st.sampled_from((0, 1, -1, Fraction(1, 2), Fraction(-1, 2)))
collide_lists = st.lists(collide_scalars, max_size=3)
ring_values = st.one_of(
    collide_scalars,
    st.builds(Poly, collide_lists),
    st.builds(LaurentPoly, collide_lists, st.integers(min_value=-1, max_value=2)),
)


def value_of(x):
    """{exponent: nonzero coefficient}, whatever the type of x."""
    if isinstance(x, Poly):
        pairs = enumerate(x.coeffs)
    elif isinstance(x, LaurentPoly):
        pairs = enumerate(x.coeffs, x.min_exp)
    else:
        pairs = [(0, x)]
    return {e: Fraction(c) for e, c in pairs if c}


class TestCrossTypeEquality:
    def test_laurent_without_negative_powers_equals_poly(self):
        assert Poly([3]) == LaurentPoly.constant(3) == Poly([3])
        assert LaurentPoly([1, 2], 1) == Poly([0, 1, 2])
        assert Poly([0, 1, 2]) == LaurentPoly([1, 2], 1)
        assert len({Poly([3]), LaurentPoly.constant(3), 3}) == 1
        assert LaurentPoly([1, 2], -1) != Poly([1, 2])

    @settings(max_examples=300, deadline=None)
    @given(ring_values, ring_values, ring_values)
    def test_equality_is_value_equality_and_hash_agrees(self, a, b, c):
        # equality agreeing with one value map on every pair makes it
        # transitive across Poly, LaurentPoly and scalars
        for x, y in ((a, b), (b, c), (a, c)):
            same = value_of(x) == value_of(y)
            assert (x == y) == same and (y == x) == same
            assert (x != y) == (not same)
            if same:
                assert hash(x) == hash(y)


# --- property tests of the exact core -----------------------------------

scalars = st.fractions(min_value=-40, max_value=40, max_denominator=36)
nonzero_scalars = scalars.filter(bool)
int_scalars = st.integers(min_value=-40, max_value=40)
laurent_coeff_lists = st.lists(st.one_of(scalars, st.just(Fraction(0))), max_size=5)
exponents = st.integers(min_value=-4, max_value=4)
laurents = st.builds(LaurentPoly, laurent_coeff_lists, exponents)
polys = st.builds(Poly, st.lists(scalars, max_size=5))


def reference_laurent(coeffs, min_exp):
    """Canonical (coefficients, min_exp) with one Fraction per coefficient,
    the representation LaurentPoly had before its int numerators."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[0] == 0:
        cs.pop(0)
        min_exp += 1
    while cs and cs[-1] == 0:
        cs.pop()
    return (tuple(cs), min_exp if cs else 0)


def reference_add(a, b):
    if not a[0]:
        return b
    if not b[0]:
        return a
    lo = min(a[1], b[1])
    hi = max(a[1] + len(a[0]), b[1] + len(b[0]))
    out = [Fraction(0)] * (hi - lo)
    for cs, e in (a, b):
        for k, c in enumerate(cs):
            out[e - lo + k] += c
    return reference_laurent(out, lo)


def reference_mul(a, b):
    if not a[0] or not b[0]:
        return reference_laurent((), 0)
    out = [Fraction(0)] * (len(a[0]) + len(b[0]) - 1)
    for i, x in enumerate(a[0]):
        for j, y in enumerate(b[0]):
            out[i + j] += x * y
    return reference_laurent(out, a[1] + b[1])


def reference_scale(a, factor):
    return reference_laurent([c * factor for c in a[0]], a[1])


def fields(p):
    return (p.coeffs, p.min_exp)


def assert_canonical(p):
    if not p.nums:
        assert (p.den, p.min_exp) == (1, 0)
        return
    assert all(isinstance(c, int) for c in p.nums)
    assert isinstance(p.den, int) and p.den > 0
    assert p.nums[0] != 0 and p.nums[-1] != 0
    assert gcd(p.den, *p.nums) == 1


class TestLaurentRingProperties:
    @settings(max_examples=80, deadline=None)
    @given(laurents, laurents, laurents)
    def test_ring_axioms(self, a, b, c):
        zero, one = LaurentPoly(), LaurentPoly.constant(1)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a == zero + a
        assert a * one == a == one * a
        assert a * zero == zero
        assert a + (-a) == zero
        assert (a - b) + b == a

    @settings(max_examples=80, deadline=None)
    @given(laurents, laurents, nonzero_scalars, st.integers(-3, 3))
    def test_equal_values_have_equal_fields_and_hash(self, a, b, s, k):
        for p in (a, b, a + b, a * b, a * s, a / s, -a):
            assert_canonical(p)
        padded = LaurentPoly([0, *a.coeffs, 0, 0], a.min_exp - 1)
        for same in (padded, (a * s) / s, (a + b) - b, a.shifted(k).shifted(-k)):
            assert (same.nums, same.den, same.min_exp) == (a.nums, a.den, a.min_exp)
            assert hash(same) == hash(a)
            assert same == a

    @settings(max_examples=80, deadline=None)
    @given(laurents)
    def test_shifted_and_as_poly_round_trip(self, a):
        if a.is_zero:
            assert a.as_poly() == Poly()
            return
        lifted = a.shifted(-a.min_exp)
        poly = lifted.as_poly()
        assert poly.coeffs == a.coeffs
        assert LaurentPoly(poly.coeffs).shifted(a.min_exp) == a
        assert a.max_exp - a.min_exp == poly.degree
        if a.min_exp < 0:
            with pytest.raises(ValueError):
                a.as_poly()
        else:
            assert a.as_poly() == Poly([0] * a.min_exp + list(a.coeffs))

    @settings(max_examples=120, deadline=None)
    @given(
        laurent_coeff_lists, exponents, laurent_coeff_lists, exponents,
        st.one_of(nonzero_scalars, int_scalars.filter(bool)),
    )
    def test_agrees_with_fraction_reference(self, ca, ea, cb, eb, k):
        a, b = LaurentPoly(ca, ea), LaurentPoly(cb, eb)
        ra, rb = reference_laurent(ca, ea), reference_laurent(cb, eb)
        assert fields(a) == ra and fields(b) == rb
        assert fields(a + b) == reference_add(ra, rb)
        assert fields(a - b) == reference_add(ra, reference_scale(rb, -1))
        assert fields(a * b) == reference_mul(ra, rb)
        assert fields(a / k) == reference_scale(ra, 1 / Fraction(k))
        assert fields(a * k) == fields(k * a) == reference_scale(ra, Fraction(k))
        for e in range(min(ea, eb) - 1, max(ea, eb) + 7):
            assert a.coefficient(e) == dict(enumerate(ra[0], ra[1])).get(e, 0)

    @given(laurents)
    def test_division_by_zero(self, a):
        with pytest.raises(ZeroDivisionError):
            a / 0


class TestPolyProperties:
    @settings(max_examples=80, deadline=None)
    @given(polys, polys, scalars)
    def test_evaluation_is_a_ring_homomorphism(self, p, q, x):
        assert (p * q)(x) == p(x) * q(x)
        assert (p + q)(x) == p(x) + q(x)


class ReferencePoly:
    """The Fraction-per-coefficient polynomial Poly was before its int
    numerators: arithmetic, evaluation and str as they were, as an oracle."""

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ReferencePoly(out)

    def __neg__(self):
        return ReferencePoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return ReferencePoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return ReferencePoly(out)

    def __pow__(self, e):
        acc = ReferencePoly([1])
        for _ in range(e):
            acc = acc * self
        return acc

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            cs = str(mag) if mag.denominator == 1 else f"({mag})"
            if i == 0:
                term = cs
            elif i == 1:
                term = "t" if mag == 1 else f"{cs}*t"
            else:
                term = f"t^{i}" if mag == 1 else f"{cs}*t^{i}"
            parts.append((sign, term))
        first_sign, first_term = parts[0]
        out = ("-" if first_sign == "-" else "") + first_term
        for sign, term in parts[1:]:
            out += f" {sign} {term}"
        return out


def reference_compose(outer, inner):
    acc = ReferencePoly()
    for c in reversed(outer.coeffs):
        acc = acc * inner + ReferencePoly([c])
    return acc


poly_coeff_lists = st.lists(
    st.one_of(scalars, st.just(Fraction(0)), st.sampled_from((1, -1))), max_size=5
)


def assert_canonical_poly(p):
    if not p.nums:
        assert (p.nums, p.den) == ((), 1)
        return
    assert isinstance(p.nums, tuple) and all(type(c) is int for c in p.nums)
    assert type(p.den) is int and p.den > 0
    assert p.nums[-1] != 0
    assert gcd(p.den, *p.nums) == 1


class TestIntNumeratorPoly:
    @settings(max_examples=150, deadline=None)
    @given(poly_coeff_lists, poly_coeff_lists, st.integers(0, 4), int_scalars, scalars)
    def test_agrees_with_fraction_reference(self, ca, cb, e, k, x):
        a, b = Poly(ca), Poly(cb)
        ra, rb = ReferencePoly(ca), ReferencePoly(cb)
        for got, want in (
            (a, ra),
            (a + b, ra + rb),
            (a - b, ra - rb),
            (a * b, ra * rb),
            (a**e, ra**e),
            (a + k, ra + ReferencePoly([k])),
            (k - a, ReferencePoly([k]) - ra),
            (x * a, ReferencePoly([x]) * ra),
            (a.compose(b), reference_compose(ra, rb)),
        ):
            assert got.coeffs == want.coeffs
            assert str(got) == str(want)
            assert_canonical_poly(got)
        for point in (k, x):
            value = a(point)
            assert type(value) is Fraction and value == ra(point)

    @settings(max_examples=100, deadline=None)
    @given(poly_coeff_lists, poly_coeff_lists, nonzero_scalars)
    def test_equal_values_have_equal_fields_and_hash(self, ca, cb, s):
        a, b = Poly(ca), Poly(cb)
        padded = Poly(list(a.coeffs) + [0, 0])
        for same in (padded, (a * s) * (1 / s), (a + b) - b, a * 1, a**1):
            assert (same.nums, same.den) == (a.nums, a.den)
            assert same == a and hash(same) == hash(a)
            assert_canonical_poly(same)
        # hashing is that of the Fraction coefficients, as before
        if a.degree >= 1:
            assert hash(a) == hash(a.coeffs)

    def test_str_of_mixed_coefficients(self):
        p = Poly([Fraction(-3, 4), 0, -1, Fraction(6, 4), 1])
        assert str(p) == "t^4 + (3/2)*t^3 - t^2 - (3/4)"
        assert str(-p) == "-t^4 - (3/2)*t^3 + t^2 + (3/4)"
        assert str(Poly([0, Fraction(-1, 2)])) == "-(1/2)*t"
