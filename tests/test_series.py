import copy
import operator
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutoehr.polynomials import LaurentPoly, Poly
from permutoehr.series import TruncatedSeries, _exact_quotient, one_minus_z


def rational(coeffs, order=None):
    return TruncatedSeries([Fraction(c) for c in coeffs], order=order)


class TestBasics:
    def test_construction_pads(self):
        s = rational([1, 2], order=4)
        assert s.order == 4
        assert s.coefficient(4) == 0

    def test_order_mismatch_rejected(self):
        low, high = rational([1, 2], order=2), rational([1, 2], order=3)
        for a, b in ((low, high), (high, low)):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(ValueError, match="order mismatch"):
                    op(a, b)

    def test_mul_truncates(self):
        s = rational([1, 1], order=2)
        assert (s * s).coeffs == (1, 2, 1)
        cube = s * s * s
        assert cube.coeffs == (1, 3, 3)  # z^3 falls off

    def test_scalar_ops(self):
        s = rational([1, 2, 3])
        assert (s * Fraction(1, 2)).coeffs == (Fraction(1, 2), 1, Fraction(3, 2))
        assert (s + 5).coefficient(0) == 6
        assert (1 - s).coeffs == (0, -2, -3)

    def test_from_poly(self):
        s = TruncatedSeries.from_poly(Poly([1, 0, 4]), 4)
        assert s.coeffs == (1, 0, 4, 0, 0)
        # truncation drops high-degree coefficients
        assert TruncatedSeries.from_poly(Poly([0, 0, 0, 7]), 2).coeffs == (0, 0, 0)


class TestExpLogSqrt:
    def test_exp_of_zero(self):
        assert rational([0], order=6).exp() == rational([1], order=6)

    def test_exp_known_series(self):
        e = rational([0, 1], order=6).exp()
        import math

        for k in range(7):
            assert e.coefficient(k) == Fraction(1, math.factorial(k))

    def test_sqrt_one_minus_z(self):
        s = one_minus_z(8).sqrt()
        assert s.coefficient(0) == 1
        assert s.coefficient(1) == Fraction(-1, 2)
        assert s.coefficient(2) == Fraction(-1, 8)
        assert s.coefficient(3) == Fraction(-1, 16)
        # squaring is the oracle for the remaining coefficients
        assert s * s == one_minus_z(8)

    def test_log_of_geometric_is_harmonic(self):
        geometric = rational([1] * 10)  # 1/(1-z) to order 9
        lg = geometric.log()
        assert lg.coefficient(0) == 0
        for k in range(1, 10):
            assert lg.coefficient(k) == Fraction(1, k)
        # exp round-trip back to 1/(1-z)
        assert lg.exp() == geometric

    def test_round_trips_order_12(self):
        rng = random.Random(12)
        for _ in range(10):
            body = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(12)]
            with_one = rational([1] + body)
            assert with_one.log().exp() == with_one
            root = with_one.sqrt()
            assert root * root == with_one
            with_zero = rational([0] + body)
            assert with_zero.exp().log() == with_zero

    def test_preconditions_distinct_errors(self):
        bad_exp = rational([1, 1])
        bad_log = rational([0, 1])
        with pytest.raises(ValueError, match="exp requires constant term 0"):
            bad_exp.exp()
        with pytest.raises(ValueError, match="log requires constant term 1"):
            bad_log.log()
        with pytest.raises(ValueError, match="sqrt requires constant term 1"):
            bad_log.sqrt()
        with pytest.raises(ValueError, match="compose requires inner constant term 0"):
            bad_log.compose(bad_exp)


class TestCompose:
    def test_polynomial_composition(self):
        # (1 + z)^2 at z + z^2: 1 + 2(z + z^2) + (z + z^2)^2
        outer = rational([1, 2, 1], order=4)
        inner = rational([0, 1, 1], order=4)
        assert outer.compose(inner).coeffs == (1, 2, 3, 2, 1)

    def test_compose_with_exp_minus_one(self):
        # log(1 + w) composed with exp(z) - 1 gives back z
        order = 10
        log1p = TruncatedSeries(
            [Fraction(0)]
            + [Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)]
        )
        expm1 = rational([0, 1], order=order).exp() - 1
        assert log1p.compose(expm1) == rational([0, 1], order=order)

    def test_identity_composition(self):
        rng = random.Random(7)
        s = rational([rng.randint(-5, 5) for _ in range(9)])
        z = rational([0, 1], order=8)
        assert s.compose(z) == s


def horner_compose(outer, inner):
    """Reference composition: Horner's rule on whole truncated series."""
    n = outer.order
    acc = TruncatedSeries([outer.coefficient(n)], order=n)
    for k in range(n - 1, -1, -1):
        acc = acc * inner + outer.coefficient(k)
    return acc


fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def compose_pairs(draw, coefficients):
    order = draw(st.integers(min_value=0, max_value=7))
    outer = TruncatedSeries(
        draw(st.lists(coefficients, min_size=order + 1, max_size=order + 1))
    )
    inner = TruncatedSeries(
        [Fraction(0)] + draw(st.lists(fractions, min_size=order, max_size=order)),
        order=order,
    )
    return outer, inner


class TestComposeProperties:
    @settings(max_examples=60, deadline=None)
    @given(compose_pairs(fractions))
    def test_matches_horner_over_fractions(self, pair):
        outer, inner = pair
        assert outer.compose(inner) == horner_compose(outer, inner)


@st.composite
def one_plus_series(draw, coefficients):
    """1 + s for a series s with zero constant term, and its order."""
    order = draw(st.integers(min_value=0, max_value=6))
    zero = draw(coefficients) * 0
    s = TruncatedSeries(
        [zero] + draw(st.lists(coefficients, min_size=order, max_size=order)),
        order=order,
    )
    return 1 + s


class TestSeriesIdentities:
    @settings(max_examples=60, deadline=None)
    @given(one_plus_series(fractions))
    def test_exp_of_log_is_identity(self, base):
        assert base.log().exp() == base

    @settings(max_examples=60, deadline=None)
    @given(one_plus_series(fractions))
    def test_sqrt_squared_is_identity(self, base):
        root = base.sqrt()
        assert root * root == base


class ReferenceSeries:
    """The Fraction-per-coefficient series TruncatedSeries was before its
    int numerators, as an oracle.  It
    takes ints as Fractions: its recurrences divide by ints."""

    def __init__(self, coeffs):
        self.coeffs = tuple(Fraction(c) if isinstance(c, int) else c for c in coeffs)
        self.order = len(self.coeffs) - 1

    def __add__(self, other):
        if isinstance(other, ReferenceSeries):
            return ReferenceSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])
        return ReferenceSeries([self.coeffs[0] + other, *self.coeffs[1:]])

    def __neg__(self):
        return ReferenceSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ReferenceSeries):
            return ReferenceSeries([c * other for c in self.coeffs])
        n = self.order
        out = [self.coeffs[0] * 0 * other.coeffs[0]] * (n + 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs[: n + 1 - i]):
                out[i + j] = out[i + j] + a * b
        return ReferenceSeries(out)

    def exp(self):
        n, zero = self.order, self.coeffs[0] * 0
        out = [zero + 1] + [zero] * n
        for k in range(1, n + 1):
            acc = zero
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * j * out[k - j]
            out[k] = acc / k
        return ReferenceSeries(out)

    def log(self):
        n, zero = self.order, self.coeffs[0] * 0
        out = [zero] * (n + 1)
        for k in range(1, n + 1):
            acc = zero
            for j in range(1, k):
                acc = acc + (out[j] * j) * self.coeffs[k - j]
            out[k] = self.coeffs[k] - acc / k
        return ReferenceSeries(out)

    def sqrt(self):
        n, zero = self.order, self.coeffs[0] * 0
        out = [zero + 1] + [zero] * n
        for k in range(1, n + 1):
            acc = zero
            for i in range(1, k):
                acc = acc + out[i] * out[k - i]
            out[k] = (self.coeffs[k] - acc) / 2
        return ReferenceSeries(out)

    def compose(self, inner):
        n = self.order
        power = ReferenceSeries([inner.coeffs[0] * 0 + 1] + [inner.coeffs[0] * 0] * n)
        out = ReferenceSeries([self.coeffs[0] * 0] * (n + 1))
        for c in self.coeffs:
            out = out + power * c
            power = power * inner
        return out


def assert_canonical(s):
    assert type(s.den) is int and s.den > 0
    assert isinstance(s.nums, tuple) and s.nums
    assert all(type(c) is int for c in s.nums)
    assert gcd(s.den, *s.nums) == 1


def assert_matches(got, want):
    assert got.order == want.order
    assert got.coeffs == want.coeffs
    assert not any(isinstance(c, float) for c in got.coeffs)
    assert_canonical(got)


@st.composite
def series_pairs(draw, coefficients):
    """Two coefficient lists of one order, the second with constant term 0."""
    order = draw(st.integers(min_value=0, max_value=7))
    outer = draw(st.lists(coefficients, min_size=order + 1, max_size=order + 1))
    inner = draw(st.lists(coefficients, min_size=order, max_size=order))
    return outer, [outer[0] * 0] + inner


rational_coefficients = st.one_of(st.integers(-30, 30), fractions)


class TestIntNumeratorSeries:
    @settings(max_examples=120, deadline=None)
    @given(
        series_pairs(rational_coefficients),
        st.one_of(st.integers(-9, 9), fractions),
    )
    def test_agrees_with_fraction_reference(self, pair, scalar):
        ca, cb = pair
        a, b = TruncatedSeries(ca), TruncatedSeries(cb)
        ra, rb = ReferenceSeries(ca), ReferenceSeries(cb)
        one_plus = ca[0] * 0 + 1
        for got, want in (
            (a, ra),
            (a + b, ra + rb),
            (a - b, ra - rb),
            (a * b, ra * rb),
            (a * scalar, ra * scalar),
            (scalar * a, ra * scalar),
            (a + scalar, ra + scalar),
            (a - scalar, ra - scalar),
            (scalar - a, -ra + scalar),
            (b.exp(), rb.exp()),
            ((b + one_plus).log(), (rb + one_plus).log()),
            ((b + one_plus).sqrt(), (rb + one_plus).sqrt()),
            (a.compose(b), ra.compose(rb)),
        ):
            assert_matches(got, want)

    @settings(max_examples=80, deadline=None)
    @given(series_pairs(rational_coefficients), st.integers(1, 12))
    def test_equal_values_have_equal_fields(self, pair, k):
        ca, cb = pair
        a, b = TruncatedSeries(ca), TruncatedSeries(cb)
        order = a.order
        for same in (
            TruncatedSeries(ca + [0, 0], order=order),
            TruncatedSeries([Fraction(c) * k / k for c in ca]),
            (a * k) * Fraction(1, k),
            (a + b) - b,
            a * TruncatedSeries([1], order=order),
            a.compose(TruncatedSeries([0, 1], order=order)) if order else a,
        ):
            assert (same.nums, same.den) == (a.nums, a.den)
            assert same == a
            assert_canonical(same)

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(rational_coefficients, min_size=1, max_size=8).filter(lambda c: c[-1]),
        st.integers(0, 3),
    )
    def test_one_canonical_form_with_poly(self, coeffs, pad):
        # a nonzero top keeps every coefficient in the Poly: both hold the
        # same numerators over the same denominator
        poly = Poly(coeffs)
        series = TruncatedSeries(coeffs, order=len(coeffs) - 1 + pad)
        assert series.den == poly.den
        assert series.nums == poly.nums + (0,) * pad

    def test_canonical_zero_and_constants(self):
        zero = TruncatedSeries([Fraction(0, 1)], order=3)
        assert (zero.nums, zero.den) == ((0, 0, 0, 0), 1)
        half = TruncatedSeries([Fraction(2, 4), 0])
        assert (half.nums, half.den) == ((1, 0), 2)

    def test_int_input_never_gives_floats(self):
        # the generic recurrences used to divide ints: exp of z read [1, 1.0]
        z = TruncatedSeries([0, 1], order=6)
        geometric = TruncatedSeries([1] * 7)
        for result in (
            TruncatedSeries([0, 1]).exp(),
            z.exp(),
            geometric.log(),
            geometric.sqrt(),
            (1 - z).sqrt(),
            geometric.compose(z),
            z.compose(z * z),
        ):
            assert all(type(c) is Fraction for c in result.coeffs)
        assert TruncatedSeries([0, 1]).exp().coeffs == (1, 1)

    def test_copy_and_pickle_round_trip(self):
        s = TruncatedSeries([Fraction(1, 2), -3, Fraction(5, 7)])
        for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert twin == s
            assert (twin.nums, twin.den) == (s.nums, s.den)
            assert twin.coeffs == s.coeffs
            with pytest.raises(AttributeError):
                twin.den = 1

    @pytest.mark.parametrize("order", (True, 2.0, Fraction(2), "2"))
    def test_rejects_non_integer_order(self, order):
        with pytest.raises(ValueError, match="must be an integer"):
            TruncatedSeries([1, 2], order=order)
        with pytest.raises(ValueError, match="must be an integer"):
            TruncatedSeries.from_poly(Poly([1, 2]), order)
        with pytest.raises(ValueError, match="must be an integer"):
            one_minus_z(order)

    @pytest.mark.parametrize("bad", (True, 0.5, "1", Poly([1]), LaurentPoly([1])))
    def test_rejects_coefficients_outside_the_rings(self, bad):
        with pytest.raises(TypeError):
            TruncatedSeries([1, bad])

    def test_kernel_division_checks_its_remainder(self):
        assert _exact_quotient(12, 4) == 3
        with pytest.raises(ArithmeticError):
            _exact_quotient(7, 2)
