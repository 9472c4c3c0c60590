import random
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest

from permutoehr.polynomials import (
    LaurentPoly,
    Poly,
    double_factorial,
    eulerian,
    multinomial,
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


class TestMultinomial:
    def test_values(self):
        assert multinomial(4, (2, 1, 1)) == 12
        assert multinomial(2, (0, 2, 0, 0)) == 1

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            multinomial(3, (4, -1))
        with pytest.raises(ValueError):
            multinomial(3, (1, 1))


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
