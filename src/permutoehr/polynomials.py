"""Exact univariate polynomial arithmetic over arbitrary-precision rationals.

Nothing in this package ever touches floating point.  ``Poly`` is a dense
polynomial in t (the carrier for Ehrhart, face-count and Eulerian
polynomials).  ``LaurentPoly`` additionally allows negative powers of t;
no engine uses it, since the generating-function engines expand their 1/t
part over rational series.  Both hold their coefficients as Python int
numerators over one positive common denominator, in a canonical form (no
zero at the top, for ``LaurentPoly`` none at the bottom either, and
gcd(den, *nums) = 1), so equal values have equal fields.
``series.TruncatedSeries`` keeps the same fields in the same gcd form.
The three classes share one core on those ints: the constructor parse,
the sum, negation, reflected difference and scalar product, each result
normalised by one gcd, and ``coeffs``, immutability and pickling.  The
two polynomial classes also share the difference and the product
(``convolve``); the series cuts its product to its order.
``fractions.Fraction`` appears only at their edges: constructor
input, scalar operands and evaluation points (ints and ``Fraction``s; a
float, bool or string raises TypeError, and a bool compares unequal),
``coeffs``, ``coefficient``, and the value of a ``Poly`` at a point.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from .errors import require_int


def convolve(a, b, size: int | None = None) -> list[int]:
    """Product of two int coefficient sequences (lowest power first), cut
    to its first ``size`` coefficients when a size is given."""
    if not a or not b:
        return []
    full = len(a) + len(b) - 1
    size = full if size is None else min(size, full)
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x:
            for k, y in enumerate(b[: size - i], i):
                out[k] += x * y
    return out


def _split(c) -> tuple[int, int]:
    """A coefficient as (int numerator, positive int denominator)."""
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficients are ints or Fractions, got {c!r}")
    return c.numerator, c.denominator


def _numerators(coeffs) -> tuple[list[int], int]:
    """Rational coefficients as int numerators over their least common
    denominator."""
    parts = [_split(c) for c in coeffs]
    den = lcm(*(d for _, d in parts))
    return [num * (den // d) for num, d in parts], den


def _top(nums) -> int:
    """Length of nums without its trailing zeros."""
    hi = len(nums)
    while hi and not nums[hi - 1]:
        hi -= 1
    return hi


def _lowest_terms(nums, den: int) -> tuple[tuple[int, ...], int]:
    """nums / den (den > 0, nums nonempty) with one gcd divided out."""
    g = gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple(c // g for c in nums), den // g


def _poly(nums, den: int, min_exp: int = 0) -> "Poly":
    """The Poly t**min_exp * nums / den (den > 0, min_exp >= 0), in
    canonical form."""
    if min_exp:
        nums = [0] * min_exp + list(nums)
    hi = _top(nums)
    if hi < len(nums):
        nums = nums[:hi]
    nums, den = _lowest_terms(nums, den) if hi else ((), 1)
    out = object.__new__(Poly)
    object.__setattr__(out, "nums", nums)
    object.__setattr__(out, "den", den)
    return out


def _laurent(nums, den: int, min_exp: int) -> "LaurentPoly":
    """The LaurentPoly nums / den (den > 0) at min_exp, in canonical form:
    zeros trimmed at both ends and one gcd divided out."""
    hi = _top(nums)
    lo = 0
    while lo < hi and not nums[lo]:
        lo += 1
    if lo == hi:
        nums, den, min_exp = (), 1, 0
    else:
        nums, den = _lowest_terms(nums[lo:hi], den)
        min_exp += lo
    out = object.__new__(LaurentPoly)
    object.__setattr__(out, "nums", nums)
    object.__setattr__(out, "den", den)
    object.__setattr__(out, "min_exp", min_exp)
    return out


# The core shared by Poly, LaurentPoly and TruncatedSeries (a Poly and a
# series have min_exp 0), bound into each class body so that each class
# owns its operators, which is where the benchmark's tracer wraps them.


def _immutable(self, name, value):
    raise AttributeError(f"{type(self).__name__} is immutable")


def _reduce(self):
    # copy and pickle rebuild through _new, not __setattr__
    return (self._new, (self.nums, self.den, self.min_exp))


def _coeffs(self) -> tuple[Fraction, ...]:
    """``coeffs[k]`` is the coefficient of t**(min_exp + k)."""
    return tuple(Fraction(c, self.den) for c in self.nums)


def _coefficient(self, exponent: int) -> Fraction:
    k = exponent - self.min_exp
    if 0 <= k < len(self.nums):
        return Fraction(self.nums[k], self.den)
    return Fraction(0)


def _coerce(self, other):
    if isinstance(other, type(self)):
        return other
    if isinstance(other, (int, Fraction)):
        num, den = _split(other)
        return self._new((num,), den, 0)
    return NotImplemented


def _add(self, other):
    other = self._coerce(other)
    if other is NotImplemented:
        return NotImplemented
    if not self.nums:
        return other
    if not other.nums:
        return self
    # a/da + b/db over lcm(da, db) = da * (db / g)
    g = gcd(self.den, other.den)
    scale_self, scale_other = other.den // g, self.den // g
    lo = min(self.min_exp, other.min_exp)
    out = [0] * (max(self.min_exp + len(self.nums), other.min_exp + len(other.nums)) - lo)
    for k, c in enumerate(self.nums, self.min_exp - lo):
        out[k] = c * scale_self
    for k, c in enumerate(other.nums, other.min_exp - lo):
        out[k] += c * scale_other
    return self._new(out, self.den * scale_self, lo)


def _neg(self):
    return self._new([-c for c in self.nums], self.den, self.min_exp)


def _sub(self, other):
    other = self._coerce(other)
    if other is NotImplemented:
        return NotImplemented
    return self + (-other)


def _rsub(self, other):
    return (-self) + other


def _mul(self, other):
    if isinstance(other, type(self)):
        return self._new(
            convolve(self.nums, other.nums),
            self.den * other.den,
            self.min_exp + other.min_exp,
        )
    if isinstance(other, (int, Fraction)):
        p, q = _split(other)
        return self._new([c * p for c in self.nums], self.den * q, self.min_exp)
    return NotImplemented


class Poly:
    """Dense polynomial in t with rational coefficients, held as integer
    numerators over one common denominator.

    The coefficient of t**i is ``nums[i] / den`` (``min_exp`` is 0).
    Every instance is in one canonical form: ``nums`` is a tuple of ints
    from t**0 up with no zero at the top, ``den`` is a positive int with
    gcd(den, *nums) = 1, and zero is ``nums == ()`` with den 1, so equality
    is field equality.  Instances are immutable and hashable.
    """

    __slots__ = ("nums", "den")
    min_exp = 0
    _new = staticmethod(_poly)
    _coerce = _coerce
    __add__ = __radd__ = _add
    __neg__ = _neg
    __sub__ = _sub
    __rsub__ = _rsub
    __mul__ = __rmul__ = _mul
    __setattr__ = _immutable
    __reduce__ = _reduce
    coeffs = property(_coeffs)
    is_zero = property(lambda self: not self.nums)
    coefficient = _coefficient

    def __new__(cls, coeffs=()):
        return _poly(*_numerators(coeffs))

    @classmethod
    def monomial(cls, power: int) -> "Poly":
        require_int(power=power)
        if power < 0:
            raise ValueError("monomial power must be nonnegative")
        return cls([0] * power + [1])

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __call__(self, x) -> Fraction:
        """Evaluate at x (int or Fraction) by Horner's rule; exact.

        At x = p/q the numerator sum_i nums[i] p^i q^(d-i) is formed in
        ints and divided by den q^d once."""
        p, q = _split(x)
        if not self.nums:
            return Fraction(0)
        acc, q_power = self.nums[-1], 1
        for c in reversed(self.nums[:-1]):
            q_power *= q
            acc = acc * p + c * q_power
        return Fraction(acc, self.den * q_power)

    def compose(self, other: "Poly") -> "Poly":
        """Polynomial composition self(other(t))."""
        acc = _poly((), 1)
        for c in reversed(self.nums):
            acc = acc * other + c
        return acc * Fraction(1, self.den)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        acc = _poly((1,), 1)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            e >>= 1
            if e:
                base = base * base
        return acc

    def __eq__(self, other):
        if isinstance(other, bool):  # unequal, as for a series; no TypeError
            return NotImplemented
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        # a constant equals its scalar, so it must hash as that scalar
        if len(self.nums) <= 1:
            return hash(self.coefficient(0))
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.nums)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        out = ""
        for i in range(len(self.nums) - 1, -1, -1):
            c = self.nums[i]
            if not c:
                continue
            g = gcd(c, self.den)
            mag, d = abs(c) // g, self.den // g
            term = str(mag) if d == 1 else f"({mag}/{d})"
            if i:
                power = "t" if i == 1 else f"t^{i}"
                term = power if term == "1" else f"{term}*{power}"
            if out:
                out += f" - {term}" if c < 0 else f" + {term}"
            else:
                out = f"-{term}" if c < 0 else term
        return out or "0"


class LaurentPoly:
    """Polynomial in t and 1/t with rational coefficients, held as integer
    numerators over one common denominator.

    The coefficient of t**(min_exp + k) is ``nums[k] / den``.  Every
    instance is in one canonical form: ``nums`` is a tuple of ints with no
    zero at either end, ``den`` is a positive int with
    gcd(den, *nums) = 1, and zero is ``nums == ()`` with den 1 and
    min_exp 0.  Equal values therefore have equal fields.  The ring
    operations are those of ``Poly`` with an exponent offset.  Supports
    exact ring arithmetic, division by a scalar, and conversion back to
    ``Poly`` once all negative powers have cancelled.
    """

    __slots__ = ("nums", "den", "min_exp")
    _new = staticmethod(_laurent)
    _coerce = _coerce
    __add__ = __radd__ = _add
    __neg__ = _neg
    __sub__ = _sub
    __rsub__ = _rsub
    __mul__ = __rmul__ = _mul
    __setattr__ = _immutable
    __reduce__ = _reduce
    coeffs = property(_coeffs)
    is_zero = property(lambda self: not self.nums)
    coefficient = _coefficient

    def __new__(cls, coeffs=(), min_exp: int = 0):
        return _laurent(*_numerators(coeffs), min_exp)

    def __bool__(self):
        return bool(self.nums)

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls([c])

    @classmethod
    def term(cls, c, exponent: int) -> "LaurentPoly":
        return cls([c], exponent)

    @property
    def max_exp(self) -> int:
        if not self.nums:
            raise ValueError("zero Laurent polynomial has no exponent range")
        return self.min_exp + len(self.nums) - 1

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by t**k."""
        return _laurent(self.nums, self.den, self.min_exp + k)

    def as_poly(self) -> Poly:
        """Convert to a Poly; rejects surviving negative powers of t."""
        if self.nums and self.min_exp < 0:
            raise ValueError(f"negative powers of t down to t^{self.min_exp} remain")
        return _poly(self.nums, self.den, self.min_exp)

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        p, q = _split(scalar)
        if not p:
            raise ZeroDivisionError("LaurentPoly division by zero")
        if p < 0:
            p, q = -p, -q
        return _laurent([c * q for c in self.nums], self.den * p, self.min_exp)

    def __eq__(self, other):
        if isinstance(other, bool):
            return NotImplemented
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            # a Poly is the Laurent polynomial with no negative power
            if not isinstance(other, Poly):
                return NotImplemented
            coerced = _laurent(other.nums, other.den, 0)
        return (
            self.min_exp == coerced.min_exp
            and self.den == coerced.den
            and self.nums == coerced.nums
        )

    def __hash__(self):
        # with no negative power this equals a Poly (a constant, its
        # scalar), so it must hash as that Poly
        if self.min_exp >= 0:
            return hash(self.as_poly())
        return hash((self.min_exp, self.den, self.nums))

    def __repr__(self):
        return f"LaurentPoly({list(self.coeffs)!r}, min_exp={self.min_exp})"


def rising_binomial(x: Poly, a: int) -> Poly:
    """binom(x + a - 1, a) as a polynomial: x(x+1)...(x+a-1) / a!.

    For a = 0 this is the empty product 1; for x = 0 and a >= 1 it is 0.
    At integer x0 >= 1 the value agrees with the ordinary binomial
    coefficient C(x0 + a - 1, a).
    """
    require_int(a=a)
    if a < 0:
        raise ValueError("rising_binomial needs a >= 0")
    acc = Poly([1])
    for r in range(a):
        acc = acc * (x + r)
    return acc * Fraction(1, factorial(a))


def double_factorial(k: int) -> int:
    """Double factorial k!! for odd k >= -3, with (-1)!! = 1 and (-3)!! = -1.

    Writing k = 2q - 3 with q >= 0, the value is -prod_{r=1..q} (2r - 3),
    i.e. the unique extension of 5!! = 15, 3!! = 3, 1!! = 1 under
    k!! = k * (k-2)!!.  Only this convention is exposed: the closed-form
    Ehrhart and volume sums are sensitive to the sign at k = -3.
    """
    require_int(k=k)
    if k % 2 == 0:
        raise ValueError(f"double_factorial needs odd k, got {k}")
    if k < -3:
        raise ValueError(f"double_factorial needs k >= -3, got {k}")
    q = (k + 3) // 2
    out = 1
    for r in range(1, q + 1):
        out *= 2 * r - 3
    return -out


def eulerian(i: int) -> Poly:
    """Eulerian polynomial A_i(t); coefficient of t^j counts permutations
    of {1..i} with j descents, and A_0(t) = 1.  A_i(1) = i!.
    """
    require_int(i=i)
    if i < 0:
        raise ValueError("eulerian needs i >= 0")
    row = [1]
    for n in range(1, i + 1):
        new = [0] * n
        for k in range(n):
            prev_k = row[k] if k < len(row) else 0
            prev_k1 = row[k - 1] if 0 <= k - 1 < len(row) else 0
            new[k] = (k + 1) * prev_k + (n - k) * prev_k1
        row = new
    return _poly(row, 1)
