"""Exact univariate polynomial arithmetic over arbitrary-precision rationals.

Nothing in this package ever touches floating point.  ``Poly`` is a dense
polynomial in t with ``fractions.Fraction`` coefficients (the carrier for
Ehrhart, face-count and Eulerian polynomials).  ``LaurentPoly``
additionally allows negative powers of t, which the generating-function
extraction needs for its 1/t bookkeeping; it holds its coefficients as
Python int numerators over one positive common denominator, in a
canonical form (no zero at either end, gcd(den, *nums) = 1), and hands out
``Fraction`` only at its edges.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

class Poly:
    """Dense polynomial in t with Fraction coefficients.

    ``coeffs[i]`` is the coefficient of t**i; trailing zeros are trimmed
    on construction so equality is plain tuple equality.  Instances are
    immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not __setattr__
        return (Poly, (self.coeffs,))

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "Poly":
        if power < 0:
            raise ValueError("monomial power must be nonnegative")
        return cls([0] * power + [coeff])

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x):
        """Evaluate at x (int or Fraction) by Horner's rule; exact."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, other: "Poly") -> "Poly":
        """Polynomial composition self(other(t))."""
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * other + c
        return acc

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly([other])
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        acc = Poly([1])
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its scalar, so it must hash as that scalar
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

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


class LaurentPoly:
    """Polynomial in t and 1/t with rational coefficients, held as integer
    numerators over one common denominator.

    The coefficient of t**(min_exp + k) is ``nums[k] / den``.  Every
    instance is in one canonical form: ``nums`` is a tuple of ints with no
    zero at either end, ``den`` is a positive int with
    gcd(den, *nums) = 1, and zero is ``nums == ()`` with den 1 and
    min_exp 0.  Equal values therefore have equal fields.  The ring
    operations work on the ints and normalise each result with one gcd;
    ``Fraction`` appears only at the edges (constructor input,
    ``coefficient``, ``coeffs``).  Supports exact ring arithmetic, division
    by a scalar, and conversion back to ``Poly`` once all negative powers
    have cancelled.
    """

    __slots__ = ("nums", "den", "min_exp")

    def __init__(self, coeffs=(), min_exp: int = 0):
        fs = [Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fs))
        nums = [f.numerator * (den // f.denominator) for f in fs]
        _canonicalise(self, nums, den, min_exp)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through _laurent, not __setattr__
        return (_laurent, (self.nums, self.den, self.min_exp))

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls([c])

    @classmethod
    def term(cls, c, exponent: int) -> "LaurentPoly":
        return cls([c], exponent)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """``coeffs[k]`` is the coefficient of t**(min_exp + k)."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def max_exp(self) -> int:
        if not self.nums:
            raise ValueError("zero Laurent polynomial has no exponent range")
        return self.min_exp + len(self.nums) - 1

    def coefficient(self, exponent: int) -> Fraction:
        k = exponent - self.min_exp
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by t**k."""
        return _laurent(self.nums, self.den, self.min_exp + k)

    def as_poly(self) -> Poly:
        """Convert to a Poly; rejects surviving negative powers of t."""
        if self.nums and self.min_exp < 0:
            raise ValueError(f"negative powers of t down to t^{self.min_exp} remain")
        return Poly([0] * self.min_exp + list(self.coeffs))

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return _laurent([other.numerator], other.denominator, 0)
        return NotImplemented

    def __add__(self, other):
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
        hi = max(self.max_exp, other.max_exp)
        out = [0] * (hi - lo + 1)
        for k, c in enumerate(self.nums, self.min_exp - lo):
            out[k] = c * scale_self
        for k, c in enumerate(other.nums, other.min_exp - lo):
            out[k] += c * scale_other
        return _laurent(out, self.den * scale_self, lo)

    __radd__ = __add__

    def __neg__(self):
        return _laurent([-c for c in self.nums], self.den, self.min_exp)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            a, b = self.nums, other.nums
            if not a or not b:
                return _ZERO
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for k, y in enumerate(b, i):
                        out[k] += x * y
            return _laurent(out, self.den * other.den, self.min_exp + other.min_exp)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _laurent(
                [c * p for c in self.nums], self.den * other.denominator, self.min_exp
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        p, q = scalar.numerator, scalar.denominator
        if not p:
            raise ZeroDivisionError("LaurentPoly division by zero")
        if p < 0:
            p, q = -p, -q
        return _laurent([c * q for c in self.nums], self.den * p, self.min_exp)

    def __eq__(self, other):
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            # a Poly is the Laurent polynomial with no negative power
            if not isinstance(other, Poly):
                return NotImplemented
            coerced = LaurentPoly(other.coeffs)
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


def _canonicalise(out: LaurentPoly, nums, den: int, min_exp: int):
    """Store nums / den (den > 0) at min_exp in ``out``, in canonical form:
    zeros trimmed at both ends and one gcd divided out."""
    hi = len(nums)
    while hi and not nums[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not nums[lo]:
        lo += 1
    if lo == hi:
        nums, den, min_exp = (), 1, 0
    else:
        if lo or hi < len(nums):
            nums = nums[lo:hi]
            min_exp += lo
        g = gcd(den, *nums)
        if g == 1:
            nums = tuple(nums)
        else:
            nums = tuple(c // g for c in nums)
            den //= g
    object.__setattr__(out, "nums", nums)
    object.__setattr__(out, "den", den)
    object.__setattr__(out, "min_exp", min_exp)


def _laurent(nums, den: int, min_exp: int) -> LaurentPoly:
    """The LaurentPoly nums / den (den > 0) at min_exp, in canonical form."""
    out = object.__new__(LaurentPoly)
    _canonicalise(out, nums, den, min_exp)
    return out


_ZERO = _laurent((), 1, 0)


def multinomial(n: int, parts) -> int:
    """Multinomial coefficient n! / (p1! p2! ...); parts must be >= 0 and sum to n."""
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"negative multinomial part in {parts}")
    if sum(parts) != n:
        raise ValueError(f"multinomial parts {parts} do not sum to {n}")
    out = factorial(n)
    for p in parts:
        out //= factorial(p)
    return out


def rising_binomial(x: Poly, a: int) -> Poly:
    """binom(x + a - 1, a) as a polynomial: x(x+1)...(x+a-1) / a!.

    For a = 0 this is the empty product 1; for x = 0 and a >= 1 it is 0.
    At integer x0 >= 1 the value agrees with the ordinary binomial
    coefficient C(x0 + a - 1, a).
    """
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
    return Poly(row)
