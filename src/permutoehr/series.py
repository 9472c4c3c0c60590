"""Truncated formal power series in z with exact rational coefficients.

A series of order N carries exact coefficients for z^0 .. z^N; every
operation is exact modulo z^(N+1).

The ring contract is that of ``Poly``: int numerators ``nums`` (one per
power of z) over one positive int denominator ``den``, with
gcd(den, *nums) = 1, so equal values have equal fields.  The class binds
the core of :mod:`permutoehr.polynomials` that serves all three classes
(constructor parse, sum, negation, reflected difference, scalar product,
``coeffs``, immutability, pickling; ``min_exp`` is 0) and keeps here only
what truncation adds:

  - the order, checked on both operands of ``+``, ``-`` and ``*``;
  - ``*`` of two series, a convolution of the numerators cut to the
    order, over the product of the denominators;
  - ``exp`` and ``log`` run their recurrences on numerators scaled by
    N! d^N (d the operand's denominator), ``sqrt`` the coefficient of z^k
    scaled by (4d)^k, so that each step divides exactly by an int, which is
    checked: a remainder raises ``ArithmeticError``;
  - ``compose`` builds the powers of the inner series by series products
    and sums the outer numerators times theirs over one common denominator.

``Fraction`` appears only at the edges: the constructor takes ints and
``Fraction``s, and ``coeffs`` and ``coefficient`` hand out ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .errors import require_int
from .polynomials import (
    Poly,
    _add,
    _coeffs,
    _coerce,
    _immutable,
    _lowest_terms,
    _mul,
    _neg,
    _numerators,
    _reduce,
    _rsub,
    convolve,
)


def _series(nums, den: int, min_exp: int = 0) -> "TruncatedSeries":
    """The series nums / den (den > 0, nums nonempty) in canonical form:
    one gcd divided out.  The core passes ``min_exp``, always 0 here."""
    nums, den = _lowest_terms(nums, den)
    out = object.__new__(TruncatedSeries)
    object.__setattr__(out, "nums", nums)
    object.__setattr__(out, "den", den)
    return out


def _require_order(order) -> None:
    require_int(order=order)
    if order < 0:
        raise ValueError("series order must be nonnegative")


def _exact_quotient(num: int, q: int) -> int:
    """num / q where q divides num; a remainder means a kernel's scale is
    wrong, so it raises instead of rounding."""
    out, rem = divmod(num, q)
    if not rem:
        return out
    raise ArithmeticError(f"series kernel: {q} does not divide a scaled numerator")


class TruncatedSeries:
    """Power series in z truncated at a fixed order, with exact coefficients
    held as numerators over one common denominator.

    The coefficient of z**k is ``nums[k] / den``; see the module docstring
    for the canonical form.  Instances are immutable.
    """

    __slots__ = ("nums", "den")
    min_exp = 0
    _new = staticmethod(_series)
    __add__ = __radd__ = _add
    __neg__ = _neg
    __rsub__ = _rsub
    __setattr__ = _immutable
    __reduce__ = _reduce
    coeffs = property(_coeffs)

    def __new__(cls, coeffs, order: int | None = None):
        nums, den = _numerators(coeffs)
        if not nums:
            raise ValueError("need at least the constant coefficient")
        if order is not None:
            _require_order(order)
            del nums[order + 1 :]
            nums += [0] * (order + 1 - len(nums))
        return _series(nums, den)

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "TruncatedSeries":
        """View a polynomial as a rational-coefficient series (truncated)."""
        _require_order(order)
        nums = list(p.nums[: order + 1])
        return _series(nums + [0] * (order + 1 - len(nums)), p.den)

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    def coefficient(self, k: int) -> Fraction:
        require_int(k=k)
        if not 0 <= k <= self.order:
            raise ValueError(f"coefficient index {k} outside order {self.order}")
        return Fraction(self.nums[k], self.den)

    def _check_order(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def _coerce(self, other):
        # the core's + coerces its operand here, so a series operand's
        # order is checked before the sum
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
        return _coerce(self, other)

    def __sub__(self, other):
        # not the core's: that coerces a scalar before the + checks orders
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return _series(
                convolve(self.nums, other.nums, len(self.nums)), self.den * other.den
            )
        return _mul(self, other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r})"

    def exp(self) -> "TruncatedSeries":
        """Series exponential; requires constant term 0.

        Solves k out_k = sum_j j c_j out_{k-j} over the nonzero c_j only,
        on N_k = N! d^N out_k: k d N_k = sum_j j C_j N_{k-j} with
        c_j = C_j / d, an exact division since out_k has a denominator
        dividing k! d^k."""
        if self.nums[0]:
            raise ValueError("series exp requires constant term 0")
        n, d = self.order, self.den
        scale = factorial(n) * d**n
        terms = [(j, c * j) for j, c in enumerate(self.nums) if j and c]
        out = [scale] + [0] * n
        for k in range(1, n + 1):
            acc = 0
            for j, jc in terms:
                if j > k:
                    break
                acc = acc + jc * out[k - j]
            out[k] = _exact_quotient(acc, k * d)
        return _series(out, scale)

    def log(self) -> "TruncatedSeries":
        """Series logarithm; requires constant term 1.

        Solves k out_k = k c_k - sum_{0<j<k} j out_j c_{k-j} on
        N_k = N! d^N out_k, dividing the sum exactly by k d (out_k has a
        denominator dividing k! d^k)."""
        d = self.den
        if not self.nums[0] == d:
            raise ValueError("series log requires constant term 1")
        n = self.order
        scale = factorial(n) * d**n
        step = scale // d
        terms = [(i, c) for i, c in enumerate(self.nums) if i and c]
        out = [0] * (n + 1)
        for k in range(1, n + 1):
            acc = 0
            for i, c in terms:
                if i >= k:
                    break
                acc = acc + (k - i) * out[k - i] * c
            out[k] = step * self.nums[k] - _exact_quotient(acc, k * d)
        return _series(out, scale)

    def sqrt(self) -> "TruncatedSeries":
        """Series square root; requires constant term 1.

        Solves 2 out_k = c_k - sum_{0<i<k} out_i out_{k-i} on
        O_k = (4d)^k out_k, whose denominator 4^k d^k clears:
        2 O_k = 4^k d^(k-1) C_k - sum O_i O_{k-i}, taking each symmetric
        pair i < k - i once and doubling it, and the middle square once."""
        d = self.den
        if not self.nums[0] == d:
            raise ValueError("series sqrt requires constant term 1")
        n = self.order
        out = [1] + [0] * n
        lead = 4  # 4^k d^(k-1)
        for k in range(1, n + 1):
            acc = 0
            for i in range(1, (k + 1) // 2):
                acc = acc + out[i] * out[k - i]
            acc = acc * 2
            if k % 2 == 0:
                acc = acc + out[k // 2] * out[k // 2]
            out[k] = _exact_quotient(lead * self.nums[k] - acc, 2)
            lead *= 4 * d
        # onto the one denominator (4d)^N
        step = 4 * d
        return _series([c * step ** (n - k) for k, c in enumerate(out)], step**n)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(z)); requires inner constant term 0 and equal orders.

        Coefficient j is sum_{k<=j} self_k [z^j] inner^k.  The powers of
        ``inner`` are built by series products (O(N) of them, O(N^3)
        numerator products), and ``self``'s numerators only ever meet
        theirs in the O(N^2) products that sum over one common
        denominator."""
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("compose expects a TruncatedSeries")
        self._check_order(inner)
        if inner.nums[0]:
            raise ValueError("series compose requires inner constant term 0")
        n = self.order
        # no power beyond the outer series' last nonzero term is needed
        last = max((k for k, f in enumerate(self.nums) if f), default=0)
        powers = [_series([1] + [0] * n, 1)]
        for _ in range(last):
            powers.append(powers[-1] * inner)
        common = lcm(*(p.den for p in powers))
        out = [0] * (n + 1)
        for k, (f_k, power) in enumerate(zip(self.nums, powers)):
            if not f_k:
                continue
            scale = common // power.den
            # inner^k starts at z^k
            for j in range(k, n + 1):
                c = power.nums[j]
                if c:
                    out[j] = out[j] + f_k * (c * scale)
        return _series(out, self.den * common)


def one_minus_z(order: int) -> TruncatedSeries:
    """1 - z with rational coefficients."""
    return TruncatedSeries([1, -1], order=order)
