"""Truncated formal power series in z over a pluggable exact coefficient ring.

A series of order N carries exact coefficients for z^0 .. z^N; every
operation is exact modulo z^(N+1).

The ring contract: a coefficient type is immutable and gives exact
results, never mutating an operand, for
  - ``+``, ``-`` and unary ``-`` between two of its elements, and ``*``
    between two of them or by an ``int`` (``c * 0`` is its zero and
    ``c * 0 + 1`` its one);
  - ``/`` by a nonzero ``int``;
  - ``==`` against its own elements and against the ints 0 and 1.
``compose`` also multiplies an outer coefficient by an inner one, so mixing
rings there needs that product.  In practice the ring is ``Fraction`` for
ordinary generating functions and ``LaurentPoly`` (int numerators over one
common denominator) when the coefficients carry powers of 1/t; a
``LaurentPoly`` times a ``Fraction`` is a ``LaurentPoly``.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import Poly


class TruncatedSeries:
    """Power series in z truncated at a fixed order, with exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        cs = list(coeffs)
        if not cs:
            raise ValueError("need at least the constant coefficient")
        if order is not None:
            if order < 0:
                raise ValueError("series order must be nonnegative")
            if len(cs) > order + 1:
                cs = cs[: order + 1]
            else:
                zero = cs[0] * 0
                cs.extend([zero] * (order + 1 - len(cs)))
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "TruncatedSeries":
        """View a polynomial as a rational-coefficient series (truncated)."""
        return cls([p.coefficient(i) for i in range(order + 1)])

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int):
        if not 0 <= k <= self.order:
            raise ValueError(f"coefficient index {k} outside order {self.order}")
        return self.coeffs[k]

    def _zero(self):
        return self.coeffs[0] * 0

    def _one(self):
        return self.coeffs[0] * 0 + 1

    def _check_order(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])
        # scalar: add to the constant term
        return TruncatedSeries([self.coeffs[0] + other, *self.coeffs[1:]])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries([c * other for c in self.coeffs])
        self._check_order(other)
        n = self.order
        out = [self._zero() * other._zero()] * (n + 1)
        # zero coefficients (the leading ones of a power, the constant term of
        # a series composed into another) take no products
        right = [(j, b) for j, b in enumerate(other.coeffs) if not b == 0]
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in right:
                if i + j > n:
                    break
                out[i + j] = out[i + j] + a * b
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r})"

    def exp(self) -> "TruncatedSeries":
        """Series exponential; requires constant term 0.

        Solves k out_k = sum_j j c_j out_{k-j} over the nonzero c_j only,
        each j c_j formed once: O(s N) ring products for s nonzero terms."""
        zero = self._zero()
        if not self.coeffs[0] == zero:
            raise ValueError("series exp requires constant term 0")
        n = self.order
        terms = [(j, c * j) for j, c in enumerate(self.coeffs) if j and not c == zero]
        out = [zero] * (n + 1)
        out[0] = self._one()
        for k in range(1, n + 1):
            acc = zero
            for j, jc in terms:
                if j > k:
                    break
                acc = acc + jc * out[k - j]
            out[k] = acc / k
        return TruncatedSeries(out)

    def log(self) -> "TruncatedSeries":
        """Series logarithm; requires constant term 1."""
        if not self.coeffs[0] == self._one():
            raise ValueError("series log requires constant term 1")
        n = self.order
        out = [self._zero() for _ in range(n + 1)]
        for k in range(1, n + 1):
            acc = self._zero()
            for j in range(1, k):
                acc = acc + (out[j] * j) * self.coeffs[k - j]
            out[k] = self.coeffs[k] - acc / k
        return TruncatedSeries(out)

    def sqrt(self) -> "TruncatedSeries":
        """Series square root; requires constant term 1.

        Solves 2 out_k = c_k - sum_{0<i<k} out_i out_{k-i}, taking each
        symmetric pair i < k - i once and doubling it, and the middle
        square once."""
        if not self.coeffs[0] == self._one():
            raise ValueError("series sqrt requires constant term 1")
        n = self.order
        out = [self._zero() for _ in range(n + 1)]
        out[0] = self._one()
        for k in range(1, n + 1):
            acc = self._zero()
            for i in range(1, (k + 1) // 2):
                acc = acc + out[i] * out[k - i]
            acc = acc * 2
            if k % 2 == 0:
                acc = acc + out[k // 2] * out[k // 2]
            out[k] = (self.coeffs[k] - acc) / 2
        return TruncatedSeries(out)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(z)); requires inner constant term 0 and equal orders.

        Coefficient j is sum_{k<=j} self_k [z^j] inner^k.  The powers of
        ``inner`` are built in its own ring (O(N) series products, O(N^3)
        ring operations), so ``self``'s coefficients only ever meet them in
        the O(N^2) products self_k * [z^j] inner^k: with a Laurent outer
        series over a Fraction inner one, those are Laurent-by-scalar
        products."""
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("compose expects a TruncatedSeries")
        self._check_order(inner)
        if not inner.coeffs[0] == inner._zero():
            raise ValueError("series compose requires inner constant term 0")
        n = self.order
        one = inner._one()
        power = TruncatedSeries([one], order=n)
        out = [self.coeffs[0] * one] + [self._zero() * one] * n
        for k in range(1, n + 1):
            power = power * inner
            f_k = self.coeffs[k]
            # inner^k starts at z^k
            for j in range(k, n + 1):
                out[j] = out[j] + f_k * power.coeffs[j]
        return TruncatedSeries(out)


def one_minus_z(order: int) -> TruncatedSeries:
    """1 - z with Fraction coefficients."""
    return TruncatedSeries([Fraction(1), Fraction(-1)][: order + 1], order=order)
