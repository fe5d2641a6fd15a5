"""Truncated power series with explicit error order.

A Series knows its coefficients below `order` and nothing above: it stands
for any series agreeing with it mod u^order.  Arithmetic propagates the
truncation honestly; in particular a product is only claimed mod
u^min(O1+v2, O2+v1) where v is the valuation of the other factor, never
beyond what the operands support.

Coefficients can live in any commutative ring whose elements support
+, -, *, ==; `inverse` additionally needs .inv() on the leading coefficient.
Products (squares included) and reciprocals of series over S2 go through
the packed kernel of `tower`; over any other ring through `poly`'s one
dense product and its series reciprocal.
"""

from __future__ import annotations

from .poly import _dense_mul, _series_reciprocal
from .tower import S2Elem, _s2_product, _s2_reciprocal

__all__ = ["Series"]


def _kernels(zero):
    """(product, reciprocal) for coefficients of the type of zero."""
    if type(zero) is S2Elem:
        return _s2_product, _s2_reciprocal
    return _dense_mul, _series_reciprocal


class Series:
    __slots__ = ("coeffs", "order", "zero")

    def __init__(self, coeffs, order: int, zero):
        if order < 0:
            order = 0
        coeffs = list(coeffs)[:order]
        while len(coeffs) < order:
            coeffs.append(zero)
        self.coeffs = tuple(coeffs)
        self.order = order
        self.zero = zero

    @staticmethod
    def from_terms(terms, order, zero):
        """Build from {exponent: coeff}."""
        coeffs = [zero] * order
        for k, c in terms.items():
            if 0 <= k < order:
                coeffs[k] = coeffs[k] + c
        return Series(coeffs, order, zero)

    def __getitem__(self, k: int):
        if k >= self.order:
            raise IndexError("coefficient %d not known (order %d)"
                             % (k, self.order))
        return self.coeffs[k] if k >= 0 else self.zero

    def valuation(self):
        """Index of first nonzero known coefficient, or self.order if none."""
        for k, c in enumerate(self.coeffs):
            if c != self.zero:
                return k
        return self.order

    def truncate(self, order: int) -> "Series":
        return Series(self.coeffs[:order], min(order, self.order), self.zero)

    def __neg__(self):
        return Series([-c for c in self.coeffs], self.order, self.zero)

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        order = min(self.order, other.order)
        return Series([self.coeffs[k] + other.coeffs[k] for k in range(order)],
                      order, self.zero)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        order = min(self.order + other.valuation(),
                    other.order + self.valuation())
        product = _kernels(self.zero)[0]
        return Series(product(self.coeffs, other.coeffs, order, self.zero),
                      order, self.zero)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Series":
        return Series([x * c for x in self.coeffs], self.order, self.zero)

    def shift(self, k: int) -> "Series":
        """Multiply by u^k (k may be negative if the valuation allows)."""
        if k >= 0:
            return Series((self.zero,) * k + self.coeffs, self.order + k,
                          self.zero)
        if any(c != self.zero for c in self.coeffs[:-k]):
            raise ValueError("valuation below %d; cannot divide by u^%d"
                             % (-k, -k))
        return Series(self.coeffs[-k:], self.order + k, self.zero)

    def inverse(self) -> "Series":
        """Reciprocal; the constant coefficient must have .inv()."""
        if self.order == 0:
            return self
        reciprocal = _kernels(self.zero)[1]
        out = reciprocal(self.coeffs, self.order, self.coeffs[0].inv(),
                         self.zero)
        return Series(out, self.order, self.zero)

    def agrees_with(self, other: "Series", order=None) -> bool:
        """Equality of all coefficients known to both (or below `order`)."""
        o = min(self.order, other.order)
        if order is not None:
            o = min(o, order)
        return all(self.coeffs[k] == other.coeffs[k] for k in range(o))

    def __eq__(self, other):
        return (isinstance(other, Series) and self.order == other.order
                and self.coeffs == other.coeffs)

    def to_json(self):
        return {"var": "u", "order": self.order,
                "coeffs": [c.to_json() for c in self.coeffs]}

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c != self.zero:
                parts.append("(%s)*u^%d" % (c, k))
        body = " + ".join(parts) if parts else "0"
        return "%s + O(u^%d)" % (body, self.order)

    __repr__ = __str__
