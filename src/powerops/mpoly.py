"""Sparse polynomials in named commuting variables over a commutative ring.

The package's one general sparse polynomial.  Monomials are sorted tuples
of (name, exponent) pairs, with names of one comparable kind per
polynomial (strings like q0 and a, or generator labels).  Coefficients are
the elements of any commutative ring whose zero is falsy: int, Poly, SFrac.
Every operand that is not an MPoly is a constant.  Symbolic matrix entries
over the cubic extension and the trace and norm formulas are polynomials in
q0, q1, q2, a here; the witness model of the amplified ring is a
polynomial with SFrac coefficients in its generators.
"""

from __future__ import annotations

from .poly import power, _merge

__all__ = ["MPoly"]


def _mono_mul(m1, m2):
    """Product of two monomials."""
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for n, e in m2:
        merged[n] = merged.get(n, 0) + e
    return tuple(sorted(merged.items()))


def _terms(x):
    """The terms of an MPoly, or of the constant x."""
    if isinstance(x, MPoly):
        return x.terms
    return {(): x} if x else {}


def _trusted(terms):
    """An MPoly on terms, which must map canonical monomials to nonzero
    coefficients; it is taken over, not copied."""
    p = object.__new__(MPoly)
    p.terms = terms
    return p


class MPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    clean[tuple(sorted((n, e) for n, e in mono if e))] = c
        self.terms = clean

    @staticmethod
    def var(name) -> "MPoly":
        return MPoly({((name, 1),): 1})

    @staticmethod
    def const(c) -> "MPoly":
        return MPoly({(): c})

    @staticmethod
    def combination(pairs) -> "MPoly":
        """The sum of p * c over (p, c) pairs, each p an MPoly and each c a
        coefficient, accumulated in one table."""
        out = {}
        for p, c in pairs:
            _merge(out, p.terms, c)
        return _trusted(out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return self.terms == _terms(other)

    def __hash__(self):
        # A constant equals its coefficient, so it hashes as that.
        if not self.terms or (len(self.terms) == 1 and () in self.terms):
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return _trusted({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        y = _terms(other)
        if not y:
            return self
        return _trusted(_merge(dict(self.terms), y))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            return MPoly.combination([(self, other)])
        out = {}
        for m1, c1 in self.terms.items():
            _merge(out, {_mono_mul(m1, m2): c2
                         for m2, c2 in other.terms.items()}, c1)
        return _trusted(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        return power(self, n, MPoly.const(1))

    def substitute(self, values: dict):
        """Evaluate with each named variable replaced by values[name]."""
        total = 0
        for mono, c in self.terms.items():
            term = c
            for name, e in mono:
                term = term * values[name] ** e
            total = total + term
        return total

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e for _, e in m) for m in self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        def key(item):
            mono, _ = item
            return (sum(e for _, e in mono), mono)
        parts = []
        for mono, c in sorted(self.terms.items(), key=key):
            body = " ".join(str(n) if e == 1 else "%s^%d" % (n, e)
                            for n, e in mono)
            sign = "+ "
            if isinstance(c, int) and c < 0:
                sign, c = "- ", -c
            if c == 1 and body:
                frag = body
            else:
                coeff = str(c) if isinstance(c, int) else "(%s)" % c
                frag = "%s %s" % (coeff, body) if body else coeff
            parts.append(sign + frag)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "- " + text[2:]

    __repr__ = __str__
