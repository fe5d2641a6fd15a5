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


def _horner_scheme(terms, order):
    """The Horner scheme of terms in the variables of order, outermost
    first: (None, c) for the constant c, else (name, steps), where steps
    pairs the scheme of the cofactor of each power name^e, by descending e,
    with the exponent gap to the next power (to 0 after the last).  A
    variable no term holds adds no level."""
    if not order:
        return None, terms.get((), 0)
    name, groups = order[0], {}
    for mono, c in terms.items():
        e = dict(mono).get(name, 0)
        rest = tuple(pair for pair in mono if pair[0] != name)
        groups.setdefault(e, {})[rest] = c
    if list(groups) == [0]:
        return _horner_scheme(terms, order[1:])
    exps = sorted(groups, reverse=True)
    return name, [(_horner_scheme(groups[e], order[1:]), e - after)
                  for e, after in zip(exps, exps[1:] + [0])]


def _horner(scheme, values, powers):
    """The value of a Horner scheme at values:
    (...(s_1 x^g_1 + s_2) x^g_2 + ...) x^g_last, for cofactor values s.
    powers holds each x^g with g >= 2 by (name, g), formed once for every
    cofactor group of one evaluation."""
    name, steps = scheme
    if name is None:
        return steps
    x, acc = values[name], None
    for sub, gap in steps:
        value = _horner(sub, values, powers)
        acc = value if acc is None else acc + value
        if gap == 1:
            acc = acc * x
        elif gap:
            xg = powers.get((name, gap))
            if xg is None:
                xg = powers[name, gap] = x ** gap
            acc = acc * xg
    return acc


def _trusted(terms):
    """An MPoly on terms, which must map canonical monomials to nonzero
    coefficients; it is taken over, not copied."""
    p = object.__new__(MPoly)
    p.terms = terms
    return p


class MPoly:
    # _scheme is filled by the first substitute; terms never change after.
    __slots__ = ("terms", "_scheme")

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
        """Evaluate with each named variable replaced by values[name]; the
        zero form gives 0.

        The value is formed by a multivariate Horner scheme (Pena and
        Sauer, SIAM J. Numer. Anal. 37, 2000), built once per form from its
        terms and kept with it: the variable of highest degree is
        outermost, ties go by name, and the terms are grouped by their
        power of it, so no term forms a power of its own.  For the norm
        form in q0, q1, q2, a the order is q0, q1, q2, a.
        """
        try:
            scheme = self._scheme
        except AttributeError:
            degree = {}
            for mono in self.terms:
                for name, e in mono:
                    degree[name] = max(degree.get(name, 0), e)
            order = sorted(degree, key=lambda name: (-degree[name], name))
            scheme = self._scheme = _horner_scheme(self.terms, order)
        return _horner(scheme, values, {})

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
