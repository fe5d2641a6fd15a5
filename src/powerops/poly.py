"""Exact polynomials in one variable `a` over the integers.

This is the ground ring R = Z[a] of the whole package.  Coefficients are
arbitrary-precision ints stored little-endian (index = exponent of a) with no
trailing zeros, so equal polynomials have equal tuples.  No floating point
anywhere.
"""

from __future__ import annotations

import re
from itertools import repeat
from operator import add, mul, neg, pos

__all__ = ["Poly", "ZERO", "ONE", "A", "DISC", "power", "summands",
           "format_terms"]


def _trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _add(x, y):
    """Canonical sum of two canonical coefficient tuples."""
    if len(x) < len(y):
        x, y = y, x
    if len(x) > len(y):  # the top coefficient of x survives
        return tuple(map(add, x, y)) + x[len(y):]
    return _trim(list(map(add, x, y)))


class Poly:
    """An element of Z[a]."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, Poly):
            self.coeffs = coeffs.coeffs
        elif isinstance(coeffs, int):
            self.coeffs = (coeffs,) if coeffs else ()
        else:
            self.coeffs = _trim(tuple(int(c) for c in coeffs))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def a_power(k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative exponent")
        return Poly((0,) * k + (1,))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with degree(0) = -1."""
        return len(self.coeffs) - 1

    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __hash__(self):
        # A constant equals the int it holds, so it hashes as that int.
        c = self.coeffs
        if len(c) > 1:
            return hash(c)
        return hash(c[0]) if c else 0

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    # -- arithmetic --------------------------------------------------------
    #
    # Results are built by _trusted: every coefficient tuple below is
    # already canonical, so none is re-coerced or re-trimmed.

    def __neg__(self):
        return _trusted(tuple(map(neg, self.coeffs)))

    def __add__(self, other):
        if isinstance(other, Poly):
            y = other.coeffs
        elif isinstance(other, int):
            y = (other,) if other else ()
        else:
            return NotImplemented
        x = self.coeffs
        if not y:
            return self
        if not x:
            return other if isinstance(other, Poly) else _trusted(y)
        return _trusted(_add(x, y))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Poly):
            y = other.coeffs
        elif isinstance(other, int):
            y = (other,) if other else ()
        else:
            return NotImplemented
        if not y:
            return self
        return _trusted(_add(self.coeffs, tuple(map(neg, y))))

    def __rsub__(self, other):
        return Poly(other) - self

    def __mul__(self, other):
        if isinstance(other, Poly):
            y = other.coeffs
            if len(y) == 1:
                return self._scale(y[0])
            x = self.coeffs
            if len(x) == 1:
                return other._scale(x[0])
        elif isinstance(other, int):
            return self._scale(other)
        else:
            return NotImplemented
        if not x or not y:
            return ZERO
        # Z is a domain, so the product of the leading coefficients is the
        # nonzero top coefficient: nothing to trim.
        return _trusted(tuple(_dense_mul(x, y)))

    __rmul__ = __mul__

    def _scale(self, n: int) -> "Poly":
        """Multiply by the integer n."""
        if n == 1:
            return self
        if not n:
            return ZERO
        if n == -1:
            return -self
        return _trusted(tuple(map(mul, self.coeffs, repeat(n))))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        return power(self, n, ONE)

    def shift(self, k: int) -> "Poly":
        """Multiply by a^k."""
        if not self.coeffs or not k:
            return self
        return _trusted((0,) * k + self.coeffs)

    def divmod_monic(self, divisor: "Poly"):
        """Quotient and remainder by a monic divisor; both stay in Z[a]."""
        if divisor.leading() != 1:
            raise ValueError("divisor must be monic")
        quo, rem = _dense_divmod(self.coeffs, divisor.coeffs, pos)
        return _trusted(tuple(quo)), _trusted(_trim(rem))

    def divide_exact(self, divisor: "Poly") -> "Poly":
        """Exact division; raises if the divisor does not divide self."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        lead = divisor.leading()

        def divide(c):
            q, r = divmod(c, lead)
            if r:
                raise ValueError("not divisible")
            return q

        quo, rem = _dense_divmod(self.coeffs, divisor.coeffs, divide)
        if any(rem):
            raise ValueError("not divisible")
        return _trusted(tuple(quo))

    def divisible_by_int(self, n: int) -> bool:
        return all(c % n == 0 for c in self.coeffs)

    def divide_int_exact(self, n: int) -> "Poly":
        if not self.divisible_by_int(n):
            raise ValueError("coefficients not divisible by %d" % n)
        return Poly(tuple(c // n for c in self.coeffs))

    def evaluate(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    # -- i/o ---------------------------------------------------------------

    def to_json(self):
        """Little-endian array of decimal strings."""
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data) -> "Poly":
        """Read `to_json`'s array; each coefficient is an int (not a bool)
        or a string of decimal digits with an optional leading "-"."""
        coeffs = []
        for c in data:
            if isinstance(c, str) and _INTEGER.fullmatch(c):
                c = int(c)
            elif type(c) is not int:
                raise ValueError("coefficient %r is not an integer" % (c,))
            coeffs.append(c)
        return Poly(coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                var = "a" if k == 1 else "a^%d" % k
                body = var if abs(c) == 1 else "%d*%s" % (abs(c), var)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "Poly(%r)" % (self.coeffs,)


def power(x, n: int, one):
    """x**n for n >= 0 in any ring, by binary powering from the top bit of
    n, so nothing is squared after the last bit; `one` is x**0."""
    if not n:
        return one
    out = x
    for bit in bin(n)[3:]:
        out = out * out
        if bit == "1":
            out = out * x
    return out


def _merge(target, source, factor=None):
    """target += factor * source for sparse terms, dicts of key -> ring
    element whose zero is falsy; a term that cancels is dropped.  Returns
    target."""
    for key, c in source.items():
        if factor is not None:
            c = c * factor
        cur = target.get(key)
        new = c if cur is None else cur + c
        if not new:
            target.pop(key, None)
        else:
            target[key] = new
    return target


def _dense_mul(x, y, n=None, zero=0):
    """The product of two dense coefficient sequences (index = exponent) as
    a list, cut to its first n coefficients when n is given; `zero` is the
    zero of the coefficient ring.  Zero coefficients of x are skipped."""
    size = len(x) + len(y) - 1 if n is None else min(n, len(x) + len(y) - 1)
    out = [zero] * size
    for i, xi in enumerate(x[:size]):
        if xi:
            for j, yj in enumerate(y[:size - i], i):
                out[j] += xi * yj
    return out


def _dense_square(x, n, zero=0):
    """The first n coefficients of x*x as a list, as `_dense_mul(x, x, n,
    zero)` gives them with half its products: each x_i*x_j with i < j is
    formed once, the sum of them at each exponent is doubled, and the
    squares x_i*x_i are added last.  Zero coefficients of x are skipped."""
    size = min(n, 2 * len(x) - 1)
    out = [zero] * size
    half = x[:(size + 1) // 2]
    for i, xi in enumerate(half):
        if xi:
            for k, xj in enumerate(x[i + 1:size - i], 2 * i + 1):
                out[k] += xi * xj
    out = [c + c if c else c for c in out]
    for i, xi in enumerate(half):
        if xi:
            out[2 * i] += xi * xi
    return out


def _dense_divmod(x, y, divide):
    """Long division of dense coefficient sequences: the lists (q, r) with
    x = q*y + r and len(r) < len(y), where y's top coefficient is nonzero
    and divide(c) is c over it.  Zero coefficients of x and y are skipped,
    and the coefficient each step cancels is left as it is, since r keeps
    only the ones below y's top."""
    r = list(x)
    top = len(y) - 1
    low = [(j, yj) for j, yj in enumerate(y[:top]) if yj]
    q = [0] * max(len(r) - top, 0)
    for k in range(len(q) - 1, -1, -1):
        if r[k + top]:
            c = q[k] = divide(r[k + top])
            for j, yj in low:
                r[k + j] -= c * yj
    return q, r[:top]


def _series_reciprocal(x, n: int, inv0, zero=0):
    """The first n >= 1 coefficients of the power series 1/x, where x has at
    least n coefficients and inv0 is the inverse of x[0]."""
    out = [inv0]
    for k in range(1, n):
        acc = zero
        for j in range(1, k + 1):
            acc += x[j] * out[k - j]
        out.append(-(inv0 * acc))
    return out


# --- text: every form is a signed sum of products of atoms ----------------

_INTEGER = re.compile(r"-?[0-9]+")

_LEXEME = re.compile(r"""\s*(?:
      (?P<op>[-+*])
    | (?P<open>\()
    | (?P<atom>\d+ | [A-Za-z]\w*'?(?:\[[\d\s]*\])? | \))
      (?:\^(?P<power>\d+))? (?![\w'[^])
    | \Z)""", re.ASCII | re.VERBOSE)


def summands(text: str):
    """Split a sum into [(sign, [(token, power), ...]), ...].

    Summands are separated by `+` and `-`, and consecutive signs compose
    (`a - - 1` is a + 1).  Factors are separated by whitespace or `*`.  An
    atom is an unsigned integer, a name (`a`, `Q1`, `d'`, `Q[1 2]`), `(` or
    `)`; each but `(` may take `^k`, an unsigned integer written directly
    after it (the power is 1 without one).  Anything else raises ValueError.
    """
    out, sign, factors, pending, pos = [], 1, None, "", 0
    while True:
        m = _LEXEME.match(text, pos)
        if m is None:
            raise ValueError("unexpected %r" % text[pos:].split()[0])
        pos, op = m.end(), m.group("op")
        atom = m.group("open") or m.group("atom")
        if atom:
            if factors is None:
                factors = []
                out.append((sign, factors))
            factors.append((atom, int(m.group("power") or 1)))
        elif pending == "*" or op == "*" and (pending or factors is None):
            raise ValueError("'*' needs a factor on each side")
        elif op == "-" or op == "+":
            if factors is not None:
                factors, sign = None, 1
            if op == "-":
                sign = -sign
        elif pending:
            raise ValueError("%r at the end has no term" % pending)
        elif not op:
            return out
        pending = op or ""


def format_terms(pairs) -> str:
    """Print [(c, body), ...], c in Z[a] and bodies in display order, as a
    sum "3 a^2 Q1 - Q2 + 1": each a^k term of c is one chunk "n a^k body",
    highest k first, with n omitted when it is 1 and there is a body."""
    chunks = []
    for c, body in pairs:
        for k in range(len(c.coeffs) - 1, -1, -1):
            n = c.coeffs[k]
            if not n:
                continue
            bits = [str(abs(n))] if abs(n) != 1 or not (k or body) else []
            if k:
                bits.append("a" if k == 1 else "a^%d" % k)
            if body:
                bits.append(body)
            chunks.append(("+ " if n > 0 else "- ") + " ".join(bits))
    if not chunks:
        return "0"
    text = " ".join(chunks)
    return text[2:] if text[0] == "+" else text


def _trusted(coeffs: tuple) -> Poly:
    """Poly's trusted constructor: coeffs must be a tuple of ints with no
    trailing zero.  It skips the checks and copies of Poly.__init__."""
    p = object.__new__(Poly)
    p.coeffs = coeffs
    return p


ZERO = Poly(())
ONE = Poly(1)
A = Poly((0, 1))
#: The localized discriminant-like element D = a^3 - 27.
DISC = Poly((-27, 0, 0, 1))
