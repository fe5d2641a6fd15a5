"""The coefficient tower R < S < S2 < S22.

R = Z[a], S = R[1/D] with D = a^3 - 27, and the successive extensions

    S2  = S[d]  / (d^3 - a*d - 2)
    S22 = S2[d'] / (d'^3 - a'*d' - 2),   a' = a^2 + 3*d - a*d^2.

Both steps are one construction, written once as `S2Elem`: c0 + c1*x +
c2*x^2 over a base ring with x^3 = A*x + 2.  `S2Elem` takes the base S and
A = a; `S22Elem` is the same class over S2 with A = a' (`TARGET_A`).

S-elements are stored as num / (2^tpow * D^dpow) in minimal form.  The 2-power
slot exists because chart computations on the curve need 1/d, and
d*(d^2 - a) = 2 makes d invertible only after 2 is; genuine membership in R or
S is a property (`is_in_R`, `is_in_S`) checked wherever it is promised.
Minimal form is canonical (Z[a] is a UFD and 2, D are coprime non-units), so
equality is tuple equality.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .poly import (Poly, A, DISC, power, summands, _dense_divmod, _trim,
                   _trusted, _kron_pack, _kron_unpack)

__all__ = ["SFrac", "S2Elem", "S22Elem", "TARGET_A", "tower_reduce",
           "parse_tower_expr"]


def _coerce(x):
    if isinstance(x, SFrac):
        return x
    if isinstance(x, (int, Poly)):
        return SFrac(x) if x else S_ZERO
    return None


def _strip_twos(num: Poly, most=None):
    """(num / 2^v, v) for v the 2-adic valuation of num != 0, capped at
    `most`; it is the valuation of the OR of the coefficients."""
    low = reduce(or_, num.coeffs)
    v = (low & -low).bit_length() - 1
    if most is not None and most < v:
        v = most
    if v:
        num = _trusted(tuple(c >> v for c in num.coeffs))
    return num, v


class SFrac:
    """num / (2^tpow * D^dpow) with num in Z[a], stored in lowest terms."""

    __slots__ = ("num", "dpow", "tpow")
    _lift = staticmethod(_coerce)

    def __init__(self, num, dpow: int = 0, tpow: int = 0):
        num = Poly(num)
        if dpow < 0 or tpow < 0:
            num = num * (DISC ** max(0, -dpow)) * Poly(2 ** max(0, -tpow))
            dpow = max(dpow, 0)
            tpow = max(tpow, 0)
        if num.is_zero():
            dpow = tpow = 0
        # D(3) = 0, so D divides num only if num(3) = 0
        while dpow > 0 and not num.evaluate(3):
            quo, rem = num.divmod_monic(DISC)
            if not rem.is_zero():
                break
            num, dpow = quo, dpow - 1
        if tpow and num:
            num, v = _strip_twos(num, tpow)
            tpow -= v
        self.num = num
        self.dpow = dpow
        self.tpow = tpow

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_in_R(self) -> bool:
        return self.dpow == 0 and self.tpow == 0

    def is_in_S(self) -> bool:
        return self.tpow == 0

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self.num, self.dpow, self.tpow) == (other.num, other.dpow, other.tpow)

    def __hash__(self):
        # An element of R equals its numerator, so it hashes as that.
        if not self.dpow and not self.tpow:
            return hash(self.num)
        return hash((self.num, self.dpow, self.tpow))

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return SFrac(-self.num, self.dpow, self.tpow)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        dp = max(self.dpow, other.dpow)
        tp = max(self.tpow, other.tpow)
        return SFrac(self._scaled_num(dp, tp) + other._scaled_num(dp, tp),
                     dp, tp)

    __radd__ = __add__

    def _scaled_num(self, dpow: int, tpow: int) -> Poly:
        """The numerator over the larger denominator 2^tpow * D^dpow."""
        num = self.num
        if dpow > self.dpow:
            num = num * DISC ** (dpow - self.dpow)
        if tpow > self.tpow:
            num = num * (1 << (tpow - self.tpow))
        return num

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if type(other) is int:
            # a scaling, as by -2 in `S2Elem.from_powers`
            return SFrac(self.num * other, self.dpow, self.tpow)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.num or not other.num:
            return S_ZERO
        return SFrac(self.num * other.num, self.dpow + other.dpow,
                     self.tpow + other.tpow)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return power(self.inv(), -n, S_ONE)
        return power(self, n, S_ONE)

    def inv(self) -> "SFrac":
        """1 / self in S[1/2]; ValueError when self is not a unit there."""
        return S_ONE.div(self)

    def div(self, other: "SFrac") -> "SFrac":
        """Exact division inside S[1/2]; ValueError when impossible.

        Succeeds iff other.num divides self.num * 2^s * D^k for some s, k,
        i.e. iff the quotient exists in the localized ring.
        """
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero in S[1/2]")
        if self.is_zero():
            return SFrac(0)
        den, s = _strip_twos(other.num)
        sign = 1
        if den.leading() < 0:
            den, sign = -den, -1
        # den is now primitive-up-to-odd-content with positive lead; divide
        # out whatever power of D is needed.  deg(den) bounds the number of
        # D-factors den can contain.
        for k in range(den.degree() + 1):
            try:
                quo = (self.num * DISC ** k).divide_exact(den)
            except ValueError:
                continue
            return SFrac(Poly(sign) * quo,
                         self.dpow + k - other.dpow,
                         self.tpow + s - other.tpow)
        raise ValueError("quotient does not lie in S[1/2]")

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.div(other)

    # -- i/o ---------------------------------------------------------------

    def to_json(self):
        out = {"num": self.num.to_json(), "dpow": self.dpow}
        if self.tpow:
            out["tpow"] = self.tpow
        return out

    @staticmethod
    def from_json(data) -> "SFrac":
        return SFrac(Poly.from_json(data["num"]), data.get("dpow", 0),
                     data.get("tpow", 0))

    def __str__(self):
        num = str(self.num)
        if self.dpow == 0 and self.tpow == 0:
            return num
        den = []
        if self.tpow:
            den.append(str(2 ** self.tpow))
        if self.dpow:
            den.append("D" if self.dpow == 1 else "D^%d" % self.dpow)
        return "(%s)/(%s)" % (num, "*".join(den))

    def __repr__(self):
        return "SFrac(%r, %d, %d)" % (self.num.coeffs, self.dpow, self.tpow)


S_ZERO = SFrac(0)
S_ONE = SFrac(1)


class S2Elem:
    """c0 + c1*x + c2*x^2 over a base ring, with x^3 = A*x + 2, A = a_coeff.

    Over the base S[1/2] (`SFrac`) this is S2 itself, with x = d and
    a_coeff = a; `S22Elem` is the same construction over S2.
    """

    __slots__ = ("c",)
    base = SFrac
    a_coeff = SFrac(A)
    _symbol = "d"

    def __init__(self, c0=0, c1=0, c2=0):
        lift = self.base._lift
        c = (lift(c0), lift(c1), lift(c2))
        if c[0] is None or c[1] is None or c[2] is None:
            raise TypeError("%r is not over %s" % ((c0, c1, c2),
                                                   self.base.__name__))
        self.c = c

    @classmethod
    def from_powers(cls, coeffs):
        """sum coeffs[k] x^k, reduced mod x^3 - A x - 2."""
        return cls(*_dense_divmod(coeffs, (-2, -cls.a_coeff, 0, 1),
                                 lambda c: c)[1])

    @classmethod
    def _lift(cls, x):
        """x as an element of cls, or None when it is not one."""
        if type(x) is cls:
            return x
        c = cls.base._lift(x)
        return None if c is None else cls(c)

    @staticmethod
    def d() -> "S2Elem":
        return S2Elem(0, 1, 0)

    def is_zero(self):
        return not any(self.c)

    def is_in_S2(self) -> bool:
        """True when every coefficient is 2-integral (a genuine S2 element)."""
        return all(x.is_in_S() for x in self.c)

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        # An element of the base equals its constant coefficient, so it
        # hashes as that.
        if not self.c[1] and not self.c[2]:
            return hash(self.c[0])
        return hash(self.c)

    def __bool__(self):
        return any(self.c)

    def __neg__(self):
        return type(self)(*(-x for x in self.c))

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return type(self)(*(x + y for x, y in zip(self.c, other.c)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is int:
            # a scaling, as by -2 in `from_powers`: no cubic product
            return type(self)(*(x * other for x in self.c))
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if not self:
            return self
        if not other:
            return other
        x0, x1, x2 = self.c
        y0, y1, y2 = other.c
        # The x^3 and x^4 products fold by x^3 = A x + 2, x^4 = A x^2 + 2 x.
        c3 = x1 * y2 + x2 * y1
        c4 = x2 * y2
        return type(self)(x0 * y0 + c3 + c3,
                          x0 * y1 + x1 * y0 + self.a_coeff * c3 + c4 + c4,
                          x0 * y2 + x1 * y1 + x2 * y0 + self.a_coeff * c4)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return power(self.inv(), -n, type(self)(1))
        return power(self, n, type(self)(1))

    def mult_matrix(self):
        """3x3 matrix (rows) of multiplication by self on the basis 1, x, x^2.

        Column k + 1 is x times column k: x*(v0 + v1 x + v2 x^2) =
        2 v2 + (v0 + A v2) x + v1 x^2.  The matrix of d in S2 is
        [[0,0,2],[1,0,a],[0,1,0]].
        """
        cols = [self.c]
        for _ in range(2):
            v0, v1, v2 = cols[-1]
            cols.append((v2 + v2, v0 + self.a_coeff * v2, v1))
        return [[col[i] for col in cols] for i in range(3)]

    def _norm_and_adjugate(self):
        """The determinant of `mult_matrix` and the first column of its
        adjugate, which is the element y with self * y = norm."""
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = self.mult_matrix()
        adj = (m11 * m22 - m12 * m21, m12 * m20 - m10 * m22,
               m10 * m21 - m11 * m20)
        return m00 * adj[0] + m01 * adj[1] + m02 * adj[2], adj

    def norm(self):
        """Determinant of the multiplication matrix (the norm to the base)."""
        return self._norm_and_adjugate()[0]

    def trace(self):
        m = self.mult_matrix()
        return m[0][0] + m[1][1] + m[2][2]

    def inv(self):
        """Adjugate over norm; ValueError unless the norm is a base unit."""
        det, adj = self._norm_and_adjugate()
        det_inv = det.inv()
        return type(self)(*(x * det_inv for x in adj))

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def to_json(self):
        return [x.to_json() for x in self.c]

    @classmethod
    def from_json(cls, data):
        return cls(*(cls.base.from_json(x) for x in data))

    def __str__(self):
        names = ("1", self._symbol, self._symbol + "^2")
        parts = ["(%s)*%s" % (x, n) for x, n in zip(self.c, names)
                 if not x.is_zero()]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


# --- truncated products of S2-valued series ----------------------------------
#
# `_s2_product` multiplies two series with S2Elem coefficients over SFrac by
# Kronecker substitution, fitted to the Z/3-grading of the curve (weights
# a -> 2, d -> 1, u -> 1, v -> 0, so a coefficient's a-exponents in one
# d-component are one residue mod 3).  Each operand is put over one
# denominator 2^E * D^T, and each numerator c(a) of each d-component is split
# as sum_r a^r * P_r(b), b = a^3, r = 0, 1, 2; each nonzero P_r is packed
# by `poly`'s codec into the int P_r(2^B).  For each output index the
# products of the blocks are summed in 5 x 5 slots (d-power j1 + j2,
# residue r1 + r2), folded once by a^3 = b (a shift by B) and d^3 = a*d + 2,
# d^4 = a*d^2 + 2*d, and unpacked.  The split is exact for any input; on graded
# inputs each component has one nonzero block, not three, so a coefficient
# pair costs at most nine int products on a third of the digits.
#
# The bound B rests on: every product of one coefficient of x with one of y
# lands in one raw slot coefficient, and the folds send it to at most two
# output coefficients, with weight 2 (the "+ 2" of d^3, d^4) and weight 1
# (the "a*", which only moves it).  So every output coefficient at index k
# is at most 2 * sum_i |x_i| * |y_(k-i)| in absolute value, where |x_i| is
# the sum of the absolute values of x_i's scaled numerator coefficients, and
# that is at most 2 * min(sum|x| * max|y|, max|x| * sum|y|).  Scaling by
# 2^s multiplies |.| by 2^s, and by D^k at most by |D|^k = 28^k.  B is one
# more than the bit length of that bound, so every output unpacks (the
# rule of `poly._kron_unpack`).

def _s2_split(x):
    """(E, T, rows, total, top) for the S2 series coefficients x: 2^E * D^T
    is the common denominator, rows[i] lists (j, r, block, s, k) for each
    nonzero block of d-component j of x[i], whose scaled numerator is
    sum_r a^r * block_r(a^3) * 2^s * D^k, and total and top are the sum and
    the largest of the bounds |x_i| of the comment above."""
    comps = [c for e in x for c in e.c if c.num]
    E = max((c.tpow for c in comps), default=0)
    T = max((c.dpow for c in comps), default=0)
    rows, total, top = [], 0, 0
    for e in x:
        row, size = [], 0
        for j, c in enumerate(e.c):
            coeffs = c.num.coeffs
            if not coeffs:
                continue
            s, k = E - c.tpow, T - c.dpow
            size += (sum(map(abs, coeffs)) << s) * 28 ** k
            for r in range(3):
                block = coeffs[r::3]
                if any(block):
                    row.append((j, r, block, s, k))
        rows.append(row)
        total += size
        top = max(top, size)
    return E, T, rows, total, top


def _s2_pack(rows, bits, T):
    """rows with each block packed at 2^bits and scaled: (j, r, int)."""
    dpows = [((1 << bits) - 27) ** k for k in range(T + 1)]
    out = []
    for row in rows:
        packed = []
        for j, r, block, s, k in row:
            acc = _kron_pack(block, bits)
            packed.append((j, r, (acc << s) * dpows[k] if k else acc << s))
        out.append(packed)
    return out


def _s2_numerator(q0, q1, q2, bits):
    """The Poly sum_r a^r * q_r(a^3) from the packed q_r."""
    digits = [_kron_unpack(q, bits) for q in (q0, q1, q2)]
    m = max(map(len, digits))
    coeffs = [0] * (3 * m)
    for r, d in enumerate(digits):
        coeffs[r:r + 3 * len(d):3] = d
    return _trusted(_trim(coeffs))


def _s2_accumulate(slot, xrow, yrow):
    """slot[5 * (j1 + j2) + r1 + r2] += p * q over the packed blocks."""
    for j1, r1, p in xrow:
        for j2, r2, q in yrow:
            slot[5 * (j1 + j2) + r1 + r2] += p * q


def _s2_product(x, y, n, zero, start=0):
    """The coefficients start, ..., n - 1 of the product of the S2 series
    coefficient sequences x and y (index = exponent of u), as a list cut to
    len(x) + len(y) - 1; x is y takes the square case, which forms each
    cross product once.  Each output is built by SFrac, so it is in lowest
    terms and equal to the schoolbook product's; `zero` is the S2 zero,
    given where the product vanishes."""
    square = x is y
    Ex, Tx, xrows, xsum, xtop = _s2_split(x)
    Ey, Ty, yrows, ysum, ytop = (Ex, Tx, xrows, xsum, xtop) if square \
        else _s2_split(y)
    bits = (2 * min(xsum * ytop, xtop * ysum)).bit_length() + 1
    xp = _s2_pack(xrows, bits, Tx)
    yp = xp if square else _s2_pack(yrows, bits, Ty)
    dpow, tpow = Tx + Ty, Ex + Ey
    out = []
    for k in range(start, min(n, len(x) + len(y) - 1)):
        slot = [0] * 25
        lo, hi = max(0, k - len(y) + 1), min(k, len(x) - 1)
        if square:
            for i in range(lo, (k + 1) // 2):
                _s2_accumulate(slot, xp[i], xp[k - i])
            slot = [v + v for v in slot]
            if not k % 2 and k // 2 <= hi:
                _s2_accumulate(slot, xp[k // 2], xp[k // 2])
        else:
            for i in range(lo, hi + 1):
                _s2_accumulate(slot, xp[i], yp[k - i])
        if not any(slot):
            out.append(zero)
            continue
        # a^3 = b: residues 3 and 4 are residues 0 and 1 one b-power up
        for j in range(0, 25, 5):
            slot[j] += slot[j + 3] << bits
            slot[j + 1] += slot[j + 4] << bits
        # d^3 = a*d + 2, d^4 = a*d^2 + 2*d, a*(q0, q1, q2) = (b*q2, q0, q1)
        u0, u1, u2 = slot[15:18]
        w0, w1, w2 = slot[20:23]
        out.append(S2Elem(
            SFrac(_s2_numerator(slot[0] + 2 * u0, slot[1] + 2 * u1,
                                slot[2] + 2 * u2, bits), dpow, tpow),
            SFrac(_s2_numerator(slot[5] + (u2 << bits) + 2 * w0,
                                slot[6] + u0 + 2 * w1,
                                slot[7] + u1 + 2 * w2, bits), dpow, tpow),
            SFrac(_s2_numerator(slot[10] + (w2 << bits), slot[11] + w0,
                                slot[12] + w1, bits), dpow, tpow)))
    return out


def _s2_reciprocal(x, n, inv0, zero):
    """The first n >= 1 coefficients of 1/x for an S2 series x with at least
    n coefficients, inv0 the inverse of x[0], by Newton's step y <- y +
    y*(1 - x*y): for y exact mod u^m, x*y = 1 + e*u^m and the step gives
    y - y*e*u^m, exact mod u^(2m), so only y*e mod u^m is formed."""
    y = [inv0]
    while len(y) < n:
        m = len(y)
        step = min(m, n - m)
        e = _s2_product(x[:m + step], y, m + step, zero, m)
        y += _s2_product(y, [-c for c in e], step, zero)
    return y


def _s2_times(x, y):
    """x * y for S2 elements x and y, by the kernel on series of length 1."""
    return _s2_product((x,), (y,), 1, S2Elem())[0]


#: a' = a^2 + 3d - a*d^2, the coefficient of the isogeny's target curve
#: (`curve.isogeny_series` re-derives it from the series).
TARGET_A = S2Elem(A * A, 3, -A)

# The image of d' under the folding map d' -> a - d^2.
_FOLDED_DPRIME = S2Elem(A, 0, -1)


class S22Elem(S2Elem):
    """c0 + c1*d' + c2*d'^2 over S2, with d'^3 = a'*d' + 2."""

    __slots__ = ()
    base = S2Elem
    a_coeff = TARGET_A
    _symbol = "d'"

    @staticmethod
    def dprime() -> "S22Elem":
        return S22Elem(0, 1, 0)

    def f_star(self) -> S2Elem:
        """Push down along d' -> a - d^2 (the covering's folding map)."""
        c0, c1, c2 = self.c
        return (c2 * _FOLDED_DPRIME + c1) * _FOLDED_DPRIME + c0


def tower_reduce(monomials) -> S22Elem:
    """Normalize a raw expression in a, d, d'.

    `monomials` maps exponent triples (i, j, k), meaning a^i d^j d'^k, to
    integer (or Poly / SFrac) coefficients.  Both defining relations are
    applied until every d- and d'-exponent is at most 2.
    """
    rows = {}  # d'-exponent -> S-coefficients of the powers of d
    for (i, j, k), coeff in monomials.items():
        term = _coerce(coeff)
        if i:
            term = term * SFrac(Poly.a_power(i))
        row = rows.setdefault(k, [])
        row += [S_ZERO] * (j + 1 - len(row))
        row[j] = row[j] + term
    return S22Elem.from_powers([S2Elem.from_powers(rows.get(k, ()))
                                for k in range(max(rows, default=-1) + 1)])


_TOWER_ATOMS = {"a": 0, "d": 1, "d'": 2}


def parse_tower_expr(text: str) -> S22Elem:
    """Parse e.g. "d^4 - 2 a d' + 3" into a reduced element.

    The syntax is the one of `poly.summands` (README, "Input syntax"); the
    atoms are integers, `a`, `d` and `d'`.
    """
    terms = {}
    for coeff, factors in summands(text):
        expo = [0, 0, 0]
        for tok, k in factors:
            if tok.isdigit():
                coeff *= int(tok) ** k
            elif tok in _TOWER_ATOMS:
                expo[_TOWER_ATOMS[tok]] += k
            else:
                raise ValueError("unknown symbol %r" % tok)
        key = tuple(expo)
        terms[key] = terms.get(key, 0) + coeff
    return tower_reduce(terms)
