"""The coefficient tower R < S < S2 < S22.

R = Z[a], S = R[1/D] with D = a^3 - 27, and the successive extensions

    S2  = S[d]  / (d^3 - a*d - 2)
    S22 = S2[d'] / (d'^3 - a'*d' - 2),   a' = a^2 + 3*d - a*d^2.

S-elements are stored as num / (2^tpow * D^dpow) in minimal form.  The 2-power
slot exists because chart computations on the curve need 1/d, and
d*(d^2 - a) = 2 makes d invertible only after 2 is; genuine membership in R or
S is a property (`is_in_R`, `is_in_S`) checked wherever it is promised.
Minimal form is canonical (Z[a] is a UFD and 2, D are coprime non-units), so
equality is tuple equality.
"""

from __future__ import annotations

from .poly import Poly, DISC, ONE, ZERO, power, summands

__all__ = ["SFrac", "S2Elem", "S22Elem", "tower_reduce", "parse_tower_expr"]


class SFrac:
    """num / (2^tpow * D^dpow) with num in Z[a], stored in lowest terms."""

    __slots__ = ("num", "dpow", "tpow")

    def __init__(self, num, dpow: int = 0, tpow: int = 0):
        num = Poly(num)
        if dpow < 0 or tpow < 0:
            num = num * (DISC ** max(0, -dpow)) * Poly(2 ** max(0, -tpow))
            dpow = max(dpow, 0)
            tpow = max(tpow, 0)
        if num.is_zero():
            dpow = tpow = 0
        while dpow > 0:
            quo, rem = num.divmod_monic(DISC)
            if not rem.is_zero():
                break
            num, dpow = quo, dpow - 1
        while tpow > 0 and num.divisible_by_int(2):
            num, tpow = num.divide_int_exact(2), tpow - 1
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
        dp = max(self.dpow, other.dpow)
        tp = max(self.tpow, other.tpow)
        x = self.num * (DISC ** (dp - self.dpow)) * Poly(2 ** (tp - self.tpow))
        y = other.num * (DISC ** (dp - other.dpow)) * Poly(2 ** (tp - other.tpow))
        return SFrac(x + y, dp, tp)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return SFrac(self.num * other.num, self.dpow + other.dpow, self.tpow + other.tpow)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return power(self.inv(), -n, S_ONE)
        return power(self, n, S_ONE)

    def inv(self) -> "SFrac":
        """Inverse when the numerator is +-2^s * D^r; otherwise ValueError."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        num, s, r = self.num, 0, 0
        while num.divisible_by_int(2) and num.degree() >= 0:
            num, s = num.divide_int_exact(2), s + 1
        while True:
            quo, rem = num.divmod_monic(DISC)
            if not rem.is_zero():
                break
            num, r = quo, r + 1
        if num == ONE:
            sign = 1
        elif num == Poly(-1):
            sign = -1
        else:
            raise ValueError("not a unit in S[1/2]: %s" % self)
        return SFrac(Poly(sign) * DISC ** self.dpow * Poly(2 ** self.tpow),
                     r, s)

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
        den, s = other.num, 0
        while den.divisible_by_int(2):
            den, s = den.divide_int_exact(2), s + 1
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


def _coerce(x):
    if isinstance(x, SFrac):
        return x
    if isinstance(x, (int, Poly)):
        return SFrac(x)
    return None


S_ZERO = SFrac(0)
S_ONE = SFrac(1)


def _reduce_dprime(terms):
    """Rewrite a dict {(j, k): SFrac} for d^j d'^k into j, k <= 2.

    Uses d^3 -> a*d + 2, then d'^3 -> (a^2 + 3d - a*d^2)*d' + 2, re-reducing
    the d-powers the second rule creates.
    """
    a = SFrac(Poly((0, 1)))
    work = dict(terms)
    done = {}
    while work:
        (j, k), c = work.popitem()
        if c.is_zero():
            continue
        if j >= 3:
            _add(work, (j - 2, k), c * a)
            _add(work, (j - 3, k), c * 2)
        elif k >= 3:
            _add(work, (j, k - 2), c * a * a)
            _add(work, (j + 1, k - 2), c * 3)
            _add(work, (j + 2, k - 2), -(c * a))
            _add(work, (j, k - 3), c * 2)
        else:
            _add(done, (j, k), c)
    return done


def _add(table, key, val):
    cur = table.get(key)
    new = val if cur is None else cur + val
    if new.is_zero():
        table.pop(key, None)
    else:
        table[key] = new


class S2Elem:
    """c0 + c1*d + c2*d^2 with ci in S (or S[1/2])."""

    __slots__ = ("c",)

    def __init__(self, c0=0, c1=0, c2=0):
        self.c = (_coerce(c0), _coerce(c1), _coerce(c2))

    @staticmethod
    def d() -> "S2Elem":
        return S2Elem(0, 1, 0)

    @staticmethod
    def from_s(x) -> "S2Elem":
        return S2Elem(x, 0, 0)

    def is_zero(self):
        return all(x.is_zero() for x in self.c)

    def is_in_S2(self) -> bool:
        """True when every coefficient is 2-integral (a genuine S2 element)."""
        return all(x.is_in_S() for x in self.c)

    def __eq__(self, other):
        other = _coerce2(other)
        if other is None:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        # An element of S equals its constant coefficient, so it hashes as
        # that.
        if not self.c[1] and not self.c[2]:
            return hash(self.c[0])
        return hash(self.c)

    def __neg__(self):
        return S2Elem(*(-x for x in self.c))

    def __add__(self, other):
        other = _coerce2(other)
        if other is None:
            return NotImplemented
        return S2Elem(*(x + y for x, y in zip(self.c, other.c)))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce2(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce2(other) - self

    def __mul__(self, other):
        other = _coerce2(other)
        if other is None:
            return NotImplemented
        table = {}
        for i, x in enumerate(self.c):
            if x.is_zero():
                continue
            for j, y in enumerate(other.c):
                if y.is_zero():
                    continue
                _add(table, (i + j, 0), x * y)
        red = _reduce_dprime(table)
        out = [S_ZERO, S_ZERO, S_ZERO]
        for (j, k), c in red.items():
            assert k == 0
            out[j] = out[j] + c
        return S2Elem(*out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return power(self.inv(), -n, S2Elem(1))
        return power(self, n, S2Elem(1))

    def mult_matrix(self):
        """3x3 matrix (rows) of multiplication by self on the basis 1, d, d^2.

        The matrix of d itself is [[0,0,2],[1,0,a],[0,1,0]] by columns.
        """
        cols = []
        for j in range(3):
            basis = S2Elem(*(1 if i == j else 0 for i in range(3)))
            cols.append((self * basis).c)
        return [[cols[j][i] for j in range(3)] for i in range(3)]

    def norm(self) -> SFrac:
        """Determinant of the multiplication matrix (norm to S[1/2])."""
        m = self.mult_matrix()
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    def trace(self) -> SFrac:
        m = self.mult_matrix()
        return m[0][0] + m[1][1] + m[2][2]

    def inv(self) -> "S2Elem":
        """Inverse via the adjugate; needs the norm to be invertible."""
        m = self.mult_matrix()
        det = self.norm()
        det_inv = det.inv() if _is_unit_shaped(det) else None
        adj0 = [m[1][1] * m[2][2] - m[1][2] * m[2][1],
                m[1][2] * m[2][0] - m[1][0] * m[2][2],
                m[1][0] * m[2][1] - m[1][1] * m[2][0]]
        if det_inv is not None:
            return S2Elem(*(x * det_inv for x in adj0))
        return S2Elem(*(x.div(det) for x in adj0))

    def __truediv__(self, other):
        other = _coerce2(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def to_json(self):
        return [x.to_json() for x in self.c]

    @staticmethod
    def from_json(data) -> "S2Elem":
        return S2Elem(*(SFrac.from_json(x) for x in data))

    def __str__(self):
        names = ["1", "d", "d^2"]
        parts = ["(%s)*%s" % (x, n) for x, n in zip(self.c, names)
                 if not x.is_zero()]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def _is_unit_shaped(x: SFrac) -> bool:
    if x.is_zero():
        return False
    num = x.num
    while num.divisible_by_int(2) and not num.is_zero():
        num = num.divide_int_exact(2)
    while True:
        quo, rem = num.divmod_monic(DISC)
        if not rem.is_zero():
            break
        num = quo
    return num == ONE or num == Poly(-1)


def _coerce2(x):
    if isinstance(x, S2Elem):
        return x
    if isinstance(x, (int, Poly, SFrac)):
        return S2Elem(x, 0, 0)
    return None


class S22Elem:
    """sum c[j][k] * d^j * d'^k, 0 <= j, k <= 2, with c[j][k] in S[1/2]."""

    __slots__ = ("c",)

    def __init__(self, table=None):
        grid = [[S_ZERO] * 3 for _ in range(3)]
        if table is not None:
            for (j, k), val in table.items():
                grid[j][k] = _coerce(val)
        self.c = tuple(tuple(row) for row in grid)

    @staticmethod
    def dprime() -> "S22Elem":
        return S22Elem({(0, 1): S_ONE})

    @staticmethod
    def from_s2(x: S2Elem) -> "S22Elem":
        return S22Elem({(j, 0): x.c[j] for j in range(3)})

    def is_zero(self):
        return all(v.is_zero() for row in self.c for v in row)

    def __eq__(self, other):
        other = _coerce22(other)
        if other is None:
            return NotImplemented
        return self.c == other.c

    def __neg__(self):
        return S22Elem({(j, k): -self.c[j][k]
                        for j in range(3) for k in range(3)})

    def __add__(self, other):
        other = _coerce22(other)
        if other is None:
            return NotImplemented
        return S22Elem({(j, k): self.c[j][k] + other.c[j][k]
                        for j in range(3) for k in range(3)})

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce22(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce22(other)
        if other is None:
            return NotImplemented
        table = {}
        for j1 in range(3):
            for k1 in range(3):
                x = self.c[j1][k1]
                if x.is_zero():
                    continue
                for j2 in range(3):
                    for k2 in range(3):
                        y = other.c[j2][k2]
                        if y.is_zero():
                            continue
                        _add(table, (j1 + j2, k1 + k2), x * y)
        return S22Elem(_reduce_dprime(table))

    __rmul__ = __mul__

    def f_star(self) -> S2Elem:
        """Push down along d' -> a - d^2 (the covering's folding map)."""
        a = SFrac(Poly((0, 1)))
        # dp_img[k] = (a - d^2)^k reduced; note (a-d^2)^2 = a^2 + 2d - a*d^2.
        dp_img = [S2Elem(1), S2Elem(a, 0, -1), S2Elem(a * a, 2, -a)]
        out = S2Elem(0)
        for j in range(3):
            for k in range(3):
                cjk = self.c[j][k]
                if cjk.is_zero():
                    continue
                out = out + S2Elem(cjk) * (S2Elem.d() ** j) * dp_img[k]
        return out

    def to_json(self):
        return [[self.c[j][k].to_json() for k in range(3)] for j in range(3)]

    @staticmethod
    def from_json(data) -> "S22Elem":
        return S22Elem({(j, k): SFrac.from_json(data[j][k])
                        for j in range(3) for k in range(3)})

    def __str__(self):
        names = [["1", "d'", "d'^2"], ["d", "d*d'", "d*d'^2"],
                 ["d^2", "d^2*d'", "d^2*d'^2"]]
        parts = []
        for j in range(3):
            for k in range(3):
                if not self.c[j][k].is_zero():
                    parts.append("(%s)*%s" % (self.c[j][k], names[j][k]))
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def _coerce22(x):
    if isinstance(x, S22Elem):
        return x
    if isinstance(x, S2Elem):
        return S22Elem.from_s2(x)
    if isinstance(x, (int, Poly, SFrac)):
        return S22Elem({(0, 0): x})
    return None


def tower_reduce(monomials) -> S22Elem:
    """Normalize a raw expression in a, d, d'.

    `monomials` maps exponent triples (i, j, k), meaning a^i d^j d'^k, to
    integer (or Poly / SFrac) coefficients.  Both defining relations are
    applied until every d- and d'-exponent is at most 2.
    """
    table = {}
    for (i, j, k), coeff in monomials.items():
        c = _coerce(coeff)
        _add(table, (j, k), c * SFrac(Poly.a_power(i)))
    return S22Elem(_reduce_dprime(table))


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
