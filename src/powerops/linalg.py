"""Exact matrix algebra over Z, Q[a], and F2[a].

Invariant factors over a Euclidean domain by Smith normal form, with no
transform formed, and the homology of a pair of composable maps from them
alone.  Matrices carry explicit shape so zero-dimensional edge cases stay
unambiguous.

`unit_pivot_elimination` is a sparse first pass over Z[a] itself: its
constant +-1 pivots stay units over every ring Z[a] maps to, and it
returns the remainder it could not clear, for the Smith form (`koszul`).
It shares no code with the Smith form, the oracle on whole matrices.

Ring strategy objects convert entries from integer polynomials (Poly) and
supply the arithmetic; `ZZ` additionally refuses nonconstant entries, which
is how callers detect that an integral Smith form is unavailable.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, ZERO, _add, _dense_divmod, _dense_mul, _trim

__all__ = ["Matrix", "IntRing", "FieldPolyRing", "ZZ", "QA", "F2A",
           "ring_by_name", "mat_mul", "unit_pivot_elimination",
           "smith_normal_form", "homology", "homology_triple"]


class Matrix:
    """Rectangular matrix with explicit shape (entries in one ring)."""

    __slots__ = ("m", "n", "rows")

    def __init__(self, m: int, n: int, rows):
        rows = [list(r) for r in rows]
        if len(rows) != m or any(len(r) != n for r in rows):
            raise ValueError("shape mismatch: want %d x %d" % (m, n))
        self.m = m
        self.n = n
        self.rows = rows

    def __eq__(self, other):
        if isinstance(other, Matrix):
            return (self.m, self.n, self.rows) == (other.m, other.n, other.rows)
        return NotImplemented

    def __repr__(self):
        return "Matrix(%d, %d, %r)" % (self.m, self.n, self.rows)


class IntRing:
    """The integers; entries coerced from constant polynomials only."""

    name = "Z"
    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, Poly):
            if x.degree() > 0:
                raise ValueError("entry %s is not constant" % x)
            return x.constant_term()
        return int(x)

    def is_zero(self, x):
        return not x

    def is_unit(self, x):
        return x in (1, -1)

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def divmod_pair(self, x, y):
        return divmod(x, y)

    def size(self, x):
        return abs(x)

    def canon_unit(self, x):
        """Unit u with u*x in canonical form (nonnegative)."""
        return -1 if x < 0 else 1

    def format(self, x):
        return x


class FieldPolyRing:
    """k[a] for k = Q (char 0) or F2; elements are coefficient tuples."""

    def __init__(self, char: int):
        if char not in (0, 2):
            raise ValueError("supported characteristics: 0, 2")
        self.char = char
        self.name = "Q[a]" if char == 0 else "F2[a]"
        self.zero = ()
        self.one = (self._s(1),)

    def _s(self, c):
        return c % 2 if self.char == 2 else Fraction(c)

    def coerce(self, x):
        if isinstance(x, Poly):
            return _trim(tuple(map(self._s, x.coeffs)))
        return _trim((self._s(int(x)),))

    def is_zero(self, x):
        return not x

    def is_unit(self, x):
        return len(x) == 1

    def add(self, x, y):
        out = _add(x, y)
        return self._reduce(out) if self.char else out

    def neg(self, x):
        if self.char:
            return x
        return tuple(-c for c in x)

    def mul(self, x, y):
        if not x or not y:
            return ()
        return self._reduce(_dense_mul(x, y, zero=self._s(0)))

    def _reduce(self, coeffs):
        """Canonical form of a coefficient list: reduced mod the
        characteristic, with no trailing zeros."""
        if self.char:
            coeffs = [c % self.char for c in coeffs]
        return _trim(coeffs)

    def divmod_pair(self, x, y):
        if not y:
            raise ZeroDivisionError
        lead_inv = self._inv(y[-1])
        quo, rem = _dense_divmod(x, y, lambda c: self._s(c * lead_inv))
        return self._reduce(quo), self._reduce(rem)

    def _inv(self, c):
        if self.char:
            return c          # only 1 is invertible in F2
        return 1 / c

    def size(self, x):
        return len(x)

    def canon_unit(self, x):
        """Unit u with u*x monic."""
        return (self._inv(x[-1]),) if x else self.one

    def format(self, x):
        if not x:
            return "0"
        parts = []
        for k in range(len(x) - 1, -1, -1):
            c = x[k]
            if not c:
                continue
            if k == 0:
                body = str(c)
            else:
                var = "a" if k == 1 else "a^%d" % k
                body = var if c == 1 else "%s %s" % (c, var)
            parts.append(body)
        return " + ".join(parts)


ZZ = IntRing()
QA = FieldPolyRing(0)
F2A = FieldPolyRing(2)


def ring_by_name(name: str):
    try:
        return {"z": ZZ, "q": QA, "f2": F2A}[name.lower()]
    except KeyError:
        raise ValueError("unknown coefficient ring %r (want z, q, or f2)"
                         % name)


def mat_mul(ring, a: Matrix, b: Matrix) -> Matrix:
    """a @ b in row order: each nonzero a[i][t] adds a[i][t] * (row t of b)
    into row i, over the nonzero entries of that row only, which are
    collected when a nonzero of a first reaches row t; a row of b that no
    nonzero of a reaches is never read.  Every entry type (int,
    coefficient tuple, Poly) is falsy exactly at zero.  This is the
    generic product under `homology_triple`."""
    if a.n != b.m:
        raise ValueError("inner dimensions differ: %d vs %d" % (a.n, b.m))
    add, mul = ring.add, ring.mul
    b_rows = [None] * b.m
    rows = []
    for arow in a.rows:
        acc = [ring.zero] * b.n
        for t, x in enumerate(arow):
            if x:
                brow = b_rows[t]
                if brow is None:
                    brow = b_rows[t] = [(j, y) for j, y in enumerate(b.rows[t])
                                        if y]
                for j, y in brow:
                    acc[j] = add(acc[j], mul(x, y))
        rows.append(acc)
    return Matrix(a.m, b.n, rows)


_UNITS = ((1,), (-1,))


def unit_pivot_elimination(mat: Matrix):
    """Sparse elimination of a matrix of Poly entries over Z[a], on
    constant +-1 pivots only; returns (rank, rest).

    Rows are dicts of their nonzero entries.  Each step takes the +-1
    entry of least Markowitz cost (row count - 1) * (column count - 1)
    and clears its column from the other live rows.  rest is what is left
    on the nonzero rows and the pivot-free columns: over Z[a], and so after
    any base change, mat is unimodularly equivalent to diag(1, ..., 1)
    (+) rest (+) 0 with rank ones.
    """
    rows = [{j: x for j, x in enumerate(row) if x.coeffs}
            for row in mat.rows]
    cols = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    live = {i for i, row in enumerate(rows) if row}
    pivots = set()
    while live:
        best = None
        for i in live:
            row = rows[i]
            for j, x in row.items():
                if x.coeffs in _UNITS:
                    cost = (len(row) - 1) * (len(cols[j]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
            if best is not None and not best[0]:
                break
        if best is None:
            break
        _, i, j = best
        live.discard(i)
        pivots.add(j)
        prow = rows[i]
        p = prow.pop(j).coeffs[0]
        for c in prow:
            cols[c].discard(i)
        cols[j].discard(i)
        for k in cols.pop(j):
            # row k += f * row i with f = -x / p = -x * p, x its entry
            krow = rows[k]
            f = krow.pop(j) * -p
            for c, y in prow.items():
                v = krow.get(c)
                w = f * y if v is None else v + f * y
                if w.coeffs:
                    krow[c] = w
                    if v is None:
                        cols[c].add(k)
                elif v is not None:
                    del krow[c]
                    cols[c].discard(k)
            if not krow:
                live.discard(k)
    free = [j for j in range(mat.n) if j not in pivots]
    return len(pivots), Matrix(len(live), len(free),
                        [[rows[i].get(j, ZERO) for j in free]
                         for i in sorted(live)])


def smith_normal_form(ring, mat: Matrix):
    """The nonzero invariant factors of mat, as a divisibility chain in
    canonical form (nonnegative over Z, monic over the polynomial rings).

    Row and column operations diagonalize a copy of mat; no transform is
    formed.  Step t leaves row and column t zero off the diagonal, and no
    later step reads them, so only the diagonal entry is made canonical.
    """
    m, n = mat.m, mat.n
    S = [row[:] for row in mat.rows]
    is_zero, out = ring.is_zero, []

    def col_swap(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]

    def row_addmul(i, j, c):
        S[i] = [ring.add(x, ring.mul(c, y)) for x, y in zip(S[i], S[j])]

    for t in range(min(m, n)):
        best = min(((ring.size(S[i][j]), i, j) for i in range(t, m)
                    for j in range(t, n) if not is_zero(S[i][j])),
                   default=None)
        if best is None:
            break
        _, bi, bj = best
        S[t], S[bi] = S[bi], S[t]
        col_swap(t, bj)
        # clear column t, then row t, starting over whenever a remainder
        # becomes the smaller pivot; then make the pivot divide the rest
        while True:
            for i in range(t + 1, m):
                if is_zero(S[i][t]):
                    continue
                q, r = ring.divmod_pair(S[i][t], S[t][t])
                if not is_zero(q):
                    row_addmul(i, t, ring.neg(q))
                if not is_zero(r):
                    S[t], S[i] = S[i], S[t]
                    break
            else:
                for j in range(t + 1, n):
                    if is_zero(S[t][j]):
                        continue
                    q, r = ring.divmod_pair(S[t][j], S[t][t])
                    if not is_zero(q):
                        c = ring.neg(q)
                        for row in S:
                            if not is_zero(row[t]):
                                row[j] = ring.add(row[j], ring.mul(c, row[t]))
                    if not is_zero(r):
                        col_swap(t, j)
                        break
                else:
                    if ring.is_unit(S[t][t]):
                        break       # a unit divides every entry
                    offender = next((i for i in range(t + 1, m)
                                     for j in range(t + 1, n)
                                     if not is_zero(ring.divmod_pair(
                                         S[i][j], S[t][t])[1])), None)
                    if offender is None:
                        break
                    row_addmul(t, offender, ring.one)
        x = S[t][t]
        out.append(ring.mul(ring.canon_unit(x), x))
    return out


def homology_triple(ring, d1: Matrix, d2: Matrix):
    """(h0, h1, h2) of 0 -> P2 --d2--> P1 --d1--> P0 -> 0, each as
    (free_rank, nontrivial_divisors).

    d1 d2 must vanish.  The invariant factors of d1 and d2 give all
    three: h0 = coker d1 has those of d1; im d1 lies in the free P0, so it
    is free and coker d2 = h1 (+) im d1, which gives h1 the divisors of d2
    and free rank d1.n - r1 - r2 (r the ranks); h2 = ker d2 is free over a
    PID.  Divisors come back in canonical form with units dropped,
    so a zero module reads (0, []).
    """
    if d1.n != d2.m:
        raise ValueError("position dimensions differ: %d vs %d"
                         % (d1.n, d2.m))
    if any(any(row) for row in mat_mul(ring, d1, d2).rows):
        raise ValueError("maps do not compose to zero")
    divs1 = smith_normal_form(ring, d1)
    divs2 = smith_normal_form(ring, d2)
    r1, r2 = len(divs1), len(divs2)
    return ((d1.m - r1, [d for d in divs1 if not ring.is_unit(d)]),
            (d1.n - r1 - r2, [d for d in divs2 if not ring.is_unit(d)]),
            (d2.n - r2, []))


def homology(ring, d_out: Matrix, d_in: Matrix):
    """ker(d_out)/im(d_in) as (free_rank, nontrivial_divisors).

    d_out maps the position under study outward; d_in maps into it; the
    composite must vanish.  This is the middle of `homology_triple`.
    """
    return homology_triple(ring, d_out, d_in)[1]
