"""Exact matrix algebra over Z, Q[a], and F2[a].

Smith normal form over a Euclidean domain, kernel bases from its column
transform, and the homology of a pair of composable maps from invariant
factors alone.  Matrices carry explicit shape so zero-dimensional edge
cases stay unambiguous.

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
           "smith_normal_form", "diagonal_invariants", "kernel_basis",
           "homology", "homology_triple"]


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

    @classmethod
    def zero(cls, m: int, n: int, ring) -> "Matrix":
        return cls(m, n, [[ring.zero] * n for _ in range(m)])

    @classmethod
    def identity(cls, n: int, ring) -> "Matrix":
        return cls(n, n, [[ring.one if i == j else ring.zero
                           for j in range(n)] for i in range(n)])

    def column(self, j: int):
        return [self.rows[i][j] for i in range(self.m)]

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

    def is_one(self, x):
        return x == 1

    def is_unit(self, x):
        return x in (1, -1)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

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

    def is_one(self, x):
        return x == self.one

    def is_unit(self, x):
        return len(x) == 1

    def add(self, x, y):
        out = _add(x, y)
        return self._reduce(out) if self.char else out

    def neg(self, x):
        if self.char:
            return x
        return tuple(-c for c in x)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

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
    into row i, over the nonzero entries of that row only.  Every entry
    type (int, coefficient tuple, Poly) is falsy exactly at zero."""
    if a.n != b.m:
        raise ValueError("inner dimensions differ: %d vs %d" % (a.n, b.m))
    add, mul = ring.add, ring.mul
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b.rows]
    rows = []
    for arow in a.rows:
        acc = [ring.zero] * b.n
        for x, brow in zip(arow, b_rows):
            if x:
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


def smith_normal_form(ring, mat: Matrix, track: bool = False):
    """Diagonalize U @ mat @ V with unimodular U, V; returns (S, V).

    Only V is tracked, and only when track is set (V is None otherwise):
    kernels need V, and invariant factors need no transforms at all.
    Diagonal entries form a divisibility chain in canonical form
    (nonnegative over Z, monic over the polynomial rings).
    """
    m, n = mat.m, mat.n
    S = [row[:] for row in mat.rows]
    V = [[ring.one if i == j else ring.zero for j in range(n)]
         for i in range(n)] if track else None

    def col_addmul(j, i, c):
        for r in range(m):
            if not ring.is_zero(S[r][i]):
                S[r][j] = ring.add(S[r][j], ring.mul(c, S[r][i]))
        if track:
            for r in range(n):
                if not ring.is_zero(V[r][i]):
                    V[r][j] = ring.add(V[r][j], ring.mul(c, V[r][i]))

    def col_swap(i, j):
        for r in range(m):
            S[r][i], S[r][j] = S[r][j], S[r][i]
        if track:
            for r in range(n):
                V[r][i], V[r][j] = V[r][j], V[r][i]

    def row_addmul(i, j, c):
        S[i] = [ring.add(S[i][t], ring.mul(c, S[j][t])) for t in range(n)]

    t = 0
    limit = min(m, n)
    while t < limit:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = S[i][j]
                if not ring.is_zero(x):
                    sz = ring.size(x)
                    if best is None or sz < best[0]:
                        best = (sz, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            S[t], S[bi] = S[bi], S[t]
        if bj != t:
            col_swap(t, bj)
        while True:
            restart = False
            for i in range(t + 1, m):
                if ring.is_zero(S[i][t]):
                    continue
                q, r = ring.divmod_pair(S[i][t], S[t][t])
                if not ring.is_zero(q):
                    row_addmul(i, t, ring.neg(q))
                if not ring.is_zero(r):
                    S[t], S[i] = S[i], S[t]
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, n):
                if ring.is_zero(S[t][j]):
                    continue
                q, r = ring.divmod_pair(S[t][j], S[t][t])
                if not ring.is_zero(q):
                    col_addmul(j, t, ring.neg(q))
                if not ring.is_zero(r):
                    col_swap(t, j)
                    restart = True
                    break
            if restart:
                continue
            if ring.is_unit(S[t][t]):
                break       # a unit divides every entry: no offender
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    _, r = ring.divmod_pair(S[i][j], S[t][t])
                    if not ring.is_zero(r):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_addmul(t, offender, ring.one)
        u = ring.canon_unit(S[t][t])
        if not ring.is_one(u):
            S[t] = [ring.mul(u, x) for x in S[t]]
        t += 1
    return Matrix(m, n, S), Matrix(n, n, V) if track else None


def diagonal_invariants(ring, snf: Matrix):
    out = []
    for i in range(min(snf.m, snf.n)):
        x = snf.rows[i][i]
        if ring.is_zero(x):
            break
        out.append(x)
    return out


def kernel_basis(ring, mat: Matrix):
    """Columns of a basis of ker(mat) as lists of ring elements."""
    snf, v = smith_normal_form(ring, mat, track=True)
    r = len(diagonal_invariants(ring, snf))
    return [v.column(j) for j in range(r, mat.n)]


def homology_triple(ring, d1: Matrix, d2: Matrix):
    """(h0, h1, h2) of 0 -> P2 --d2--> P1 --d1--> P0 -> 0, each as
    (free_rank, nontrivial_divisors).

    d1 d2 must vanish.  The untracked Smith forms of d1 and d2 give all
    three: h0 = coker d1 is on d1's diagonal; im d1 lies in the free P0,
    so it is free and coker d2 = h1 (+) im d1, which gives h1 the divisors
    of d2 and free rank d1.n - r1 - r2 (r the ranks); h2 = ker d2 is free
    over a PID.  Divisors come back in canonical form with units dropped,
    so a zero module reads (0, []).
    """
    if d1.n != d2.m:
        raise ValueError("position dimensions differ: %d vs %d"
                         % (d1.n, d2.m))
    if any(any(row) for row in mat_mul(ring, d1, d2).rows):
        raise ValueError("maps do not compose to zero")
    divs1 = diagonal_invariants(ring, smith_normal_form(ring, d1)[0])
    divs2 = diagonal_invariants(ring, smith_normal_form(ring, d2)[0])
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
