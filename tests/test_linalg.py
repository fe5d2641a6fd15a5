"""Tests for exact invariant factors, and homology from them.

Random matrices are cross-checked against sympy's invariant factors over
each supported coefficient ring.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import GF, QQ, Matrix as SMatrix
from sympy.matrices.normalforms import invariant_factors, smith_normal_decomp

from powerops.poly import Poly, A
from powerops.linalg import (Matrix, ZZ, QA, F2A, ring_by_name, mat_mul,
                             smith_normal_form, homology, homology_triple,
                             unit_pivot_elimination)

_a = sympy.symbols("a")


def rand_int_matrix(rng, m, n, lo=-6, hi=6):
    return Matrix(m, n, [[rng.randint(lo, hi) for _ in range(n)]
                         for _ in range(m)])


def rand_poly_matrix(rng, ring, m, n, deg=2, lo=-3, hi=3):
    rows = []
    for _ in range(m):
        rows.append([ring.coerce(Poly([rng.randint(lo, hi)
                                       for _ in range(rng.randint(0, deg + 1))]))
                     for _ in range(n)])
    return Matrix(m, n, rows)


def to_sympy(ring, mat):
    def conv(x):
        if ring is ZZ:
            return sympy.Integer(x)
        expr = sympy.Integer(0)
        for k, c in enumerate(x):
            expr += (sympy.Integer(int(c)) if ring is F2A
                     else sympy.Rational(c)) * _a ** k
        return expr
    return SMatrix(mat.m, mat.n,
                   [conv(mat.rows[i][j]) for i in range(mat.m)
                    for j in range(mat.n)])


def sympy_invariants(ring, mat):
    """Nonzero invariant factors, in the engine's canonical form."""
    sm = to_sympy(ring, mat)
    if ring is ZZ:
        out = [abs(int(d)) for d in invariant_factors(sm, domain=sympy.ZZ)]
        return [d for d in out if d]
    dom = QQ[_a] if ring is QA else GF(2)[_a]
    out = []
    for d in invariant_factors(sm, domain=dom):
        d = sympy.expand(d)
        if d == 0:
            continue
        p = sympy.Poly(d, _a)
        p = p.monic() if ring is QA else p
        coeffs = [int(c) % 2 if ring is F2A else Fraction(c.p, c.q)
                  for c in p.all_coeffs()[::-1]]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        out.append(tuple(coeffs))
    return out


class TestSmithForm:
    def test_integer_matrices_match_sympy(self):
        rng = random.Random(7)
        for _ in range(25):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            mat = rand_int_matrix(rng, m, n)
            assert smith_normal_form(ZZ, mat) == sympy_invariants(ZZ, mat)

    def test_rational_poly_matrices_match_sympy(self):
        rng = random.Random(8)
        for _ in range(12):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            mat = rand_poly_matrix(rng, QA, m, n)
            assert smith_normal_form(QA, mat) == sympy_invariants(QA, mat)

    def test_f2_poly_matrices_match_sympy(self):
        rng = random.Random(9)
        for _ in range(12):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            mat = rand_poly_matrix(rng, F2A, m, n)
            assert smith_normal_form(F2A, mat) == sympy_invariants(F2A, mat)

    def test_divisibility_chain(self):
        rng = random.Random(10)
        for ring in (ZZ, QA, F2A):
            for _ in range(10):
                mat = (rand_int_matrix(rng, 4, 4, -8, 8) if ring is ZZ
                       else rand_poly_matrix(rng, ring, 3, 3))
                divs = smith_normal_form(ring, mat)
                for x, y in zip(divs, divs[1:]):
                    _, rem = ring.divmod_pair(y, x)
                    assert ring.is_zero(rem)

    def test_canonical_pivots(self):
        assert smith_normal_form(ZZ, Matrix(2, 2, [[-3, 0], [0, -5]])) == \
            [1, 15]
        mat = Matrix(1, 1, [[QA.coerce(2 * A + 4)]])
        assert smith_normal_form(QA, mat) == [(Fraction(2), Fraction(1))]


def naive_product(ring, a, b):
    """Entry (i, j) is the sum over t of a[i][t] b[t][j], in that order."""
    rows = []
    for i in range(a.m):
        row = []
        for j in range(b.n):
            acc = ring.zero
            for t in range(a.n):
                acc = ring.add(acc, ring.mul(a.rows[i][t], b.rows[t][j]))
            row.append(acc)
        rows.append(row)
    return rows


def sparse_matrix(rng, m, n, entry):
    """About half the entries zero, the rest drawn by entry(rng)."""
    return Matrix(m, n, [[entry(rng) if rng.random() < 0.5 else entry.zero
                          for _ in range(n)] for _ in range(m)])


def _int_entry(rng):
    return rng.choice([-3, -2, -1, 1, 2, 5])


def _poly_entry(rng):
    return Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])


_int_entry.zero = 0
_poly_entry.zero = Poly(0)


def _ring_entry(ring):
    def entry(rng):
        return ring.coerce(_poly_entry(rng))
    entry.zero = ring.zero
    return entry


_PRODUCT_CASES = [(ZZ, _int_entry), (ZZ, _poly_entry),
                  (QA, _ring_entry(QA)), (F2A, _ring_entry(F2A))]


class TestMatMul:
    @pytest.mark.parametrize("ring, entry", _PRODUCT_CASES,
                             ids=["ZZ-int", "ZZ-poly", "QA", "F2A"])
    def test_matches_naive_sum(self, ring, entry):
        rng = random.Random(31)
        for _ in range(20):
            m, n, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
            a = sparse_matrix(rng, m, n, entry)
            b = sparse_matrix(rng, n, k, entry)
            # a zero row of a and a zero column of b
            a.rows[rng.randrange(m)] = [entry.zero] * n
            zero_col = rng.randrange(k)
            for row in b.rows:
                row[zero_col] = entry.zero
            prod = mat_mul(ring, a, b)
            assert (prod.m, prod.n) == (m, k)
            assert prod.rows == naive_product(ring, a, b)
            assert all(ring.is_zero(row[zero_col]) for row in prod.rows)

    @pytest.mark.parametrize("ring, entry", _PRODUCT_CASES,
                             ids=["ZZ-int", "ZZ-poly", "QA", "F2A"])
    def test_empty_shapes(self, ring, entry):
        rng = random.Random(32)
        for m, n, k in ((0, 3, 2), (2, 3, 0), (3, 0, 2), (0, 0, 0),
                        (0, 2, 0), (2, 0, 0)):
            a = sparse_matrix(rng, m, n, entry)
            b = sparse_matrix(rng, n, k, entry)
            prod = mat_mul(ring, a, b)
            assert (prod.m, prod.n) == (m, k)
            assert prod.rows == naive_product(ring, a, b)
            assert all(ring.is_zero(x) for row in prod.rows for x in row)

    def test_unreached_rows_of_b_are_not_read(self):
        class Unread:
            def __bool__(self):
                raise AssertionError("mat_mul read a row no entry reaches")
        a = Matrix(2, 3, [[1, 0, 2], [0, 0, -3]])
        b = Matrix(3, 2, [[1, 2], [Unread(), Unread()], [4, 0]])
        assert mat_mul(ZZ, a, b).rows == [[9, 2], [-12, 0]]

    def test_inner_dimensions_checked(self):
        with pytest.raises(ValueError):
            mat_mul(ZZ, Matrix(1, 2, [[1, 2]]), Matrix(1, 1, [[1]]))


_RINGS = [ZZ, QA, F2A]


def _empty(m, n):
    return Matrix(m, n, [[] for _ in range(m)])


class TestEmptyShapes:
    @pytest.mark.parametrize("ring", _RINGS, ids=["ZZ", "QA", "F2A"])
    def test_homology(self, ring):
        c = ring.coerce
        assert homology(ring, _empty(0, 0), _empty(0, 0)) == (0, [])
        assert homology(ring, _empty(0, 0), _empty(0, 4)) == (0, [])
        assert homology(ring, _empty(2, 0), _empty(0, 3)) == (0, [])
        assert homology(ring, _empty(0, 3), _empty(3, 0)) == (3, [])
        # nothing maps out: ker is everything, the cokernel of d_in is left
        d_in = Matrix(2, 1, [[c(Poly(2))], [c(Poly(0))]])
        assert homology(ring, _empty(0, 2), d_in) == \
            {ZZ: (1, [2]), QA: (1, []), F2A: (2, [])}[ring]
        if ring is not ZZ:
            d_in = Matrix(2, 1, [[c(A + 1)], [c(Poly(0))]])
            assert homology(ring, _empty(0, 2), d_in) == (1, [c(A + 1)])
        # nothing maps in: the kernel of d_out is free
        d_out = Matrix(1, 3, [[c(Poly(0)), c(Poly(1)), c(Poly(0))]])
        assert homology(ring, d_out, _empty(3, 0)) == (2, [])
        zero = Matrix(2, 3, [[ring.zero] * 3 for _ in range(2)])
        assert homology(ring, zero, _empty(3, 0)) == (3, [])


class TestHomology:
    def test_two_torsion_example(self):
        d_out = Matrix(1, 3, [[0, -1, 0]])
        d_in = Matrix(3, 2, [[0, 1], [0, 0], [2, 0]])
        assert homology(ZZ, d_out, d_in) == (0, [2])

    def test_exact_pair(self):
        d_out = Matrix(1, 3, [[1, 0, 0]])
        d_in = Matrix(3, 2, [[0, 0], [1, 0], [0, 1]])
        assert homology(ZZ, d_out, d_in) == (0, [])

    def test_free_quotient(self):
        d_out = Matrix(1, 3, [[0, 0, 1]])
        d_in = Matrix(3, 1, [[1], [0], [0]])
        assert homology(ZZ, d_out, d_in) == (1, [])

    def test_mixed_free_and_torsion(self):
        d_out = Matrix(1, 3, [[0, 0, 1]])
        d_in = Matrix(3, 1, [[2], [0], [0]])
        assert homology(ZZ, d_out, d_in) == (1, [2])

    def test_nonzero_composite_rejected(self):
        d_out = Matrix(1, 2, [[1, 0]])
        d_in = Matrix(2, 1, [[1], [0]])
        with pytest.raises(ValueError):
            homology(ZZ, d_out, d_in)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            homology(ZZ, Matrix(1, 3, [[0, 0, 1]]), Matrix(2, 1, [[1], [1]]))

    def test_empty_edges(self):
        assert homology(ZZ, Matrix(2, 0, [[], []]),
                        Matrix(0, 0, [])) == (0, [])
        assert homology(ZZ, Matrix(0, 2, []),
                        Matrix(2, 0, [[], []])) == (2, [])

    def test_f2_slice(self):
        d_out = Matrix(1, 3, [[F2A.coerce(0), F2A.coerce(1), F2A.coerce(0)]])
        d_in = Matrix(3, 2, [[F2A.coerce(0), F2A.coerce(1)],
                             [F2A.coerce(0), F2A.coerce(0)],
                             [F2A.coerce(2), F2A.coerce(0)]])
        assert homology(F2A, d_out, d_in) == (1, [])


class TestHomologyTriple:
    @pytest.mark.parametrize("ring", _RINGS, ids=["ZZ", "QA", "F2A"])
    def test_matches_three_homology_calls(self, ring):
        # h0 and h2 read off the two Smith forms of the triple must equal
        # homology with nothing mapping in, and with nothing mapping out
        rng = random.Random(41)
        for _ in range(12):
            n0, n1, n2 = (rng.randint(0, 4) for _ in range(3))
            k = rng.randint(0, n1)
            # d1 = a c, d2 = b e with c b = 0 through a k-dim middle block
            a = sparse_matrix(rng, n0, k, _poly_entry)
            b = sparse_matrix(rng, n1 - k, n2, _poly_entry)
            d1 = Matrix(n0, n1, [row + [Poly(0)] * (n1 - k) for row in a.rows])
            d2 = Matrix(n1, n2, [[Poly(0)] * n2 for _ in range(k)] + b.rows)
            if ring is ZZ:
                d1, d2 = (Matrix(m.m, m.n, [[rng.randint(-3, 3) * bool(x)
                                             for x in row] for row in m.rows])
                          for m in (d1, d2))
            else:
                d1, d2 = (Matrix(m.m, m.n, [[ring.coerce(x) for x in row]
                                            for row in m.rows])
                          for m in (d1, d2))
            assert homology_triple(ring, d1, d2) == (
                homology(ring, _empty(0, n0), d1), homology(ring, d1, d2),
                homology(ring, d2, _empty(n2, 0)))

    def test_matches_transform_method(self):
        # the package reads h1 from the invariant factors of d2 alone; the
        # oracle moves d2 into ker d1 through sympy's column transform
        rng = random.Random(42)
        torsion = 0
        for _ in range(60):
            d1, d2 = _composable_int_pair(rng)
            expect = transform_homology(d1, d2)
            d1, d2 = (Matrix(d.rows, d.cols, [[int(x) for x in row]
                                               for row in d.tolist()])
                      for d in (d1, d2))
            assert homology_triple(ZZ, d1, d2) == expect
            torsion += bool(expect[1][1])
        assert torsion >= 10


def _unimodular(rng, n):
    """A random n x n integer matrix of determinant +-1: elementary row
    operations applied to the identity."""
    u = SMatrix.eye(n)
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        u[i, :] += rng.choice([-2, -1, 1, 2]) * u[j, :]
        if rng.random() < 0.3:
            u[i, :] = -u[i, :]
    return u


def _composable_int_pair(rng):
    """sympy d1 (n0 x n1) and d2 (n1 x n2) with d1 d2 = 0: d1 = a [c | 0] w
    and d2 = w^-1 [0 ; b] e for unimodular a, w, e, with the rows of b
    scaled by 1, 2 or 3 so that h1 usually has torsion."""
    n0, n2 = rng.randint(0, 4), rng.randint(0, 4)
    r, k = rng.randint(0, 3), rng.randint(0, 4)
    scale = [0] * r + [rng.choice([1, 2, 3]) for _ in range(k)]
    c = SMatrix(n0, r + k, lambda i, j: rng.randint(-3, 3) if j < r else 0)
    b = SMatrix(r + k, n2, lambda i, j: scale[i] * rng.randint(-2, 2))
    w = _unimodular(rng, r + k)
    return (_unimodular(rng, n0) * c * w,
            w.inv() * b * _unimodular(rng, n2))


def _sympy_divisors(mat):
    """Nonzero invariant factors of a sympy integer matrix, nonnegative."""
    if not (mat.rows and mat.cols):
        return []
    return [abs(int(d)) for d in invariant_factors(mat, domain=sympy.ZZ)
            if d]


def transform_homology(d1, d2):
    """(h0, h1, h2) by the transform method, all in sympy: ker d1 is spanned
    by the columns of V past rank d1, where U d1 V is d1's Smith form, so
    h1 is the cokernel of the rows of V^-1 d2 past rank d1."""
    divs1 = _sympy_divisors(d1)
    r1 = len(divs1)
    v = (smith_normal_decomp(d1, domain=sympy.ZZ)[2] if d1.rows and d1.cols
         else SMatrix.eye(d1.cols))
    w = v.inv() * d2
    assert w[:r1, :].is_zero_matrix
    divs2 = _sympy_divisors(w[r1:, :])
    r2 = len(divs2)
    return ((d1.rows - r1, [d for d in divs1 if d != 1]),
            (d1.cols - r1 - r2, [d for d in divs2 if d != 1]),
            (d2.cols - r2, []))


def _poly(*coeffs):
    return Poly(list(coeffs))


_ZA_ENTRIES = st.one_of(st.just(Poly(0)), st.just(Poly(0)),
                        st.sampled_from([Poly(1), Poly(-1)]),
                        st.lists(st.integers(-2, 2), max_size=3).map(Poly))


@st.composite
def za_matrices(draw):
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return Matrix(m, n, [[draw(_ZA_ENTRIES) for _ in range(n)]
                         for _ in range(m)])


class TestUnitPivotElimination:
    def test_small_cases(self):
        z, one, two = _poly(0), _poly(1), _poly(2)
        assert unit_pivot_elimination(_empty(0, 3)) == (0, _empty(0, 3))
        assert unit_pivot_elimination(
            Matrix(2, 3, [[z] * 3 for _ in range(2)])) == (0, _empty(0, 3))
        assert unit_pivot_elimination(Matrix(1, 1, [[two]])) == \
            (0, Matrix(1, 1, [[two]]))
        assert unit_pivot_elimination(Matrix(1, 1, [[A]])) == \
            (0, Matrix(1, 1, [[A]]))
        # the second row is a times the first, and clears
        assert unit_pivot_elimination(Matrix(2, 2, [
            [one, A], [A, A * A]])) == (1, _empty(0, 1))
        assert unit_pivot_elimination(Matrix(2, 2, [
            [_poly(-1), A], [A, one - A * A]])) == (2, _empty(0, 0))
        # the Tor complex of omega: d1bar clears, d2bar keeps the 2
        assert unit_pivot_elimination(Matrix(1, 3, [
            [z, _poly(-1), z]])) == (1, _empty(0, 2))
        assert unit_pivot_elimination(Matrix(3, 2, [
            [z, one], [z, z], [two, z]])) == (1, Matrix(1, 1, [[two]]))
        # the pivot on a leaves 2 - a^2 behind, with the zero column kept
        assert unit_pivot_elimination(Matrix(2, 3, [
            [one, A, z], [A, two, z]])) == \
            (1, Matrix(1, 2, [[two - A * A, z]]))

    def test_input_unchanged(self):
        mat = Matrix(2, 2, [[_poly(1), A], [A, _poly(3)]])
        before = [row[:] for row in mat.rows]
        unit_pivot_elimination(mat)
        assert mat.rows == before

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(za_matrices())
    def test_agrees_with_smith_forms(self, mat):
        # the pivots are units over every ring, so rank ones followed by
        # the invariant factors of the remainder are the invariant factors
        # of the whole matrix, over Q[a] and F2[a], and over Z when every
        # entry is constant
        rank, rest = unit_pivot_elimination(mat)
        assert rest.n == mat.n - rank and rest.m <= mat.m - rank
        rings = [QA, F2A]
        if all(x.degree() <= 0 for row in mat.rows for x in row):
            rings.append(ZZ)
        for ring in rings:
            def invariants(m):
                coerced = Matrix(m.m, m.n, [[ring.coerce(x) for x in row]
                                            for row in m.rows])
                return smith_normal_form(ring, coerced)
            assert [ring.one] * rank + invariants(rest) == invariants(mat)


class TestRingStrategies:
    def test_ring_by_name(self):
        assert ring_by_name("z") is ZZ
        assert ring_by_name("Q") is QA
        assert ring_by_name("f2") is F2A
        with pytest.raises(ValueError):
            ring_by_name("gf3")

    def test_int_ring_rejects_nonconstant(self):
        with pytest.raises(ValueError):
            ZZ.coerce(A + 1)
        assert ZZ.coerce(Poly(-7)) == -7

    def test_f2_reduction(self):
        assert F2A.coerce(Poly([2, 3, 4])) == (0, 1)
        assert F2A.add((1,), (1,)) == ()

    def test_poly_divmod(self):
        x = QA.coerce(Poly([1, 0, 1]))
        y = QA.coerce(Poly([1, 1]))
        q, r = QA.divmod_pair(x, y)
        assert QA.add(QA.mul(q, y), r) == x
        assert len(r) < len(y)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.sampled_from([QA, F2A]),
           st.lists(st.integers(-9, 9), max_size=5).map(Poly),
           st.lists(st.integers(-9, 9), max_size=5).map(Poly))
    def test_field_poly_arithmetic_is_poly_arithmetic(self, ring, x, y):
        cx, cy = ring.coerce(x), ring.coerce(y)
        assert ring.mul(cx, cy) == ring.coerce(x * y)
        assert ring.add(cx, cy) == ring.coerce(x + y)
        assert ring.add(cx, ring.neg(cy)) == ring.coerce(x - y)

    def test_format(self):
        assert ZZ.format(6) == 6
        assert QA.format(QA.coerce(A * A + 3)) == "a^2 + 3"
        assert F2A.format(F2A.coerce(Poly([1, 1]))) == "a + 1"
        assert QA.format(()) == "0"
