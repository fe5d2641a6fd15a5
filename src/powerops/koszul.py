"""Length-2 Koszul-type resolution of a module over the operation algebra.

The resolution has the shape

    0 -> Gamma (.) K2 (.) M  --d2-->  Gamma (.) K1 (.) M
                             --d1-->  Gamma (.) M  --d0-->  M -> 0

where (.) is tensor over R = Z[a], K1 is free on q0, q1, q2 (one per
generator, with the twisted right a-action q_i a given by the commutation
rules) and K2 is free on r1, r2 (one per straightening relation, central
right action).  The differentials are

    d0(g (.) m)        = g m
    d1(g (.) q_i (.) m) = g (.) Q_i m - g Q_i (.) m
    d2(g (.) r (.) m)   = sum_t g x_t (.) [y_t] (.) m + g (.) [x_t] (.) y_t m

with r corresponding to sum_t x_t y_t = 0 (the relation written with left
coefficients).  Truncating by word degree gives finite free complexes whose
blocks are matrices over Z[a]; homology is read off after base change to a
principal ideal domain (Q[a], F2[a], or Z when a block is constant).

Each column of d1 and d2 is listed as a sum of products of a monomial, a
coefficient and letters, which the straightening engine accumulates on its
packed Z[a] (`opalgebra._straighten_sums`) and unpacks once per nonzero
entry; the matrices themselves are dense `Matrix` objects of `Poly`.

Homology is certified over Z[a] itself where it can be: once d1 d2 = 0 is
checked exactly, a sparse elimination on constant +-1 pivots
(`linalg.unit_pivot_elimination`) that clears both maps proves every
position free of the rank it reads off, over every one of those rings at
once.  Every cap through degree 7 of R, omega, omega^2 and the two-sphere
clears this way.  Where a map does not clear (the Tor complex of omega
keeps a 2), the Smith forms over the chosen ring decide and give the
divisors.

Tensoring with Gamma/I kills every summand of positive Gamma-degree, so the
reduced complex 0 -> K2 (.) M -> K1 (.) M -> M -> 0 that computes
Tor(Gamma/I, M) is the Gamma-degree-0 corner of the same matrices: the
leading g x 3g block of d1 and 3g x 2g block of d2, g the rank of M.
"""

from __future__ import annotations

from .poly import ZERO, ONE, A
from .opalgebra import (Operation, RELATIONS, basis_of_degree, push_poly,
                        _straighten_sums)
from .opmodules import (ModulePresentation, omega_power, act,
                        check_well_defined)
from .linalg import (Matrix, ZZ, QA, F2A, ring_by_name, smith_normal_form,
                     diagonal_invariants, kernel_basis, homology_triple,
                     mat_mul, unit_pivot_elimination)

__all__ = ["RELATIONS", "k1_right_a_matrix", "TruncatedComplex",
           "build_complex", "acyclicity_check", "tor_reduced",
           "tor_gamma_mod_I", "identification_check",
           "truncation_stability_check"]


def k1_right_a_matrix():
    """Columns of the right a-action on K1: q_j * a in the left basis."""
    return [push_poly(j, A) for j in range(3)]


def _require_well_defined(module: ModulePresentation):
    rep = check_well_defined(module)
    if not rep["ok"]:
        first = rep["failures"][0]
        raise ValueError("module fails its defining relations "
                         "(basis %s, rule %s)" % (first["basis"], first["rule"]))


def _mono(key) -> Operation:
    return Operation({key: ONE})


def _columns(m: int, cols) -> Matrix:
    """The m-row matrix with the given columns."""
    return Matrix(m, len(cols), [[col[r] for col in cols] for r in range(m)])


def _matrix(index, cols) -> Matrix:
    """The matrix whose columns are given as {basis element: entry} dicts,
    rows numbered by `index`; every other entry is ZERO."""
    rows = [[ZERO] * len(cols) for _ in range(len(index))]
    for n, col in enumerate(cols):
        for b, e in col.items():
            rows[index[b]][n] = e
    return Matrix(len(index), len(cols), rows)


def _block(mat: Matrix, m: int, n: int) -> Matrix:
    """The leading m x n block of mat."""
    return Matrix(m, n, [row[:n] for row in mat.rows[:m]])


def _composes_to_zero(a: Matrix, b: Matrix) -> bool:
    """Whether a b = 0 exactly, for matrices over Z[a]."""
    return not any(any(row) for row in mat_mul(ZZ, a, b).rows)


class TruncatedComplex:
    """The resolution through word degree k_max, as matrices over Z[a].

    Bases are ordered degree-major, so the cap-j subcomplex (Gamma-degree
    at most j in position 0, j-1 in position 1, j-2 in position 2) is a
    leading principal block of the stored matrices.
    """

    def __init__(self, module: ModulePresentation, k_max: int):
        if k_max < 0:
            raise ValueError("k_max must be nonnegative")
        _require_well_defined(module)
        self.module = module
        self.k_max = k_max
        g = module.rank

        self.p0_basis = [(key, l) for deg in range(k_max + 1)
                         for key in basis_of_degree(deg) for l in range(g)]
        self.p1_basis = [(key, i, l) for deg in range(k_max)
                         for key in basis_of_degree(deg)
                         for i in range(3) for l in range(g)]
        self.p2_basis = [(key, s, l) for deg in range(k_max - 1)
                         for key in basis_of_degree(deg)
                         for s in range(2) for l in range(g)]
        self._p0_index = {b: n for n, b in enumerate(self.p0_basis)}
        self._p1_index = {b: n for n, b in enumerate(self.p1_basis)}

        self.d0 = self._build_d0()
        self.d1 = self._build_d1()
        self.d2 = self._build_d2()

    # -- sizes of the cap-j blocks ------------------------------------------

    def _count(self, max_deg: int, per: int) -> int:
        g = self.module.rank
        return sum((2 ** (d + 1) - 1) * per * g
                   for d in range(max(max_deg, -1) + 1))

    def p0_size(self, cap: int) -> int:
        return self._count(cap, 1)

    def p1_size(self, cap: int) -> int:
        return self._count(cap - 1, 3)

    def p2_size(self, cap: int) -> int:
        return self._count(cap - 2, 2)

    # -- assembly -----------------------------------------------------------

    def _build_d0(self) -> Matrix:
        return _columns(self.module.rank,
                        [act(self.module, _mono(key),
                             self.module.basis_vector(l))
                         for key, l in self.p0_basis])

    def _d1_column(self, key, i, l):
        """Column (key, i, l) of d1 as (mono, p, letters, tail) items:
        g (.) Q_i m - g Q_i (.) m."""
        items = [(key, -ONE, (i,), (l,))]
        for t, p in enumerate(self.module.column(i, l)):
            if p:
                items.append((key, p, (), (t,)))
        return items

    def _d2_column(self, key, s, l):
        """Column (key, s, l) of d2 as (mono, p, letters, tail) items, from
        relation s."""
        items = []
        for c_rel, i, j in RELATIONS[s]:
            items.append((key, c_rel, (i,), (j, l)))
            for t, p in enumerate(self.module.column(j, l)):
                if p:
                    for gi, c in enumerate(push_poly(i, p)):
                        if c:
                            items.append((key, c_rel * c, (), (gi, t)))
        return items

    def _build_d1(self) -> Matrix:
        return _matrix(self._p0_index, _straighten_sums(
            [self._d1_column(*b) for b in self.p1_basis]))

    def _build_d2(self) -> Matrix:
        return _matrix(self._p1_index, _straighten_sums(
            [self._d2_column(*b) for b in self.p2_basis]))

    # -- access -------------------------------------------------------------

    def caps(self, cap: int):
        """(d0, d1, d2) restricted to the degree-cap subcomplex."""
        if cap > self.k_max:
            raise ValueError("cap %d exceeds stored k_max %d"
                             % (cap, self.k_max))
        n0, n1, n2 = self.p0_size(cap), self.p1_size(cap), self.p2_size(cap)
        return (_block(self.d0, self.d0.m, n0), _block(self.d1, n0, n1),
                _block(self.d2, n1, n2))

    def d_squared_checks(self):
        """Exact d0 d1 = 0 and d1 d2 = 0 over Z[a] for the full matrices."""
        return (_composes_to_zero(self.d0, self.d1),
                _composes_to_zero(self.d1, self.d2))


def build_complex(module: ModulePresentation, k_max: int) -> TruncatedComplex:
    return TruncatedComplex(module, k_max)


def _coerced(ring, mat: Matrix) -> Matrix:
    return Matrix(mat.m, mat.n,
                  [[ring.coerce(e) for e in row] for row in mat.rows])


def _fmt_pair(ring, pair):
    free, divs = pair
    return {"free": free, "divisors": [ring.format(d) for d in divs]}


def _require_complex(d1: Matrix, d2: Matrix):
    """Raise unless d1 d2 = 0 exactly: such maps are a bug, not an input."""
    if not _composes_to_zero(d1, d2):
        raise ArithmeticError("the differentials do not compose to zero")


def _homology_triple(ring, d1: Matrix, d2: Matrix):
    """Homology (h0, h1, h2) of 0 -> P2 --d2--> P1 --d1--> P0 -> 0 after
    base change of the Z[a] matrices d1 and d2 to ring.  The caller has
    checked that d1 d2 = 0 (`_require_complex`).

    When both maps clear by unit-pivot elimination over Z[a], each is
    unimodularly equivalent to diag(1, ..., 1, 0), so im d2 is a direct
    summand of P1 lying in ker d1, and all three modules are free of the
    ranks the elimination reads off, over every ring.  Otherwise the
    Smith forms over ring decide.
    """
    r1, done1 = unit_pivot_elimination(d1)
    r2, done2 = unit_pivot_elimination(d2)
    if done1 and done2:
        return ((d1.m - r1, []), (d1.n - r1 - r2, []), (d2.n - r2, []))
    return homology_triple(ring, _coerced(ring, d1), _coerced(ring, d2))


def acyclicity_check(module: ModulePresentation, k_max: int,
                     field: str = "q") -> dict:
    """Homology of every cap-j subcomplex after base change to field[a].

    Positions 1 and 2 must vanish and position 0 must be free of the
    module's rank (the cokernel of d1 recovers the module itself); the
    report carries each cap so failures are attributable.
    """
    ring = ring_by_name(field)
    cx = build_complex(module, k_max)
    # every cap is a leading block, so one check covers them all
    _require_complex(cx.d1, cx.d2)
    g = module.rank
    caps_report = {}
    ok = True
    for cap in range(1, k_max + 1):
        _, d1, d2 = cx.caps(cap)
        h0, h1, h2 = _homology_triple(ring, d1, d2)
        cap_ok = (h1 == (0, []) and h2 == (0, []) and h0 == (g, []))
        ok = ok and cap_ok
        caps_report[cap] = {"h0": _fmt_pair(ring, h0),
                            "h1": _fmt_pair(ring, h1),
                            "h2": _fmt_pair(ring, h2),
                            "ok": cap_ok}
    return {"module_rank": g, "field": ring.name, "k_max": k_max,
            "caps": caps_report, "ok": ok}


def truncation_stability_check(module: ModulePresentation, caps,
                               field: str = "q") -> dict:
    """Positions 1 and 2 must agree across the given degree caps."""
    ring = ring_by_name(field)
    cx = build_complex(module, max(caps))
    _require_complex(cx.d1, cx.d2)
    seen = []
    for cap in caps:
        _, d1, d2 = cx.caps(cap)
        seen.append(_homology_triple(ring, d1, d2)[1:])
    stable = all(s == seen[0] for s in seen)
    return {"caps": list(caps), "values": [
        {"h1": _fmt_pair(ring, h1), "h2": _fmt_pair(ring, h2)}
        for h1, h2 in seen], "ok": stable}


# --- the reduced (Tor) complex ---------------------------------------------

def reduced_matrices(module: ModulePresentation):
    """d1bar (g x 3g) and d2bar (3g x 2g) over Z[a].

    Tensoring the resolution with Gamma/I collapses the Gamma factor to R,
    killing every term whose left factor has positive word degree (in
    particular left coefficients a Q_j).  What survives is the
    Gamma-degree-0 corner of the resolution: the first g, 3g and 2g basis
    elements of positions 0, 1 and 2.
    """
    g = module.rank
    cx = build_complex(module, 2)
    return _block(cx.d1, g, 3 * g), _block(cx.d2, 3 * g, 2 * g)


def tor_reduced(module: ModulePresentation) -> dict:
    """Homology of 0 -> K2 (.) M -> K1 (.) M -> M -> 0 over each PID slice.

    Returns positions 0, 1, 2 over Q[a] and F2[a], and over Z whenever
    every matrix entry is constant (otherwise the Z slice is None).
    """
    d1, d2 = reduced_matrices(module)
    _require_complex(d1, d2)
    report = {"module_rank": module.rank,
              "d1": [[str(e) for e in row] for row in d1.rows],
              "d2": [[str(e) for e in row] for row in d2.rows], "Z": None}
    constant = all(e.degree() <= 0 for row in d1.rows + d2.rows for e in row)
    slices = (("Z", ZZ),) if constant else ()
    for label, ring in slices + (("Q", QA), ("F2", F2A)):
        report[label] = [_fmt_pair(ring, h)
                         for h in _homology_triple(ring, d1, d2)]
    return report


def tor_gamma_mod_I(k: int) -> dict:
    """Tor of the trivial quotient against the k-th tensor power of omega."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = tor_reduced(omega_power(k))
    out["k"] = k
    return out


# --- identification of K2 inside degree 2 -----------------------------------

def _rho_matrix() -> Matrix:
    """The relations as the columns of a 9 x 2 matrix on Q_i (x) Q_j."""
    cols = []
    for terms in RELATIONS:
        v = [ZERO] * 9
        for c, i, j in terms:
            v[3 * i + j] = v[3 * i + j] + c
        cols.append(v)
    return _columns(9, cols)


def identification_check() -> dict:
    """K2 matches the kernel of multiplication in degree 1 x 1 -> 2.

    Builds the 7 x 9 matrix of Q_i (x) Q_j -> admissible degree-2 basis,
    checks both relation vectors are killed exactly over Z[a], and that
    over Q[a] the kernel has rank 2 and coincides with their span.
    """
    deg2 = basis_of_degree(2)
    idx2 = {key: n for n, key in enumerate(deg2)}
    cols = []
    for i in range(3):
        for j in range(3):
            prod = Operation.q(i) * Operation.q(j)
            col = [ZERO] * len(deg2)
            for key, coeff in prod.terms.items():
                col[idx2[key]] = coeff
            cols.append(col)
    mult = _columns(len(deg2), cols)
    rho = _rho_matrix()
    killed = _composes_to_zero(mult, rho)

    def _rank(ring, mat):
        snf, _, _ = smith_normal_form(ring, mat)
        return len(diagonal_invariants(ring, snf))

    kb = kernel_basis(QA, _coerced(QA, mult))
    span = _coerced(QA, rho)
    both = Matrix(9, 2 + len(kb),
                  [span.rows[r] + [k[r] for k in kb] for r in range(9)])
    rank_span = _rank(QA, span)
    rank_both = _rank(QA, both)
    ok = killed and len(kb) == 2 and rank_span == 2 and rank_both == 2
    return {"relations_killed": killed, "kernel_rank": len(kb),
            "relation_span_rank": rank_span,
            "combined_rank": rank_both, "ok": ok}
