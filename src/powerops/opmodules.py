"""Modules over the operation algebra, presented on finite free R-bases.

A presentation stores the three matrices of Q0, Q1, Q2 on a free R-module
(columns are images of basis vectors).  The action on a general vector uses
the commutation rules: Q_i(p(a) m) = sum_l c_l Q_l(m) where
Q_i p = c0 Q0 + c1 Q1 + c2 Q2 in the operation algebra; c_l is formed only
where Q_l of that basis vector is nonzero (R, omega and omega^2 each use
one Q_l).  `act` applies an element letter by letter; the Koszul d0 and the
continuity sweep, which need every admissible word Q0^j Q_w of degree <= k
on one vector, take them from one walk (`_basis_images`) that applies one
Q per word to the image of the word one letter shorter.

Shipped examples: the standard module R (Q0 acts as 1), the rank-1 module
omega with Q1 u = -u (the reduced cohomology of the 2-sphere), its tensor
powers, and the rank-2 sum R + omega.  Tensor products carry the Cartan
action `opalgebra.CARTAN`.
"""

from __future__ import annotations

from .poly import Poly, ZERO, ONE, A
from .opalgebra import CARTAN, Operation, _pushed, basis_of_degree

__all__ = ["ModulePresentation", "standard_module", "omega", "omega_power",
           "omega_power_closed", "two_sphere", "act", "tensor",
           "check_well_defined", "psi_on_tensor", "swap_is_isomorphism",
           "vec_add", "vec_scale", "kron_vec"]


def _as_matrix(rows, rank):
    mat = tuple(tuple(Poly(c) for c in row) for row in rows)
    if len(mat) != rank or any(len(row) != rank for row in mat):
        raise ValueError("matrix must be %d x %d" % (rank, rank))
    return mat


class ModulePresentation:
    """A free R-module of finite rank with explicit Q-action matrices."""

    __slots__ = ("rank", "q")

    def __init__(self, rank, q0, q1, q2):
        self.rank = rank
        self.q = tuple(_as_matrix(m, rank) for m in (q0, q1, q2))

    def column(self, i: int, k: int):
        """Q_i of the k-th basis vector."""
        return tuple(self.q[i][row][k] for row in range(self.rank))

    def zero_vector(self):
        return (ZERO,) * self.rank

    def basis_vector(self, k: int):
        return tuple(ONE if i == k else ZERO for i in range(self.rank))

    def __eq__(self, other):
        if isinstance(other, ModulePresentation):
            return self.rank == other.rank and self.q == other.q
        return NotImplemented

    def __hash__(self):
        return hash((self.rank, self.q))

    def to_json(self):
        return {"rank": self.rank,
                "Q0": [[c.to_json() for c in row] for row in self.q[0]],
                "Q1": [[c.to_json() for c in row] for row in self.q[1]],
                "Q2": [[c.to_json() for c in row] for row in self.q[2]]}

    @staticmethod
    def from_json(data) -> "ModulePresentation":
        """Read `to_json`'s object; the rank is an int (not a bool) >= 0."""
        rank = data["rank"]
        if type(rank) is not int or rank < 0:
            raise ValueError("rank %r is not a nonnegative integer" % (rank,))
        mats = [[[Poly.from_json(c) for c in row] for row in data[key]]
                for key in ("Q0", "Q1", "Q2")]
        return ModulePresentation(rank, *mats)

    def __repr__(self):
        return "ModulePresentation(rank=%d)" % self.rank


# --- vectors ----------------------------------------------------------------

def vec_add(v, w):
    return tuple(x + y for x, y in zip(v, w))

def vec_scale(p, v):
    p = Poly(p)
    return tuple(p * x for x in v)

def kron_vec(v, w):
    return tuple(x * y for x in v for y in w)


# --- stock modules ----------------------------------------------------------

def standard_module() -> ModulePresentation:
    """R itself: Q0 1 = 1, Q1 1 = Q2 1 = 0."""
    return ModulePresentation(1, [[1]], [[0]], [[0]])


def omega() -> ModulePresentation:
    """Rank 1 with Q0 u = 0, Q1 u = -u, Q2 u = 0."""
    return ModulePresentation(1, [[0]], [[-1]], [[0]])


def omega_power(n: int) -> ModulePresentation:
    """n-th tensor power of omega, built by iterated tensor product."""
    if n < 0:
        raise ValueError("negative tensor power")
    out = standard_module()
    for _ in range(n):
        out = tensor(omega(), out)
    return out


def omega_power_closed(n: int) -> ModulePresentation:
    """Same module via the closed rank-1 recursion.

    If Q acts on u^n through (c0, c1, c2), then on u^(n+1) it acts through
    (-2 c2, -c0 - a c2, -c1); this is the Cartan formula specialized to a
    factor with Q-action (0, -1, 0).
    """
    if n < 0:
        raise ValueError("negative tensor power")
    c0, c1, c2 = ONE, ZERO, ZERO
    for _ in range(n):
        c0, c1, c2 = -2 * c2, -c0 - A * c2, -c1
    return ModulePresentation(1, [[c0]], [[c1]], [[c2]])


def two_sphere() -> ModulePresentation:
    """The rank-2 sum R + omega (basis: unit, sphere class)."""
    return ModulePresentation(2,
                              [[1, 0], [0, 0]],
                              [[0, 0], [0, -1]],
                              [[0, 0], [0, 0]])


# --- the action -------------------------------------------------------------

def apply_q(m: ModulePresentation, i: int, v):
    """Q_i applied to a vector with Poly coefficients: Q_i(p e_k) is the sum
    of c_l Q_l e_k, with c_l formed only where column l of e_k is nonzero."""
    if len(v) != m.rank:
        raise ValueError("vector length %d, module rank %d"
                         % (len(v), m.rank))
    out = list(m.zero_vector())
    for k, p in enumerate(v):
        p = Poly(p)
        if p.is_zero():
            continue
        for l in range(3):
            col = m.column(l, k)
            if not any(col):
                continue
            c = _pushed(i, p, l)
            if c.is_zero():
                continue
            for row, e in enumerate(col):
                if e:
                    out[row] = out[row] + c * e
    return tuple(out)


def act(m: ModulePresentation, g: Operation, v):
    """Left action of an algebra element on a vector."""
    if len(v) != m.rank:
        raise ValueError("vector length %d, module rank %d"
                         % (len(v), m.rank))
    v = tuple(Poly(p) for p in v)
    total = m.zero_vector()
    for (j, word), coeff in g.terms.items():
        w = v
        for letter in reversed(word):
            w = apply_q(m, letter, w)
        for _ in range(j):
            w = apply_q(m, 0, w)
        total = vec_add(total, vec_scale(coeff, w))
    return total


def _basis_images(m: ModulePresentation, k_max: int, v):
    """{key: Q0^j Q_w v} for every admissible key (j, w) of degree <= k_max,
    one `apply_q` per key: Q0^j Q_w = Q0 Q0^(j-1) Q_w, and Q_w = Q_w[0]
    Q_w[1:], whose image is already there one degree down."""
    images = {(0, ()): tuple(Poly(p) for p in v)}
    for deg in range(1, k_max + 1):
        for j, w in basis_of_degree(deg):
            if j:
                images[j, w] = apply_q(m, 0, images[j - 1, w])
            else:
                images[j, w] = apply_q(m, w[0], images[0, w[1:]])
    return images


# --- tensor products --------------------------------------------------------

def tensor(m1: ModulePresentation, m2: ModulePresentation) -> ModulePresentation:
    """Tensor product over R with the Cartan action.

    Basis pairs are flattened as (k1, k2) -> k1*rank2 + k2.
    """
    n1, n2 = m1.rank, m2.rank
    rank = n1 * n2
    mats = [[[ZERO] * rank for _ in range(rank)] for _ in range(3)]

    def add_block(target, k, x, y, factor):
        for r1, c1 in enumerate(x):
            if c1.is_zero():
                continue
            for r2, c2 in enumerate(y):
                prod = factor * c1 * c2
                if not prod.is_zero():
                    row = r1 * n2 + r2
                    target[row][k] = target[row][k] + prod

    for k1 in range(n1):
        x = [m1.column(i, k1) for i in range(3)]
        for k2 in range(n2):
            y = [m2.column(i, k2) for i in range(3)]
            k = k1 * n2 + k2
            for target, rule in zip(mats, CARTAN):
                for c, l, m in rule:
                    add_block(target, k, x[l], y[m], c)
    return ModulePresentation(rank, *mats)


def swap_is_isomorphism(m1: ModulePresentation, m2: ModulePresentation) -> bool:
    """Plain transposition of tensor factors intertwines the two actions."""
    t12 = tensor(m1, m2)
    t21 = tensor(m2, m1)
    n1, n2 = m1.rank, m2.rank

    def sigma(k):
        k1, k2 = divmod(k, n2)
        return k2 * n1 + k1

    for i in range(3):
        for r in range(t12.rank):
            for c in range(t12.rank):
                if t12.q[i][r][c] != t21.q[i][sigma(r)][sigma(c)]:
                    return False
    return True


# --- verification -----------------------------------------------------------

_RULE_NAMES = ("Q0(a e) = a^2 Q0 e - 2a Q1 e + 6 Q2 e",
               "Q1(a e) = 3 Q0 e + a Q2 e",
               "Q2(a e) = -a Q0 e + 3 Q1 e",
               "Q1 Q0 e = 2 Q2 Q1 e - 2 Q0 Q2 e",
               "Q2 Q0 e = Q0 Q1 e + a Q0 Q2 e - 2 Q1 Q2 e")


def check_well_defined(m: ModulePresentation):
    """Evaluate the five defining relations on every basis vector.

    The three scalar-commutation clauses exercise the pushing code path
    against direct matrix combinations; the two straightening clauses are
    genuine constraints on the matrices.  Returns {"ok", "failures"}.
    """
    failures = []

    def record(k, rule, lhs, rhs):
        if lhs != rhs:
            failures.append({"basis": k, "rule": _RULE_NAMES[rule],
                             "lhs": [str(p) for p in lhs],
                             "rhs": [str(p) for p in rhs]})

    for k in range(m.rank):
        e = m.basis_vector(k)
        ae = vec_scale(A, e)
        q = [m.column(i, k) for i in range(3)]
        qq = [[apply_q(m, i, q[l]) for l in range(3)] for i in range(3)]
        record(k, 0, apply_q(m, 0, ae),
               vec_add(vec_add(vec_scale(A * A, q[0]),
                               vec_scale(-2 * A, q[1])),
                       vec_scale(Poly(6), q[2])))
        record(k, 1, apply_q(m, 1, ae),
               vec_add(vec_scale(Poly(3), q[0]), vec_scale(A, q[2])))
        record(k, 2, apply_q(m, 2, ae),
               vec_add(vec_scale(-A, q[0]), vec_scale(Poly(3), q[1])))
        record(k, 3, qq[1][0],
               vec_add(vec_scale(Poly(2), qq[2][1]),
                       vec_scale(Poly(-2), qq[0][2])))
        record(k, 4, qq[2][0],
               vec_add(vec_add(qq[0][1], vec_scale(A, qq[0][2])),
                       vec_scale(Poly(-2), qq[1][2])))
    return {"ok": not failures, "failures": failures}


def psi_on_tensor(m1: ModulePresentation, m2: ModulePresentation, v1, v2):
    """Psi on v1 @ v2; asserts it factors as (Psi v1) @ (Psi v2)."""
    from .opalgebra import psi
    t = tensor(m1, m2)
    joint = act(t, psi(), kron_vec(v1, v2))
    split = kron_vec(act(m1, psi(), v1), act(m2, psi(), v2))
    if joint != split:
        raise AssertionError("Psi is not multiplicative on this tensor: "
                             "%s vs %s" % ([str(p) for p in joint],
                                           [str(p) for p in split]))
    return joint
