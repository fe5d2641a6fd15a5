"""Trace, norm, and the 2-adic logarithm for the operation action.

For an element x of a ring with the Q-action, write q_i = Q_i x.  The
trace T x and the norm N x are polynomials in q0, q1, q2 and a, kept once
as data: TRACE = 3 q0 + 2a q2, and NORM, a cubic of eight terms.  Further

    M x = (x^2 Psi x / N x - 1) / 2
    ell(x) = (1/2) log(1 + 2 M x),  summed 2-adically.

T and N are the trace and norm of multiplication by P(x) = q0 + q1 d +
q2 d^2 on the rank-3 extension S2 = S[d]/(d^3 - a d - 2); this module
evaluates TRACE and NORM on each host and proves the two identifications
symbolically against the same data.  Three hosts are supported: R = Z[a]
(trace, norm, congruence and linearization checks), S = R[1/D] (exact unit
arithmetic), and the completed ring of 2-adically truncated series (log
evaluation at stated precision).  On each, Q-values go through the Q0
coefficient of `push_poly` (`q_triple_R`); P is a ring homomorphism, so on
S, P(f / D^n) is the Q-triple of f times P(D)^(-n), which is how Q_i reach
denominators.
"""

from __future__ import annotations

from .poly import Poly, A, ONE, ZERO, DISC
from .tower import SFrac, S2Elem, _s2_times
from .padic import (PadicElem, PrecisionError, log_half, DEFAULT_PREC2,
                    DEFAULT_PRECA)
from .opalgebra import _pushed
from .mpoly import MPoly

__all__ = ["TRACE", "NORM", "NormContext", "norm_multiplicativity_check",
           "linearization_check", "norm_congruence_check",
           "q_triple_R", "q_triple_S", "q_triple_padic", "p_map",
           "multiplication_matrix_symbolic", "trace_norm_symbolic_check"]

# --- T and N as data --------------------------------------------------------

def _trace_and_norm():
    q0, q1, q2, a = map(MPoly.var, ("q0", "q1", "q2", "a"))
    return (3 * q0 + 2 * a * q2,
            q0 ** 3 + 2 * a * q0 ** 2 * q2 - a * q0 * q1 ** 2
            + a ** 2 * q0 * q2 ** 2 - 6 * q0 * q1 * q2 + 2 * q1 ** 3
            - 2 * a * q1 * q2 ** 2 + 4 * q2 ** 3)


#: T and N as polynomials in q_i = Q_i x and a.
TRACE, NORM = _trace_and_norm()


# --- the Q-action on each host ----------------------------------------------

def q_triple_R(x) -> tuple:
    """(Q0 x, Q1 x, Q2 x) for x in Z[a].

    Q_i x is Q_i * x(a) applied to 1; since Q0 fixes 1 and Q1, Q2 kill it,
    that is the Q0 coefficient of `push_poly`, computed alone.
    """
    x = Poly(x)
    return tuple(_pushed(i, x, 0) for i in range(3))


# P is a ring map R -> S2, and P(D)^-1 has only D-power denominators since
# N D = -D^3, so P extends to S inside S2.  Entry n is P(D)^-n; the list
# grows one product at a time, as far as a denominator has asked.  The
# products go through `tower`'s packed S2 kernel; `S2Elem.__mul__` is its
# oracle.
_P_D_INV_POWERS = [S2Elem(1), S2Elem(*q_triple_R(DISC)).inv()]


def p_map(x) -> S2Elem:
    """The ring homomorphism P on S: P(f / D^n) = P(f) P(D)^(-n)."""
    if isinstance(x, (int, Poly)):
        x = SFrac(x)
    if not x.is_in_S():
        raise ValueError("P is defined on S; got a half-integral element")
    out = S2Elem(*q_triple_R(x.num))
    if x.dpow:
        powers = _P_D_INV_POWERS
        while len(powers) <= x.dpow:
            powers.append(_s2_times(powers[-1], powers[1]))
        out = _s2_times(out, powers[x.dpow])
    return out


def q_triple_S(x) -> tuple:
    """(Q0 x, Q1 x, Q2 x) for x in S, read off the components of P(x)."""
    return p_map(x).c


def q_triple_padic(x: PadicElem) -> tuple:
    """Truncated action on the completed ring.

    An input known mod (2^N, a^Min) determines Q_i(x) mod (2^N, a^Mout)
    with Mout = (Min - 3N - 2) // 2: the monomial weights v(2) = 1,
    v(a) = 2/3 bound the unknown tail's contribution, and the worst
    surviving term trades almost N powers of 2 against a-powers.
    """
    n, m_in = x.prec2, x.precA
    m_out = (m_in - 3 * n - 2) // 2
    if m_out <= 0:
        raise PrecisionError(
            "a-precision %d cannot support the action at 2-precision %d "
            "(needs > %d)" % (m_in, n, 3 * n + 2))
    return tuple(PadicElem(q.coeffs, n, m_out)
                 for q in q_triple_R(Poly(x.res)))


def _evaluate(form: MPoly, q):
    """The form at (q0, q1, q2) = q and a = A."""
    return form.substitute({"q0": q[0], "q1": q[1], "q2": q[2], "a": A})


# --- hosts ------------------------------------------------------------------

class NormContext:
    """Evaluation host for T, N, M, and ell.

    host is one of "R", "S", "Shat".  R elements are Poly, S elements are
    SFrac (D-power denominators), and Shat accepts either an exact Poly
    (cut to the working precision before M forms N) or an already-truncated
    PadicElem (all later steps track its precision).
    """

    def __init__(self, host: str = "R", prec2: int = DEFAULT_PREC2,
                 precA: int = DEFAULT_PRECA):
        if host not in ("R", "S", "Shat"):
            raise ValueError("host must be R, S, or Shat")
        self.host = host
        self.prec2 = prec2
        self.precA = precA

    # -- coercion and primitives ------------------------------------------

    def coerce(self, x):
        if self.host == "S":
            return x if isinstance(x, SFrac) else SFrac(x)
        if self.host == "Shat" and isinstance(x, PadicElem):
            return x
        return Poly(x)

    def q_triple(self, x):
        x = self.coerce(x)
        if isinstance(x, Poly):
            return q_triple_R(x)
        if isinstance(x, SFrac):
            return q_triple_S(x)
        return q_triple_padic(x)

    def psi_value(self, x):
        """Psi x = Q0Q0 x + a Q0Q1 x - 2 Q1Q1 x + a^2 Q0Q2 x - 2a Q1Q2 x
        + 4 Q2Q2 x, computed by composing the host's Q-action."""
        q = self.q_triple(x)
        qq = [self.q_triple(v) for v in q]
        return (qq[0][0] + A * qq[1][0] - 2 * qq[1][1] + A * A * qq[2][0]
                - 2 * A * qq[2][1] + 4 * qq[2][2])

    # -- the four operators -------------------------------------------------

    def trace_T(self, x):
        return _evaluate(TRACE, self.q_triple(x))

    def norm_N(self, x):
        return _evaluate(NORM, self.q_triple(x))

    def m_value(self, x):
        """M x = (x^2 Psi x / N x - 1) / 2; requires x (hence N x) a unit.

        Psi is additive, multiplicative as P is a ring map through `CARTAN`
        (`check_psi_multiplicativity`), and fixes 1 and a, hence Z[a], and
        1/D, as Psi(1/D) = 1/Psi(D): on R and S, x^2 Psi x = x^3.  An exact
        Poly on Shat is cut mod (2^(n+1), a^m) before N, an integer form in
        the Q-triple, is formed; the extra bit pays for the halving.  A
        truncated PadicElem keeps Psi: composites need not be continuous.
        """
        x = self.coerce(x)
        if self.host == "R":
            raise ValueError("M needs denominators; use host S or Shat")
        if self.host == "S":
            m = ((x * x * x).div(self.norm_N(x)) - 1).div(SFrac(2))
            if not m.is_in_S():
                raise ValueError("x^2 Psi x / N x is not in 1 + 2S; "
                                 "x is not a unit of S")
            return m
        if isinstance(x, PadicElem):
            n, cube = self.norm_N(x), x * x * self.psi_value(x)
        else:
            prec2, mod = self.prec2 + 1, 1 << (self.prec2 + 1)
            q = [Poly([c % mod for c in p.coeffs[:self.precA]])
                 for p in (*q_triple_R(x), x)]
            n = PadicElem(_evaluate(NORM, q).coeffs, prec2, self.precA)
            cube = PadicElem((q[3] * q[3] * q[3]).coeffs, prec2, self.precA)
        if not n.is_unit():
            raise ValueError("N x is not a unit of the completed ring")
        return (cube * n.inv() - 1).halve()

    def log_ell(self, x) -> PadicElem:
        """ell(x) = (1/2) log(1 + 2 M x) in the completed ring."""
        m = self.m_value(x)
        if isinstance(m, SFrac):
            m = PadicElem.from_sfrac(m, self.prec2, self.precA)
        return log_half(m)


# --- checks -----------------------------------------------------------------

def norm_multiplicativity_check(ctx: NormContext, x, y) -> bool:
    x, y = ctx.coerce(x), ctx.coerce(y)
    return ctx.norm_N(x * y) == ctx.norm_N(x) * ctx.norm_N(y)


def norm_congruence_check(x) -> bool:
    """N x == x^2 Psi x mod 2R, for x in R."""
    x = Poly(x)
    ctx = NormContext("R")
    return (ctx.norm_N(x) - x * x * ctx.psi_value(x)).divisible_by_int(2)


def linearization_check(r) -> bool:
    """N(1 + eps r) = 1 + eps T(r) in R[eps]/(eps^2).

    The norm formula is evaluated at q_i = Q_i(1) + eps Q_i(r), polynomials
    in eps, and its eps^0 and eps^1 coefficients are read off.
    """
    eps = MPoly.var("eps")
    total = _evaluate(NORM, [u + eps * v for u, v in
                             zip(q_triple_R(ONE), q_triple_R(r))]).terms
    return (total.get((), ZERO) == ONE
            and total.get((("eps", 1),), ZERO) == NormContext("R").trace_T(r))


# --- symbolic identification of T and N -------------------------------------

def multiplication_matrix_symbolic():
    """Matrix of multiplication by q0 + q1 d + q2 d^2 on the basis (1, d, d^2).

    Entries are integer polynomials in the symbols q0, q1, q2, a; the cubic
    relation d^3 = a d + 2 is applied during assembly.  Returned as rows.
    """
    q = [MPoly.var("q0"), MPoly.var("q1"), MPoly.var("q2")]
    a = MPoly.var("a")
    cols = []
    for j in range(3):
        vec = {i + j: q[i] for i in range(3)}
        for e in (4, 3):
            c = vec.pop(e, None)
            if c is not None:
                vec[e - 2] = vec.get(e - 2, MPoly()) + a * c
                vec[e - 3] = vec.get(e - 3, MPoly()) + 2 * c
        cols.append([vec.get(i, MPoly()) for i in range(3)])
    return [[cols[j][i] for j in range(3)] for i in range(3)]


def trace_norm_symbolic_check():
    """Trace and determinant of the P-multiplication matrix vs the formulas.

    Returns the symbolic trace, the symbolic determinant, and whether each
    matches the displayed T and 8-term N expression exactly.
    """
    m = multiplication_matrix_symbolic()
    tr = m[0][0] + m[1][1] + m[2][2]
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return {"trace": tr, "det": det,
            "trace_matches": tr == TRACE,
            "norm_matches": det == NORM,
            "ok": tr == TRACE and det == NORM}
