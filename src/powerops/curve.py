"""The elliptic curve behind the operation algebra.

The curve C: v^2 + a*u*v + v = u^3 over Z[a], in the affine chart where
(u, v) = (0, 0) is the identity, carries a universal order-2 subgroup once
the ground ring is extended by a root d of d^3 - a*d - 2.  Quotienting by
that subgroup gives a degree-2 isogeny to a second curve of the same shape
whose coefficient is a' = a^2 + 3d - a*d^2, and the expansion of the
isogeny in the uniformizer u is the single object from which everything
else in this package can be rebuilt:

  * the coefficient matrix of u' against {1, d, d^2} recovers the series
    Q_0(u), Q_1(u), Q_2(u) (`q_series_on_u`);
  * expanding a' * (Q_0 x + Q_1 x d + Q_2 x d^2) recovers the commutation
    rules of the algebra (`derive_commutation`);
  * composing the substitution twice and folding the second root back via
    d' -> a - d^2 recovers the two straightening rules and the central
    operation Psi (`derive_adem_and_psi`).

These derivations are checked against the constants stored in `opalgebra`;
the two sources are independent, so agreement is a genuine cross-check.
Chart arithmetic needs 1/d, and d*(d^2 - a) = 2 makes d invertible only
after 2 is; intermediate series therefore live over S2[1/2] and the final
results are verified to be 2-integral.

One tabulated coefficient is contentious: the isogeny gives +3 for the
u^2 term of Q_0(u), while the usual printed table has -3 (the u^3 and u^4
terms agree).  `q_series_mismatch_report` surfaces both values instead of
silently choosing one.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import add

from .poly import Poly, ZERO, ONE, A, format_terms, _series_reciprocal
from .series import Series
from .tower import SFrac, S2Elem, S22Elem, TARGET_A
from .opalgebra import CARTAN, Operation, normal_form, push_through, psi
from .normlog import q_triple_R

__all__ = ["ChartPoint", "OrderTwoDatum", "IsogenyData", "ORDER_TWO",
           "TARGET_A", "DEFAULT_ORDER", "curve_v_series", "generic_point",
           "identity_point", "invert_point", "translate_by_Q",
           "isogeny_series", "q_series_on_u", "q_series_mismatch_report",
           "derive_commutation", "derive_adem_and_psi", "format_word_combo",
           "canonical_subgroup_check", "cartan_projective_check"]

DEFAULT_ORDER = 12

_S2_ZERO = S2Elem(0)
_S2_ONE = S2Elem(1)
_D = S2Elem.d()


def _const(c, order, zero):
    return Series.from_terms({0: c}, order, zero)


class ChartPoint:
    """A point of the chart, with series coordinates (u(P), v(P))."""

    __slots__ = ("u", "v")

    def __init__(self, u: Series, v: Series):
        self.u = u
        self.v = v

    def curve_residual(self, a_coeff) -> Series:
        """v^2 + a_coeff*u*v + v - u^3; the zero series iff P is on the curve."""
        u, v = self.u, self.v
        return v * v + v - u * (u * u - v.scale(a_coeff))


class OrderTwoDatum:
    """The order-2 point (d, e) with e = -d^3 = -a*d - 2."""

    __slots__ = ("d", "e")

    def __init__(self):
        self.d = _D
        self.e = S2Elem(-2, -A, 0)

    def is_consistent(self) -> bool:
        cubed = self.d * self.d * self.d
        on_curve = (self.e * self.e + self.d * self.e * A + self.e
                    - cubed)
        return self.e == -cubed and on_curve.is_zero()


ORDER_TWO = OrderTwoDatum()


class IsogenyData:
    """The isogeny expansion: series u'(u), v'(u) and the target coefficient."""

    __slots__ = ("u_series", "v_series", "a_target")

    def __init__(self, u_series: Series, v_series: Series, a_target: S2Elem):
        self.u_series = u_series
        self.v_series = v_series
        self.a_target = a_target

    def weierstrass_residual(self) -> Series:
        """(v')^2 + a'*u'*v' + v' - (u')^3 over the known range."""
        return ChartPoint(self.u_series, self.v_series).curve_residual(
            self.a_target)

    def is_integral(self) -> bool:
        """True when every known coefficient lies in S2 (no halves left)."""
        return all(c.is_in_S2()
                   for c in self.u_series.coeffs + self.v_series.coeffs)


def curve_v_series(order: int = DEFAULT_ORDER) -> Series:
    """The series v(u) = u^3 + ... solving F(v) = v^2 + (1 + a*u)*v - u^3 = 0.

    By Newton's step v <- v - F(v)/F'(v) from v = u^3, which is exact mod
    u^4: a step from v exact mod u^k gives v exact mod u^n for any n <= 2k,
    so the working order doubles each step, up to `order`.  F(v) vanishes
    mod u^k, so 1/F'(v) is needed only mod u^(n - k); F'(v) = 2v + 1 + a*u
    has constant term 1, so it is a unit and its reciprocal stays in Z[a].
    """
    if order < 3:
        raise ValueError("order %d is below the leading term u^3" % order)
    orders = []
    while order > 4:
        orders.append(order)
        order = (order + 1) // 2
    v = Series.from_terms({3: ONE}, order, ZERO)
    for n in reversed(orders):
        known, width = v.order, n - v.order
        v = Series(v.coeffs, n, ZERO)
        lin = Series.from_terms({0: ONE, 1: A}, n, ZERO)
        resid = v * v + lin * v - Series.from_terms({3: ONE}, n, ZERO)
        slope = (v.scale(2) + lin).truncate(width)
        recip = Series(_series_reciprocal(slope.coeffs, width, ONE, ZERO),
                       width, ZERO)
        v = v - (resid.shift(-known) * recip).shift(known)
    return v


def generic_point(order: int = DEFAULT_ORDER) -> ChartPoint:
    """The generic chart point (u, v(u)), lifted to S2[1/2] coefficients."""
    v = curve_v_series(order)
    u = Series.from_terms({1: _S2_ONE}, order, _S2_ZERO)
    return ChartPoint(u, Series([S2Elem(c) for c in v.coeffs], order,
                                _S2_ZERO))


def identity_point(order: int = DEFAULT_ORDER) -> ChartPoint:
    zero = Series((), order, _S2_ZERO)
    return ChartPoint(zero, zero)


def invert_point(P: ChartPoint) -> ChartPoint:
    """The group inverse: u(-P) = -v/u^2, v(-P) = -v^2/u^3.

    Here u and v are the coordinates of P itself; both quotients are formed
    by splitting the u-coordinate into basepoint-vanishing and unit factors.
    The identity (both coordinates zero) is its own inverse.
    """
    if P.u.valuation() == P.u.order and P.v.valuation() == P.v.order:
        return ChartPoint(P.u, P.v)
    if P.u.valuation() != 1:
        raise ValueError("u-coordinate must vanish to exact order 1")
    w_inv = P.u.shift(-1).inverse()
    sq = P.v * (w_inv * w_inv)
    return ChartPoint(-(sq.shift(-2)),
                      -((P.v * sq * w_inv).shift(-3)))


def translate_by_Q(P: ChartPoint) -> ChartPoint:
    """The point P - Q, for Q the order-2 point (d, e).

    Uses the chord slope through -P and Q,
        m = (v(-P) - e) / (u(-P) - d),
    and the chart group law
        u(P - Q) = m^2 + a*m - u(-P) - d,
        v(P - Q) = m*(u(P - Q) - d) + e,
    where -u(-P) is the v/u^2 term in the usual statement of the law.
    The slope denominator has constant term -d, a unit only once 2 is
    inverted, so the output coefficients may carry halves; `isogeny_series`
    checks that they cancel from the final answer.
    """
    neg = invert_point(P)
    zero = P.u.zero
    num = neg.v - _const(ORDER_TWO.e, neg.v.order, zero)
    den = neg.u - _const(ORDER_TWO.d, neg.u.order, zero)
    m = num * den.inverse()
    u_img = (m * m + m.scale(A) - neg.u
             - _const(ORDER_TWO.d, m.order, zero))
    v_img = m * (u_img - _const(ORDER_TWO.d, u_img.order, zero)) \
        + _const(ORDER_TWO.e, u_img.order, zero)
    return ChartPoint(u_img, v_img)


@lru_cache(maxsize=None)
def _isogeny_at(work_order: int) -> IsogenyData:
    P = generic_point(work_order)
    img = translate_by_Q(P)
    u2 = -(P.u * img.u)
    v2 = P.v * img.v
    # The target coefficient is the one unknown in the Weierstrass relation;
    # solve at the first undetermined order (u^4, where u'*v' starts), then
    # demand that the whole residual vanishes.
    low = ChartPoint(u2.truncate(5), v2.truncate(5))
    a_t = -(low.curve_residual(_S2_ZERO)[4] * (low.u * low.v)[4].inv())
    data = IsogenyData(u2, v2, a_t)
    if any(not c.is_zero() for c in data.weierstrass_residual().coeffs):
        raise ArithmeticError(
            "isogeny series satisfy no Weierstrass relation of this shape")
    if not data.is_integral():
        raise ArithmeticError("isogeny coefficients do not lie in S2")
    return data


def isogeny_series(order: int = DEFAULT_ORDER) -> IsogenyData:
    """Expand the degree-2 isogeny u' = -u(P)u(P-Q), v' = v(P)v(P-Q).

    Recovers the target curve coefficient a' by a one-unknown linear solve
    on the series and verifies the relation to the full working order.
    """
    if order < 2:
        raise ValueError("order %d leaves no coefficients to expand" % order)
    data = _isogeny_at(max(order + 1, 10))
    return IsogenyData(data.u_series.truncate(order),
                       data.v_series.truncate(order), data.a_target)


def q_series_on_u(order: int = DEFAULT_ORDER):
    """The three series with u' = Q_0(u) + Q_1(u) d + Q_2(u) d^2.

    Returns (Q_0(u), Q_1(u), Q_2(u)) as series over Z[a], read off the
    isogeny expansion coefficientwise in the basis {1, d, d^2}.
    """
    u2 = isogeny_series(order).u_series
    comps = ([], [], [])
    for coeff in u2.coeffs:
        for k in range(3):
            comps[k].append(_require_polynomial(coeff.c[k]))
    return tuple(Series(comps[k], u2.order, ZERO) for k in range(3))


# Independently tabulated expansions of the same three series, recorded for
# cross-checking.  The u^2 entry of the first one is the contentious value;
# see the module docstring.
_TABULATED_Q = (
    {2: Poly(-3), 3: Poly((0, -2)), 4: Poly((0, 0, 2)),
     5: Poly((-12, 0, 0, -2)), 6: Poly((0, 32, 0, 0, 2))},
    {1: Poly(-1), 2: Poly((0, 1)), 3: Poly((0, 0, -1)),
     4: Poly((6, 0, 0, 1)), 5: Poly((0, -16, 0, 0, -1)),
     6: Poly((0, 0, 30, 0, 0, 1))},
    {3: Poly(-3), 4: Poly((0, 5)), 5: Poly((0, 0, -7)),
     6: Poly((12, 0, 0, 9))},
)


def q_series_mismatch_report() -> dict:
    """Compare the isogeny-derived Q_i(u) series with the tabulated ones.

    Exactly one disagreement is expected: the u^2 coefficient of Q_0(u)
    (+3 from the isogeny, -3 in the table).  Both values are reported;
    neither is silently preferred.
    """
    engine = q_series_on_u(8)
    mismatches = []
    for i in range(3):
        for deg in sorted(_TABULATED_Q[i]):
            expected = _TABULATED_Q[i][deg]
            got = engine[i][deg]
            if got != expected:
                mismatches.append({"series": i, "degree": deg,
                                   "from_isogeny": str(got),
                                   "tabulated": str(expected)})
    only_known = (len(mismatches) == 1
                  and mismatches[0]["series"] == 0
                  and mismatches[0]["degree"] == 2
                  and mismatches[0]["from_isogeny"] == "3"
                  and mismatches[0]["tabulated"] == "-3")
    return {"mismatches": mismatches, "only_known_mismatch": only_known}


def _require_polynomial(frac: SFrac) -> Poly:
    if not frac.is_in_R():
        raise ArithmeticError("coefficient %s is not polynomial" % frac)
    return frac.num


def derive_commutation() -> dict:
    """Recover the commutation rules from a' * (Q_0 x + Q_1 x d + Q_2 x d^2).

    Expanding the product in the basis {1, d, d^2} with d^3 = a*d + 2 reads
    off Q_i(a*x) as a combination of the Q_j(x); the resulting matrix must
    match the structure constants stored in the operation algebra.  Raises
    ValueError if the two sources disagree.
    """
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            image = TARGET_A * _D ** j
            row.append(_require_polynomial(image.c[i]))
        rows.append(row)
    residuals = []
    for i in range(3):
        if tuple(rows[i]) != tuple(push_through(i, 1)):
            raise ValueError(
                "curve-derived rule for Q%d a disagrees with the stored one"
                % i)
        residuals.append(Operation.q(i) * A - normal_form(
            (c, [j]) for j, c in enumerate(rows[i])))
    return {"matrix": rows, "residuals": residuals,
            "ok": all(r.is_zero() for r in residuals)}


def format_word_combo(terms: dict) -> str:
    """Display {word: coeff} as e.g. "Q1 Q0 - 2 Q2 Q1 + 2 Q0 Q2".

    Words like (1, 0) are not admissible, so they are printed as they
    stand, not straightened, in the order of `Operation.sorted_terms`."""
    return format_terms((Poly(c), " ".join("Q%d" % k for k in w))
                        for w, c in sorted(terms.items(),
                                           key=lambda wc: (len(wc[0]), wc[0])))


def derive_adem_and_psi() -> dict:
    """Recover the straightening rules and Psi from the double substitution.

    Applying the coefficient substitution twice writes the composite against
    the nine products d^i d'^j, with d' a root of the target cubic.  Folding
    d' -> a - d^2 and reducing by d^3 = a*d + 2 sorts the nine compositions
    Q_i Q_j x into three rows: the d and d^2 rows must vanish identically in
    the algebra (these are the straightening rules), and the d^0 row is Psi.
    Raises ValueError if either fails against the stored constants.
    """
    rows = [{}, {}, {}]
    for i in range(3):
        for j in range(3):
            image = (S22Elem(_D ** i) * S22Elem.dprime() ** j).f_star()
            for k in range(3):
                frac = image.c[k]
                if frac.is_zero():
                    continue
                word = (i, j)
                cur = rows[k].get(word, ZERO)
                rows[k][word] = cur + _require_polynomial(frac)
    psi_derived, *residuals = [
        normal_form((c, word) for word, c in row.items()) for row in rows]
    if psi_derived != psi():
        raise ValueError("curve-derived Psi disagrees with the stored Psi")
    for k, resid in enumerate(residuals):
        if not resid.is_zero():
            raise ValueError(
                "curve-derived d^%d row does not vanish in the algebra: %s"
                % (k + 1, resid))
    return {"psi": psi_derived, "rows": rows, "residuals": residuals,
            "ok": True}


def canonical_subgroup_check(sample) -> dict:
    """Check Q_0 x = x^2 mod 2 for each polynomial x in `sample`.

    Killing d projects the substitution x -> Q_0 x + Q_1 x d + Q_2 x d^2
    onto its first component, and modulo 2 that component must be the
    squaring map.
    """
    results = []
    for x in sample:
        x = Poly(x)
        q0 = q_triple_R(x)[0]
        ok = (q0 - x * x).divisible_by_int(2)
        results.append({"x": str(x), "q0": str(q0), "ok": ok})
    return {"results": results, "ok": all(r["ok"] for r in results)}


def cartan_projective_check(order: int = 10) -> dict:
    """Square the isogeny series and compare with the product-rule expansion.

    P(u)^2 decomposed against {1, d, d^2} must agree with the series
    obtained by feeding Q_i(u) through the product rule for Q_i(u * u);
    the first route uses only tower arithmetic, the second the structure
    constants of `CARTAN`.
    """
    q = q_series_on_u(order)
    u2 = isogeny_series(order).u_series
    square = u2 * u2
    expected = [reduce(add, ((q[l] * q[m]).scale(c) for c, l, m in rule))
                for rule in CARTAN]
    depth = min([square.order] + [s.order for s in expected])
    ok = True
    for n in range(depth):
        comp = square[n].c
        for k in range(3):
            if not (comp[k] == expected[k][n]):
                ok = False
    return {"order": depth, "ok": ok}
