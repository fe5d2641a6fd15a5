"""Tests for the chart group law, the degree-2 isogeny, and the derivations.

An independent sympy oracle in this file rebuilds the whole chart pipeline
over Q(a)[d]/(d^3 - a*d - 2) from the printed formulas (series reciprocal
included) and is compared coefficient-for-coefficient with the engine.
Display coefficients of u' through u^6 and v' through u^8 are additionally
frozen as literal values.
"""

import hashlib
import json
from pathlib import Path

import pytest
import sympy

from powerops.poly import Poly, ZERO, ONE, A
from powerops.series import Series
from powerops.tower import SFrac, S2Elem
from powerops.opalgebra import Operation, psi
from powerops.opmodules import standard_module, act
from powerops.curve import (ChartPoint, OrderTwoDatum, ORDER_TWO, TARGET_A,
                            curve_v_series, generic_point, identity_point,
                            invert_point, translate_by_Q, isogeny_series,
                            q_series_on_u, q_series_mismatch_report,
                            derive_commutation, derive_adem_and_psi,
                            format_word_combo, canonical_subgroup_check,
                            cartan_projective_check)

_u, _a, _d = sympy.symbols("u a d")
_MIN = _d**3 - _a*_d - 2


# --- independent oracle -----------------------------------------------------

def _red(e):
    e = sympy.expand(e)
    return e if e == 0 else sympy.expand(sympy.rem(e, _MIN, _d))


def _trunc(e, n):
    e = sympy.expand(e)
    if e == 0:
        return e
    return sympy.Add(*[t for t in e.as_ordered_terms()
                       if sympy.degree(t, _u) < n])


def _step(e, n):
    return _trunc(_red(e), n)


def _coeff(e, k):
    return _red(sympy.expand(e).coeff(_u, k))


def _inv_const(c):
    return _red(sympy.invert(sympy.Poly(c, _d), sympy.Poly(_MIN, _d)).as_expr())


def _series_inverse(e, W):
    c0i = _inv_const(_coeff(e, 0))
    out = c0i
    for n in range(1, W):
        acc = sympy.Integer(0)
        for k in range(1, n + 1):
            acc += _coeff(e, k) * _coeff(out, n - k)
        out = _step(out + _red(-c0i * acc) * _u**n, W)
    return out


def oracle_pipeline(W):
    """v(u), u(-P), u'(u), v'(u), a' from the printed chart formulas."""
    v = sympy.Integer(0)
    for _ in range(W):
        nxt = _step(_u**3 - _a*_u*v - v*v, W)
        if sympy.expand(nxt - v) == 0:
            break
        v = nxt
    e_pt = -_a*_d - 2
    u_neg = _step(-v / _u**2, W)
    v_neg = _step(-(v*v) / _u**3, W)
    m = _step((v_neg - e_pt) * _series_inverse(u_neg - _d, W), W)
    u_phi = _step(m*m + _a*m - _d + v / _u**2, W)
    v_phi = _step(m * (u_phi - _d) + e_pt, W)
    u2 = _step(-_u * u_phi, W)
    v2 = _step(v * v_phi, W)
    base4 = _coeff(v2*v2 + v2 - u2**3, 4)
    cross4 = _coeff(u2*v2, 4)
    a2 = _red(-base4 * _inv_const(cross4))
    return v, u_neg, u2, v2, a2


def contracting_v_series(order):
    """v(u) mod u^order by the contracting iteration v <- u^3 - (a*u + v)*v,
    in Poly and Series arithmetic alone.  Each pass fixes at least one more
    coefficient, so `order` passes reach the fixed point.  (a*u + v)*v is
    a product of two distinct series, so no pass takes the square path of
    `Series.__mul__`, which the engine's Newton step does."""
    u = Series.from_terms({1: ONE}, order, ZERO)
    u3 = Series.from_terms({3: ONE}, order, ZERO)
    v = Series((), order, ZERO)
    for _ in range(order):
        nxt = u3 - (u.scale(A) + v) * v
        if nxt == v:
            return v
        v = nxt
    raise AssertionError("no fixed point after %d passes" % order)


def to_sympy(x) -> sympy.Expr:
    """Engine S2Elem (or Poly) into the oracle's symbols."""
    if isinstance(x, Poly):
        x = S2Elem(x)
    total = sympy.Integer(0)
    for k, frac in enumerate(x.c):
        assert frac.is_in_S(), "unexpected half-integral value"
        num = sum(c * _a**i for i, c in enumerate(frac.num.coeffs))
        total += num / (_a**3 - 27)**frac.dpow * _d**k
    return sympy.expand(total)


def s2(c0=0, c1=0, c2=0):
    return S2Elem(Poly(c0), Poly(c1), Poly(c2))


# u' and v' expansion coefficients against {1, d, d^2}, as displayed
U_PRIME = {
    1: s2(0, -1, 0),
    2: s2(3, (0, 1), 0),
    3: s2((0, -2), (0, 0, -1), -3),
    4: s2((0, 0, 2), (6, 0, 0, 1), (0, 5)),
    5: s2((-12, 0, 0, -2), (0, -16, 0, 0, -1), (0, 0, -7)),
    6: s2((0, 32, 0, 0, 2), (0, 0, 30, 0, 0, 1), (12, 0, 0, 9)),
}
V_PRIME = {
    3: s2(-2, (0, -1), 0),
    4: s2((0, 4), (0, 0, 2), 3),
    5: s2((0, 0, -6), (-9, 0, 0, -3), (0, -9)),
    6: s2((23, 0, 0, 8), (0, 35, 0, 0, 4), (0, 0, 18)),
    7: s2((0, -84, 0, 0, -10), (0, 0, -86, 0, 0, -5), (-27, 0, 0, -30)),
    8: s2((0, 0, 199, 0, 0, 12), (63, 0, 0, 170, 0, 0, 6),
          (0, 126, 0, 0, 45)),
}


class TestCurveSeries:
    def test_leading_term(self):
        v = curve_v_series(8)
        assert v[3] == ONE
        assert v.valuation() == 3

    def test_low_coefficients(self):
        v = curve_v_series(10)
        expect = {3: Poly(1), 4: -A, 5: A * A, 6: Poly((-1, 0, 0, -1)),
                  7: Poly((0, 3, 0, 0, 1)), 8: Poly((0, 0, -6, 0, 0, -1)),
                  9: Poly((2, 0, 0, 10, 0, 0, 1))}
        for k, c in expect.items():
            assert v[k] == c

    def test_satisfies_curve_equation(self):
        v = curve_v_series(12)
        u = Series.from_terms({1: ONE}, 12, ZERO)
        resid = v * v + (u * v).scale(A) + v - u * u * u
        assert all(c.is_zero() for c in resid.coeffs)

    def test_matches_oracle(self):
        v_o, _, _, _, _ = oracle_pipeline(10)
        v = curve_v_series(10)
        for k in range(10):
            assert sympy.expand(to_sympy(v[k]) - _coeff(v_o, k)) == 0

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            curve_v_series(2)

    @pytest.fixture(scope="class")
    def contracted(self):
        return contracting_v_series(48)

    # at 3 and 4 Newton's seed u^3 is the whole answer, or more than it
    @pytest.mark.parametrize("order", range(3, 49))
    def test_matches_contracting_iteration(self, contracted, order):
        # the fixed point mod u^48, cut to u^order, is the one mod u^order
        assert curve_v_series(order) == contracted.truncate(order)

    def test_solves_the_curve_at_order_129(self):
        v = curve_v_series(129)
        u = Series.from_terms({1: ONE}, 129, ZERO)
        resid = (u.scale(A) + v) * v + v - Series.from_terms({3: ONE}, 129,
                                                             ZERO)
        assert resid.order == 129
        assert all(c.is_zero() for c in resid.coeffs)


class TestGroupLaw:
    def test_inversion_series(self):
        neg = invert_point(generic_point(9))
        expect = {1: Poly(-1), 2: Poly((0, 1)), 3: Poly((0, 0, -1)),
                  4: Poly((1, 0, 0, 1)), 5: Poly((0, -3, 0, 0, -1)),
                  6: Poly((0, 0, 6, 0, 0, 1))}
        for k, c in expect.items():
            assert neg.u[k] == S2Elem(c)

    def test_inverse_lies_on_curve(self):
        neg = invert_point(generic_point(9))
        assert all(c.is_zero() for c in neg.curve_residual(A).coeffs)

    def test_double_inversion(self):
        P = generic_point(9)
        back = invert_point(invert_point(P))
        assert back.u.agrees_with(P.u) and back.v.agrees_with(P.v)

    def test_identity_inverts_to_itself(self):
        O = identity_point(7)
        iO = invert_point(O)
        assert iO.u.valuation() == iO.u.order

    def test_inversion_needs_transverse_point(self):
        zero = S2Elem(0)
        bad = ChartPoint(Series.from_terms({2: S2Elem(1)}, 6, zero),
                         Series.from_terms({3: S2Elem(1)}, 6, zero))
        with pytest.raises(ValueError):
            invert_point(bad)

    def test_translation_constant_term(self):
        img = translate_by_Q(generic_point(9))
        assert img.u[0] == S2Elem.d()

    def test_translation_lands_on_curve(self):
        img = translate_by_Q(generic_point(10))
        assert all(c.is_zero() for c in img.curve_residual(A).coeffs)

    def test_translation_of_identity_is_order_two_point(self):
        img = translate_by_Q(identity_point(8))
        assert img.u[0] == ORDER_TWO.d
        assert img.v[0] == ORDER_TWO.e
        assert all(img.u[k].is_zero() for k in range(1, img.u.order))

    def test_chord_relation_between_output_coordinates(self):
        # (v_img - e) * (u(-P) - d) == (v(-P) - e) * (u_img - d), i.e. the
        # image lies on the chord through Q, cross-multiplied so no series
        # inverse is involved
        P = generic_point(9)
        neg = invert_point(P)
        img = translate_by_Q(P)
        zero = P.u.zero

        def minus_const(s, c):
            return s - Series.from_terms({0: c}, s.order, zero)

        lhs = minus_const(img.v, ORDER_TWO.e) * minus_const(neg.u, ORDER_TWO.d)
        rhs = minus_const(neg.v, ORDER_TWO.e) * minus_const(img.u, ORDER_TWO.d)
        assert lhs.agrees_with(rhs)

    def test_order_two_datum(self):
        fresh = OrderTwoDatum()
        assert fresh.is_consistent()
        assert fresh.d * fresh.d * fresh.d == S2Elem(2, A, 0)
        assert fresh.e == s2(-2, (0, -1), 0)


# The sha256 of isogeny_series at each pinned order as computed with v(u)
# from the contracting iteration (12 to 64) and with the S2 series products
# of the dense loops over `S2Elem.__mul__` (96); the Newton step and the
# packed S2 kernel must give the same bytes.
PINNED = Path(__file__).resolve().parent / "data" / "isogeny_hashes.json"


def isogeny_digest(order):
    """The sha256 of the sorted-key JSON {"u": ..., "v": ..., "a": ...} of
    isogeny_series(order): u', v' and a', each written by its `to_json`."""
    iso = isogeny_series(order)
    text = json.dumps({"u": iso.u_series.to_json(),
                       "v": iso.v_series.to_json(),
                       "a": iso.a_target.to_json()}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestIsogeny:
    @pytest.mark.parametrize("order", [12, 24, 40, 64, 96])
    def test_series_are_byte_identical_to_pinned(self, order):
        assert isogeny_digest(order) == json.loads(PINNED.read_text())[
            str(order)]

    def test_recovered_target_coefficient(self):
        iso = isogeny_series(8)
        assert iso.a_target == TARGET_A
        assert iso.a_target == s2((0, 0, 1), 3, (0, -1))

    def test_u_prime_display_coefficients(self):
        iso = isogeny_series(7)
        for k, val in U_PRIME.items():
            assert iso.u_series[k] == val

    def test_v_prime_display_coefficients(self):
        iso = isogeny_series(9)
        for k, val in V_PRIME.items():
            assert iso.v_series[k] == val

    def test_matches_oracle_beyond_displays(self):
        # the oracle's blunt truncation contaminates its top two orders, so
        # run it two orders past the engine before comparing
        _, _, u2_o, v2_o, a2_o = oracle_pipeline(12)
        iso = isogeny_series(10)
        for k in range(1, 10):
            assert sympy.expand(to_sympy(iso.u_series[k]) - _coeff(u2_o, k)) == 0
        for k in range(3, 10):
            assert sympy.expand(to_sympy(iso.v_series[k]) - _coeff(v2_o, k)) == 0
        assert sympy.expand(to_sympy(iso.a_target) - a2_o) == 0

    def test_target_weierstrass_relation(self):
        iso = isogeny_series(10)
        resid = iso.weierstrass_residual()
        assert all(c.is_zero() for c in resid.coeffs)

    def test_integrality(self):
        assert isogeny_series(10).is_integral()

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            isogeny_series(1)


class TestQSeries:
    def test_middle_series_display(self):
        _, q1, _ = q_series_on_u(7)
        expect = [0, -1, (0, 1), (0, 0, -1), (6, 0, 0, 1), (0, -16, 0, 0, -1),
                  (0, 0, 30, 0, 0, 1)]
        for k, c in enumerate(expect):
            assert q1[k] == Poly(c)

    def test_top_series_display(self):
        _, _, q2 = q_series_on_u(7)
        expect = {3: Poly(-3), 4: Poly((0, 5)), 5: Poly((0, 0, -7)),
                  6: Poly((12, 0, 0, 9))}
        assert q2.valuation() == 3
        for k, c in expect.items():
            assert q2[k] == c

    def test_bottom_series_where_sources_agree(self):
        q0, _, _ = q_series_on_u(7)
        assert q0[3] == Poly((0, -2))
        assert q0[4] == Poly((0, 0, 2))
        assert q0[5] == Poly((-12, 0, 0, -2))
        assert q0[6] == Poly((0, 32, 0, 0, 2))

    def test_contested_coefficient_is_reported_not_fixed(self):
        q0, _, _ = q_series_on_u(5)
        assert q0[2] == Poly(3)  # what the isogeny actually yields
        report = q_series_mismatch_report()
        assert report["only_known_mismatch"]
        [entry] = report["mismatches"]
        assert entry == {"series": 0, "degree": 2, "from_isogeny": "3",
                         "tabulated": "-3"}

    def test_decomposition_reassembles(self):
        q0, q1, q2 = q_series_on_u(8)
        iso = isogeny_series(8)
        d_elem = S2Elem.d()
        for k in range(8):
            rebuilt = (S2Elem(q0[k]) + S2Elem(q1[k]) * d_elem
                       + S2Elem(q2[k]) * d_elem * d_elem)
            assert rebuilt == iso.u_series[k]


class TestDerivations:
    def test_commutation_matrix(self):
        rep = derive_commutation()
        rows = [[str(p) for p in row] for row in rep["matrix"]]
        assert rows == [["a^2", "-2*a", "6"], ["3", "0", "a"],
                        ["-a", "3", "0"]]
        assert rep["ok"]
        assert all(r.is_zero() for r in rep["residuals"])

    def test_adem_and_psi(self):
        rep = derive_adem_and_psi()
        assert rep["ok"]
        assert rep["psi"] == psi()
        assert rep["rows"][1] == {(1, 0): Poly(1), (2, 1): Poly(-2),
                                  (0, 2): Poly(2)}
        assert rep["rows"][2] == {(2, 0): Poly(1), (0, 1): Poly(-1),
                                  (0, 2): -A, (1, 2): Poly(2)}
        assert rep["rows"][0] == {(0, 0): Poly(1), (0, 1): A, (1, 1): Poly(-2),
                                  (0, 2): A * A, (1, 2): Poly((0, -2)),
                                  (2, 2): Poly(4)}
        assert all(r.is_zero() for r in rep["residuals"])

    def test_composite_on_unit_projects_to_unit(self):
        # evaluating every word Q_i Q_j on 1 in the rank-1 module and summing
        # against the derived rows gives (1, 0, 0)
        rep = derive_adem_and_psi()
        std = standard_module()
        one = [ONE]
        for k, row in enumerate(rep["rows"]):
            total = ZERO
            for (i, j), c in row.items():
                inner = act(std, Operation.q(j), one)
                outer = act(std, Operation.q(i), inner)
                total = total + c * outer[0]
            assert total == (ONE if k == 0 else ZERO)

    def test_combo_formatting(self):
        text = format_word_combo({(1, 0): Poly(1), (2, 1): Poly(-2),
                                  (0, 2): Poly(2)})
        assert text == "2 Q0 Q2 + Q1 Q0 - 2 Q2 Q1"


class TestProjectiveSpaceChecks:
    def test_squaring_mod_two(self):
        rep = canonical_subgroup_check([Poly(1), A, A + 1, A * A + 2,
                                        A * A * A - 5])
        assert rep["ok"]
        assert all(r["ok"] for r in rep["results"])

    def test_squaring_mod_two_random(self):
        import random
        rng = random.Random(17)
        sample = [Poly([rng.randrange(-9, 10) for _ in range(5)])
                  for _ in range(20)]
        assert canonical_subgroup_check(sample)["ok"]

    def test_product_rule_consistency(self):
        rep = cartan_projective_check(9)
        assert rep["ok"]
        assert rep["order"] >= 9
