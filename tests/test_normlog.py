"""Tests for the trace, norm, and 2-adic logarithm layer.

The logarithm value at 1 + 2a is checked two ways: against digits frozen
from an independent rational-series computation (kept in this file), and
against that oracle re-run at test time.
"""

import random
from fractions import Fraction

import pytest

from powerops.poly import Poly, A, ONE, ZERO, DISC
from powerops.tower import SFrac, S2Elem, TARGET_A
from powerops.padic import PadicElem, PrecisionError, log_half
from powerops.opalgebra import Operation, psi
from powerops.opmodules import standard_module, act
from powerops import normlog
from powerops.normlog import (
    NormContext, norm_multiplicativity_check,
    linearization_check, norm_congruence_check,
    q_triple_R, q_triple_S, q_triple_padic, p_map,
    multiplication_matrix_symbolic, trace_norm_symbolic_check)

R = NormContext("R")
S = NormContext("S")

# ell(1 + 2a) mod (2^16, a^16), frozen from the rational-series oracle below.
ELL_1_2A = [52584, 15441, 112, 6028, 21787, 12832, 14724, 46560,
            13010, 10688, 24368, 34432, 61616, 19200, 22080, 35328]


# --- independent oracle: rational power series in a ------------------------

def _oracle_ell(x: Poly, prec2: int, precA: int, cutoff: int = 40):
    """ell(x) over Q[[a]] truncated at a^precA, then reduced mod 2^prec2.

    Uses only the operation action for the Q-values; everything else is
    plain Fraction power-series arithmetic, so it shares no code with the
    module under test beyond the already-tested action layer.
    """
    std = standard_module()

    def tr(p: Poly):
        return [Fraction(p[k]) for k in range(precA)]

    def smul(u, v):
        out = [Fraction(0)] * precA
        for i, ui in enumerate(u):
            if ui:
                for j in range(precA - i):
                    out[i + j] += ui * v[j]
        return out

    def sinv(u):
        inv = [Fraction(0)] * precA
        inv[0] = 1 / u[0]
        for k in range(1, precA):
            inv[k] = -u[0] ** -1 * sum(u[i] * inv[k - i]
                                       for i in range(1, k + 1))
        return inv

    q = [act(std, Operation.q(i), (x,))[0] for i in range(3)]
    psix = act(std, psi(), (x,))[0]
    n = (q[0] ** 3 + 2 * A * q[0] ** 2 * q[2] - A * q[0] * q[1] ** 2
         + A * A * q[0] * q[2] ** 2 - 6 * q[0] * q[1] * q[2]
         + 2 * q[1] ** 3 - 2 * A * q[1] * q[2] ** 2 + 4 * q[2] ** 3)
    half = (x * x * psix - n).divide_int_exact(2)
    m = smul(tr(half), sinv(tr(n)))
    total = [Fraction(0)] * precA
    mk = [Fraction(1)] + [Fraction(0)] * (precA - 1)
    for k in range(1, cutoff + 1):
        mk = smul(mk, m)
        c = Fraction((-1) ** (k - 1) * 2 ** (k - 1), k)
        for i in range(precA):
            total[i] += c * mk[i]
    mod = 1 << prec2
    out = []
    for c in total:
        assert c.denominator % 2 == 1
        out.append(c.numerator * pow(c.denominator, -1, mod) % mod)
    return out


# --- the old route to M, the oracle of NormContext.m_value ------------------

def old_m_value(ctx, x):
    """M x as m_value formed it before it used Psi = id on R and S.

    On S, x^2 Psi x / N x with Psi composed from the Q-action.  On an exact
    Poly in the completed ring, the exact N x and x^2 Psi x in Z[a], their
    difference halved exactly, and only then a reduction mod (2^n, a^m).
    """
    if ctx.host == "S":
        ratio = (x * x * ctx.psi_value(x)).div(ctx.norm_N(x))
        m = (ratio - 1).div(SFrac(2))
        if not m.is_in_S():
            raise ValueError("x^2 Psi x / N x is not in 1 + 2S")
        return m
    n = ctx.norm_N(x)
    if n.constant_term() % 2 == 0:
        raise ValueError("N x has even constant term; x is not a unit")
    half = (x * x * ctx.psi_value(x) - n).divide_int_exact(2)
    n_inv = PadicElem.from_poly(n, ctx.prec2, ctx.precA).inv()
    return PadicElem.from_poly(half, ctx.prec2, ctx.precA) * n_inv


def seeded_unit(rng, degree):
    """An exact Poly with odd constant term: a unit of the completed ring."""
    coeffs = [rng.randint(-60, 60) for _ in range(degree + 1)]
    coeffs[0] |= 1
    return Poly(coeffs)


def assert_same_as_old_route(ctx, x, log=True):
    """m_value, and log_ell unless log is False, give the old route's
    bytes, or all of them refuse x with ValueError."""
    try:
        m = old_m_value(ctx, x)
    except ValueError:
        for fn in (ctx.m_value, ctx.log_ell):
            with pytest.raises(ValueError):
                fn(x)
        return
    assert ctx.m_value(x).to_json() == m.to_json()
    if log:
        if isinstance(m, SFrac):
            m = PadicElem.from_sfrac(m, ctx.prec2, ctx.precA)
        assert ctx.log_ell(x).to_json() == log_half(m).to_json()


class TestSymbolicIdentification:
    def test_multiplication_matrix(self):
        m = multiplication_matrix_symbolic()
        assert str(m[0][0]) == "q0"
        assert str(m[0][1]) == "2 q2"
        assert str(m[1][1]) == "q0 + a q2"
        assert str(m[2][1]) == "q1"
        assert str(m[1][2]) == "2 q2 + a q1"

    def test_trace_and_det_match_formulas(self):
        rep = trace_norm_symbolic_check()
        assert rep["ok"]
        assert str(rep["trace"]) == "3 q0 + 2 a q2"
        # the determinant has exactly the eight displayed terms
        assert len(rep["det"].terms) == 8

    def test_matrix_against_concrete_multiplication(self):
        rng = random.Random(3)
        m = multiplication_matrix_symbolic()
        for _ in range(10):
            vals = {"q0": rng.randint(-5, 5), "q1": rng.randint(-5, 5),
                    "q2": rng.randint(-5, 5), "a": rng.randint(-3, 3)}
            elem = S2Elem(vals["q0"], vals["q1"], vals["q2"])
            rows = elem.mult_matrix()
            for i in range(3):
                for j in range(3):
                    sym = m[i][j].substitute(vals)
                    assert sym == rows[i][j].num.evaluate(vals["a"])


class TestTraceAndNorm:
    def test_integer_norm_is_cube(self):
        for n in range(-3, 4):
            assert R.norm_N(Poly(n)) == Poly(n ** 3)

    def test_trace_examples(self):
        assert R.trace_T(ONE) == Poly(3)
        assert R.trace_T(A) == A * A
        assert R.trace_T(ZERO) == ZERO

    def test_norm_of_curve_scalars(self):
        am3 = A - 3
        assert R.norm_N(am3) == -(am3 * am3 * am3)
        assert R.norm_N(DISC) == -(DISC ** 3)
        assert R.norm_N(A) == Poly([54, 0, 0, -1])

    def test_trace_additive(self):
        rng = random.Random(11)
        for _ in range(20):
            x = Poly([rng.randint(-6, 6) for _ in range(4)])
            y = Poly([rng.randint(-6, 6) for _ in range(4)])
            assert R.trace_T(x + y) == R.trace_T(x) + R.trace_T(y)

    def test_norm_matches_s2_determinant(self):
        rng = random.Random(12)
        for _ in range(15):
            x = Poly([rng.randint(-5, 5) for _ in range(3)])
            img = p_map(x)
            assert SFrac(R.norm_N(x)) == img.norm()
            assert SFrac(R.trace_T(x)) == img.trace()

    def test_multiplicativity_specific(self):
        assert norm_multiplicativity_check(R, A, A - 3)
        assert norm_multiplicativity_check(R, DISC, A * A + 1)
        assert norm_multiplicativity_check(S, SFrac(1, 1), SFrac(A))
        assert norm_multiplicativity_check(S, SFrac(A - 3), SFrac(DISC, 2))

    def test_multiplicativity_random(self):
        rng = random.Random(13)
        for _ in range(50):
            x = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
            y = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
            assert norm_multiplicativity_check(R, x, y)


class TestCongruenceAndLinearization:
    def test_norm_congruence_examples(self):
        for x in (A, A * A + 1, DISC, Poly([3, 1, 4, 1, 5])):
            assert norm_congruence_check(x)

    def test_norm_congruence_random(self):
        rng = random.Random(17)
        for _ in range(40):
            x = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
            assert norm_congruence_check(x)

    def test_linearization_stated_values(self):
        # eps-part of N(1 + eps r) is T(r): 3 at r=1, a^2 at r=a, 0 at r=0
        assert R.trace_T(ONE) == Poly(3)
        assert R.trace_T(A) == A * A
        assert R.trace_T(ZERO) == ZERO
        for r in (ONE, A, A * A, A + 2, ZERO):
            assert linearization_check(r)

    def test_linearization_random(self):
        rng = random.Random(19)
        for _ in range(15):
            r = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 4))])
            assert linearization_check(r)


class TestActionOnLocalizedHost:
    def test_p_map_is_ring_hom(self):
        rng = random.Random(23)
        for _ in range(20):
            x = SFrac(Poly([rng.randint(-4, 4) for _ in range(3)]),
                      rng.randint(0, 2))
            y = SFrac(Poly([rng.randint(-4, 4) for _ in range(3)]),
                      rng.randint(0, 2))
            assert p_map(x * y) == p_map(x) * p_map(y)
            assert p_map(x + y) == p_map(x) + p_map(y)

    def test_p_map_rejects_half_integers(self):
        with pytest.raises(ValueError):
            p_map(SFrac(1, 0, 1))

    def test_q_values_match_polynomial_host(self):
        # P sends a to a' = TARGET_A, so P(f) is f(a') by Horner in S2: an
        # oracle that shares no code with push_poly, where q_triple_S goes
        def horner(f):
            out = S2Elem(0)
            for c in reversed(f.coeffs):
                out = out * TARGET_A + c
            return out

        p_d_inv = horner(DISC).inv()
        rng = random.Random(29)
        for n in range(16):
            x = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
            dpow = n % 4
            want = horner(x) * p_d_inv ** dpow
            assert q_triple_S(SFrac(x, dpow)) == want.c
            if not dpow:
                assert tuple(map(SFrac, q_triple_R(x))) == want.c

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_p_map_on_each_power_of_d(self, order, monkeypatch):
        # the list of P(D)^-n starts from n <= 1 and grows in the order the
        # denominators ask for it
        monkeypatch.setattr(normlog, "_P_D_INV_POWERS",
                            normlog._P_D_INV_POWERS[:2])
        p_d_inv = S2Elem(*q_triple_R(DISC)).inv()
        dpows = range(9) if order == "ascending" else range(8, -1, -1)
        for n in dpows:
            for f in (1 + 2 * A + A ** 3, A - 3, DISC * (A + 1)):
                want = S2Elem(*q_triple_R(f)) * p_d_inv ** n
                assert p_map(SFrac(f, n)) == want

    def test_p_map_matches_the_hand_folded_product(self, monkeypatch):
        # p_map multiplies on the packed S2 kernel; the oracle forms P(D)^-n
        # with S2Elem.__mul__ and __pow__ alone, up to the D-powers that the
        # isogeny_norm workload reaches (12)
        monkeypatch.setattr(normlog, "_P_D_INV_POWERS",
                            normlog._P_D_INV_POWERS[:2])
        p_d_inv = S2Elem(*q_triple_R(DISC)).inv()
        rng = random.Random(37)
        for dpow in range(13):
            for _ in range(6):
                x = SFrac(Poly([rng.randint(-40, 40)
                                for _ in range(rng.randint(1, 9))]), dpow)
                want = S2Elem(*q_triple_R(x.num)) * p_d_inv ** x.dpow
                assert p_map(x) == want
        powers = normlog._P_D_INV_POWERS
        assert len(powers) == 13
        for n, entry in enumerate(powers):
            assert entry == powers[1] ** n

    def test_q_values_reach_denominators(self):
        # P(1/D) = P(D)^(-1), so the Q-values of 1/D carry denominator D^2
        q = q_triple_S(SFrac(1, 1))
        assert q[0] == SFrac(Poly([27, 0, 0, 2]), 2)
        assert q[1] == SFrac(Poly([0, 27, 0, 0, 1]), 2)
        assert q[2] == SFrac(9 * A * A, 2)
        assert p_map(SFrac(1, 1)) * p_map(SFrac(DISC)) == S2Elem(1)
        assert S.norm_N(SFrac(1, 1)) == SFrac(-1, 3)

    def test_q_triple_R_matches_standard_action(self):
        # the Q0 coefficient of push_poly against the rank-1 module action
        std = standard_module()
        rng = random.Random(31)
        samples = [ONE, A, DISC] + [Poly([rng.randint(-5, 5)
                                          for _ in range(5)])
                                    for _ in range(15)]
        for x in samples:
            assert q_triple_R(x) == tuple(act(std, Operation.q(i), (x,))[0]
                                          for i in range(3))
            assert R.psi_value(x) == act(std, psi(), (x,))[0]

    def test_psi_value_consistency(self):
        for x in (A, DISC, A * A - 3):
            assert SFrac(R.psi_value(x)) == S.psi_value(SFrac(x))
        assert R.psi_value(A) == A
        assert R.psi_value(DISC) == DISC
        # Psi is the identity on R and S, which m_value relies on
        rng = random.Random(41)
        for _ in range(20):
            x = Poly([rng.randint(-30, 30)
                      for _ in range(rng.randint(1, 9))])
            assert R.psi_value(x) == x
        for dpow in range(4):
            for _ in range(5):
                x = SFrac(Poly([rng.randint(-30, 30)
                                for _ in range(rng.randint(1, 9))]), dpow)
                assert S.psi_value(x) == x


class TestLogarithm:
    def test_central_identity_exact(self):
        # D^2 * Psi D = -N D as polynomials
        assert DISC * DISC * R.psi_value(DISC) == -R.norm_N(DISC)

    def test_m_values_on_disc_powers(self):
        for k in (-3, -2, -1, 1, 2, 3):
            for sgn in (1, -1):
                x = SFrac(sgn) * SFrac(DISC) ** k
                expect = SFrac(0) if k % 2 == 0 else SFrac(-1)
                assert S.m_value(x) == expect

    def test_ell_vanishes_on_units(self):
        zero = PadicElem.zero(20, 16)
        assert S.log_ell(SFrac(-1)) == zero
        for k in (-3, -2, -1, 1, 2, 3):
            for sgn in (1, -1):
                assert S.log_ell(SFrac(sgn) * SFrac(DISC) ** k) == zero

    def test_ell_vanishes_on_norm_one_scalars(self):
        zero = PadicElem.zero(20, 16)
        assert S.log_ell(SFrac(3)) == zero
        assert S.log_ell(SFrac(A - 3)) == zero

    def test_ell_frozen_digits(self):
        ctx = NormContext("Shat", prec2=16, precA=16)
        val = ctx.log_ell(Poly([1, 2]))
        assert list(val.res) == ELL_1_2A

    def test_ell_against_runtime_oracle(self):
        got = NormContext("Shat", prec2=16, precA=16).log_ell(Poly([1, 2]))
        assert list(got.res) == _oracle_ell(Poly([1, 2]), 16, 16)
        got9 = NormContext("Shat", prec2=9, precA=12).log_ell(Poly([1, 4]))
        assert list(got9.res) == _oracle_ell(Poly([1, 4]), 9, 12)

    def test_ell_additive(self):
        ctx = NormContext("Shat")
        u, v = Poly([1, 2]), Poly([1, 0, 2])
        assert ctx.log_ell(u * v) == ctx.log_ell(u) + ctx.log_ell(v)
        assert ctx.log_ell(u * u) == ctx.log_ell(u) + ctx.log_ell(u)

    def test_ell_rejects_nonunits(self):
        with pytest.raises(ValueError):
            S.log_ell(SFrac(A))
        with pytest.raises(ValueError):
            NormContext("Shat").log_ell(Poly([2, 1]))

    def test_m_needs_denominators(self):
        with pytest.raises(ValueError):
            R.m_value(A)


class TestAgainstOldRoute:
    """m_value and log_ell give the old route's bytes, and refuse what it
    refuses."""

    def test_seeded_units_at_precisions_1_to_256(self):
        rng = random.Random(43)
        for prec2 in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 256):
            for precA in (1, rng.randint(2, 64), rng.randint(65, 256)):
                ctx = NormContext("Shat", prec2, precA)
                x = seeded_unit(rng, rng.randint(0, 12))
                assert_same_as_old_route(ctx, x, log=prec2 + precA < 160)

    def test_dense_and_sparse_inputs_at_the_limits(self):
        ctx = NormContext("Shat", 256, 256)
        for x in (Poly([1] * 257), 1 + A ** 256):
            assert_same_as_old_route(ctx, x)

    def test_disc_powers(self):
        shat = NormContext("Shat")
        for k in range(-3, 4):
            for sgn in (1, -1):
                assert_same_as_old_route(S, SFrac(sgn) * SFrac(DISC) ** k)
                if k >= 0:
                    assert_same_as_old_route(shat, sgn * DISC ** k)

    def test_precision_edges(self):
        rng = random.Random(47)
        for _ in range(5):
            x = seeded_unit(rng, rng.randint(0, 8))
            for prec2, precA in ((1, 1), (1, 17), (12, 0), (1, 0)):
                assert_same_as_old_route(NormContext("Shat", prec2, precA), x)
        with pytest.raises(ValueError):
            NormContext("Shat", 12, 0).m_value(Poly([1, 2]))

    def test_non_units_are_refused_by_both(self):
        rng = random.Random(53)
        ctx = NormContext("Shat", 20, 16)
        for _ in range(10):
            x = seeded_unit(rng, rng.randint(0, 8)) + rng.choice((1, -1))
            with pytest.raises(ValueError):
                old_m_value(ctx, x)
            assert_same_as_old_route(ctx, x)
        for x in (SFrac(A), SFrac(A * A + 1), SFrac(A + 1, 1),
                  SFrac(1, 0, 1)):
            with pytest.raises(ValueError):
                old_m_value(S, x)
            assert_same_as_old_route(S, x)

    def test_on_S_units_and_seeded_elements(self):
        # the units of S are the +-(a - 3)^i (a^2 + 3 a + 9)^j D^-k
        rng = random.Random(59)
        factors = (SFrac(A - 3), SFrac(A * A + 3 * A + 9), SFrac(1, 1))
        for _ in range(12):
            x = SFrac(rng.choice((1, -1)))
            for f in factors:
                x = x * f ** rng.randint(0, 3)
            assert_same_as_old_route(S, x)
        for _ in range(30):
            x = SFrac(Poly([rng.randint(-9, 9)
                            for _ in range(rng.randint(1, 8))]) or ONE,
                      rng.randint(0, 3))
            assert_same_as_old_route(S, x, log=False)


class TestTruncatedAction:
    def test_agrees_with_exact_on_common_box(self):
        x = Poly([3, 5, 1, 7, 2])
        exact = q_triple_R(x)
        for prec2, precA in ((2, 30), (3, 40), (4, 60)):
            xt = PadicElem.from_poly(x, prec2, precA)
            approx = q_triple_padic(xt)
            for i in range(3):
                ref = PadicElem.from_poly(exact[i], prec2, precA)
                assert approx[i].agrees_with(ref)

    def test_output_precision_follows_contract(self):
        xt = PadicElem.from_poly(A, 2, 30)
        out = q_triple_padic(xt)
        assert out[0].precA == (30 - 3 * 2 - 2) // 2

    def test_insufficient_precision_refused(self):
        with pytest.raises(PrecisionError):
            q_triple_padic(PadicElem.from_poly(A, 16, 16))

    def test_m_value_on_truncated_input(self):
        x = Poly([1, 2])
        exact = NormContext("Shat", prec2=20, precA=16).m_value(x)
        trunc = NormContext("Shat").m_value(PadicElem.from_poly(x, 2, 100))
        assert trunc.agrees_with(exact)

    def test_m_value_refuses_truncated_nonunit(self):
        # N x = x^6 mod (2, a): x = a + 2 gives an even constant term
        x = PadicElem.from_poly(Poly([2, 1]), 2, 100)
        with pytest.raises(ValueError, match="not a unit of the completed"):
            NormContext("Shat").m_value(x)


class TestContextErrors:
    def test_unknown_host(self):
        with pytest.raises(ValueError):
            NormContext("T")

    def test_r_host_coerces_ints(self):
        assert R.norm_N(2) == Poly(8)
        assert R.trace_T(5) == Poly(15)
