"""Tests for the amplified-ring engine and its torsion-free witness model."""

import os
import random
import subprocess
import sys

import pytest

from powerops.poly import Poly, A, ONE
from powerops.opalgebra import Operation, normal_form, psi
from powerops.opmodules import standard_module, act
from powerops.amplified import (AmplifiedRing, WitnessModel,
                                WindowOverflowError,
                                scalars_continuity_check, nonexample_check)


def gen_key(j, word):
    return ((j, tuple(word)), 1)


def rand_window_poly(ring, rng, max_factors=2, theta_max=1, word_max=1,
                     max_terms=3):
    """Random element built from small window generators.

    Generators are kept to theta exponent <= theta_max and word length <=
    word_max so that applying theta or a composite operation afterwards
    stays representable (each theta raises the exponent by one; each letter
    of a composite operation can lengthen words through straightening).
    """
    from powerops.amplified import AmplifiedPoly
    gens = [(j, word) for j in range(theta_max + 1)
            for word in ((), (1,), (2,)) if len(word) <= word_max]
    total = ring.const(rng.randrange(-2, 3))
    for _ in range(rng.randrange(1, max_terms + 1)):
        factors = {}
        for _ in range(rng.randrange(1, max_factors + 1)):
            g = rng.choice(gens)
            factors[g] = factors.get(g, 0) + 1
        mono = tuple(sorted(factors.items()))
        coeff = Poly([rng.randrange(-2, 3) for _ in range(2)])
        total = total + AmplifiedPoly(ring, {mono: coeff})
    return total


class TestWitnessDefinition:
    def test_q0_on_generator(self):
        R = AmplifiedRing()
        x = R.x()
        expected = x * x + 2 * R.gen(1, ())
        assert R.q(0, x) == expected

    def test_q_on_constants(self):
        R = AmplifiedRing()
        assert R.q(1, R.one()).is_zero()
        assert R.q(2, R.one()).is_zero()
        assert R.q(0, R.one()) == R.one()
        assert R.q(1, R.const(A)) == R.const(3)

    def test_q1_q2_append_letters(self):
        R = AmplifiedRing()
        assert R.q(1, R.x()) == R.gen(0, (1,))
        assert R.q(2, R.gen(0, (1,))) == R.gen(0, (2, 1))

    def test_q1_theta_x_expansion(self):
        # Q1 theta x with every Q0 expanded through the witness equation:
        # Q2Q1x - 2 theta Q2x - 2 (Q2x)^2 - x^2 Q1x - 2 theta x Q1x
        #   - a Q1x Q2x
        R = AmplifiedRing()
        x, q1x, q2x = R.x(), R.gen(0, (1,)), R.gen(0, (2,))
        expected = (R.gen(0, (2, 1)) - 2 * R.gen(1, (2,)) - 2 * q2x * q2x
                    - x * x * q1x - 2 * R.gen(1, ()) * q1x - A * q1x * q2x)
        assert R.q(1, R.theta(x)) == expected


class TestTheta:
    def test_integers(self):
        R = AmplifiedRing()
        assert R.theta(R.one()).is_zero()
        assert R.theta(R.const(2)) == R.const(-1)
        assert R.theta(R.const(-1)) == R.const(-1)
        for n in range(-5, 6):
            assert R.theta(R.const(n)) == R.const((n - n * n) // 2)

    def test_on_scalar_polynomials_against_action_oracle(self):
        # theta(p(a)) must satisfy Q0 p = p^2 + 2 theta p with Q0 taken from
        # the standard action on R.
        R = AmplifiedRing()
        std = standard_module()
        for p in (A, A * A, A + 1, 3 * A ** 3 - 2, Poly((4, 0, -1))):
            q0p = act(std, Operation.q(0), (p,))[0]
            expected = (q0p - p * p).divide_int_exact(2)
            assert R.theta(R.const(p)) == R.const(expected)

    def test_negation_rule(self):
        R = AmplifiedRing()
        x = R.x()
        assert R.theta(-x) == -R.theta(x) - x * x

    def test_sum_bracketing(self):
        R = AmplifiedRing()
        rng = random.Random(11)
        s = rand_window_poly(R, rng)
        t = rand_window_poly(R, rng)
        u = rand_window_poly(R, rng)
        left = R.theta(s + t) + R.theta(u) - (s + t) * u
        right = R.theta(s) + R.theta(t + u) - s * (t + u)
        assert left == right == R.theta(s + t + u)


class TestFoldEngine:
    """theta is a fold over terms with the product rule per term; these
    compare it with computations that share none of that code."""

    def test_agrees_with_witness_model(self):
        # Coefficients up to a-degree 6 and generator exponents up to 5;
        # theta generators enter to the first power, where the model stays
        # fast.
        from powerops.amplified import AmplifiedPoly
        R = AmplifiedRing(theta_depth=2, word_depth=3)
        M = WitnessModel(max_degree=6)
        rng = random.Random(4242)
        words = ((), (1,), (2,))
        for _ in range(12):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                e = rng.randint(1, 5)
                factors = {(0, rng.choice(words)): e}
                if e < 5 and rng.random() < 0.5:
                    g = (rng.randint(0, 1), rng.choice(words))
                    step = 1 if g[0] else rng.randint(1, 5 - e)
                    factors[g] = factors.get(g, 0) + step
                coeff = [rng.randint(-3, 3) for _ in range(rng.randint(0, 6))]
                terms[tuple(sorted(factors.items()))] = Poly(
                    coeff + [rng.choice([-1, 1])])
            p = AmplifiedPoly(R, terms) + rng.randint(-3, 3)
            assert M.embed(R.theta(p)) == M.theta(M.embed(p))

    @pytest.mark.parametrize("text", [
        "t x (t Q[2] x)^2",
        "2 a (t x)^3 - (t x)^3 + a^2 Q[1] x",
        "(t Q[1] x)^2 x^2 - 3 t Q[2] x",
    ])
    def test_agrees_with_witness_model_on_theta_powers(self, text):
        # theta generators raised to powers; each takes theta^2 generators
        # and their powers into the embedded result
        R = AmplifiedRing(theta_depth=2, word_depth=3)
        M = WitnessModel(max_degree=6)
        p = R.parse(text)
        assert M.embed(R.theta(p)) == M.theta(M.embed(p))

    def test_dense_scalars_against_action_oracle(self):
        R = AmplifiedRing()
        std = standard_module()
        rng = random.Random(80)
        for degree in (0, 1, 2, 7, 31, 59, 80):
            c = Poly([rng.randint(-9, 9) for _ in range(degree)]
                     + [rng.choice([-9, -1, 1, 9])])
            q0c = act(std, Operation.q(0), (c,))[0]
            want = (q0c - c * c).divide_int_exact(2)
            assert R.theta(R.const(c)) == R.const(want)

    @pytest.mark.parametrize("text, message", [
        ("a^5 Q[1 2 2 2] x", "generator theta^0 Q[1, 1, 2, 2, 2] x outside "
                             "window (theta <= 3, word <= 4)"),
        ("t^3 x", "generator theta^4 Q[] x outside window (theta <= 3, "
                  "word <= 4)"),
    ])
    def test_window_error_messages(self, text, message):
        R = AmplifiedRing(3, 4)
        p = R.parse(text)
        with pytest.raises(WindowOverflowError) as exc:
            R.theta(p)
        assert str(exc.value) == message

    def test_theta_forms_q_of_a_monomial_only_when_needed(self):
        # Q1 of a generator at the word edge leaves the window; theta of it
        # with an integer coefficient needs no Q, with an a-multiple it does
        R = AmplifiedRing(3, 4)
        lone = R.parse("3 Q[1 2 2 2] x")
        want = "3 t Q[1 2 2 2] x - 3 (Q[1 2 2 2] x)^2"
        assert str(R.theta(lone)) == want
        with pytest.raises(WindowOverflowError):
            R.theta(R.parse("a^5 Q[1 2 2 2] x"))
        assert str(R.theta(lone)) == want

    def test_constants_hash_as_their_coefficient(self):
        R = AmplifiedRing()
        for n in (-3, 0, 1, 7):
            assert R.const(n) == n
            assert hash(R.const(n)) == hash(n)
        assert R.const(A) == A and A == R.const(A)
        assert hash(R.const(A)) == hash(A)
        assert {A: "v"}.get(R.const(A)) == "v"


class TestFiveIdentities:
    """The displayed theta identities, as polynomial identities.

    Inputs are window elements (small theta exponents and word lengths),
    while the ambient ring is given extra window headroom: applying Q to a
    theta generator straightens through deeper generators, and values in
    the free ring do not depend on where the cap sits.
    """

    ring = AmplifiedRing(theta_depth=4, word_depth=6)

    def setup_method(self):
        self.rng = random.Random(20240819)

    def pairs(self, n, **kw):
        for _ in range(n):
            yield (rand_window_poly(self.ring, self.rng, **kw),
                   rand_window_poly(self.ring, self.rng, **kw))

    def test_theta_of_sum(self):
        R = self.ring
        for s, t in self.pairs(12):
            assert R.theta(s + t) == R.theta(s) + R.theta(t) - s * t

    def test_theta_of_scalar_multiple(self):
        R = self.ring
        for s, _ in self.pairs(12):
            lhs = R.theta(R.const(A) * s)
            rhs = (A * A * R.theta(s) - A * R.q(1, s)
                   + Poly(3) * R.q(2, s))
            assert lhs == rhs

    def test_theta_of_product(self):
        R = self.ring
        x = R.x()
        lhs = R.theta(x * x)
        rhs = (2 * x * x * R.theta(x) + 2 * R.theta(x) * R.theta(x)
               + R.q(1, x) * R.q(2, x) + R.q(2, x) * R.q(1, x))
        assert lhs == rhs
        for s, t in self.pairs(8, max_terms=2):
            lhs = R.theta(s * t)
            rhs = (s * s * R.theta(t) + t * t * R.theta(s)
                   + 2 * R.theta(s) * R.theta(t)
                   + R.q(1, s) * R.q(2, t) + R.q(2, s) * R.q(1, t))
            assert lhs == rhs

    def test_q1_of_theta(self):
        R = self.ring
        for s, _ in self.pairs(6, max_factors=1, max_terms=2):
            lhs = R.q(1, R.theta(s))
            rhs = (R.q(2, R.q(1, s)) - R.q(0, R.q(2, s))
                   - R.q(0, s) * R.q(1, s) - A * R.q(1, s) * R.q(2, s)
                   - R.q(2, s) * R.q(2, s))
            assert lhs == rhs

    def test_q2_of_theta(self):
        R = self.ring
        for s, _ in self.pairs(6, max_factors=1, max_terms=2):
            lhs = R.q(2, R.theta(s))
            rhs = (R.theta(R.q(1, s)) + A * R.theta(R.q(2, s))
                   - R.q(1, R.q(2, s)) - R.q(0, s) * R.q(2, s))
            assert lhs == rhs


class TestFrobenius:
    def test_generator_and_unit(self):
        R = AmplifiedRing()
        assert R.frobenius_check(R.x())
        assert R.frobenius_check(R.one())

    def test_hundred_random_polynomials(self):
        R = AmplifiedRing(theta_depth=2, word_depth=3)
        rng = random.Random(31415)
        for _ in range(100):
            assert R.frobenius_check(rand_window_poly(R, rng))


class TestStraighteningOnAmplified:
    ring = AmplifiedRing(theta_depth=4, word_depth=6)

    def test_adem_as_operators(self):
        R = self.ring
        rng = random.Random(777)
        q1q0 = normal_form("Q1 Q0")
        q2q0 = normal_form("Q2 Q0")
        for _ in range(8):
            p = rand_window_poly(R, rng, max_terms=2)
            assert R.q(1, R.q(0, p)) == R.operation(q1q0, p)
            assert R.q(2, R.q(0, p)) == R.operation(q2q0, p)

    def test_commutation_as_operators(self):
        R = self.ring
        rng = random.Random(778)
        for i in range(3):
            rule = normal_form("Q%d a" % i)
            for _ in range(6):
                p = rand_window_poly(R, rng, max_terms=2)
                assert R.q(i, R.const(A) * p) == R.operation(rule, p)

    def test_psi_theta_commutes_on_generator(self):
        R = AmplifiedRing(theta_depth=3, word_depth=3)
        x = R.x()
        assert R.psi(R.theta(x)) == R.theta(R.psi(x))


class TestWitnessModel:
    def setup_method(self):
        self.R = AmplifiedRing(theta_depth=2, word_depth=3)
        self.M = WitnessModel(max_degree=7)

    def test_theta_is_division_on_generator(self):
        R, M = self.R, self.M
        assert M.embed(R.theta(R.x())) == M.theta(M.x())

    def test_embedding_respects_all_operations(self):
        R, M = self.R, self.M
        rng = random.Random(515)
        for _ in range(10):
            p = rand_window_poly(R, rng)
            image = M.embed(p)
            assert M.embed(R.theta(p)) == M.theta(image)
            for i in range(3):
                assert M.embed(R.q(i, p)) == M.q(i, image)

    def test_identities_are_theorems_in_model(self):
        M = self.M
        y = M.x()
        ty = M.theta(y)
        q = [M.q(i, y) for i in range(3)]
        a = M.const(A)
        assert M.q(1, ty) == (M.q(2, q[1]) - M.q(0, q[2]) - q[0] * q[1]
                              - a * q[1] * q[2] - q[2] * q[2])
        assert M.q(2, ty) == (M.theta(q[1]) + a * M.theta(q[2])
                              - M.q(1, q[2]) - q[0] * q[2])

    def test_psi_theta_in_model(self):
        M = WitnessModel(max_degree=8)
        y = M.x()
        assert M.operation(psi(), M.theta(y)) == M.theta(M.operation(psi(), y))


class TestWindow:
    def test_theta_depth_overflow(self):
        R = AmplifiedRing(theta_depth=2, word_depth=3)
        t2 = R.gen(2, ())
        with pytest.raises(WindowOverflowError):
            R.theta(t2)

    def test_word_depth_overflow(self):
        R = AmplifiedRing(theta_depth=2, word_depth=3)
        g = R.gen(0, (1, 2, 1))
        with pytest.raises(WindowOverflowError):
            R.q(2, g)

    def test_bad_generator_request(self):
        R = AmplifiedRing()
        with pytest.raises(WindowOverflowError):
            R.gen(3, ())
        with pytest.raises(ValueError):
            R.gen(0, (3,))


class TestParsing:
    def test_parse_basic(self):
        R = AmplifiedRing()
        p = R.parse("3 a t^2 Q[1 2] x + x^2 - 2")
        expected = (3 * R.const(A) * R.gen(2, (1, 2)) + R.x() * R.x()
                    - R.const(2))
        assert p == expected

    def test_roundtrip(self):
        R = AmplifiedRing(theta_depth=3, word_depth=3)
        rng = random.Random(606)
        samples = [R.q(1, R.theta(R.x())), R.theta(R.theta(R.x())),
                   R.q(0, R.x() * R.x()), R.zero(), R.const(-A ** 3 + 9),
                   -(R.gen(2, (1, 2)) ** 3) * R.x() ** 2 * R.const(A - 4)]
        samples += [rand_window_poly(R, rng) for _ in range(10)]
        for p in samples:
            assert R.parse(str(p)) == p

    def test_parse_errors(self):
        R = AmplifiedRing()
        for text in ["t + x", "Q[1 x", "(a + 1) x", "(x", "x)", "(2 x)^2",
                     "x^-2", "a^-1 x", "Q[1]^2 x", "y"]:
            with pytest.raises(ValueError):
                R.parse(text)

    def test_generator_prefix_order(self):
        # A generator is written t^j Q[w] x, as str prints it.  Q1(theta x)
        # is a different element, so "Q[1] t x" must not be read as either.
        R = AmplifiedRing()
        assert R.parse("t Q[1] x") == R.gen(1, (1,))
        assert len(R.q(1, R.theta(R.x())).terms) == 6
        for text in ["Q[1] t x", "t t x", "t Q[1] t x"]:
            with pytest.raises(ValueError):
                R.parse(text)


class TestScalarContinuity:
    def test_report(self):
        report = scalars_continuity_check(max_deg=4, max_apow=6)
        assert report["checked"] == (1 + 3 + 7 + 15 + 31) * 7
        # The 2R half holds for every monomial (operations are additive),
        # and the (2, a) half holds for the generating set; that is what
        # continuity of the action needs.  Composites can escape (2, a),
        # and the sweep must find them, starting in degree 2.
        assert report["generator_level_ok"]
        assert all(f["needs"] == "2R + aR" for f in report["failures"])
        assert not report["ok"]
        assert report["min_failing_degree"] == 2

    def test_composite_escape_is_real(self):
        # Q1 Q1 (a^3): the inner Q1 gives 2a^4 - 27a, and the outer one
        # sends -27a to -81 by additivity, an odd constant term.  Frozen
        # from a hand expansion through the commutation rules.
        std = standard_module()
        inner = act(std, Operation.q(1), (A ** 3,))[0]
        assert inner == 2 * A ** 4 - 27 * A
        outer = act(std, Operation.q(1), (inner,))[0]
        assert outer == 4 * A ** 6 - 96 * A ** 3 + 243
        assert outer.constant_term() % 2 == 1

    def test_generators_preserve_both_ideals(self):
        std = standard_module()
        for g in [Operation.unit(), Operation.q(0), Operation.q(1),
                  Operation.q(2)]:
            for k in range(7):
                assert act(std, g, (2 * A ** k,))[0].divisible_by_int(2)
                out = act(std, g, (A ** (3 + k),))[0]
                assert out.constant_term() % 2 == 0

    def test_spot_values(self):
        std = standard_module()
        # Q1(2a) = 6 lies in 2R
        assert act(std, Operation.q(1), (2 * A,))[0] == Poly(6)
        # Q2(a^3) lies in 2R + aR
        out = act(std, Operation.q(2), (A ** 3,))[0]
        assert out.constant_term() % 2 == 0

    def test_nonexample(self):
        report = nonexample_check()
        assert report["ok"]
        assert report["descends_mod_2"]
        assert "3" in report["witness"]


class TestSerialization:
    def test_json_shape(self):
        R = AmplifiedRing()
        p = R.q(0, R.x())
        data = p.to_json()
        assert {"factors", "coeff"} <= set(data["terms"][0])


class TestPackedTerms:
    """The packed store: a term n a^k m is one entry {key: n}, the key
    holding k and every generator exponent in fields of `_WIDTH` bits."""

    def test_exponent_past_the_field_top_raises(self):
        from powerops.amplified import _TOP
        R = AmplifiedRing()
        x = R.x()
        top = x ** (_TOP - 1)  # the largest exponent a field holds
        assert str(top) == "x^%d" % (_TOP - 1)
        with pytest.raises(WindowOverflowError):
            top * x
        half = x ** (_TOP // 2)
        with pytest.raises(WindowOverflowError):
            half * half
        a_top = R.const(Poly.a_power(_TOP - 1))
        with pytest.raises(WindowOverflowError):
            a_top * R.const(A)
        with pytest.raises(WindowOverflowError):
            R.const(Poly.a_power(_TOP))
        with pytest.raises(WindowOverflowError):
            R.parse("x^%d" % _TOP)
        # a product whose large exponents cancel is fine
        assert (top - top) * x == 0

    def test_terms_round_trip(self):
        from powerops.amplified import AmplifiedPoly
        R = AmplifiedRing(theta_depth=2, word_depth=3)
        rng = random.Random(1818)
        samples = [R.zero(), R.const(-A ** 3 + 9), R.theta(R.x() ** 3),
                   R.q(1, R.theta(R.x())), R.parse("3 a^2 (t Q[1] x)^2 - x")]
        samples += [rand_window_poly(R, rng) for _ in range(10)]
        for p in samples:
            assert AmplifiedPoly(R, p.terms) == p
            assert all(p.coefficient(mono) == c for mono, c in p.terms.items())
            assert p.coefficient((((2, (1, 2)), 7),)) == 0
            assert all(isinstance(c, Poly) and c for c in p.terms.values())
            assert all(mono == tuple(sorted(mono)) for mono in p.terms)

    def test_equal_values_of_two_rings_compare_and_hash_equal(self):
        # generators no other test uses, first used in opposite orders
        g = (3, (2, 1, 2, 1, 1))
        h = (2, (1, 1, 2, 2, 2))
        R1, R2 = AmplifiedRing(3, 5), AmplifiedRing(3, 5)
        p = R1.gen(*g) + R1.const(A) * R1.gen(*h) ** 2
        q = R2.gen(*h) ** 2 * R2.const(A) + R2.gen(*g)
        assert p == q and hash(p) == hash(q) and {p: "v"}[q] == "v"
        assert str(p) == str(q) and p.terms == q.terms
        assert (R1.x() * p) ** 2 == (R2.x() * q) ** 2

    def test_ring_laws_near_the_field_top(self):
        from powerops.amplified import _TOP
        R = AmplifiedRing(theta_depth=1, word_depth=1)
        gens = [(j, w) for j in (0, 1) for w in ((), (1,), (2,))]
        rng = random.Random(4040)
        prime = (1 << 61) - 1
        point = {g: rng.randrange(2, prime) for g in gens + ["a"]}

        def value(p):
            """p at point, modulo the prime: a ring map to Z/prime."""
            total = 0
            for mono, c in p.terms.items():
                v = c.evaluate(point["a"])
                for g, e in mono:
                    v *= pow(point[g], e, prime)
                total += v
            return total % prime

        def element():
            # three factors stay below the top: exponents below _TOP / 3
            total = R.const(rng.randint(-3, 3))
            for _ in range(rng.randint(1, 3)):
                term = R.const(Poly([rng.randint(-5, 5) for _ in range(40)]
                                    + [rng.choice([-1, 1])]))
                for g in rng.sample(gens, rng.randint(1, 3)):
                    term = term * R.gen(*g) ** rng.randint(_TOP // 3 - 40,
                                                           _TOP // 3 - 1)
                total = total + term
            return total

        for _ in range(8):
            p, q, r = element(), element(), element()
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert (p + q) - q == p and p - p == 0
            assert value(p * q * r) == value(p) * value(q) * value(r) % prime
            assert value(p - q) == (value(p) - value(q)) % prime

    @pytest.mark.parametrize("g, e, h, f", [
        ((0, ()), 4, (0, (1,)), 3), ((0, (2,)), 4, (0, (1,)), 2),
        ((0, (1,)), 3, (0, ()), 2), ((0, ()), 3, (1, ()), 2),
        ((1, ()), 2, (0, (2,)), 2)])
    def test_q_and_theta_of_powers_agree_with_witness_model(self, g, e, h,
                                                             f):
        # c g^e h^f + n, with generator exponents 2 to 4
        R = AmplifiedRing(theta_depth=2, word_depth=3)
        M = WitnessModel(max_degree=6)
        rng = random.Random(100 * e + f)
        c = Poly([rng.randint(-3, 3), rng.choice([-1, 1])])
        p = R.const(c) * R.gen(*g) ** e * R.gen(*h) ** f + rng.randint(-2, 2)
        image = M.embed(p)
        for i in range(3):
            assert M.embed(R.q(i, p)) == M.q(i, image)
        assert M.embed(R.theta(p)) == M.theta(image)

    def test_only_the_monomial_asked_for_is_memoized(self):
        R = AmplifiedRing(1, 1)
        x8 = R.x() ** 8
        theta = R.theta(x8)
        (m,) = x8._terms
        assert list(R._mono_memo) == [m]
        theta_m, q_m = R._mono_memo[m]
        assert theta_m == theta._terms and q_m is None
        # the Q-triple is formed on request and joins theta in the entry
        q1 = R.q(1, x8)
        assert list(R._mono_memo) == [m]
        assert R._mono_memo[m][0] is theta_m
        assert R._mono_memo[m][1][1] == q1._terms

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak resident size from /proc")
    def test_theta_of_a_power_peaks_in_proportion_to_its_answer(self):
        # theta(x^32) has 25 598 packed terms and peaks near 37 MB; keeping
        # theta and Q of every x^k with k < 32 as well takes about 106 MB.
        # VmHWM (KiB) is the peak of the memory map exec made; ru_maxrss
        # would carry over the peak of this test process across the fork.
        src = os.path.dirname(os.path.dirname(
            sys.modules["powerops.amplified"].__file__))
        code = ("from powerops.amplified import AmplifiedRing\n"
                "R = AmplifiedRing(1, 1)\n"
                "R.theta(R.x() ** 32)\n"
                "print(*(line.split()[1] for line in open('/proc/self/status')"
                " if line.startswith('VmHWM:')))")
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert int(proc.stdout) < 70 * 1024

    def test_theta_and_q_of_a_long_power_build_their_chain_in_a_loop(self):
        # theta and Q of x^32 peel one x at a time, 32 steps; the steps
        # run in a loop, so 25 frames above this test's own depth suffice
        def values():
            R = AmplifiedRing(1, 1)
            p = R.x() ** 32
            return R.theta(p), R.q(1, p)

        want = values()
        depth, frame = 0, sys._getframe()
        while frame:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 25)
        try:
            got = values()
        finally:
            sys.setrecursionlimit(limit)
        assert got == want
