"""Tests for sparse multivariate polynomials."""

import random

import pytest

from powerops import poly
from powerops.mpoly import MPoly
from powerops.normlog import NORM, TRACE, NormContext, q_triple_R
from powerops.padic import PadicElem
from powerops.poly import Poly, A
from powerops.tower import SFrac


def test_constants_and_vars():
    assert MPoly.const(0).is_zero()
    assert MPoly.const(3) == 3
    x = MPoly.var("x")
    assert str(x) == "x"
    assert str(x - x) == "0"


def test_arithmetic():
    x, y = MPoly.var("x"), MPoly.var("y")
    p = (x + y) ** 2
    assert p == x ** 2 + 2 * x * y + y ** 2
    assert (x + 1) * (x - 1) == x ** 2 - 1
    assert -(x - y) == y - x
    assert p.degree() == 2
    with pytest.raises(ValueError):
        x ** -1


def test_ring_axioms_random():
    rng = random.Random(41)
    names = ["x", "y", "z"]

    def rand():
        out = MPoly()
        for _ in range(rng.randint(0, 4)):
            term = MPoly.const(rng.randint(-4, 4))
            for _ in range(rng.randint(0, 2)):
                term = term * MPoly.var(rng.choice(names))
            out = out + term
        return out

    for _ in range(60):
        p, q, r = rand(), rand(), rand()
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)


def test_substitute_into_integers():
    x, y = MPoly.var("x"), MPoly.var("y")
    p = x ** 2 * y - 3 * y + 5
    assert p.substitute({"x": 2, "y": 7}) == 4 * 7 - 21 + 5


def test_substitute_into_polynomial_ring():
    q0 = MPoly.var("q0")
    a = MPoly.var("a")
    p = q0 ** 2 + 2 * a * q0
    val = p.substitute({"q0": A + 1, "a": A})
    assert val == (A + 1) * (A + 1) + 2 * A * (A + 1)
    assert MPoly().substitute({"q0": A}) == Poly(0)


def test_string_form():
    x, y = MPoly.var("x"), MPoly.var("y")
    assert str(3 * x ** 2 * y) == "3 x^2 y"
    assert str(x - 2 * y) == "x - 2 y"
    assert str(-x) == "- x"
    assert str(x * y + 1) == "1 + x y"


def test_coefficients_from_other_rings():
    # Z[a] and Z[1/2][a] coefficients; every other operand is a constant
    x, y = MPoly.var("x"), MPoly.var("y")
    p = (x + A) * (x - A)
    assert p == x ** 2 - A * A
    assert p.terms[()] == -(A * A)
    assert str(p) == "(-a^2) + x^2"
    half = SFrac(1, 0, 1)
    q = (x * 2 + y * A) * half
    assert q == x + y * SFrac(A, 0, 1)
    assert q - x * Poly(1) == y * SFrac(A, 0, 1)
    assert (q * 0).is_zero() and (q - q).is_zero()
    both = MPoly.combination([(x, Poly(2)), (y, 3), (x, -2)])
    assert both == 3 * y


def test_constants_hash_as_their_coefficient():
    assert MPoly.const(3) == 3 and hash(MPoly.const(3)) == hash(3)
    assert {3: "v"}.get(MPoly.const(3)) == "v"
    assert hash(MPoly()) == hash(0)


# --- the Horner scheme against the term-by-term loop ------------------------

def naive_substitute(form, values):
    """The term-by-term evaluation `substitute` made before it used a
    Horner scheme: each term forms its own powers.  Kept as the oracle."""
    total = 0
    for mono, c in form.terms.items():
        term = c
        for name, e in mono:
            term = term * values[name] ** e
        total = total + term
    return total


def same(x, y):
    """Equal values with equal stored fields, so equal printed bytes."""
    assert type(x) is type(y)
    slots = [s for s in getattr(type(x), "__slots__", ())
             if not s.startswith("_")]
    assert x == y
    assert [getattr(x, s) for s in slots] == [getattr(y, s) for s in slots]
    assert str(x) == str(y)


def random_form(rng, names, terms=6, degree=4, coeff=lambda r: r.randint(-5, 5)):
    out = MPoly()
    for _ in range(rng.randint(0, terms)):
        term = MPoly.const(coeff(rng))
        for name in names:
            term = term * MPoly.var(name) ** rng.randint(0, degree)
        out = out + term
    return out


def random_poly(rng, degree=4):
    return Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, degree + 1))])


class TestHornerScheme:
    NAMES = ("x", "y", "z")

    def check(self, values_of, seed, coeff=lambda r: r.randint(-5, 5)):
        rng = random.Random(seed)
        for _ in range(40):
            form = random_form(rng, self.NAMES, coeff=coeff)
            values = {n: values_of(rng) for n in self.NAMES}
            expected = naive_substitute(form, values)
            same(form.substitute(values), expected)
            # the scheme kept with the form gives the same again
            same(form.substitute(values), expected)

    def test_int_values(self):
        self.check(lambda r: r.randint(-30, 30), 1)

    def test_poly_values_and_coefficients(self):
        self.check(random_poly, 2)
        self.check(random_poly, 3, coeff=lambda r: random_poly(r, 2))

    def test_sfrac_values(self):
        self.check(lambda r: SFrac(random_poly(r, 3), r.randint(0, 2)), 4)

    def test_padic_values(self):
        self.check(lambda r: PadicElem.from_poly(random_poly(r, 6), 12, 5), 5)

    def test_mpoly_values(self):
        u, v = MPoly.var("u"), MPoly.var("v")
        self.check(lambda r: r.randint(-3, 3) * u + r.randint(-3, 3) * v
                   + r.randint(-3, 3), 6)

    def test_exponent_gaps(self):
        x, y = MPoly.var("x"), MPoly.var("y")
        for form in (x ** 3 + x, x ** 7 - 2 * x ** 2 * y ** 5 + y,
                     x ** 5 * y ** 4 + 3 * y ** 9 + 4):
            for value in (2, A + 3, SFrac(A - 1, 1)):
                values = {"x": value, "y": -A}
                same(form.substitute(values), naive_substitute(form, values))

    def test_zero_and_constant_forms(self):
        assert MPoly().substitute({}) == 0
        assert type(MPoly().substitute({"x": A})) is int
        assert MPoly.const(7).substitute({}) == 7
        c = A * A - 1
        assert MPoly.const(c).substitute({"x": 5}) is c
        assert (MPoly.var("x") - MPoly.var("x")).substitute({}) == 0

    def test_unused_names_may_be_left_out(self):
        x, y = MPoly.var("x"), MPoly.var("y")
        form = 3 * x ** 2 - x + 1
        assert form.substitute({"x": A}) == 3 * A * A - A + 1
        assert form.substitute({"x": 2, "w": None}) == 11
        with pytest.raises(KeyError):
            (form + y).substitute({"x": 2})

    def test_norm_and_trace_match_the_term_loop_on_each_host(self):
        rng = random.Random(7)
        hosts = [NormContext("R"), NormContext("S"),
                 NormContext("Shat", 8, 40)]
        for _ in range(8):
            p = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 6))]
                     + [rng.choice([-1, 1])])
            for ctx, x in zip(hosts, (p, SFrac(p, rng.randint(0, 2)),
                                      PadicElem.from_poly(p, 8, 40))):
                q = ctx.q_triple(x)
                values = {"q0": q[0], "q1": q[1], "q2": q[2], "a": A}
                same(ctx.norm_N(x), naive_substitute(NORM, values))
                same(ctx.trace_T(x), naive_substitute(TRACE, values))

    def test_norm_form_is_horner_ordered_q0_q1_q2_a(self):
        NORM.substitute({"q0": 1, "q1": 2, "q2": 3, "a": 4})
        name, steps = NORM._scheme
        assert name == "q0" and [gap for _, gap in steps] == [1, 1, 1, 0]
        # the cofactor of q0^0 is 2 q1^3 - 2 a q1 q2^2 + 4 q2^3
        name, steps = steps[-1][0]
        assert name == "q1" and [gap for _, gap in steps] == [2, 1, 0]
        assert steps[-1][0][0] == "q2"

    def test_norm_of_a_cubic_makes_thirteen_products(self, monkeypatch):
        products = []
        dense_mul = poly._dense_mul

        def counted(*args):
            products.append(args)
            return dense_mul(*args)

        q = q_triple_R(Poly([3, -1, 2, 5]))
        values = {"q0": q[0], "q1": q[1], "q2": q[2], "a": A}
        monkeypatch.setattr(poly, "_dense_mul", counted)
        value = NORM.substitute(values)
        # the term-by-term loop made 21
        assert len(products) == 13
        products.clear()
        assert naive_substitute(NORM, values) == value
        assert len(products) == 21
