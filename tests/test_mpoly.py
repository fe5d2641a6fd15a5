"""Tests for sparse multivariate polynomials."""

import random

import pytest

from powerops.mpoly import MPoly
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
