import random

import pytest
from hypothesis import given, settings, strategies as st

from powerops.poly import Poly, A, DISC, ONE, ZERO, summands


def rand_poly(rng, deg=5, size=9):
    return Poly([rng.randint(-size, size) for _ in range(rng.randint(0, deg))])


def test_canonical_no_trailing_zeros():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly((0, 0)).coeffs == ()
    assert Poly(0).is_zero()
    assert Poly(5).degree() == 0
    assert ZERO.degree() == -1


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(200):
        x, y, z = (rand_poly(rng) for _ in range(3))
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x
        assert x * ONE == x
        assert x - x == ZERO


def test_power_and_shift():
    assert A ** 3 - 27 == DISC
    assert Poly((1, 1)) ** 2 == Poly((1, 2, 1))
    assert Poly((3,)).shift(2) == Poly((0, 0, 3))


def test_divmod_monic():
    rng = random.Random(11)
    for _ in range(100):
        q = rand_poly(rng)
        r = Poly([rng.randint(-5, 5) for _ in range(2)])
        x = q * DISC + r
        quo, rem = x.divmod_monic(DISC)
        assert quo == q and rem == r


def test_divide_exact():
    assert (DISC * Poly((2, 5))).divide_exact(Poly((2, 5))) == DISC
    try:
        Poly((1, 1)).divide_exact(Poly((0, 1)))
        assert False
    except ValueError:
        pass
    assert Poly((2, 4)).divide_int_exact(2) == Poly((1, 2))
    assert not Poly((1, 2)).divisible_by_int(2)


def test_evaluate():
    assert DISC.evaluate(3) == 0
    assert DISC.evaluate(4) == 64 - 27
    assert (A ** 2 + 1).evaluate(-2) == 5


def test_json_roundtrip():
    p = Poly((10 ** 40, -3, 0, 7))
    assert Poly.from_json(p.to_json()) == p
    assert p.to_json()[0] == str(10 ** 40)


def test_json_reads_only_integers():
    assert Poly.from_json([3, "-12", "0", 1]) == Poly((3, -12, 0, 1))
    for bad in (1.5, 2.0, True, False, None, [1], "1.5", " 7", "+3", "1_0",
                "", "x"):
        with pytest.raises(ValueError):
            Poly.from_json([1, bad])


def test_str():
    assert str(A ** 2 - 2 * A + 1) == "a^2 - 2*a + 1"
    assert str(ZERO) == "0"
    assert str(-A) == "-a"


# --- fast paths against the general path -----------------------------------

coeff_lists = st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=8)
small_ints = st.integers(-2 ** 40, 2 ** 40)


def convolve(x, y):
    """The product of two coefficient lists, by the schoolbook sum."""
    out = [0] * max(len(x) + len(y) - 1, 0)
    for i, ci in enumerate(x):
        for j, cj in enumerate(y):
            out[i + j] += ci * cj
    return out


def assert_canonical(p):
    assert type(p) is Poly
    assert type(p.coeffs) is tuple
    assert all(type(c) is int for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0


@settings(derandomize=True, max_examples=150, deadline=None)
@given(coeff_lists, coeff_lists, small_ints, st.integers(0, 6))
def test_fast_paths_equal_general_path(xs, ys, n, k):
    # Every result is compared with Poly() of the plain-integer answer,
    # which goes through the checking constructor.
    x, y = Poly(xs), Poly(ys)
    cases = [
        (x + 0, Poly(xs)), (0 + x, Poly(xs)), (x + ZERO, Poly(xs)),
        (ZERO + x, Poly(xs)), (x - 0, Poly(xs)), (x - ZERO, Poly(xs)),
        (x * 0, ZERO), (x * ZERO, ZERO), (0 * x, ZERO),
        (x * 1, Poly(xs)), (x * ONE, Poly(xs)), (ONE * x, Poly(xs)),
        (x * -1, Poly([-c for c in xs])), (-x, Poly([-c for c in xs])),
        (x * n, Poly([n * c for c in xs])), (n * x, Poly([n * c for c in xs])),
        (x * Poly(n), Poly([n * c for c in xs])),
        (Poly(n) * x, Poly([n * c for c in xs])),
        (x + n, Poly([xs[0] + n] + xs[1:] if xs else [n])),
        (n - x, Poly([n - xs[0]] + [-c for c in xs[1:]] if xs else [n])),
        (x.shift(k), Poly([0] * k + list(xs))),
        (x + y, Poly([a + b for a, b in zip(xs + [0] * len(ys),
                                             ys + [0] * len(xs))])),
        (x - y, Poly([a - b for a, b in zip(xs + [0] * len(ys),
                                             ys + [0] * len(xs))])),
        (x - x, ZERO), (x + -x, ZERO), ((x + y) - y, Poly(xs)),
        (x * y, Poly(convolve(xs, ys))),
    ]
    for got, want in cases:
        assert_canonical(got)
        assert got.coeffs == want.coeffs


def test_summands_grammar():
    assert summands("") == []
    assert summands("- 9*a^2 Q[1 2] + -d'^3 (t x)^2") == [
        (-1, [("9", 1), ("a", 2), ("Q[1 2]", 1)]),
        (-1, [("d'", 3), ("(", 1), ("t", 1), ("x", 1), (")", 2)])]
    for text in ["a^-1", "a^ 2", "a ^2", "2a", "a +", "* a", "a * * b",
                 "a - * b", "Q[1 x", "a % b", "(^2"]:
        with pytest.raises(ValueError):
            summands(text)
