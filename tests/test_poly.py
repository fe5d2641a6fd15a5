import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from powerops.poly import (Poly, A, DISC, ONE, ZERO, summands, _dense_divmod,
                           _kron_pack, _kron_unpack)


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


# --- the one long division, over Z[a], Q[a] and F2[a] ----------------------

ints = st.lists(st.integers(-50, 50), max_size=7)


def plus_times(q, y, r):
    """The coefficient list of q*y + r, by the schoolbook product."""
    out = [0] * max(len(q) + len(y) - 1, len(r))
    for i, qi in enumerate(q):
        for j, yj in enumerate(y):
            out[i + j] += qi * yj
    for i, ri in enumerate(r):
        out[i] += ri
    return out


def same(x, y, mod=None):
    """x == y as coefficient lists, up to trailing zeros (and mod `mod`)."""
    n = max(len(x), len(y))
    x, y = list(x) + [0] * (n - len(x)), list(y) + [0] * (n - len(y))
    if mod:
        return all((a - b) % mod == 0 for a, b in zip(x, y))
    return x == y


@settings(derandomize=True, max_examples=150, deadline=None)
@given(ints, ints)
def test_dense_divmod_by_monic(x, y):
    y = y[:4] + [1]
    q, r = _dense_divmod(x, y, lambda c: c)
    assert same(plus_times(q, y, r), x) and len(r) < len(y)
    assert Poly(x).divmod_monic(Poly(y)) == (Poly(q), Poly(r))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(ints, ints, st.integers(1, 9).map(lambda n: n * (-1) ** n))
def test_dense_divmod_exact_non_monic(p, y, lead):
    y = y[:4] + [lead]
    x = plus_times(p, y, [])
    q, r = _dense_divmod(x, y, lambda c: c // lead)
    assert same(q, p) and not any(r)
    assert Poly(x).divide_exact(Poly(y)) == Poly(p)
    if len(y) > 1 or abs(lead) > 1:  # y is not a unit
        with pytest.raises(ValueError):
            Poly(plus_times(p, y, [1])).divide_exact(Poly(y))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(ints, ints, st.integers(1, 7), st.integers(1, 5))
def test_dense_divmod_over_q(x, y, num, den):
    x = [Fraction(c, den) for c in x]
    y = [Fraction(c, 3) for c in y[:4]] + [Fraction(num, den)]
    q, r = _dense_divmod(x, y, lambda c: c / y[-1])
    assert same(plus_times(q, y, r), x) and len(r) < len(y)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(ints, ints)
def test_dense_divmod_over_f2(x, y):
    x = [c % 2 for c in x]
    y = [c % 2 for c in y[:4]] + [1]
    q, r = _dense_divmod(x, y, lambda c: c % 2)
    assert same(plus_times(q, y, r), x, mod=2) and len(r) < len(y)


# --- dense coefficient lists for the series kernels of test_tower.py ------

def padded(elems, zero, most):
    """Lists of one to `most` elements with zeros inside, behind a run of
    up to three zeros at each end."""
    body = st.lists(st.one_of(st.just(zero), elems), min_size=1,
                    max_size=most)
    ends = st.integers(0, 3)
    return st.tuples(ends, body, ends).map(
        lambda t: [zero] * t[0] + t[1] + [zero] * t[2])


# --- the Kronecker codec of Z[a] ------------------------------------------

def slot_edges(bits):
    """Coefficients at and next to both edges of the balanced slot
    [-2^(bits-1), 2^(bits-1)), and 0 and +-1."""
    half = 1 << (bits - 1)
    return [0, 1, -1, half - 1, half - 2, -half, 1 - half]


def assert_round_trip(coeffs, bits):
    p = Poly(coeffs)
    n = _kron_pack(p.coeffs, bits)
    assert n == p.evaluate(1 << bits)
    assert _kron_unpack(n, bits) == p.coeffs


@st.composite
def slot_polys(draw):
    bits = draw(st.integers(2, 300))
    half = 1 << (bits - 1)
    coeff = st.one_of(st.sampled_from(slot_edges(bits)),
                      st.integers(-half, half - 1))
    return bits, draw(st.lists(coeff, max_size=12))


# A faulty decoder can loop for ever: one that drops a carry on every
# negative value, one whose half is one short at 2 bits.  So the cases that
# catch each fault on a value >= 0 at 8 bits or more come first: (-1, 1),
# the top edge half - 1, and (-half, 1), whose value half is the first
# past the single-slot fast path.
@settings(derandomize=True, max_examples=400, deadline=None)
@given(slot_polys())
@example((8, [-1, 1]))
@example((8, [127]))
@example((8, [-128, 1]))
@example((300, [-(1 << 299), 1]))
def test_kron_round_trip_at_the_slot_edges(case):
    bits, coeffs = case
    assert_round_trip(coeffs, bits)


def test_kron_round_trip_of_each_edge_at_bits_2_to_300():
    # the three cases named above first, at the widest slots first; then
    # each edge alone, and below, between and above a digit of each sign
    for bits in range(300, 1, -1):
        edges = slot_edges(bits)
        half = 1 << (bits - 1)
        for coeffs in ((-1, 1), (half - 1,), (-half, 1)):
            assert_round_trip(coeffs, bits)
        for c in edges:
            for coeffs in ((c,), (c, 1), (c, -1), (1, c, -1), (-1, c, 1),
                           (1, c), (-1, c)):
                assert_round_trip(coeffs, bits)
        assert_round_trip(edges, bits)
        assert_round_trip(edges[::-1], bits)


def test_kron_past_the_slot_does_not_round_trip():
    for bits in range(300, 1, -1):
        half = 1 << (bits - 1)
        # 2^(bits-1) itself is past the slot, though it has bits bits
        assert _kron_unpack(half, bits) == (-half, 1)
        # its carry lands on the next digit, which it takes to half - 1
        n = _kron_pack((half, half - 2), bits)
        assert _kron_unpack(n, bits) == (-half, half - 1)
        assert _kron_unpack(-half - 1, bits) == (half - 1, -1)
    p = Poly((1 << 7, 1))
    assert _kron_unpack(_kron_pack(p.coeffs, 8), 8) != p.coeffs
