import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from powerops import padic
from powerops.padic import PadicElem, PrecisionError, log_half
from powerops.poly import Poly, A, DISC
from powerops.tower import SFrac


def test_residues_normalized():
    x = PadicElem([5, -1, 1 << 30], prec2=4, precA=3)
    assert x.res == (5, 15, 0)
    assert x.prec2 == 4 and x.precA == 3


def test_min_precision_propagates():
    x = PadicElem([1, 1], prec2=10, precA=4)
    y = PadicElem([3], prec2=6, precA=8)
    assert (x + y).prec2 == 6 and (x + y).precA == 4
    assert (x * y).prec2 == 6 and (x * y).precA == 4


def test_never_overclaim():
    x = PadicElem([1], prec2=5, precA=2)
    with pytest.raises(PrecisionError):
        x.with_precision(prec2=6)
    with pytest.raises(PrecisionError):
        x.with_precision(precA=3)
    assert x.with_precision(prec2=3).prec2 == 3


def test_ring_axioms():
    rng = random.Random(9)

    def r():
        return PadicElem([rng.randint(-50, 50) for _ in range(5)],
                         prec2=12, precA=5)

    for _ in range(100):
        x, y, z = r(), r(), r()
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)


def test_div_odd_and_halve():
    x = PadicElem([6, 10], prec2=8, precA=2)
    h = x.halve()
    assert h.res == (3, 5) and h.prec2 == 7
    with pytest.raises(ValueError):
        PadicElem([1], prec2=8, precA=1).halve()
    y = PadicElem([1], prec2=8, precA=1).div_odd(3)
    assert (y * 3).res == (1,)
    with pytest.raises(ValueError):
        y.div_odd(2)


def test_unit_inverse():
    d = PadicElem.from_poly(DISC, prec2=16, precA=10)
    dinv = d.inv()
    assert (d * dinv) == PadicElem.one(16, 10)
    with pytest.raises(ValueError):
        PadicElem.from_poly(A, 16, 10).inv()


def test_from_sfrac():
    x = SFrac(A ** 2 + 1, 1)      # (a^2+1)/D
    emb = PadicElem.from_sfrac(x, prec2=12, precA=8)
    back = emb * PadicElem.from_poly(DISC, 12, 8)
    assert back.agrees_with(PadicElem.from_poly(A ** 2 + 1, 12, 8))
    with pytest.raises(ValueError):
        PadicElem.from_sfrac(SFrac(1, 0, 1), 12, 8)


@pytest.mark.parametrize("prec", [(1, 1), (5, 3), (20, 16), (64, 40)])
def test_from_sfrac_is_the_numerator_over_the_power_of_d(prec):
    # the embedding of f / D^n is the embedding of f times that of D
    # inverted, to the n-th power
    f = 1 + 2 * A + A ** 3
    d_inv = PadicElem.from_poly(DISC, *prec).inv()
    for n in range(9):
        want = PadicElem.from_poly(f, *prec) * d_inv ** n
        assert PadicElem.from_sfrac(SFrac(f, n), *prec) == want


BIG = (1 << 299) + 12345  # a 300-bit int


@pytest.mark.parametrize("k", [0, 1, -1, 2 ** 20 + 1, -(2 ** 20 + 1), BIG,
                               -BIG])
@pytest.mark.parametrize("prec", [(1, 1), (20, 16), (64, 40)])
def test_int_scaling_is_the_product_with_a_constant(k, prec):
    x = PadicElem.from_poly(Poly([7, -3, 0, 1 << 40, -5]), *prec)
    want = x * PadicElem([k], *prec)
    assert x * k == want and k * x == want
    assert ((x * k).prec2, (x * k).precA) == prec


# --- the logarithm series ---------------------------------------------------

def oracle_log_half_int(x_int, n):
    """Independent oracle: exact Fraction partial sums, then reduce mod 2^n."""
    K = 1
    while K - K.bit_length() < n:
        K += 1
    s = Fraction(0)
    for k in range(1, K + 1):
        s += Fraction((-1) ** (k - 1) * 2 ** (k - 1) * x_int ** k, k)
    assert s.denominator % 2 == 1
    return s.numerator * pow(s.denominator, -1, 1 << n) % (1 << n)


def test_log_half_at_one_frozen():
    # (1/2) log 3 in Z2: frozen from the Fraction oracle
    assert oracle_log_half_int(1, 12) == 1146
    got = log_half(PadicElem.one(prec2=12, precA=1))
    assert got.res[0] == 1146
    got20 = log_half(PadicElem.one(prec2=20, precA=1))
    assert got20.res[0] == 619642


def test_log_half_at_minus_one_is_zero():
    # (1/2) log(-1) = 0 in Z2 (the series telescopes to zero 2-adically)
    got = log_half(PadicElem([-1], prec2=20, precA=1))
    assert got.is_zero()


def test_log_half_random_ints_vs_oracle():
    rng = random.Random(41)
    for _ in range(10):
        m = rng.randint(-20, 20)
        got = log_half(PadicElem([m], prec2=14, precA=1))
        assert got.res[0] == oracle_log_half_int(m, 14)


@pytest.mark.parametrize("n", range(1, 25))
def test_log_half_at_every_precision_vs_oracle(n):
    # from n = 5 on, some x^k is formed for a later term but adds nothing
    # itself (k = 7 at n = 5), and the last few k that the loop visits may
    # add nothing (k = 21 to 24 at n = 20)
    for m in (-3, 2, 5):
        got = log_half(PadicElem([m], prec2=n, precA=1))
        assert got.res[0] == oracle_log_half_int(m, n)


def term_by_term_log_half(x):
    """The half-logarithm as it was summed before Paterson and Stockmeyer:
    one series product x^k = x^(k-1) * x and one int scaling per summed
    term, up to the last k whose term survives mod 2^x.prec2."""
    n = x.prec2
    mod = 1 << n
    last = max(k for k in range(1, 2 * n + 2)
               if k - (k & -k).bit_length() < n)
    total = PadicElem.zero(n, x.precA)
    xk = PadicElem.one(n, x.precA)
    for k in range(1, last + 1):
        xk = xk * x
        v2 = (k & -k).bit_length() - 1
        shift = k - 1 - v2
        if shift < n:
            unit = pow(k >> v2, -1, mod)
            coeff = ((1 << shift) * unit) % mod
            if k % 2 == 0:
                coeff = -coeff
            total = total + xk * coeff
    return total


def same_bytes(x, y):
    return (x.res, x.prec2, x.precA) == (y.res, y.prec2, y.precA)


@pytest.mark.parametrize("n", range(1, 65))
def test_log_half_matches_term_by_term_sum(n):
    rng = random.Random(n)
    for precA in (0, 1, 2, 5, 16, 33):
        for _ in range(2):
            x = PadicElem([rng.randrange(1 << n) for _ in range(precA)], n,
                          precA)
            assert same_bytes(log_half(x), term_by_term_log_half(x))


def test_log_half_matches_term_by_term_sum_at_the_cli_limit():
    rng = random.Random(256)
    x = PadicElem([rng.randrange(1 << 256) for _ in range(256)], 256, 256)
    assert same_bytes(log_half(x), term_by_term_log_half(x))


def test_log_half_forms_about_two_root_k_products(monkeypatch):
    products = []
    dense_mul = padic._dense_mul

    def counted(*args):
        products.append(args)
        return dense_mul(*args)

    monkeypatch.setattr(padic, "_dense_mul", counted)
    log_half(PadicElem.from_poly(A + 2 * A ** 3 - 5 * A ** 7, 20, 16))
    # the terms 2^(k-1) x^k / k that survive mod 2^20: k - 1 - v2(k) < 20
    summed = [k for k in range(1, 64)
              if k - 1 - ((k & -k).bit_length() - 1) < 20]
    assert summed == list(range(1, 21))
    # s = isqrt(21) = 4: x^2, x^3, x^4, then 20 // 4 Horner steps in x^4
    assert len(products) == 3 + 5
    assert len(products) <= 2 * math.ceil(math.sqrt(len(summed) + 1))


def test_log_half_additivity():
    # (1+2x)(1+2y) = 1+2(x+y+2xy): log adds
    rng = random.Random(4)
    for _ in range(10):
        x = PadicElem([rng.randint(0, 255) for _ in range(3)], 14, 3)
        y = PadicElem([rng.randint(0, 255) for _ in range(3)], 14, 3)
        z = x + y + 2 * x * y
        assert log_half(z).agrees_with(log_half(x) + log_half(y))


def test_json_roundtrip():
    x = PadicElem([3, 1 << 10], prec2=12, precA=2)
    assert PadicElem.from_json(x.to_json()) == x


# --- exact Z[a] arithmetic as the oracle, at mixed precisions ---------------

polys = st.lists(st.integers(-2000, 2000), max_size=7).map(Poly)
precisions = st.tuples(st.integers(1, 24), st.integers(0, 8))


def reduced(p: Poly, prec2: int, precA: int):
    """The residues of p mod (2^prec2, a^precA)."""
    return tuple(p[k] % (1 << prec2) for k in range(precA))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(polys, precisions, polys, precisions)
def test_product_is_exact_product_reduced(x, px, y, py):
    got = PadicElem.from_poly(x, *px) * PadicElem.from_poly(y, *py)
    n, m = min(px[0], py[0]), min(px[1], py[1])
    assert (got.prec2, got.precA) == (n, m)
    assert got.res == reduced(x * y, n, m)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(polys, st.tuples(st.integers(1, 24), st.integers(1, 8)), polys,
       precisions)
def test_quotient_claims_only_what_it_knows(x, px, y, py):
    # y / x at the smaller precision times x is y there, checked exactly;
    # x is made a unit (odd constant term).
    x = x - x.constant_term() + 2 * (x.constant_term() // 2) + 1
    q = PadicElem.from_poly(y, *py) * PadicElem.from_poly(x, *px).inv()
    n, m = min(px[0], py[0]), min(px[1], py[1])
    assert (q.prec2, q.precA) == (n, m)
    assert reduced(Poly(q.res) * x, n, m) == reduced(y, n, m)


padics = st.builds(PadicElem.from_poly, polys, st.integers(1, 24),
                   st.integers(0, 8))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(padics, padics, padics)
def test_ring_laws_at_mixed_precisions(x, y, z):
    # every sum and product claims the smaller of its operands' precisions
    for got in (x + y, x - y, x * y):
        assert (got.prec2, got.precA) == (min(x.prec2, y.prec2),
                                          min(x.precA, y.precA))
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x - y) + y == x.with_precision(min(x.prec2, y.prec2),
                                           min(x.precA, y.precA))
