import random
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from powerops.poly import Poly, A, DISC, _dense_mul, _series_reciprocal
from powerops.tower import (SFrac, S2Elem, S22Elem, tower_reduce,
                            parse_tower_expr, _s2_product, _s2_reciprocal)
from test_poly import padded


# --- independent oracle: substitute-and-expand reduction -------------------
#
# Reduce a^i d^j d'^k monomials by literally substituting d^3 = a*d + 2 and
# d'^3 = (a^2 + 3d - a*d^2)*d' + 2 until stable, with Poly coefficients and
# no shared code with the product of tower.S2Elem.

def oracle_reduce(monos):
    table = {}
    for (i, j, k), c in monos.items():
        key = (j, k)
        table[key] = table.get(key, Poly(0)) + Poly(c) * Poly.a_power(i)
    while True:
        key = next(((j, k) for (j, k) in table if j >= 3 or k >= 3), None)
        if key is None:
            break
        j, k = key
        c = table.pop(key)
        if j >= 3:
            bump(table, (j - 2, k), c * A)
            bump(table, (j - 3, k), c * 2)
        else:
            bump(table, (j, k - 2), c * A * A)
            bump(table, (j + 1, k - 2), c * 3)
            bump(table, (j + 2, k - 2), c * (-A))
            bump(table, (j, k - 3), c * 2)
    return {k: v for k, v in table.items() if not v.is_zero()}


def bump(table, key, val):
    table[key] = table.get(key, Poly(0)) + val


def as_oracle_table(elem: S22Elem):
    out = {}
    for j in range(3):
        for k in range(3):
            c = elem.c[k].c[j]
            if not c.is_zero():
                assert c.is_in_R()
                out[(j, k)] = c.num
    return out


def test_reduce_d3():
    # d^3 = a*d + 2
    got = tower_reduce({(0, 3, 0): 1})
    assert as_oracle_table(got) == {(0, 0): Poly(2), (1, 0): A}


def test_reduce_d4_frozen():
    # d^4 = a*d^2 + 2*d, frozen from the substitution oracle
    got = tower_reduce({(0, 4, 0): 1})
    expect = oracle_reduce({(0, 4, 0): 1})
    assert expect == {(2, 0): A, (1, 0): Poly(2)}
    assert as_oracle_table(got) == expect


def test_reduce_dprime_cubed():
    # d'^3 = (a^2 + 3d - a*d^2)*d' + 2
    got = tower_reduce({(0, 0, 3): 1})
    assert as_oracle_table(got) == {
        (0, 1): A ** 2, (1, 1): Poly(3), (2, 1): -A, (0, 0): Poly(2)}


def test_reduce_randomized_vs_oracle():
    rng = random.Random(23)
    for _ in range(60):
        monos = {}
        for _ in range(rng.randint(1, 5)):
            key = (rng.randint(0, 2), rng.randint(0, 6), rng.randint(0, 6))
            monos[key] = monos.get(key, 0) + rng.randint(-4, 4)
        assert as_oracle_table(tower_reduce(monos)) == oracle_reduce(monos)


def test_parse_tower_expr():
    assert parse_tower_expr("d^4 - 2 a d") == tower_reduce(
        {(0, 4, 0): 1, (1, 1, 0): -2})
    assert parse_tower_expr("3") == tower_reduce({(0, 0, 0): 3})
    assert parse_tower_expr("d'^3") == tower_reduce({(0, 0, 3): 1})
    assert parse_tower_expr("- d + 2") == tower_reduce(
        {(0, 1, 0): -1, (0, 0, 0): 2})


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=8))
def test_parse_reads_what_poly_prints(coeffs):
    # str(Poly) writes "9*a^2" and a leading "-a"; both must read back.
    p = Poly(coeffs)
    elem = parse_tower_expr(str(p))
    for j in range(3):
        for k in range(3):
            assert elem.c[k].c[j] == (SFrac(p) if (j, k) == (0, 0) else 0)


def _halved_bit_by_bit(num, tpow):
    """The 2-power normalization as SFrac did it before: one halving at a
    time while every coefficient is even."""
    while tpow > 0 and num.divisible_by_int(2):
        num, tpow = num.divide_int_exact(2), tpow - 1
    return num, tpow


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=6),
       st.integers(0, 40), st.integers(0, 12), st.integers(0, 2))
def test_sfrac_two_adic_normalization_matches_halving(coeffs, shift, tpow,
                                                     dpow):
    # shifting puts a common power of 2 into every coefficient
    num = Poly([c << shift for c in coeffs])
    x = SFrac(num, dpow, tpow)
    expect_num, expect_tpow = _halved_bit_by_bit(
        SFrac(num, dpow).num, tpow if num else 0)
    assert (x.num, x.tpow) == (expect_num, expect_tpow)
    assert x.dpow == SFrac(num, dpow).dpow


def test_sfrac_minimal_form():
    # (a^3 - 27)/D collapses to 1
    x = SFrac(DISC, 1)
    assert x == SFrac(1) and x.dpow == 0
    y = SFrac(DISC * DISC * 4, 3, 1)
    assert y.dpow == 1 and y.tpow == 0 and y.num == Poly(2)
    assert SFrac(0, 5, 5) == SFrac(0)


# --- the D-normalization skips divisions that cannot succeed ----------------

def divided_out(num, dpow):
    """Oracle: (num, dpow) after dividing by D while the remainder is zero,
    with no test of num(3) first."""
    while dpow:
        quo, rem = num.divmod_monic(DISC)
        if not rem.is_zero():
            break
        num, dpow = quo, dpow - 1
    return num, dpow


# f(3) = 34, 0, 0 and 27 * 19: the first has neither factor of
# D = (a - 3)(a^2 + 3a + 9), the next two vanish at 3 through a - 3 alone,
# and the last is a multiple of a^2 + 3a + 9 alone
COFACTORS = (1 + 2 * A + A ** 3, (A - 3) * (A + 1), (A - 3) ** 2,
             (A ** 2 + 3 * A + 9) * (A + 16))


@pytest.mark.parametrize("f", COFACTORS, ids=str)
def test_d_normalization_matches_division_while_exact(f):
    for j in range(4):
        for dpow in range(6):
            x = SFrac(DISC ** j * f, dpow)
            assert (x.num, x.dpow) == divided_out(DISC ** j * f, dpow)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(-30, 30), max_size=6).map(Poly),
       st.integers(0, 3), st.integers(0, 5))
def test_d_normalization_matches_oracle_on_drawn_numerators(f, j, dpow):
    x = SFrac(DISC ** j * f, dpow)
    assert (x.num, x.dpow) == divided_out(DISC ** j * f, dpow)


def test_no_division_by_d_where_num_at_3_is_nonzero(monkeypatch):
    divisions = []
    divmod_monic = Poly.divmod_monic

    def counted(self, divisor):
        divisions.append(self)
        return divmod_monic(self, divisor)

    monkeypatch.setattr(Poly, "divmod_monic", counted)
    f = A ** 2 + 1  # f(3) = 10
    x = SFrac(f, 5)
    assert (x.num, x.dpow) == (f, 5) and divisions == []
    # two exact divisions, then f(3) != 0 stops the loop without a third
    x = SFrac(DISC ** 2 * f, 5)
    assert (x.num, x.dpow) == (f, 3) and len(divisions) == 2


def test_sfrac_ring_axioms():
    rng = random.Random(5)

    def rand_sfrac():
        num = Poly([rng.randint(-6, 6) for _ in range(rng.randint(0, 4))])
        return SFrac(num, rng.randint(0, 2), rng.randint(0, 2))

    for _ in range(150):
        x, y, z = rand_sfrac(), rand_sfrac(), rand_sfrac()
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x - x == SFrac(0)
        assert x * 1 == x and x + 0 == x


def test_sfrac_inverse_and_div():
    d_unit = SFrac(DISC)
    assert d_unit.inv() == SFrac(1, 1)
    assert (d_unit * d_unit.inv()) == SFrac(1)
    two = SFrac(2)
    assert two.inv() == SFrac(1, 0, 1)
    x = SFrac(A ** 2 + 3 * A + 9)   # divides D = (a-3)(a^2+3a+9)
    q = SFrac(DISC).div(x)
    assert q * x == SFrac(DISC)
    assert q == SFrac(A - 3)
    # division that genuinely leaves S[1/2] must fail
    try:
        SFrac(1).div(SFrac(A))
        assert False
    except ValueError:
        pass


def test_sfrac_inverts_every_unit():
    # a - 3 divides D = (a - 3)(a^2 + 3a + 9), so it is a unit of S
    x = SFrac(A - 3)
    assert x.inv() == SFrac(A ** 2 + 3 * A + 9, 1) == x ** -1
    assert x * x.inv() == 1
    for non_unit in (SFrac(A), SFrac(3), SFrac(A - 1, 1, 2)):
        with pytest.raises(ValueError):
            non_unit.inv()
    with pytest.raises(ZeroDivisionError):
        SFrac(0).inv()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from([1, -1]), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_sfrac_inverse_of_products_of_prime_units(sign, e, i, j, dpow, tpow):
    x = SFrac(sign * 2 ** e * (A - 3) ** i * (A ** 2 + 3 * A + 9) ** j,
              dpow, tpow)
    assert is_unit_of_S(x)
    assert x * x.inv() == 1 and x.inv() == x ** -1


def test_sfrac_div_by_even():
    # the divisor's 2-content must raise tpow, not lower it
    assert SFrac(-2).div(SFrac(2)) == SFrac(-1)
    assert SFrac(6).div(SFrac(2)) == SFrac(3)
    assert SFrac(Poly([2, 4])).div(SFrac(2)) == SFrac(Poly([1, 2]))
    half = SFrac(3).div(SFrac(2))
    assert half == SFrac(3, 0, 1) and not half.is_in_S()
    q = SFrac(A).div(SFrac(4 * DISC))
    assert q == SFrac(A, 1, 2)
    assert SFrac(A) / SFrac(4 * DISC) == q and SFrac(6) / 2 == SFrac(3)
    assert q * SFrac(4 * DISC) == SFrac(A)
    rng = random.Random(9)
    for _ in range(60):
        num = Poly([rng.randint(-8, 8) for _ in range(rng.randint(1, 4))])
        x = SFrac(num, rng.randint(0, 2), rng.randint(0, 2))
        den = SFrac(Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]),
                    rng.randint(0, 1), rng.randint(0, 1))
        if den.is_zero():
            continue
        try:
            q = x.div(den)
        except ValueError:
            continue
        assert q * den == x


def test_sfrac_membership_flags():
    assert SFrac(A).is_in_R()
    assert SFrac(A, 1).is_in_S() and not SFrac(A, 1).is_in_R()
    assert not SFrac(A, 0, 1).is_in_S()


def test_s2_multiplication_against_oracle():
    rng = random.Random(71)
    for _ in range(40):
        xm = {(0, j, 0): rng.randint(-3, 3) for j in range(3)}
        ym = {(0, j, 0): rng.randint(-3, 3) for j in range(3)}
        x = S2Elem(*(Poly(xm[(0, j, 0)]) for j in range(3)))
        y = S2Elem(*(Poly(ym[(0, j, 0)]) for j in range(3)))
        prod = {}
        for (_, j1, _), c1 in xm.items():
            for (_, j2, _), c2 in ym.items():
                key = (0, j1 + j2, 0)
                prod[key] = prod.get(key, 0) + c1 * c2
        expect = oracle_reduce(prod)
        got = {(j, 0): x2.num for j, x2 in enumerate((x * y).c)
               if not x2.is_zero()}
        assert got == expect


def test_s2_d_inverse():
    # d*(d^2 - a) = 2, so 1/d = (d^2 - a)/2
    d = S2Elem.d()
    dinv = d.inv()
    assert d * dinv == S2Elem(1)
    assert dinv == S2Elem(SFrac(-A, 0, 1), 0, SFrac(1, 0, 1))
    assert d.norm() == SFrac(2)
    assert not dinv.is_in_S2()


def test_s2_mult_matrix_of_d():
    # columns of mult-by-d: [[0,0,2],[1,0,a],[0,1,0]]
    m = S2Elem.d().mult_matrix()
    expect = [[SFrac(0), SFrac(0), SFrac(2)],
              [SFrac(1), SFrac(0), SFrac(A)],
              [SFrac(0), SFrac(1), SFrac(0)]]
    assert m == expect


def test_s22_fstar():
    # f* fixes d and sends d' to a - d^2; check on d' and d'^2
    dp = S22Elem.dprime()
    assert dp.f_star() == S2Elem(A, 0, -1)
    assert (dp * dp).f_star() == S2Elem(A ** 2, 2, -A)
    # d * (a - d^2) = -2: check through the ring structure
    d_in_s22 = S22Elem(S2Elem.d())
    assert (d_in_s22 * dp).f_star() == S2Elem(-2)


def test_s22_ring_randomized():
    rng = random.Random(13)

    def rand_elem():
        return tower_reduce({(rng.randint(0, 1), rng.randint(0, 4),
                              rng.randint(0, 4)): rng.randint(-3, 3)
                             for _ in range(3)})

    for _ in range(30):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)


def test_json_roundtrip():
    x = SFrac(3 * A + 1, 2, 1)
    assert SFrac.from_json(x.to_json()) == x
    assert str(SFrac(A + 1, 2, 3)) == "(a + 1)/(8*D^2)"
    y = S2Elem(1, SFrac(A, 1), 3)
    assert S2Elem.from_json(y.to_json()) == y
    z = tower_reduce({(1, 4, 2): 3, (0, 0, 1): -1})
    assert S22Elem.from_json(z.to_json()) == z


# --- hashes agree with equality --------------------------------------------


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(-2 ** 80, 2 ** 80),
       st.lists(st.integers(-3, 3), max_size=3), st.integers(0, 2),
       st.integers(0, 2))
def test_equal_to_an_int_means_hashed_as_it(n, coeffs, dpow, tpow):
    # Constants in every guise, written so that the constructors have to
    # reduce them; and random elements, which are equal to n only rarely.
    den = DISC ** dpow * 2 ** tpow
    candidates = [Poly(n), Poly([n, 0, 0]), SFrac(n), SFrac(Poly(n)),
                  SFrac(n * den, dpow, tpow), S2Elem(n),
                  S2Elem(SFrac(n * den, dpow, tpow), 0, 0),
                  Poly(coeffs), SFrac(Poly(coeffs), dpow, tpow),
                  S2Elem(SFrac(Poly(coeffs), dpow, tpow), 0, 0),
                  S2Elem(n, Poly(coeffs), 0)]
    for x in candidates:
        if x == n:
            assert hash(x) == hash(n)
        for m in coeffs:
            if x == m:
                assert hash(x) == hash(m)
    assert {n: "v"}.get(Poly(n)) == "v"
    assert {n: "v"}.get(SFrac(n * den, dpow, tpow)) == "v"
    assert {n: "v"}.get(S2Elem(n)) == "v"
    assert hash(Poly(0)) == hash(SFrac(0)) == hash(S2Elem()) == 0
    # equality is symmetric across the types, so lookups work both ways
    assert Poly(n) == SFrac(n) and SFrac(n) == Poly(n)
    assert Poly(n) == S2Elem(n) and S2Elem(n) == Poly(n)
    assert {Poly(n): "v"}.get(SFrac(n)) == "v"


# --- ring laws of the cubic extensions S2 and S22 ---------------------------


def is_unit_of_S(x: SFrac) -> bool:
    """x is +-2^s (a - 3)^i (a^2 + 3a + 9)^j / (2^t D^r), with the prime
    factors of 2D stripped one at a time from the numerator."""
    num = x.num
    if num.is_zero():
        return False
    while num.divisible_by_int(2):
        num = num.divide_int_exact(2)
    for factor in (A - 3, A ** 2 + 3 * A + 9):
        while True:
            quo, rem = num.divmod_monic(factor)
            if not rem.is_zero():
                break
            num = quo
    return num in (Poly(1), Poly(-1))


def products_of(gens, unit):
    """Products of up to three generators times a unit +-1/(2^s D^r)."""
    return st.builds(
        lambda sign, dpow, tpow, picks: reduce(
            mul, (gens[i] for i in picks), unit(SFrac(sign, dpow, tpow))),
        st.sampled_from([1, -1]), st.integers(0, 2), st.integers(0, 2),
        st.lists(st.integers(0, len(gens) - 1), max_size=3))


# Coefficients carry 2- and D-power denominators.
sfracs = st.builds(lambda c, dpow, tpow: SFrac(Poly(c), dpow, tpow),
                   st.lists(st.integers(-4, 4), max_size=3),
                   st.integers(0, 2), st.integers(0, 2))
s2s = st.builds(S2Elem, sfracs, sfracs, sfracs)
s22s = st.builds(S22Elem, s2s, s2s, s2s)

# N(c - d) = c^3 - a c - 2, so d + 1 and d - 2 have norms a - 3 and
# 2(a - 3), units of S; d^2 - a = 2/d.
D2 = S2Elem.d()
S2_UNIT_GENS = [D2, D2 + 1, D2 - 2, D2 * D2 - A, S2Elem(A - 3),
                S2Elem(A ** 2 + 3 * A + 9)]
s2_units = products_of(S2_UNIT_GENS, S2Elem)
s22_units = products_of([S22Elem.dprime()]
                        + [S22Elem(g) for g in S2_UNIT_GENS], S22Elem)


def check_ring_laws(x, y, z):
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x - y) + y == x
    assert x * 1 == x and x + 0 == x and x * 0 == 0


def check_inverse(x, norm_to_S):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inv()
    elif is_unit_of_S(norm_to_S):
        assert x * x.inv() == 1
        assert x.inv() == x ** -1 and x / x == 1
    else:
        with pytest.raises(ValueError):
            x.inv()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(s2s, s2s, s2s)
def test_s2_ring_laws(x, y, z):
    check_ring_laws(x, y, z)
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x + y).trace() == x.trace() + y.trace()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(s2s, s2_units))
def test_s2_inverse_exactly_when_norm_is_unit(x):
    check_inverse(x, x.norm())


@settings(derandomize=True, max_examples=30, deadline=None)
@given(s22s, s22s, s22s)
def test_s22_ring_laws(x, y, z):
    check_ring_laws(x, y, z)
    assert (x * y).norm() == x.norm() * y.norm()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.one_of(s22s, s22_units))
def test_s22_inverse_exactly_when_norm_is_unit(x):
    # An S2-element is a unit exactly when its norm to S is one.
    check_inverse(x, x.norm().norm())


@settings(derandomize=True, max_examples=40, deadline=None)
@given(s22s, s22s)
def test_s22_fstar_is_a_ring_map(x, y):
    assert (x + y).f_star() == x.f_star() + y.f_star()
    assert (x * y).f_star() == x.f_star() * y.f_star()
    assert S22Elem(x.f_star()).f_star() == x.f_star()


def test_coefficients_outside_the_base_raise():
    with pytest.raises(TypeError):
        S22Elem(S22Elem.dprime())
    with pytest.raises(TypeError):
        S2Elem("x")


def test_s22_has_zero_divisors():
    # a - d^2 is a root of the second cubic inside S2, so S22 is not a
    # domain: d' - (a - d^2) is nonzero, has norm 0 and is not invertible.
    x = S22Elem.dprime() - (A - D2 * D2)
    assert not x.is_zero() and x.norm() == 0 and x.f_star() == 0
    with pytest.raises(ZeroDivisionError):
        x.inv()


def folded(cls, coeffs):
    """sum coeffs[k] x^k folded by x^k = A x^(k-2) + 2 x^(k-3), top down."""
    c = list(coeffs) + [0] * (3 - len(coeffs))
    for k in range(len(c) - 1, 2, -1):
        c[k - 2] = c[k - 2] + cls.a_coeff * c[k]
        c[k - 3] = c[k - 3] + c[k] + c[k]
    return cls(*c[:3])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(sfracs, max_size=8))
def test_s2_from_powers_is_the_fold(coeffs):
    assert S2Elem.from_powers(coeffs) == folded(S2Elem, coeffs)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.lists(s2s, max_size=6))
def test_s22_from_powers_is_the_fold(coeffs):
    assert S22Elem.from_powers(coeffs) == folded(S22Elem, coeffs)


# --- the packed product of S2-valued series ---------------------------------
#
# The dense loops of `poly` over S2Elem, whose products are the hand-folded
# `S2Elem.__mul__`, are the oracle.  The numerators are dense (no grading),
# with negative coefficients and coefficients past 64 bits, over 2^t * D^r
# with r up to 3: the isogeny's coefficients never carry a power of D, so
# only these tests reach the D^T scaling.

S2_ZERO = S2Elem(0)
numerators = st.lists(st.one_of(st.integers(-9, 9),
                                st.integers(-2 ** 80, 2 ** 80)),
                      max_size=5).map(Poly)
scaled = st.builds(SFrac, numerators, st.integers(0, 3), st.integers(0, 8))
components = st.one_of(st.just(SFrac(0)), scaled)
s2_coeffs = st.builds(S2Elem, components, components, components)
s2_series = padded(s2_coeffs, S2_ZERO, 4)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(s2_series, s2_series)
def test_packed_product_is_the_dense_product(x, y):
    for n in range(1, len(x) + len(y) + 1):
        assert _s2_product(x, y, n, S2_ZERO) == _dense_mul(x, y, n, S2_ZERO)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(s2_series)
def test_packed_square_is_the_dense_product(x):
    for n in range(1, 2 * len(x) + 1):
        assert _s2_product(x, x, n, S2_ZERO) == _dense_mul(x, list(x), n,
                                                             S2_ZERO)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from([S2Elem(1), -D2, D2 + 1]), s2_units),
       st.lists(s2_coeffs, max_size=5))
def test_newton_reciprocal_is_the_dense_reciprocal(unit, rest):
    x = [unit] + rest
    inv0 = unit.inv()
    for n in range(1, len(x) + 1):
        assert _s2_reciprocal(x, n, inv0, S2_ZERO) == _series_reciprocal(
            x, n, inv0, S2_ZERO)


def test_packed_product_at_its_coefficient_bound():
    # Every product c d^2 * c d = c^2 (a d + 2) puts 2 c^2 on d^0, so the
    # d^0 numerator at index L - 1 is 2 L c^2, the bound 2 * sum|x| *
    # max|y| that sizes the packing.
    c, length = 2 ** 70 + 1, 6
    x = [S2Elem(0, 0, c)] * length
    y = [S2Elem(0, c, 0)] * length
    got = _s2_product(x, y, 2 * length, S2_ZERO)
    assert got[length - 1] == S2Elem(2 * length * c * c, length * c * c * A)
    assert got == _dense_mul(x, y, 2 * length, S2_ZERO)
