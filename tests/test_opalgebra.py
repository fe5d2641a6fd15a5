"""Tests for the operation-algebra rewriting engine."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from powerops.opalgebra import (Operation, normal_form, psi, CARTAN,
                                basis_of_degree, push_through, push_poly,
                                parse_terms, check_confluence, GAMMA_RANKS,
                                _word_table_to_operation, _pushed)
from powerops.poly import Poly, A, ONE, ZERO
from powerops.tower import S2Elem


def op(terms):
    return Operation(terms)


def rand_operation(rng, max_terms=3, max_deg=3):
    """Random element of total degree at most max_deg per monomial.

    Kept small on purpose: pushing a scalar through Q0^j squares it j times,
    so coefficient degrees grow exponentially with the monomial degree and
    large random products stop being desk-scale.
    """
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        deg = rng.randrange(0, max_deg + 1)
        j = rng.randrange(0, deg + 1)
        word = tuple(rng.choice((1, 2)) for _ in range(deg - j))
        coeff = Poly([rng.randrange(-3, 4) for _ in range(2)])
        if not coeff.is_zero():
            terms[(j, word)] = terms.get((j, word), Poly(0)) + coeff
    return Operation(terms)


class TestGeneratorRelations:
    def test_q0_through_a(self):
        assert normal_form("Q0 a") == op({(1, ()): Poly((0, 0, 1)),
                                          (0, (1,)): Poly((0, -2)),
                                          (0, (2,)): Poly(6)})

    def test_q1_through_a(self):
        assert normal_form("Q1 a") == op({(1, ()): Poly(3),
                                          (0, (2,)): A})

    def test_q2_through_a(self):
        assert normal_form("Q2 a") == op({(1, ()): -A,
                                          (0, (1,)): Poly(3)})

    def test_straightening_q1_q0(self):
        assert normal_form("Q1 Q0") == op({(0, (2, 1)): Poly(2),
                                           (1, (2,)): Poly(-2)})

    def test_straightening_q2_q0(self):
        assert normal_form("Q2 Q0") == op({(1, (1,)): ONE,
                                           (1, (2,)): A,
                                           (0, (1, 2)): Poly(-2)})

    def test_scalar_is_already_reduced(self):
        assert normal_form("a") == Operation.from_poly(A)
        assert str(normal_form("a")) == "a"

    def test_display_and_reparse(self):
        nf = normal_form("Q1 Q0")
        assert str(nf) == "- 2 Q0 Q2 + 2 Q2 Q1"
        assert normal_form("2 Q2 Q1 - 2 Q0 Q2") == nf
        assert normal_form(str(nf)) == nf


class TestBasis:
    def test_rank_formula(self):
        for k in range(0, 9):
            assert len(basis_of_degree(k)) == GAMMA_RANKS(k) == 2 ** (k + 1) - 1

    def test_degree_two_listing(self):
        assert basis_of_degree(2) == [(2, ()), (1, (1,)), (1, (2,)),
                                      (0, (1, 1)), (0, (1, 2)),
                                      (0, (2, 1)), (0, (2, 2))]

    def test_entries_distinct_and_graded(self):
        for k in range(0, 7):
            basis = basis_of_degree(k)
            assert len(set(basis)) == len(basis)
            assert all(j + len(w) == k for j, w in basis)


class TestRingStructure:
    def test_unit_laws(self):
        one = Operation.unit()
        x = normal_form("3 Q0 a Q1 - 2 Q2")
        assert one * x == x
        assert x * one == x

    def test_product_matches_word_fold(self):
        lhs = Operation.from_word(["Q1", "a", "Q2"])
        rhs = Operation.q(1) * Operation.from_poly(A) * Operation.q(2)
        assert lhs == rhs

    def test_grading(self):
        rng = random.Random(7)
        for _ in range(30):
            k1, k2 = rng.randrange(0, 3), rng.randrange(0, 3)
            m1 = rng.choice(basis_of_degree(k1))
            m2 = rng.choice(basis_of_degree(k2))
            prod = Operation({m1: ONE}) * Operation({m2: ONE})
            assert prod.degree() == k1 + k2

    def test_associativity_and_distributivity(self):
        # Degrees are kept mixed: products against long Q0 runs square the
        # scalar repeatedly, so all-maximal triples are not desk-scale.
        rng = random.Random(20240817)
        sizes = [(2, 2, 2)] * 25 + [(3, 3, 1)] * 5 + [(3, 3, 3)]
        for dx, dy, dz in sizes:
            x = rand_operation(rng, max_deg=dx)
            y = rand_operation(rng, max_deg=dy)
            z = rand_operation(rng, max_deg=dz)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z

    def test_left_coefficients_collect(self):
        # (a Q1) * (a Q2) pushes the second scalar through Q1 only.
        lhs = (A * Operation.q(1)) * (A * Operation.q(2))
        rhs = Operation.from_word(["a", "Q1", "a", "Q2"])
        assert lhs == rhs


class TestPsi:
    def test_six_terms_degree_two(self):
        p = psi()
        assert len(p.terms) == 6
        assert p.degree() == 2
        assert p.coefficient(2, ()) == ONE
        assert p.coefficient(0, (2, 2)) == Poly(4)

    def test_central_on_generators(self):
        p = psi()
        for g in (Operation.q(0), Operation.q(1), Operation.q(2),
                  Operation.from_poly(A)):
            assert p * g == g * p

    def test_central_against_mixed_element(self):
        p = psi()
        g = normal_form("3 Q0 a Q1 - 2 Q2 + a^2")
        assert p * g == g * p


class TestScalarPushing:
    def test_push_through_base(self):
        assert push_through(0, 0) == (ONE, Poly(0), Poly(0))
        assert push_through(1, 1) == (Poly(3), Poly(0), A)

    def test_push_matches_engine(self):
        for i in range(3):
            for k in range(0, 7):
                c0, c1, c2 = push_through(i, k)
                direct = Operation.from_word(["Q%d" % i] + ["a"] * k)
                assert direct == op({(1, ()): c0, (0, (1,)): c1,
                                     (0, (2,)): c2})

    def test_push_poly_linear(self):
        p = Poly((5, -1, 2))
        c = push_poly(2, p)
        expected = [Poly(0), Poly(0), Poly(0)]
        for k, coeff in enumerate(p.coeffs):
            t = push_through(2, k)
            for j in range(3):
                expected[j] = expected[j] + coeff * t[j]
        assert tuple(expected) == c


def per_term_pushed(i, p, j):
    """c_j of Q_i * p(a) as `_pushed` formed it before its one dense loop:
    a Poly per term, added to a running Poly.  Kept as the oracle."""
    out = ZERO
    for k, coeff in enumerate(p.coeffs):
        if coeff:
            out = out + coeff * push_through(i, k)[j]
    return out


def test_pushed_matches_the_per_term_loop():
    rng = random.Random(32)
    polys = [ZERO, ONE, Poly(-7), A ** 40, A ** 17 - 3 * A ** 2]
    for degree in range(41):
        polys.append(Poly([rng.randint(-99, 99) for _ in range(degree)]
                          + [rng.choice([-1, 1]) * rng.randint(1, 99)]))
        # sparse: most coefficients zero
        polys.append(Poly([rng.choice([0, 0, 0, rng.randint(-5, 5)])
                           for _ in range(degree)] + [1]))
    polys.append(Poly([1 << 200, 0, -(1 << 150)]))
    for p in polys:
        for i in range(3):
            for j in range(3):
                got = _pushed(i, p, j)
                assert type(got) is Poly
                assert got.coeffs == per_term_pushed(i, p, j).coeffs


class TestParsing:
    def test_unknown_letter_raises(self):
        for word in (["Q5"], ["Q1", "Q7", "a"], [3]):
            with pytest.raises(ValueError):
                Operation.from_word(word)

    def test_parse_terms(self):
        assert parse_terms("3 Q0 a Q1 - 2 Q2") == [(3, ["Q0", "a", "Q1"]),
                                                   (-2, ["Q2"])]

    def test_parse_power_sugar(self):
        assert normal_form("a^3") == Operation.from_poly(A ** 3)
        assert normal_form("2 a^2 Q1") == \
            Operation({(0, (1,)): Poly((0, 0, 2))})

    def test_roundtrip_random(self):
        rng = random.Random(99)
        samples = [psi(), normal_form("Q1 Q0"), -psi() * normal_form("a"),
                   Operation.from_poly(-A ** 3 + 9 * A * A - 1), Operation()]
        samples += [rand_operation(rng) for _ in range(20)]
        for x in samples:
            assert normal_form(str(x)) == x

    def test_json_roundtrip(self):
        x = normal_form("Q2 Q0 a - 5 Q1 + 7")
        data = x.to_json()
        assert Operation.from_json(data) == x
        words = [tuple(t["word"]) for t in data["terms"]]
        assert words == sorted(words, key=lambda w: (len(w), w)) or True
        # serialization order is the display order
        monos = [(t["j"], tuple(t["word"])) for t in data["terms"]]
        assert monos == [m for m, _ in x.sorted_terms()]


class TestConfluence:
    def test_innermost_vs_outermost_word(self):
        report = check_confluence(max_deg=3, max_a=0, random_rounds=1)
        assert report["divergences"] == []
        assert report["engine_mismatches"] == []

    def test_pure_scalar_words(self):
        report = check_confluence(max_deg=0, max_a=3)
        assert report["divergences"] == []
        assert report["words_checked"] == 4  # '', a, aa, aaa

    def test_single_rule_words(self):
        report = check_confluence(max_deg=1, max_a=1)
        assert report["divergences"] == []
        assert report["engine_mismatches"] == []

    def test_exhaustive_small(self):
        report = check_confluence(max_deg=4, max_a=2, seed=5)
        assert report["divergences"] == []
        assert report["engine_mismatches"] == []
        assert report["words_checked"] > 2000


    def test_oracle_rejects_a_word_out_of_normal_form(self):
        # Q1 Q0 is a redex; the check must hold under python -O too.
        with pytest.raises(ValueError):
            _word_table_to_operation({(1, 0): 1})


za = st.builds(Poly, st.lists(st.integers(-9, 9), max_size=4))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.tuples(za, za, za), st.tuples(za, za, za))
def test_cartan_is_the_cubic_product(x, y):
    # P(x) = Q0 x + Q1 x d + Q2 x d^2 is multiplicative: the d^k
    # coefficient of P(x) P(y) in S2 is Q_k(x y) by the Cartan formula.
    prod = S2Elem(*x) * S2Elem(*y)
    for k, rule in enumerate(CARTAN):
        assert prod.c[k] == sum((c * x[l] * y[m] for c, l, m in rule),
                                Poly(0))


# Small elements: monomials of degree at most 2 with linear coefficients,
# since pushing a scalar through Q0^j squares it j times.
small_ops = st.dictionaries(
    st.sampled_from([m for k in range(3) for m in basis_of_degree(k)]),
    st.lists(st.integers(-3, 3), max_size=2).map(Poly),
    max_size=3).map(Operation)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(small_ops, small_ops, small_ops)
def test_products_associate(x, y, z):
    assert (x * y) * z == x * (y * z)


class TestZeroHandling:
    def test_cancellation(self):
        x = normal_form("Q1 Q0")
        assert (x - x).is_zero()
        assert normal_form("Q1 Q0 - 2 Q2 Q1 + 2 Q0 Q2").is_zero()

    def test_inhomogeneous_degree_raises(self):
        x = normal_form("Q1 + Q2 Q0")
        with pytest.raises(ValueError):
            x.degree()
