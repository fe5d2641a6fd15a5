"""The packed Z[a] kernel under straightening.

Straightening holds each Z[a] coefficient p as the int p(2^W), with
balanced slots of W bits.  These tests pin the round trip at the slot
edges, the choice of W from the tracked L1 bound, the tables kept per
width, and that a table started far too narrow widens itself and still
gives every answer.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from powerops import opalgebra
from powerops.opalgebra import Operation, basis_of_degree, check_confluence
from powerops.poly import A, Poly

import test_koszul_complex_pin
import test_koszul_pin


@pytest.fixture(autouse=True)
def fresh_tables():
    """Every test starts and ends with no tables, at the start width."""
    opalgebra._tables.clear()
    opalgebra._use_width(opalgebra._START_WIDTH)
    yield
    opalgebra._tables.clear()
    opalgebra._use_width(opalgebra._START_WIDTH)


@pytest.fixture
def start_width(monkeypatch):
    """Set the width each straightening starts at, for one test."""
    def use(w):
        monkeypatch.setattr(opalgebra, "_START_WIDTH", w)
        opalgebra._use_width(w)
    return use


def _edge_coefficients(w):
    edge = (1 << (w - 1)) - 1
    return st.one_of(st.sampled_from([edge, -edge, 0, 1, -1, edge - 1,
                                      1 - edge]),
                     st.integers(-edge, edge))


@st.composite
def _slot_polys(draw):
    w = draw(st.integers(2, 200))
    coeffs = draw(st.lists(_edge_coefficients(w), max_size=12))
    return w, Poly(coeffs)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_slot_polys())
def test_round_trip_at_the_slot_edges(case):
    w, p = case
    opalgebra._use_width(w)
    try:
        n = opalgebra._pack(p)
        assert n == p.evaluate(1 << w)
        assert opalgebra._unpack(n) == p
    finally:
        opalgebra._use_width(opalgebra._START_WIDTH)


def test_a_coefficient_past_the_slot_does_not_round_trip(start_width):
    start_width(8)
    p = Poly((1 << 7, 1))
    assert opalgebra._unpack(opalgebra._pack(p)) != p


def _recording(widths):
    """A compute for `_straighten` that packs its Poly argument and
    records the width it ran at."""
    def compute(p):
        widths.append(opalgebra._width)
        return {"k": opalgebra._pack(p)}, opalgebra._norm([p])
    return compute


def test_straighten_widens_until_the_bound_fits(start_width):
    p = Poly((3 << 40, -(1 << 50) + 1, 7))
    widths = []
    start_width(8)
    assert opalgebra._straighten(_recording(widths), [(p,)]) == [{"k": p}]
    assert len(widths) == 2 and widths[0] == 8 and widths[1] > 51
    assert opalgebra._width == 8


@pytest.mark.parametrize("w", [8, 64])
def test_a_bound_of_exactly_w_bits_widens(start_width, w):
    # 2^(W-1) is one past the balanced slot, though its bound has W bits
    p, widths = Poly((1 << (w - 1), -1)), []
    start_width(w)
    assert opalgebra._straighten(_recording(widths), [(p,)]) == [{"k": p}]
    assert widths[0] == w and widths[1] > w


def test_each_call_starts_narrow_and_keeps_one_wider_table(start_width):
    small, big, huge = Poly(3), Poly((1 << 40, 1)), Poly((1, 1 << 200))
    widths = []
    compute = _recording(widths)
    start_width(8)
    assert opalgebra._straighten(compute, [(small,), (big,), (small,)]) \
        == [{"k": small}, {"k": big}, {"k": small}]
    wide = widths[-1]
    assert widths == [8, 8, wide, wide] and wide > 41
    assert opalgebra._width == 8

    # the next call starts narrow again, and widens to the kept table
    widths.clear()
    assert opalgebra._straighten(compute, [(small,), (big,)]) \
        == [{"k": small}, {"k": big}]
    assert widths == [8, 8, wide]
    assert sorted(opalgebra._tables) == [8, wide]

    # a result too wide for the kept table replaces it
    widths.clear()
    assert opalgebra._straighten(compute, [(huge,)]) == [{"k": huge}]
    assert widths[0] == 8 and widths[1] > 201
    assert sorted(opalgebra._tables) == [8, widths[1]]


@pytest.mark.parametrize("w", [8, 64])
def test_a_coefficient_that_packs_to_zero_is_not_lost(start_width, w):
    # a - 2^W packs to 0 at width W; its L1 norm must still force a
    # wider W, also after merges drop every term
    start_width(w)
    p = A - (1 << w)
    assert opalgebra._pack(p) == 0
    assert Operation.from_poly(p) * Operation.q(0) == \
        Operation({(1, ()): p})
    assert Operation.from_poly(p * p) * Operation.q(1) == \
        Operation({(0, (1,)): p * p})
    assert Operation.q(0) * p == \
        Operation.q(0) * A - (1 << w) * Operation.q(0)
    assert Operation.from_poly(p) * Operation.from_word(["Q2", "Q0"]) == \
        p * Operation.from_word(["Q2", "Q0"])


def test_forced_widening_keeps_the_confluence_certificate(start_width):
    start_width(4)
    report = check_confluence(max_deg=4, max_a=2)
    assert report["words_checked"] > 0
    assert report["divergences"] == []
    assert report["engine_mismatches"] == []
    assert max(opalgebra._tables) > 4


@pytest.mark.parametrize("index", range(len(test_koszul_pin.CASES)),
                         ids=[test_koszul_pin._case_id(case)
                              for case in test_koszul_pin.CASES])
def test_forced_widening_keeps_the_koszul_reports(start_width, index):
    pinned = json.loads(test_koszul_pin.PINNED.read_text())
    start_width(4)
    assert test_koszul_pin.report(test_koszul_pin.CASES[index]) == \
        pinned[index]["json"]


def test_products_agree_across_widths(start_width):
    x = Operation.from_word(["Q0", "Q2", "Q0", "a"])
    y = Operation.from_word(["a", "Q1", "Q0", "Q0"]) + Operation.q(2) * 5
    expected = x * y
    for w in (2, 3, 5, 17, 300):
        start_width(w)
        assert x * y == expected
        assert Operation.from_word(["Q0", "Q2", "Q0", "a"]) == x


@pytest.mark.parametrize("name", ["omega^2 4", "two_sphere 4"])
def test_forced_widening_keeps_the_complex_hashes(start_width, name):
    pinned = json.loads(test_koszul_complex_pin.PINNED.read_text())
    start_width(4)
    assert test_koszul_complex_pin.digest(name) == pinned[name]


def _true_norms(keys):
    """The exact L1 norm of each table entry, read at a width that fits."""
    opalgebra._use_width(4096)
    out = {}
    for key in keys:
        terms, bound = opalgebra._mono_times(*key)
        out[key] = opalgebra._norm(map(opalgebra._unpack, terms.values()))
        assert bound == out[key]  # every entry unpacks at this width
    return out


@pytest.mark.parametrize("w", [8, 24, 64])
def test_tracked_bounds_cover_the_true_norms(w):
    keys = [(j, word, x) for deg in range(5)
            for j, word in basis_of_degree(deg) for x in ("a", 0)]
    norms = _true_norms(keys)
    opalgebra._use_width(w)
    for key in keys:
        assert opalgebra._mono_times(*key)[1] >= norms[key]
    x = Operation.from_word(["Q2", "a", "Q0", "a"])
    y = Operation.from_word(["Q0", "Q1", "a", "Q0"])
    terms, bound = opalgebra._raw_multiply(x.terms, y.terms)
    assert bound >= opalgebra._norm((x * y).terms.values())
