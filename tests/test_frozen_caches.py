"""The shared caches are never mutated.

Straightening keeps one table of packed images, at the one slot width
(`opalgebra._table`), and `AmplifiedRing` memoizes the Q-triple of a
generator and the pair (theta m, Q-triple of m) of a monomial m as packed
term dicts, either part of the pair None until it is asked for.  The
engines read the cached dicts themselves, so these tests warm the caches
up, copy every cached term dict, compute again (and with values built on
the cached dicts), and check that every copy still equals the dict it was
taken from.  `normlog.p_map` keeps the powers P(D)^-n in one list, which
is checked the same way.
"""

from powerops import normlog, opalgebra
from powerops.amplified import AmplifiedRing, _wrap
from powerops.koszul import build_complex
from powerops.normlog import NormContext, p_map
from powerops.opalgebra import normal_form
from powerops.opmodules import omega
from powerops.poly import A
from powerops.tower import S2Elem, SFrac


def work(ring):
    """Operation products, a Koszul complex, and theta and Q in `ring`;
    returns the values they computed."""
    x, y = normal_form("a Q1 - Q2"), normal_form("Q0 + 3 a^2 Q1")
    ops = [x * y, y * x, (x * y) * x]
    assert build_complex(omega(), 4).d_squared_checks() == (True, True)
    g = ring.x()
    p = g * g + ring.const(A) * g
    amps = [ring.theta(p), ring.theta(g * g * g), ring.q(1, p),
            ring.q(2, g * g)]
    return ops, amps


def memoized(ring):
    """Every packed term dict the ring's memos hold."""
    held = [terms for trip in ring._q_gen_memo.values() for terms in trip]
    for theta, trip in ring._mono_memo.values():
        held += ([theta] if theta is not None else []) + list(trip or ())
    return held


def cached_term_dicts(ring):
    """(dict, copy) for every term dict the caches hold."""
    held = [(terms, dict(terms)) for terms, _ in opalgebra._table.values()]
    return held + [(terms, dict(terms)) for terms in memoized(ring)]


def test_caches_are_never_mutated():
    ring = AmplifiedRing(2, 3)
    work(ring)
    held = cached_term_dicts(ring)
    assert opalgebra._table
    assert ring._q_gen_memo
    assert any(None not in pair for pair in ring._mono_memo.values())
    ops, amps = work(ring)
    for u in ops:
        for v in ops:
            u + v, u - v, u * v
    amps += [_wrap(ring, terms) for terms in memoized(ring)]
    for u in amps:
        -u
        for v in amps:
            u + v, u - v, u * v
    for u in amps[:4]:
        ring.theta(u + u), ring.q(1, u)
    assert all(cached == copy for cached, copy in held)


def test_p_d_inverse_powers_are_never_mutated():
    ctx = NormContext("S")
    p_map(SFrac(1 + 2 * A, 6))
    powers = normlog._P_D_INV_POWERS
    held = [(p, S2Elem.from_json(p.to_json())) for p in powers]
    assert len(held) >= 7
    for n in range(9):
        x = SFrac(A ** 2 - 5, n)
        p_map(x), ctx.norm_N(x), ctx.psi_value(x), ctx.m_value(SFrac(1, n))
    for u in powers[:5]:
        for v in powers[:5]:
            u + v, u - v, u * v, -u
        u.inv(), u * 2
    assert all(cached == copy for cached, copy in held)
