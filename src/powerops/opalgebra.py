"""The associative algebra of additive power operations.

Over R = Z[a] this is generated by Q0, Q1, Q2 subject to the commutation
rules for moving the scalar a through an operation,

    Q0*a = a^2*Q0 - 2a*Q1 + 6*Q2
    Q1*a = 3*Q0  + a*Q2
    Q2*a = -a*Q0 + 3*Q1

and the two Adem-type straightening rules

    Q1*Q0 = 2*Q2*Q1 - 2*Q0*Q2
    Q2*Q0 = Q0*Q1 + a*Q0*Q2 - 2*Q1*Q2.

These rules, and the Cartan formula for products, are written once as the
data `COMMUTATION`, `RELATIONS` and `CARTAN`.

Every element is an R-linear combination of admissible monomials
Q0^j Qk1 ... Qkr with each ki in {1, 2}; the degree-k piece is free of rank
2^(k+1) - 1.  `Operation` stores the admissible form as {(j, word): Poly}.

Products are straightened on Z[a] packed into ints (a coefficient p is
held as p(2^W); see "the packed straightening engine" below), and
`Operation` itself stores `Poly`.

Reduction is confluent; `check_confluence` certifies this empirically by
reducing every small word under several independent strategies (and against
a naive one-step rewriter that shares no code with the fast engine and
stays on unpacked ints).
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from functools import lru_cache

from .poly import (Poly, A, ONE, ZERO, format_terms, summands, _trusted,
                   _merge, _trim, _kron_pack, _kron_unpack)

__all__ = ["Operation", "normal_form", "psi", "COMMUTATION", "RELATIONS",
           "CARTAN", "basis_of_degree",
           "push_through", "push_poly", "parse_terms", "check_confluence",
           "GAMMA_RANKS"]


def GAMMA_RANKS(k: int) -> int:
    """Rank of the degree-k piece: 2^(k+1) - 1."""
    return (1 << (k + 1)) - 1


# --- the presentation -------------------------------------------------------
#
# Every engine reads the rules from these tables.  The independent checks
# type their own copies, so that they check these: the naive rewriter
# below, `WitnessModel`, `check_well_defined`, `omega_power_closed`, the
# curve derivations, the tower's cubic product and `normlog.psi_value`.

#: Q_i * a = sum_l COMMUTATION[i][l] * Q_l.
COMMUTATION = ((A * A, -2 * A, Poly(6)),
               (Poly(3), ZERO, A),
               (-A, Poly(3), ZERO))

#: The straightening relations sum_t c_t Q_i Q_j = 0 as (c, i, j) triples;
#: relation k - 1 starts with (1, k, 0), so it rewrites Q_k Q0.
RELATIONS = (
    ((ONE, 1, 0), (Poly(-2), 2, 1), (Poly(2), 0, 2)),
    ((ONE, 2, 0), (Poly(-1), 0, 1), (-A, 0, 2), (Poly(2), 1, 2)),
)

#: The Cartan formula: Q_k(x y) = sum c * Q_l x * Q_m y over the (c, l, m)
#: of CARTAN[k]; equivalently P(x) = Q0 x + Q1 x d + Q2 x d^2 is
#: multiplicative when d^3 = a d + 2.
CARTAN = (
    ((ONE, 0, 0), (Poly(2), 1, 2), (Poly(2), 2, 1)),
    ((ONE, 0, 1), (ONE, 1, 0), (A, 1, 2), (A, 2, 1), (Poly(2), 2, 2)),
    ((ONE, 0, 2), (ONE, 2, 0), (ONE, 1, 1), (A, 2, 2)),
)


def psi() -> Operation:
    """The central element Q0Q0 + a Q0Q1 - 2 Q1Q1 + a^2 Q0Q2 - 2a Q1Q2 + 4 Q2Q2."""
    return Operation({(2, ()): ONE, (1, (1,)): A, (0, (1, 1)): Poly(-2),
                      (1, (2,)): A * A, (0, (1, 2)): -2 * A,
                      (0, (2, 2)): Poly(4)})


# --- the packed straightening engine -----------------------------------------
#
# Straightening computes on Z[a] packed into Python ints by `poly`'s
# codec at width W: p is held as p(2^W), so that a sum or product of
# coefficients is one int operation.  Every packed element travels with a
# bound on the L1 norm of all its coefficients, and `_straighten` unpacks
# a result only when its bound fits (the rule of `poly._kron_unpack`);
# otherwise it computes again at a wider W.
# Terms are dicts {(j, word): int}; the helpers never mutate their
# arguments or cached values.
#
# A bound stays sound when `_merge` drops a term that packs to 0 but is
# not 0: such a p is a multiple of a - 2^W, so one of its coefficients is
# at least 2^W in size, and so was the bound that covered it.  No later
# step lowers a bound, so the result is computed again, wider.
#
# The process has one width, which only grows, and one `_table` of the
# images `_mono_times` reads, all packed at that width.  When a bound does
# not fit, the width grows to max(1.5 W, bits of the bound + 1) and the
# table starts again empty.
#
# A budgeted call (`_budget`) charges its work and straightens on a width
# and table of its own, started at 64, so that what it charges does not
# depend on what ran before.  Only the images of the words of degree at
# most 5 at width 64, at most 240, are shared by every budgeted call:
# `_SHARED` holds them, each filled uncharged when first needed.

_width, _table, _SHARED = 64, {}, {}
_left = None  # the units a budgeted call may still charge; None outside one


class _OverBudget(Exception):
    """A budgeted call charged more work than its budget."""


def _words(values) -> int:
    """The size of the ints values in 64-bit words, at least one each."""
    return len(values) + (sum(map(int.bit_length, values)) >> 6)


def _charge(units: int):
    """Charge units of work to the budgeted call."""
    global _left
    _left -= units
    if _left < 0:
        raise _OverBudget


@contextmanager
def _state(table, left):
    """Run the block at width 64 on the given table and budget."""
    global _width, _table, _left, _depth
    saved = _width, _table, _left, _depth
    _width, _table, _left, _depth = 64, table, left, 0
    try:
        yield
    finally:
        _width, _table, _left, _depth = saved


def _budget(units: int):
    """Run the block on a budget of units of work (see above), charged by
    `_times` and by `amplified`."""
    return _state(dict(_SHARED), units)


def _norm(coeff_lists) -> int:
    """The L1 norm of all the coefficients in the given sequences."""
    return sum(abs(c) for coeffs in coeff_lists for c in coeffs)


def _straighten(compute, *args):
    """compute(*args) unpacked, where compute returns (packed terms, L1
    bound).  While the bound does not fit, the width grows (see above) and
    compute runs again."""
    global _width, _table
    terms, bound = compute(*args)
    while bound.bit_length() >= _width:
        _width, _table = max(_width + _width // 2, bound.bit_length() + 1), {}
        terms, bound = compute(*args)
    return {key: _trusted(_kron_unpack(c, _width))
            for key, c in terms.items() if c}


def _placed_sum(items):
    """The packed sum of mono * p * letters over the (mono, p, letters,
    tail) items, each monomial m of it placed at (m, *tail), with its L1
    bound; `_straighten` unpacks it to {(m, *tail): Poly}."""
    out, total = {}, 0
    for mono, p, letters, tail in items:
        terms, bound = _times_word(*_times_poly({mono: 1}, 1, p.coeffs),
                                   letters)
        for key, c in terms.items():
            key = (key,) + tail
            out[key] = out.get(key, 0) + c
        total += bound
    return out, total


def _times(terms, bound, x):
    """terms * x for a letter x ("a", or Q0, Q1, Q2 written 0, 1, 2), with
    the L1 bound of the product from the bound of terms."""
    if x == 1 or x == 2:
        return {(j, word + (x,)): c for (j, word), c in terms.items()}, bound
    # peak starts at 1, so that a bound carried by terms `_merge` dropped
    # survives even when nothing is left
    out, peak, table, charged = {}, 1, _table, _left is not None
    for (j, word), c in terms.items():
        image, norm = table.get((j, word, x)) or _mono_times(j, word, x)
        if charged:
            # a unit is one product of 64-bit words of c and of the image
            _charge(((c.bit_length() >> 6) + 1) * _words(image.values()))
        _merge(out, image, c)
        if norm > peak:
            peak = norm
    return out, bound * peak


class _Missing(Exception):
    """A table entry that an image being filled needs first."""


_NESTING = 50   # fills one inside another before a miss goes on a stack
_depth = 0


def _mono_times(j: int, word: tuple, x):
    """(Q0^j Q_word) * x packed, and its L1 bound, for x = "a" or x = 0,
    from the table.

    A miss fills the images it needs (of shorter words, or of Q0^(j-1))
    inside its own fill.  `_NESTING` fills deep, a miss stops the innermost
    image with `_Missing` instead, and that fill works through the missed
    keys on its own stack, so the depth does not grow with the word."""
    global _depth
    key = (j, word, x)
    hit = _table.get(key)
    if hit is None:
        if _depth == _NESTING:
            raise _Missing(key)
        _depth += 1
        stack = [key]
        try:
            while stack:
                try:
                    _table[stack[-1]] = _fill(stack[-1])
                    stack.pop()
                except _Missing as miss:
                    stack.append(miss.args[0])
        finally:
            _depth -= 1
        hit = _table[key]
    return hit


def _fill(key):
    """The table entry of key; in a budgeted call at width 64, that of
    `_SHARED` for a word of degree at most 5, filled there uncharged."""
    if _left is None or _width != 64 or key[0] + len(key[1]) > 5:
        return _mono_image(*key)
    with _state(_SHARED, None):
        return _mono_times(*key)


def _mono_image(j: int, word: tuple, x):
    """The table entry of `_mono_times`, computed.

    The last letter Q_k meets a through COMMUTATION[k] and meets Q0 through
    RELATIONS[k - 1], whose first term is Q_k Q0 itself.
    """
    if not word and x == 0:
        return {(j + 1, ()): 1}, 1
    if not word and not j:
        return {(0, ()): 1 << _width}, 1
    head, k = ((j, word[:-1]), word[-1]) if word else ((j - 1, ()), 0)
    if x == "a":
        rhs = [(c, (l,)) for l, c in enumerate(COMMUTATION[k]) if c]
    else:
        rhs = [(-c, (i, l)) for c, i, l in RELATIONS[k - 1][1:]]
    out, bound = {}, 0
    for c, letters in rhs:
        t, b = _times_word(*_times_poly({head: 1}, 1, c.coeffs), letters)
        _merge(out, t)
        bound += b
    if bound.bit_length() < _width:
        # the entry unpacks, so its exact norm replaces the bound
        bound = _norm(_kron_unpack(c, _width) for c in out.values())
    return out, bound


def _times_word(terms, bound, letters):
    """terms times each letter in turn, with L1 bound."""
    for x in letters:
        terms, bound = _times(terms, bound, x)
    return terms, bound


def _times_poly(terms, bound, coeffs):
    """terms * p for p in Z[a] given by its coefficients, with L1 bound."""
    out, total = {}, 0
    power = terms
    for k, coeff in enumerate(coeffs):
        if coeff:
            _merge(out, power, coeff)
            total += abs(coeff) * bound
        if k + 1 < len(coeffs):
            power, bound = _times(power, bound, "a")
    return out, total


def _raw_multiply(x, y):
    """x * y for {mono: Poly} terms, packed, with its L1 bound."""
    packed = {mono: _kron_pack(p.coeffs, _width) for mono, p in x.items()}
    bound, out, total = _norm(p.coeffs for p in x.values()), {}, 0
    for (j2, w2), q in y.items():
        t, b = _times_word(*_times_poly(packed, bound, q.coeffs),
                           (0,) * j2 + w2)
        _merge(out, t)
        total += b
    return out, total


# --- scalar pushing ---------------------------------------------------------

# Row k holds push_through(i, k) for i = 0, 1, 2.  It is filled upward from
# row k - 1, so no degree recurses on the one below it.
_PUSHED_ROWS = [tuple(tuple(ONE if j == i else ZERO for j in range(3))
                      for i in range(3))]


@lru_cache(maxsize=None)
def push_through(i: int, k: int):
    """Write Q_i * a^k as c0*Q0 + c1*Q1 + c2*Q2; returns (c0, c1, c2)."""
    if k < 0:
        raise ValueError("negative exponent")
    rows = _PUSHED_ROWS
    while len(rows) <= k:
        # Q_i a^(k+1) = sum_l COMMUTATION[i][l] Q_l a^k
        t = rows[-1]
        rows.append(tuple(
            tuple(sum((c * t[l][j] for l, c in enumerate(row) if c), ZERO)
                  for j in range(3))
            for row in COMMUTATION))
    return rows[k][i]


def _pushed(i: int, p: Poly, j: int) -> Poly:
    """c_j of Q_i * p(a) = c0*Q0 + c1*Q1 + c2*Q2, alone (p a Poly): the
    sum of p_k times c_j of Q_i a^k, in one int list trimmed once."""
    coeffs = p.coeffs
    if not coeffs:
        return ZERO
    push_through(i, len(coeffs) - 1)  # fills _PUSHED_ROWS that far
    # COMMUTATION's entries have degree <= 2, so c_j of Q_i a^k has <= 2k
    out = [0] * (2 * len(coeffs) - 1)
    for coeff, row in zip(coeffs, _PUSHED_ROWS):
        if coeff:
            for t, r in enumerate(row[i][j].coeffs):
                out[t] += coeff * r
    return _trusted(_trim(out))


def push_poly(i: int, p: Poly):
    """Write Q_i * p(a) as c0*Q0 + c1*Q1 + c2*Q2."""
    p = Poly(p)
    return _pushed(i, p, 0), _pushed(i, p, 1), _pushed(i, p, 2)


# --- the element class ------------------------------------------------------

class Operation:
    """An element of the operation algebra, in admissible form."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, c in terms.items():
                c = Poly(c)
                if not c.is_zero():
                    clean[mono] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def unit() -> "Operation":
        return Operation({(0, ()): ONE})

    @staticmethod
    def q(i: int) -> "Operation":
        if i == 0:
            return Operation({(1, ()): ONE})
        return Operation({(0, (i,)): ONE})

    @staticmethod
    def from_poly(p) -> "Operation":
        return Operation({(0, ()): Poly(p)})

    @staticmethod
    def from_word(letters) -> "Operation":
        """Product of tokens from {'a', 'Q0', 'Q1', 'Q2'} (or ints 0,1,2)."""
        word = []
        for tok in letters:
            if tok not in ("a", "Q0", "Q1", "Q2", 0, 1, 2):
                raise ValueError("unknown letter %r" % (tok,))
            word.append(tok if tok == "a" else int(str(tok)[-1]))
        return Operation(_straighten(_times_word, {(0, ()): 1}, 1, word))

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Common degree of all monomials; raises if inhomogeneous."""
        degs = {j + len(w) for (j, w) in self.terms}
        if len(degs) > 1:
            raise ValueError("inhomogeneous element")
        return degs.pop() if degs else None

    def coefficient(self, j: int, word) -> Poly:
        return self.terms.get((j, tuple(word)), ZERO)

    def __eq__(self, other):
        if isinstance(other, Operation):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Operation):
            return NotImplemented
        return Operation(_merge(dict(self.terms), other.terms))

    def __sub__(self, other):
        if not isinstance(other, Operation):
            return NotImplemented
        return Operation(_merge(dict(self.terms), other.terms, Poly(-1)))

    def __neg__(self):
        return Operation({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Poly)):
            # right scalar: self * p needs pushing
            other = {(0, ()): Poly(other)}
        elif isinstance(other, Operation):
            other = other.terms
        else:
            return NotImplemented
        return Operation(_straighten(_raw_multiply, self.terms, other))

    def __rmul__(self, other):
        if isinstance(other, (int, Poly)):
            return Operation({m: Poly(other) * c
                              for m, c in self.terms.items()})
        return NotImplemented

    # -- i/o ---------------------------------------------------------------

    def sorted_terms(self):
        """Terms in display order: degree, then j descending, then word."""
        return sorted(self.terms.items(),
                      key=lambda mc: (mc[0][0] + len(mc[0][1]), -mc[0][0],
                                      mc[0][1]))

    def to_json(self):
        return {"terms": [{"j": j, "word": list(w), "coeff": c.to_json()}
                          for (j, w), c in self.sorted_terms()]}

    @staticmethod
    def from_json(data) -> "Operation":
        terms = {}
        for t in data["terms"]:
            terms[(t["j"], tuple(t["word"]))] = Poly.from_json(t["coeff"])
        return Operation(terms)

    def __str__(self):
        return format_terms((c, " ".join(["Q0"] * j + ["Q%d" % k for k in w]))
                            for (j, w), c in self.sorted_terms())

    __repr__ = __str__


def basis_of_degree(k: int):
    """Admissible monomials of degree k: j descending, then word lex (1<2)."""
    out = []
    for j in range(k, -1, -1):
        for w in itertools.product((1, 2), repeat=k - j):
            out.append((j, w))
    return out


# --- text syntax ------------------------------------------------------------

def parse_terms(text: str):
    """Parse "3 Q0 a Q1 - 2 Q2" into [(3, ['Q0','a','Q1']), (-2, ['Q2'])].

    The syntax is the one of `poly.summands` (README, "Input syntax"); the
    atoms are integers, `a`, `Q0`, `Q1` and `Q2`, and a power repeats its
    atom.
    """
    terms = []
    for coeff, factors in summands(text):
        letters = []
        for tok, k in factors:
            if tok.isdigit():
                coeff *= int(tok) ** k
            elif tok in ("a", "Q0", "Q1", "Q2"):
                letters += [tok] * k
            else:
                raise ValueError("unknown symbol %r" % tok)
        terms.append((coeff, letters))
    return terms


def normal_form(source) -> Operation:
    """Normal form of a free expression (text, or [(coeff, letters)] pairs)."""
    if isinstance(source, str):
        source = parse_terms(source)
    total = Operation()
    for coeff, letters in source:
        term = Operation.from_word(letters)
        total = total + coeff * term
    return total


# --- independent naive rewriter and the confluence check --------------------

_RULES = {
    (0, "a"): {("a", "a", 0): 1, ("a", 1): -2, (2,): 6},
    (1, "a"): {(0,): 3, ("a", 2): 1},
    (2, "a"): {("a", 0): -1, (1,): 3},
    (1, 0): {(2, 1): 2, (0, 2): -2},
    (2, 0): {(0, 1): 1, ("a", 0, 2): 1, (1, 2): -2},
}


def _redexes(word):
    return [i for i in range(len(word) - 1) if (word[i], word[i + 1]) in _RULES]


def _rewrite_once(word, i):
    rhs = _RULES[(word[i], word[i + 1])]
    return {word[:i] + repl + word[i + 2:]: c for repl, c in rhs.items()}


def _reduce_word(word, pick, memo):
    """Fully reduce a single word under the choice function `pick`.

    Terminates for every strategy: composing I(a): x -> x+1,
    I(Q0): x -> 3x+2, I(Q1) = I(Q2): x -> 3x+1 left to right gives a strictly
    monotone weight that every branch of every rule strictly decreases.
    The memo fixes one redex choice per word, so each strategy is a choice
    function word -> redex (randomized strategies sample it lazily).
    """
    cached = memo.get(word)
    if cached is not None:
        return cached
    spots = _redexes(word)
    if not spots:
        result = {word: 1}
    else:
        i = pick(spots)
        result = {}
        for new_word, factor in _rewrite_once(word, i).items():
            for w2, c2 in _reduce_word(new_word, pick, memo).items():
                new = result.get(w2, 0) + factor * c2
                if new:
                    result[w2] = new
                else:
                    result.pop(w2, None)
    memo[word] = result
    return result


def _naive_reduce(terms, pick, memo):
    """Reduce {word: int} to normal form, choosing redexes with `pick`."""
    out = {}
    for word, c in terms.items():
        for w2, c2 in _reduce_word(word, pick, memo).items():
            new = out.get(w2, 0) + c * c2
            if new:
                out[w2] = new
            else:
                out.pop(w2, None)
    return out


def _word_table_to_operation(table) -> Operation:
    out = {}
    for word, c in table.items():
        n_a = sum(1 for t in word if t == "a")
        rest = [t for t in word if t != "a"]
        j = 0
        while j < len(rest) and rest[j] == 0:
            j += 1
        tail = tuple(rest[j:])
        if any(t not in (1, 2) for t in tail):
            raise ValueError("word %r is not in normal form" % (word,))
        mono = (j, tail)
        cur = out.get(mono, ZERO)
        out[mono] = cur + Poly(c).shift(n_a)
    return Operation(out)


def check_confluence(max_deg: int = 4, max_a: int = 2, seed: int = 0,
                     random_rounds: int = 2):
    """Reduce every small word under independent strategies and compare.

    Enumerates all products of at most max_deg Q-letters and max_a scalars
    (in every interleaving), reduces each with leftmost, rightmost, and
    seeded-random redex choices via the naive rewriter, and checks that all
    answers agree with each other and with the fast engine.
    """
    rng = random.Random(seed)
    strategies = [("leftmost", lambda spots: spots[0]),
                  ("rightmost", lambda spots: spots[-1])]
    for r in range(random_rounds):
        strategies.append(("random%d" % r, rng.choice))
    words = []
    alphabet = ("a", 0, 1, 2)
    for length in range(0, max_deg + max_a + 1):
        for word in itertools.product(alphabet, repeat=length):
            if sum(1 for t in word if t == "a") <= max_a and \
               sum(1 for t in word if t != "a") <= max_deg:
                words.append(word)
    divergences = []
    engine_mismatches = []
    memos = {name: {} for name, _ in strategies}
    for word in words:
        results = [(_name, _naive_reduce({word: 1}, pick, memos[_name]))
                   for _name, pick in strategies]
        base = results[0][1]
        for name, table in results[1:]:
            if table != base:
                divergences.append((word, name))
        tokens = ["a" if t == "a" else "Q%d" % t for t in word]
        if _word_table_to_operation(base) != Operation.from_word(tokens):
            engine_mismatches.append(word)
    return {"words_checked": len(words), "strategies": len(strategies),
            "divergences": divergences, "engine_mismatches": engine_mismatches}
