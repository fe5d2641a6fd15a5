"""End-to-end verification suite.

Twelve independent checks, one per advertised capability, each returning
(ok, detail).  `run_checks` executes them in order; the command-line
front end's `verify-all` formats those results once, as one line per
check or as JSON.

One check is expected to fail by design: `check_continuity` sweeps the
(2, a)-adic continuity claim over composite operation monomials, where it
is genuinely false (the generator-level statement, which is the true
theorem, is recorded in the detail string).  The suite reports what the
computation finds rather than weakening the sweep.
"""

from __future__ import annotations

import random
import time

from .poly import Poly, ONE, A, DISC
from .opalgebra import Operation, basis_of_degree, psi
from .opmodules import (standard_module, omega, omega_power, tensor, act,
                        check_well_defined, psi_on_tensor)
from .amplified import AmplifiedRing, scalars_continuity_check
from .normlog import (NormContext, norm_multiplicativity_check,
                      linearization_check, trace_norm_symbolic_check)
from .padic import PadicElem
from .tower import SFrac, S2Elem
from .koszul import build_complex, acyclicity_check, tor_gamma_mod_I
from .curve import (isogeny_series, TARGET_A, q_series_mismatch_report,
                    derive_commutation, derive_adem_and_psi)

__all__ = ["CHECKS", "run_checks", "run_named"]


def check_ranks():
    """Degree-k slice of the operation algebra has rank 2^(k+1) - 1."""
    sizes = [len(basis_of_degree(k)) for k in range(9)]
    ok = sizes == [2 ** (k + 1) - 1 for k in range(9)]
    return ok, "slice ranks for k=0..8: %s" % sizes


def check_centrality():
    """Psi commutes with a and with each generator, in normal form."""
    center = psi()
    failures = []
    for label, g in [("a", Operation.from_poly(A)), ("Q0", Operation.q(0)),
                     ("Q1", Operation.q(1)), ("Q2", Operation.q(2))]:
        if not (center * g - g * center).is_zero():
            failures.append(label)
    return not failures, ("commutator vanished for a, Q0, Q1, Q2"
                          if not failures else "nonzero against %s" % failures)


def check_psi_multiplicativity():
    """Psi splits across tensor products and scales omega^n by (-2)^n."""
    pairs = [(omega(), omega()), (omega(), omega_power(2)),
             (standard_module(), omega())]
    for m1, m2 in pairs:
        psi_on_tensor(m1, m2, m1.basis_vector(0), m2.basis_vector(0))
    scales = []
    for n in range(7):
        m = omega_power(n)
        out = act(m, psi(), m.basis_vector(0))
        expect = (Poly((-2) ** n),)
        if out != expect:
            return False, "Psi on the omega^%d generator gave %s" % (
                n, [str(p) for p in out])
        scales.append((-2) ** n)
    return True, ("multiplicative on 3 tensor pairs; scalar on omega^n: %s"
                  % scales)


def check_module_relations():
    """Defining five-relation check for the module zoo and all tensor pairs."""
    base = [("R", standard_module())]
    base += [("omega^%d" % n, omega_power(n)) for n in range(1, 7)]
    count = 0
    for name, m in base:
        rep = check_well_defined(m)
        if not rep["ok"]:
            return False, "%s fails: %s" % (name, rep["failures"][:1])
        count += 1
    for i, (n1, m1) in enumerate(base):
        for n2, m2 in base[i:]:
            rep = check_well_defined(tensor(m1, m2))
            if not rep["ok"]:
                return False, "%s (x) %s fails: %s" % (n1, n2,
                                                       rep["failures"][:1])
            count += 1
    return True, "%d modules pass all five relations" % count


def _window_sample(ring, rng, theta_max, word_max, max_terms=2,
                   max_factors=2):
    words = [()] + [(i,) for i in (1, 2)] \
        + [(i, j) for i in (1, 2) for j in (1, 2)] \
        + [(i, j, k) for i in (1, 2) for j in (1, 2) for k in (1, 2)]
    gens = [(j, w) for j in range(theta_max + 1) for w in words
            if len(w) <= word_max]
    total = ring.const(rng.randrange(-2, 3))
    for _ in range(rng.randrange(1, max_terms + 1)):
        term = ring.const(Poly([rng.randrange(-2, 3), rng.randrange(-1, 2)]))
        for _ in range(rng.randrange(1, max_factors + 1)):
            j, w = rng.choice(gens)
            term = term * ring.gen(j, w)
        total = total + term
    return total


def check_theta_suite():
    """The five theta identities, the mod-2 congruence, and Psi-theta."""
    ring = AmplifiedRing(theta_depth=5, word_depth=6)
    rng = random.Random(20260823)
    a = ring.const(A)
    checked = 0
    # identities 1 and 2: theta of sums and of a-multiples
    for _ in range(6):
        s = _window_sample(ring, rng, theta_max=2, word_max=3)
        t = _window_sample(ring, rng, theta_max=2, word_max=3)
        if ring.theta(s + t) != ring.theta(s) + ring.theta(t) - s * t:
            return False, "theta(s + t) identity failed"
        lhs = ring.theta(a * s)
        rhs = (A * A * ring.theta(s) - A * ring.q(1, s)
               + Poly(3) * ring.q(2, s))
        if lhs != rhs:
            return False, "theta(a s) identity failed"
        checked += 2
    # identity 3: theta of products
    for _ in range(6):
        s = _window_sample(ring, rng, theta_max=1, word_max=2, max_terms=1)
        t = _window_sample(ring, rng, theta_max=1, word_max=2, max_terms=1)
        rhs = (s * s * ring.theta(t) + t * t * ring.theta(s)
               + 2 * ring.theta(s) * ring.theta(t)
               + ring.q(1, s) * ring.q(2, t) + ring.q(2, s) * ring.q(1, t))
        if ring.theta(s * t) != rhs:
            return False, "theta(s t) identity failed"
        checked += 1
    # identities 4 and 5: Q1 and Q2 of theta
    for _ in range(6):
        s = _window_sample(ring, rng, theta_max=2, word_max=3, max_terms=2,
                           max_factors=1)
        lhs = ring.q(1, ring.theta(s))
        rhs = (ring.q(2, ring.q(1, s)) - ring.q(0, ring.q(2, s))
               - ring.q(0, s) * ring.q(1, s)
               - A * ring.q(1, s) * ring.q(2, s)
               - ring.q(2, s) * ring.q(2, s))
        if lhs != rhs:
            return False, "Q1 theta identity failed"
        lhs = ring.q(2, ring.theta(s))
        rhs = (ring.theta(ring.q(1, s)) + A * ring.theta(ring.q(2, s))
               - ring.q(1, ring.q(2, s)) - ring.q(0, s) * ring.q(2, s))
        if lhs != rhs:
            return False, "Q2 theta identity failed"
        checked += 2
    # mod-2 congruence on 100 randomized window elements
    small = AmplifiedRing(theta_depth=2, word_depth=3)
    rng2 = random.Random(31416)
    for _ in range(100):
        p = _window_sample(small, rng2, theta_max=1, word_max=1)
        if not small.frobenius_check(p):
            return False, "Q0 p = p^2 mod 2 failed on %s" % p
        checked += 1
    # Psi and theta commute on the generator
    deep = AmplifiedRing(theta_depth=3, word_depth=3)
    if deep.psi(deep.theta(deep.x())) != deep.theta(deep.psi(deep.x())):
        return False, "Psi theta x != theta Psi x"
    checked += 1
    return True, "%d identity instances verified" % checked


def check_continuity():
    """(2, a)-adic continuity sweep over composite monomials.

    Genuinely fails beyond degree 1: a single operator keeps a^3 R inside
    2R + aR, but composites escape (first witness in degree 2).  The
    generator-level result and the first composite witness are reported.
    """
    rep = scalars_continuity_check(max_deg=4, max_apow=6)
    if rep["ok"]:
        return True, "all %d membership checks passed" % rep["checked"]
    first = rep["failures"][0]
    return False, ("%d/%d memberships failed; generator level ok: %s; "
                   "first failure at degree %s: %s(%s) = %s needs %s"
                   % (len(rep["failures"]), rep["checked"],
                      rep["generator_level_ok"], rep["min_failing_degree"],
                      first["monomial"], first["input"], first["output"],
                      first["needs"]))


def check_norm_identities():
    """N on scalars, the two polynomial cubes, multiplicativity, and T."""
    ctx = NormContext("R")
    for m in range(-3, 4):
        if ctx.norm_N(Poly(m)) != Poly(m ** 3):
            return False, "N(%d) != %d^3" % (m, m)
    for p in (A - 3, DISC):
        if ctx.norm_N(p) != -(p * p * p):
            return False, "N(%s) != -(%s)^3" % (p, p)
    rng = random.Random(97)
    for _ in range(50):
        x = Poly([rng.randrange(-5, 6) for _ in range(4)])
        y = Poly([rng.randrange(-5, 6) for _ in range(4)])
        if not norm_multiplicativity_check(ctx, x, y):
            return False, "N(xy) != Nx Ny for %s, %s" % (x, y)
    for r in (ONE, A, A * A, A + 2):
        if not linearization_check(r):
            return False, "N(1 + eps r) does not linearize to T(%s)" % r
    return True, ("scalar cubes, two anti-fixed cubes, 50 products, "
                  "4 linearizations")


def check_logarithm():
    """D^2 Psi D = -N D exactly, and ell kills units at 2-precision 20."""
    ctx_r = NormContext("R")
    if DISC * DISC * ctx_r.psi_value(DISC) != -ctx_r.norm_N(DISC):
        return False, "D^2 Psi D != -N D"
    ctx = NormContext("Shat", prec2=20, precA=16)
    ctx_s = NormContext("S", prec2=20, precA=16)
    zero = PadicElem.zero(20, 16)
    cases = [("D", ctx, Poly(DISC)), ("-1", ctx, Poly(-1))]
    for k in range(-3, 4):
        if k >= 0:
            cases.append(("-D^%d" % k, ctx, -(DISC ** k)))
        else:
            # negative powers live in S; M is exact there and only the
            # final logarithm truncates, so no a-precision is lost
            cases.append(("-D^%d" % k, ctx_s, SFrac(Poly(-1), -k)))
    for label, host, x in cases:
        got = host.log_ell(x)
        if not got.agrees_with(zero):
            return False, "ell(%s) != 0: %s" % (label, got)
    return True, "exact cube identity and ell = 0 on %d units" % len(cases)


def check_koszul_homology():
    """d^2 = 0, field acyclicity, and the two-torsion Tor value."""
    for name, m in [("R", standard_module()), ("omega", omega()),
                    ("omega^2", omega_power(2))]:
        cx = build_complex(m, 5)
        ok0, ok1 = cx.d_squared_checks()
        if not (ok0 and ok1):
            return False, "d^2 != 0 for %s" % name
    for field in ("q", "f2"):
        rep = acyclicity_check(omega(), 3, field)
        if not rep["ok"]:
            return False, "acyclicity over %s fails: %s" % (field, rep)
    tor = tor_gamma_mod_I(1)
    z = [(e["free"], e["divisors"]) for e in tor["Z"]]
    if z != [(0, []), (0, [2]), (0, [])]:
        return False, "integral Tor slices for omega came out %s" % z
    return True, ("d^2 = 0 through degree 5 on 3 modules; acyclic over "
                  "Q[a] and F2[a]; Tor = (0, Z/2, 0)")


# Displayed expansion coefficients of the isogeny, frozen for verification.
def _s2(c0=0, c1=0, c2=0):
    return S2Elem(Poly(c0), Poly(c1), Poly(c2))


_U_PRIME = {
    1: _s2(0, -1, 0),
    2: _s2(3, (0, 1), 0),
    3: _s2((0, -2), (0, 0, -1), -3),
    4: _s2((0, 0, 2), (6, 0, 0, 1), (0, 5)),
    5: _s2((-12, 0, 0, -2), (0, -16, 0, 0, -1), (0, 0, -7)),
    6: _s2((0, 32, 0, 0, 2), (0, 0, 30, 0, 0, 1), (12, 0, 0, 9)),
}
_V_PRIME = {
    3: _s2(-2, (0, -1), 0),
    4: _s2((0, 4), (0, 0, 2), 3),
    5: _s2((0, 0, -6), (-9, 0, 0, -3), (0, -9)),
    6: _s2((23, 0, 0, 8), (0, 35, 0, 0, 4), (0, 0, 18)),
    7: _s2((0, -84, 0, 0, -10), (0, 0, -86, 0, 0, -5), (-27, 0, 0, -30)),
    8: _s2((0, 0, 199, 0, 0, 12), (63, 0, 0, 170, 0, 0, 6),
           (0, 126, 0, 0, 45)),
}


def check_isogeny_series():
    """u' and v' match the tabulated coefficients; a' is recovered."""
    iso = isogeny_series(9)
    for k, val in _U_PRIME.items():
        if iso.u_series[k] != val:
            return False, "u' coefficient at u^%d is %s" % (k,
                                                            iso.u_series[k])
    for k, val in _V_PRIME.items():
        if iso.v_series[k] != val:
            return False, "v' coefficient at u^%d is %s" % (k,
                                                            iso.v_series[k])
    if iso.a_target != TARGET_A:
        return False, "recovered target coefficient %s" % iso.a_target
    if not iso.is_integral():
        return False, "coefficients left S2"
    return True, ("u' through u^6 and v' through u^8 coefficient-exact; "
                  "a' = a^2 + 3d - a d^2 recovered")


def check_derivation_closure():
    """The curve rebuilds the relations, Psi, and the Q_i(u) series."""
    com = derive_commutation()
    if not com["ok"]:
        return False, "commutation derivation mismatch"
    adem = derive_adem_and_psi()
    if not adem["ok"]:
        return False, "straightening/Psi derivation mismatch"
    rep = q_series_mismatch_report()
    if not rep["only_known_mismatch"]:
        return False, "unexpected mismatch set: %s" % rep["mismatches"]
    entry = rep["mismatches"][0]
    return True, ("relations, Psi, and series displays reproduced; known "
                  "u^2 disagreement reported (isogeny %s vs tabulated %s)"
                  % (entry["from_isogeny"], entry["tabulated"]))


def check_trace_norm_symbolic():
    """Trace and determinant of multiplication by P(x) give T and N."""
    rep = trace_norm_symbolic_check()
    if not rep["ok"]:
        return False, "symbolic trace/norm mismatch: %s" % rep
    return True, "trace gives 3 Q0 + 2a Q2; determinant gives the 8-term N"


CHECKS = [
    ("ranks", check_ranks),
    ("centrality", check_centrality),
    ("psi_multiplicativity", check_psi_multiplicativity),
    ("module_relations", check_module_relations),
    ("theta_suite", check_theta_suite),
    ("continuity", check_continuity),
    ("norm_identities", check_norm_identities),
    ("logarithm", check_logarithm),
    ("koszul_homology", check_koszul_homology),
    ("isogeny_series", check_isogeny_series),
    ("derivation_closure", check_derivation_closure),
    ("trace_norm_symbolic", check_trace_norm_symbolic),
]


def run_named(name):
    """Run one check by name; returns (ok, detail, seconds)."""
    table = dict(CHECKS)
    start = time.time()
    ok, detail = table[name]()
    return ok, detail, time.time() - start


def run_checks():
    """Run every check in order, yielding (name, ok, detail)."""
    for name, func in CHECKS:
        yield (name,) + tuple(func())
