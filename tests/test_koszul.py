"""Tests for the Koszul-type resolution and its Tor computations.

The reduced-complex homology is validated two ways: frozen expectations,
and a from-scratch sympy oracle in this file that rebuilds the matrices
from the commutation recursions and computes homology by the direct-sum
shortcut (cokernel of the incoming map splits off the free part).  The
package's `linalg.homology_triple` reads homology by the same method, from
invariant factors alone, but the oracle shares none of its code: matrices,
Smith forms and ring arithmetic are all sympy's.  The transform method,
which moves the incoming map into the kernel, is checked against the
package in `tests/test_linalg.py`.
"""

import random

import pytest
import sympy
from sympy import GF, QQ, Matrix as SMatrix
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

from powerops.poly import Poly, A
from powerops.opalgebra import Operation, basis_of_degree
from powerops import koszul
from powerops.linalg import (Matrix, ring_by_name, homology,
                             unit_pivot_elimination)
from powerops.cli import main as cli_main
from powerops.opmodules import (ModulePresentation, standard_module, omega,
                                omega_power, tensor, two_sphere)
from powerops.koszul import (RELATIONS, k1_right_a_matrix, build_complex,
                             acyclicity_check, tor_reduced, tor_gamma_mod_I,
                             identification_check, reduced_matrices,
                             truncation_stability_check)

_a = sympy.symbols("a")


# --- independent oracle -----------------------------------------------------

def oracle_q_values(k):
    """Q(u^k) coefficients by iterating the product-rule step k times."""
    al, be, ga = sympy.Integer(1), sympy.Integer(0), sympy.Integer(0)
    for _ in range(k):
        al, be, ga = (-2 * ga, -al - _a * ga, -be)
    return sympy.expand(al), sympy.expand(be), sympy.expand(ga)


def oracle_push(i, p):
    """q_i * p(a) in the left basis, by iterating the commutation step."""
    p = sympy.expand(p)
    out = [sympy.Integer(0)] * 3
    if p == 0:
        return out
    for k, c in enumerate(sympy.Poly(p, _a).all_coeffs()[::-1]):
        t = [sympy.Integer(1 if j == i else 0) for j in range(3)]
        for _ in range(k):
            t = [sympy.expand(_a * _a * t[0] + 3 * t[1] - _a * t[2]),
                 sympy.expand(-2 * _a * t[0] + 3 * t[2]),
                 sympy.expand(6 * t[0] + _a * t[1])]
        for j in range(3):
            out[j] += c * t[j]
    return [sympy.expand(v) for v in out]


_ORACLE_RHO = [[(1, 1, 0), (-2, 2, 1), (2, 0, 2)],
               [(1, 2, 0), (-1, 0, 1), (-_a, 0, 2), (2, 1, 2)]]


def oracle_reduced(k):
    qv = oracle_q_values(k)
    d1 = SMatrix([[qv[0], qv[1], qv[2]]])
    cols = []
    for terms in _ORACLE_RHO:
        col = [sympy.Integer(0)] * 3
        for s, i, j in terms:
            c = oracle_push(i, qv[j])
            for g in range(3):
                col[g] += sympy.expand(s * c[g])
        cols.append([sympy.expand(v) for v in col])
    d2 = SMatrix([[cols[0][g], cols[1][g]] for g in range(3)])
    return d1, d2


def oracle_homology(d1, d2, dom):
    """(free, divisors) at positions 0, 1, 2 over the named PID slice.

    Uses ker(d)/im(e) = coker(e into the position) minus the free image
    summand, valid over a PID because kernels are pure submodules.
    """
    if dom == "z":
        field, ring = QQ, sympy.ZZ
    elif dom == "q":
        field, ring = QQ.frac_field(_a), QQ[_a]
    else:
        field, ring = GF(2).frac_field(_a), GF(2)[_a]

    def rank(m):
        return DomainMatrix.from_Matrix(m).convert_to(field).rank()

    def nonunit(m):
        out = []
        for d in invariant_factors(m, domain=ring):
            if d == 0:
                continue
            if dom == "z":
                if abs(int(d)) != 1:
                    out.append(abs(int(d)))
            else:
                p = sympy.Poly(sympy.expand(d), _a)
                if p.degree() > 0:
                    out.append(str(p.monic().as_expr() if dom == "q"
                                   else p.as_expr()).replace("**", "^").replace("*", " "))
        return out

    r1, r2 = rank(d1), rank(d2)
    return [(1 - r1, nonunit(d1)), (3 - r1 - r2, nonunit(d2)), (2 - r2, [])]


def as_pairs(report_slice):
    return [(e["free"], e["divisors"]) for e in report_slice]


# --- the reduced complex ----------------------------------------------------

class TestReducedComplex:
    def test_matrices_match_oracle(self):
        for k in range(4):
            d1, d2 = reduced_matrices(omega_power(k))
            o1, o2 = oracle_reduced(k)
            for mat, omat in ((d1, o1), (d2, o2)):
                for i in range(mat.m):
                    for j in range(mat.n):
                        got = sum(c * _a ** t for t, c in
                                  enumerate(mat.rows[i][j].coeffs))
                        assert sympy.expand(got - omat[i, j]) == 0

    def test_frozen_small_cases(self):
        d1, d2 = reduced_matrices(omega())
        assert [[str(e) for e in r] for r in d1.rows] == [["0", "-1", "0"]]
        assert [[str(e) for e in r] for r in d2.rows] == [
            ["0", "1"], ["0", "0"], ["2", "0"]]
        d1, d2 = reduced_matrices(omega_power(2))
        assert [[str(e) for e in r] for r in d1.rows] == [["0", "0", "1"]]
        assert [[str(e) for e in r] for r in d2.rows] == [
            ["2", "-a"], ["0", "2"], ["0", "0"]]

    def test_tor_omega_is_two_torsion(self):
        rep = tor_gamma_mod_I(1)
        assert as_pairs(rep["Z"]) == [(0, []), (0, [2]), (0, [])]
        assert as_pairs(rep["Q"]) == [(0, []), (0, []), (0, [])]
        assert as_pairs(rep["F2"]) == [(0, []), (1, []), (1, [])]

    def test_tor_trivial_for_k_zero(self):
        rep = tor_gamma_mod_I(0)
        for label in ("Z", "Q", "F2"):
            assert as_pairs(rep[label]) == [(0, []), (0, []), (0, [])]

    def test_tor_matches_oracle_through_k3(self):
        for k in range(4):
            rep = tor_gamma_mod_I(k)
            o1, o2 = oracle_reduced(k)
            constant = all(e.is_number for e in list(o1) + list(o2))
            assert (rep["Z"] is not None) == constant
            if constant:
                assert as_pairs(rep["Z"]) == oracle_homology(o1, o2, "z")
            assert as_pairs(rep["Q"]) == oracle_homology(o1, o2, "q")
            assert as_pairs(rep["F2"]) == oracle_homology(o1, o2, "f2")

    def test_zero_module_tor_vanishes(self):
        rep = tor_reduced(ModulePresentation(0, [], [], []))
        for label in ("Z", "Q", "F2"):
            assert as_pairs(rep[label]) == [(0, []), (0, []), (0, [])]

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            tor_gamma_mod_I(-1)

    def test_ill_defined_module_rejected(self):
        bad = ModulePresentation(1, [[1]], [[1]], [[1]])
        with pytest.raises(ValueError):
            tor_reduced(bad)

    def test_non_composing_pair_is_an_arithmetic_error(self, monkeypatch):
        # d1bar(omega) = (0 -1 0); a 1 in row 1 of d2bar makes d1 d2 != 0
        real = koszul.build_complex

        def broken(module, k_max):
            cx = real(module, k_max)
            cx.d2.rows[1][0] = Poly(1)
            return cx
        monkeypatch.setattr(koszul, "build_complex", broken)
        with pytest.raises(ArithmeticError):
            tor_reduced(omega())
        assert cli_main(["tor", "--k", "1"]) == 3


# --- the full truncated complex ---------------------------------------------

class TestTruncatedComplex:
    def test_d_squared_vanishes(self):
        for module in (standard_module(), omega(), omega_power(2)):
            cx = build_complex(module, 5)
            ok0, ok1 = cx.d_squared_checks()
            assert ok0 and ok1

    def test_d_squared_on_tensor_module(self):
        cx = build_complex(tensor(omega(), omega()), 3)
        assert cx.d_squared_checks() == (True, True)

    def test_degree_one_block_for_omega(self):
        # gamma = 1: q_i (x) u maps to 1 (x) Q_i u - Q_i (x) u with
        # Q0 u = Q2 u = 0 and Q1 u = -u
        cx = build_complex(omega(), 1)
        _, d1, _ = cx.caps(1)
        cols = [[str(d1.rows[r][c]) for r in range(d1.m)] for c in range(3)]
        assert cols[0] == ["0", "-1", "0", "0"]
        assert cols[1] == ["-1", "0", "-1", "0"]
        assert cols[2] == ["0", "0", "0", "-1"]

    def test_block_sizes(self):
        cx = build_complex(standard_module(), 4)
        assert cx.p0_size(4) == 1 + 3 + 7 + 15 + 31
        assert cx.p1_size(4) == 3 * (1 + 3 + 7 + 15)
        assert cx.p2_size(4) == 2 * (1 + 3 + 7)
        assert len(cx.p0_basis) == cx.p0_size(4)
        with pytest.raises(ValueError):
            cx.caps(5)

    def test_right_a_action_columns(self):
        cols = k1_right_a_matrix()
        assert [str(p) for p in cols[0]] == ["a^2", "-2*a", "6"]
        assert [str(p) for p in cols[1]] == ["3", "0", "a"]
        assert [str(p) for p in cols[2]] == ["-a", "3", "0"]

    def test_ill_defined_module_rejected(self):
        with pytest.raises(ValueError):
            build_complex(ModulePresentation(1, [[1]], [[1]], [[1]]), 2)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            build_complex(standard_module(), -1)


class TestAcyclicity:
    def test_standard_module_over_q(self):
        rep = acyclicity_check(standard_module(), 4, "q")
        assert rep["ok"]
        for cap in rep["caps"].values():
            assert cap["h1"] == {"free": 0, "divisors": []}
            assert cap["h2"] == {"free": 0, "divisors": []}
            assert cap["h0"] == {"free": 1, "divisors": []}

    def test_omega_over_f2(self):
        assert acyclicity_check(omega(), 4, "f2")["ok"]

    def test_omega_squared_over_q(self):
        assert acyclicity_check(omega_power(2), 3, "q")["ok"]

    def test_truncation_stability(self):
        rep = truncation_stability_check(omega(), (2, 3, 4), "q")
        assert rep["ok"]
        assert all(v == rep["values"][0] for v in rep["values"])


def _coerced(ring, mat):
    return Matrix(mat.m, mat.n, [[ring.coerce(e) for e in row]
                                 for row in mat.rows])


def _smith_triple(ring, d1, d2):
    """(h0, h1, h2) by three dense Smith-form homology calls over ring."""
    c1, c2 = _coerced(ring, d1), _coerced(ring, d2)
    return (homology(ring, Matrix(0, c1.m, []), c1),
            homology(ring, c1, c2),
            homology(ring, c2, Matrix(c2.n, 0, [[] for _ in range(c2.n)])))


_CERT_MODULES = {"R": standard_module, "omega": omega,
                 "omega^2": lambda: omega_power(2), "two_sphere": two_sphere}


class TestCertificate:
    @pytest.mark.parametrize("name", sorted(_CERT_MODULES))
    def test_certified_triple_matches_smith_oracle(self, name):
        cx = build_complex(_CERT_MODULES[name](), 4)
        for cap in range(1, 5):
            _, d1, d2 = cx.caps(cap)
            # both maps clear on unit pivots, so no Smith form runs
            assert unit_pivot_elimination(d1)[1].m == 0
            assert unit_pivot_elimination(d2)[1].m == 0
            for field in ("q", "f2"):
                ring = ring_by_name(field)
                assert koszul._homology_triple(ring, d1, d2) == \
                    _smith_triple(ring, d1, d2)

    def test_torsion_goes_through_the_fallback(self, monkeypatch):
        # d1bar clears; d2bar leaves the 1 x 1 remainder [2], and the Smith
        # form runs on that alone, once per ring
        d1, d2 = reduced_matrices(omega())
        assert unit_pivot_elimination(d1)[1].m == 0
        assert unit_pivot_elimination(d2) == (1, Matrix(1, 1, [[Poly(2)]]))
        calls = []
        real = koszul.smith_normal_form

        def spy(ring, mat):
            calls.append((ring.name, mat.rows))
            return real(ring, mat)
        monkeypatch.setattr(koszul, "smith_normal_form", spy)
        rep = tor_gamma_mod_I(1)
        assert calls == [("Z", [[2]]), ("Q[a]", [[(2,)]]), ("F2[a]", [[()]])]
        assert as_pairs(rep["Z"]) == [(0, []), (0, [2]), (0, [])]
        assert as_pairs(rep["Q"]) == [(0, []), (0, []), (0, [])]
        assert as_pairs(rep["F2"]) == [(0, []), (1, []), (1, [])]

    def test_non_composing_pair_raises(self, monkeypatch):
        # as in TestReducedComplex: a 1 in row 1 of d2 makes d1 d2 != 0 on
        # omega.  Both maps still clear on unit pivots, so only the one
        # d1 d2 = 0 check of the full complex stands between them and a
        # wrong certificate (h1 = 0)
        real = koszul.build_complex

        def broken(module, k_max):
            cx = real(module, k_max)
            cx.d2.rows[1][0] = Poly(1)
            return cx
        monkeypatch.setattr(koszul, "build_complex", broken)
        for field in ("q", "f2"):
            with pytest.raises(ArithmeticError,
                               match="do not compose to zero"):
                acyclicity_check(omega(), 3, field)
        with pytest.raises(ArithmeticError, match="do not compose to zero"):
            truncation_stability_check(omega(), (2, 3))


class TestIdentification:
    def test_relations_span_degree_two_kernel(self):
        rep = identification_check()
        assert rep["relations_killed"]
        assert rep["kernel_rank"] == 2
        assert rep["relation_span_rank"] == 2
        assert rep["relation_divisors"] == []
        assert rep["ok"]

    def test_relation_scaled_by_a_spans_less_than_the_kernel(
            self, monkeypatch):
        # a * rho_1 is still killed and still has rank 2, so it spans the
        # kernel over Q(a); over Q[a] it misses rho_1, and the invariant
        # factor a of the relation matrix shows it
        scaled = tuple((A * c, i, j) for c, i, j in RELATIONS[0])
        monkeypatch.setattr(koszul, "RELATIONS", (scaled,) + RELATIONS[1:])
        rep = identification_check()
        assert rep["relations_killed"]
        assert rep["kernel_rank"] == 2
        assert rep["relation_span_rank"] == 2
        assert rep["relation_divisors"] == ["a"]
        assert not rep["ok"]

    def test_relations_hold_in_operation_algebra(self):
        # the two stored relations really are zero after straightening
        for terms in RELATIONS:
            total = Operation()
            for c, i, j in terms:
                prod = Operation.q(i) * Operation.q(j)
                total = total + Operation(
                    {k: c * v for k, v in prod.terms.items()})
            assert total.is_zero()

    def test_degree_two_basis_size(self):
        assert len(basis_of_degree(2)) == 7
