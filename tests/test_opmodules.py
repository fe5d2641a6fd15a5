"""Tests for module presentations and the Cartan tensor structure."""

import random

import pytest

from powerops.poly import Poly, A, ZERO, ONE
from powerops import opmodules
from powerops.opalgebra import (Operation, normal_form, psi, push_poly,
                                basis_of_degree)
from powerops.opmodules import (ModulePresentation, standard_module, omega,
                                omega_power, omega_power_closed, two_sphere,
                                act, apply_q, tensor, check_well_defined,
                                psi_on_tensor, swap_is_isomorphism, kron_vec,
                                vec_scale, _basis_images)
from powerops.koszul import build_complex
from powerops.amplified import scalars_continuity_check
from tests.test_opalgebra import rand_operation


def pv(*ints):
    return tuple(Poly(n) for n in ints)


class TestStandardAndOmega:
    def test_standard_values(self):
        R = standard_module()
        assert act(R, Operation.q(0), pv(1)) == pv(1)
        assert act(R, Operation.q(1), pv(1)) == pv(0)
        assert act(R, Operation.q(2), pv(1)) == pv(0)

    def test_action_on_scalar_a(self):
        # Q1(a 1) = (3 Q0 + a Q2) 1 = 3
        R = standard_module()
        assert act(R, Operation.q(1), (A,)) == pv(3)
        assert act(R, Operation.q(0), (A,)) == (A * A,)
        assert act(R, Operation.q(2), (A,)) == (-A,)

    def test_psi_on_omega(self):
        w = omega()
        assert act(w, psi(), pv(1)) == pv(-2)

    def test_omega_defining_values(self):
        w = omega()
        assert apply_q(w, 0, pv(1)) == pv(0)
        assert apply_q(w, 1, pv(1)) == pv(-1)
        assert apply_q(w, 2, pv(1)) == pv(0)


class TestTensor:
    def test_omega_squared_matrices(self):
        t = tensor(omega(), omega())
        assert t.rank == 1
        assert t.q[0][0][0] == ZERO
        assert t.q[1][0][0] == ZERO
        assert t.q[2][0][0] == ONE

    def test_unit_object(self):
        for m in (omega(), two_sphere(), omega_power(3)):
            assert tensor(standard_module(), m) == m
            assert tensor(m, standard_module()) == m

    def test_iterated_tensor_matches_closed_recursion(self):
        for n in range(0, 7):
            assert omega_power(n) == omega_power_closed(n)

    def test_small_power_actions(self):
        # u^2 -> (0, 0, u^2); u^3 -> (-2, -a, 0); u^4 -> (0, 2, a)
        w2 = omega_power(2)
        assert [w2.q[i][0][0] for i in range(3)] == [ZERO, ZERO, ONE]
        w3 = omega_power(3)
        assert [w3.q[i][0][0] for i in range(3)] == [Poly(-2), -A, ZERO]
        w4 = omega_power(4)
        assert [w4.q[i][0][0] for i in range(3)] == [ZERO, Poly(2), A]

    def test_associativity_on_the_nose(self):
        m1, m2, m3 = two_sphere(), omega(), omega_power(2)
        assert tensor(tensor(m1, m2), m3) == tensor(m1, tensor(m2, m3))

    def test_swap_is_isomorphism(self):
        assert swap_is_isomorphism(omega(), omega_power(2))
        assert swap_is_isomorphism(standard_module(), two_sphere())
        assert swap_is_isomorphism(two_sphere(), omega())


class TestWellDefined:
    def test_stock_modules_pass(self):
        mods = [standard_module(), omega(), two_sphere()]
        mods += [omega_power(n) for n in range(2, 7)]
        for m in mods:
            assert check_well_defined(m)["ok"]

    def test_pairwise_tensors_pass(self):
        pool = [standard_module(), omega(), omega_power(2), two_sphere()]
        for m1 in pool:
            for m2 in pool:
                assert check_well_defined(tensor(m1, m2))["ok"]

    def test_bad_module_fails_straightening(self):
        bad = ModulePresentation(1, [[1]], [[1]], [[0]])
        report = check_well_defined(bad)
        assert not report["ok"]
        rules = {f["rule"] for f in report["failures"]}
        assert any("Q1 Q0" in r for r in rules)


class TestPsiMultiplicative:
    def test_on_omega_pairs(self):
        w, w2 = omega(), omega_power(2)
        assert psi_on_tensor(w, w, pv(1), pv(1)) == pv(4)
        assert psi_on_tensor(w, w2, pv(1), pv(1)) == pv(-8)
        assert psi_on_tensor(standard_module(), w, pv(1), pv(1)) == pv(-2)

    def test_trivial_on_unit(self):
        R = standard_module()
        assert psi_on_tensor(R, R, pv(1), pv(1)) == pv(1)

    def test_psi_scales_omega_powers(self):
        for n in range(0, 7):
            m = omega_power(n)
            assert act(m, psi(), pv(1)) == pv((-2) ** n)


class TestActionAxioms:
    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            act(omega(), Operation.q(1), pv(1, 2))

    def test_products_act_as_composites(self):
        rng = random.Random(424242)
        mods = [two_sphere(), omega_power(2), tensor(omega(), two_sphere()),
                standard_module(), omega()]
        for m in mods:
            for _ in range(8):
                g = rand_operation(rng, max_deg=2)
                h = rand_operation(rng, max_deg=1)
                v = tuple(Poly([rng.randrange(-2, 3) for _ in range(2)])
                          for _ in range(m.rank))
                assert act(m, g * h, v) == act(m, g, act(m, h, v))

    def test_linear_over_sums(self):
        m = two_sphere()
        g = normal_form("Q2 Q0 a - 2 Q1")
        v = (A, Poly(3))
        w = (Poly(1), A * A)
        lhs = act(m, g, tuple(x + y for x, y in zip(v, w)))
        assert lhs == tuple(x + y for x, y in zip(act(m, g, v),
                                                  act(m, g, w)))


class TestSerialization:
    def test_json_roundtrip(self):
        m = tensor(two_sphere(), omega())
        data = m.to_json()
        assert ModulePresentation.from_json(data) == m

    def test_kron_order(self):
        v = (Poly(1), Poly(2))
        w = (Poly(3), Poly(5))
        assert kron_vec(v, w) == pv(3, 5, 6, 10)
        assert kron_vec(vec_scale(A, v), w) == tuple(A * c
                                                     for c in pv(3, 5, 6, 10))


def _walk_modules():
    return [standard_module(), omega(), omega_power(2), omega_power(3),
            two_sphere(), tensor(two_sphere(), two_sphere())]


def _vectors(rank):
    """Two vectors with nonconstant entries, and one that is zero but in
    its last entry."""
    entries = [A + 2, 3 * A * A - 1, A * A * A - 4 * A, Poly(-5)]
    return [tuple(entries[(k + s) % 4] for k in range(rank))
            for s in range(2)] + [(ZERO,) * (rank - 1) + (A - 7,)]


class _CountingApplyQ:
    """Counts the calls to opmodules.apply_q while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        inner = opmodules.apply_q

        def counted(*args):
            self.calls += 1
            return inner(*args)
        monkeypatch.setattr(opmodules, "apply_q", counted)


class TestBasisWalk:
    """`_basis_images` against `act`, `apply_q` against the full formula,
    and the number of `apply_q` calls each walk makes."""

    def test_walk_matches_act(self):
        keys = [key for d in range(5) for key in basis_of_degree(d)]
        for m in _walk_modules():
            for v in _vectors(m.rank):
                images = _basis_images(m, 4, v)
                assert sorted(images) == sorted(keys)
                for key in keys:
                    assert images[key] == act(m, Operation({key: ONE}), v), \
                        (m.to_json(), key)

    def test_apply_q_matches_full_formula(self):
        for m in _walk_modules():
            for v in _vectors(m.rank):
                for i in range(3):
                    want = [ZERO] * m.rank
                    for k, p in enumerate(v):
                        coeffs = push_poly(i, p)
                        for l in range(3):
                            col = m.column(l, k)
                            for row in range(m.rank):
                                want[row] = want[row] + coeffs[l] * col[row]
                    assert apply_q(m, i, v) == tuple(want)

    def test_d0_walks_once_per_basis_vector(self, monkeypatch):
        cx = build_complex(omega(), 5)
        counter = _CountingApplyQ(monkeypatch)
        assert cx._build_d0() == cx.d0
        # one call per admissible key of degree 1..5: 3 + 7 + 15 + 31 + 63
        assert counter.calls == 119

    def test_continuity_walks_once_per_input(self, monkeypatch):
        counter = _CountingApplyQ(monkeypatch)
        report = scalars_continuity_check(4, 6)
        # 2 inputs x 7 powers of a, 56 keys of degree 1..4 each
        assert counter.calls == 784
        failures = []
        for deg in range(5):
            for key in basis_of_degree(deg):
                g = Operation({key: ONE})
                for k in range(7):
                    out = act(standard_module(), g, (Poly(2).shift(k),))[0]
                    if not out.divisible_by_int(2):
                        failures.append((key, "2 a^%d" % k, str(out)))
                    out = act(standard_module(), g, (Poly(1).shift(3 + k),))[0]
                    if out.constant_term() % 2:
                        failures.append((key, "a^%d" % (3 + k), str(out)))
        assert failures  # the sweep's standing witnesses, in order
        assert [(tuple(f["monomial"]), f["input"], f["output"])
                for f in report["failures"]] == failures
        assert report["checked"] == 57 * 7
