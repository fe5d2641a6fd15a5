"""Acceptance gate: the twelve verification checks with their time budgets.

Each test runs one named check from powerops.verify, prints a single
pass/fail line (visible under `pytest -s`), asserts the stated runtime
budget, and asserts the check's outcome.

Criterion 6 (the continuity sweep over composite operation monomials) is
expected to fail: the containment Gamma . a^3 R in 2R + aR is true on the
generators Q0, Q1, Q2 but false for composites, the smallest witness
being the degree-2 monomial Q1 Q1 applied to a^3.  That test is marked
xfail(strict): it asserts the criterion as stated, the suite records the
failure as expected, and a companion test pins down the exact shape of
the reported counterexample so the failure stays an analyzed fact rather
than a silent skip.
"""

import pytest

from powerops.verify import run_named

# name -> (criterion number, runtime budget in seconds)
BUDGETS = {
    "ranks": (1, 1),
    "centrality": (2, 1),
    "psi_multiplicativity": (3, 1),
    "module_relations": (4, 5),
    "theta_suite": (5, 15),
    "continuity": (6, 10),
    "norm_identities": (7, 5),
    "logarithm": (8, 5),
    "koszul_homology": (9, 60),
    "isogeny_series": (10, 5),
    "derivation_closure": (11, 10),
    "trace_norm_symbolic": (12, 10),
}

_cache = {}


def run_check(name):
    """Run a named check once, print its acceptance line, enforce budget."""
    if name not in _cache:
        _cache[name] = run_named(name)
    ok, detail, seconds = _cache[name]
    number, budget = BUDGETS[name]
    print("criterion %02d %-22s %s  %5.2fs (budget %2ds)  %s"
          % (number, name, "PASS" if ok else "FAIL", seconds, budget,
             detail))
    assert seconds < budget, (
        "%s took %.2fs, over the %ds budget" % (name, seconds, budget))
    return ok, detail


def test_criterion_01_rank_formula():
    ok, _ = run_check("ranks")
    assert ok


def test_criterion_02_centrality():
    ok, _ = run_check("centrality")
    assert ok


def test_criterion_03_psi_tensor_multiplicativity():
    ok, _ = run_check("psi_multiplicativity")
    assert ok


def test_criterion_04_module_well_definedness():
    ok, _ = run_check("module_relations")
    assert ok


def test_criterion_05_theta_suite():
    ok, _ = run_check("theta_suite")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the containment holds on generators but fails on composite "
           "monomials; Q1 Q1 (a^3) = 4 a^6 - 96 a^3 + 243 is odd with "
           "odd constant term, so it is in neither 2R nor 2R + aR")
def test_criterion_06_continuity_sweep():
    ok, _ = run_check("continuity")
    assert ok


def test_criterion_06_failure_is_the_analyzed_one():
    """The sweep fails exactly as analyzed: generator level intact,
    first counterexample at degree 2, and within its runtime budget."""
    ok, detail = run_check("continuity")
    assert not ok
    assert "generator level ok: True" in detail
    assert "degree 2" in detail
    assert "(0, (1, 1))(a^3) = 4*a^6 - 96*a^3 + 243" in detail


def test_criterion_07_norm_identities():
    ok, _ = run_check("norm_identities")
    assert ok


def test_criterion_08_logarithm():
    ok, _ = run_check("logarithm")
    assert ok


def test_criterion_09_koszul_homology():
    ok, _ = run_check("koszul_homology")
    assert ok


def test_criterion_10_isogeny_series():
    ok, _ = run_check("isogeny_series")
    assert ok


def test_criterion_11_derivation_closure():
    ok, _ = run_check("derivation_closure")
    assert ok


def test_criterion_12_trace_norm_cross_check():
    ok, _ = run_check("trace_norm_symbolic")
    assert ok
