"""Self-test of the benchmark (not part of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py

It runs every workload at a tiny size, shows that corrupted copies of real
results are counted as failed operations, that traced counts repeat for a
seed, that the host clock scales and restores what it should, and that
the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from workloads import WORKLOADS, run_pass, check_pass  # noqa: E402
import tracer  # noqa: E402

TINY = 6


def _tiny(workload, seed=3, size=TINY):
    specs = workload.build(seed)
    specs["ops"] = specs["ops"][:size]
    return specs


def _first(workload, kind, seed=3):
    """A one-operation pass whose operation is of the given kind."""
    specs = workload.build(seed)
    n = next(i for i, s in enumerate(specs["ops"]) if s[0] == kind)
    specs["ops"] = specs["ops"][n:n + 1]
    specs["witness"] = {0}
    return specs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_pass_has_no_failures(name):
    workload = WORKLOADS[name]
    specs = _tiny(workload)
    for _ in range(2):
        ops, outs, seconds = run_pass(workload, specs)
        assert len(ops) == TINY and seconds > 0
        assert check_pass(ops, outs) == (0, 0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_inputs(name):
    workload = WORKLOADS[name]
    assert workload.build(5) == workload.build(5)
    if name != "koszul":  # koszul draws only the order of a fixed menu
        assert workload.build(5)["ops"] != workload.build(6)["ops"]


def _corrupted_count(workload, specs, corrupt):
    ops, outs, _ = run_pass(workload, specs)
    assert check_pass(ops, outs) == (0, 0)
    bad = [corrupt(copy.copy(out)) for out in outs]
    return check_pass(ops, bad)


def test_flipped_theta_coefficient_fails():
    from powerops.amplified import AmplifiedPoly
    from powerops.poly import Poly

    def flip(out):
        mono, coeff = next(iter(out.terms.items()))
        terms = dict(out.terms)
        terms[mono] = coeff + Poly(1)
        return AmplifiedPoly(out.ring, terms)
    workload = WORKLOADS["theta"]
    assert _corrupted_count(workload, _first(workload, "theta"),
                            flip) == (1, 1)


def test_nonzero_entry_in_d1_d2_fails():
    from powerops.linalg import Matrix

    def poison(out):
        cx, flags = out
        cx = copy.copy(cx)
        d1, d2 = cx.d1, cx.d2
        t = next(t for t in range(d1.n) if any(row[t].coeffs
                                               for row in d1.rows))
        rows = [list(row) for row in d2.rows]
        rows[t][0] = rows[t][0] + 1
        cx.d2 = Matrix(d2.m, d2.n, rows)
        return cx, flags  # the complex still claims d^2 = 0
    workload = WORKLOADS["koszul"]
    assert _corrupted_count(workload, _first(workload, "dsq"),
                            poison) == (1, 1)


def test_wrong_norm_fails():
    def shift(out):
        return out[0], out[1], out[2] + 2
    workload = WORKLOADS["isogeny_norm"]
    assert _corrupted_count(workload, _first(workload, "norm_pair"),
                            shift) == (1, 1)


def test_changed_cli_output_fails():
    workload = WORKLOADS["cli"]
    specs = _first(workload, "nf")
    ops, outs, _ = run_pass(workload, specs)
    assert check_pass(ops, outs) == (0, 0)
    code, text = outs[0]
    # same argv, different bytes: caught even though the value re-parses
    assert check_pass(ops, [(code, text + "\n")]) == (1, 1)
    assert check_pass(ops, [(2, text)]) == (1, 1)


def test_raised_operation_fails_without_wrong_output():
    workload = WORKLOADS["isogeny_norm"]
    specs = _first(workload, "norm_int")
    ops = workload.prepare(specs)
    ops[0].call = lambda: 1 // 0
    from workloads import Raised
    outs = []
    for op in ops:
        try:
            outs.append(op.call())
        except ZeroDivisionError as exc:
            outs.append(Raised(exc))
    assert check_pass(ops, outs) == (1, 0)


def test_host_clock_scales_wall_time():
    from hostclock import REF_S, HostClock, corrected
    # half the wall went to samples that ran at half the reference speed
    assert corrected(2.0, 1.0, [2 * REF_S, 2 * REF_S]) == pytest.approx(0.5)
    before = signal.getsignal(signal.SIGALRM)
    with HostClock() as clock:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(clock.samples) >= 3 and 0 < clock.spent < clock.wall
    assert 0 < clock.seconds()


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_layer_metric_names_match_benchmark_json():
    fake = {"summary": {}, "counters": {}, "maxima": {}, "wall_s": 2.0,
            "spans": 0}
    names = set(tracer.layer_metrics(fake, 1.0))
    assert names == {m["name"] for m in _benchmark_json()["per_layer"]}


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_end_to_end_run_prints_result():
    proc = _run(["--workload", "isogeny_norm", "--seed", "1",
                 "--seconds", "1", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat():
    units = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    counts = []
    for _ in range(2):
        proc = _run(["--workload", "theta", "--seed", "4", "--seconds", "1",
                     "--trace", "1"])
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        assert set(metrics) == set(units)
        counts.append({k: v["value"] for k, v in metrics.items()
                       if units[k] != "s" and units[k] != "ratio"})
    assert counts[0] == counts[1]
    assert counts[0]["amplified.theta_calls"] > 0
    assert counts[0]["linalg.snf_calls"] == 0  # a layer theta bypasses


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = _run(["--workload", "theta", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
