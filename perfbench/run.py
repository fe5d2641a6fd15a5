"""Benchmark of powerops: one workload, end to end or layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs the sources under ``src/``.
Workloads: theta, koszul, isogeny_norm, cli (see README.md), or ``all``,
which runs the four in turn and names each metric ``<workload>/<metric>``
in the final line.

With ``--trace 0`` a run measures, spread over rounds so that every metric
samples the whole run:

* ``setup_s``: median wall time of a fresh interpreter that starts,
  imports the workload's modules and builds its inputs;
* ``large_solve_s`` and ``peak_rss_mb``: medians over cold headline
  solves, each in a fresh interpreter, timed around the call;
* ``batch_ops_per_s``: median over warm passes of operations per second,
  in this process (one caller, no threads), after a warm-up pass;
  the passes run for ``--seconds`` in all, checks included.

Times are in seconds of the reference host (``hostclock.py``): wall time
scaled by the host's speed, sampled while the timed code runs.

With ``--trace 1`` a traced child and an untraced child run the same
passes and solve, and the run reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json with their units.  Raw figures go to
``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")

#: fresh-interpreter set-up samples per run
SETUP_SAMPLES = 9
#: longest a child may take before the run gives up on it
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot measure (missing sources, a child that died)."""


def _child(*args):
    """Run child.py with args; returns (seconds, exit code, stdout)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "child.py")] + [str(a)
                                                              for a in args]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def _child_json(*args):
    seconds, code, out = _child(*args)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        return None
    return json.loads(lines[-1])


def measure(workload, seed, seconds):
    from hostclock import HostClock, corrected
    from workloads import run_pass, check_pass
    specs = workload.build(seed)
    attempted = failed = wrong = 0

    def batch_pass(clock=None):
        """Run and check one pass; returns its operation count and its wall
        time, checks included."""
        nonlocal attempted, failed, wrong
        start = time.perf_counter()
        ops, outs, _ = run_pass(workload, specs, clock=clock)
        f, w = check_pass(ops, outs)
        attempted += len(ops)
        failed += f
        wrong += w
        return len(ops), time.perf_counter() - start

    batch_pass()  # warm-up: fills the process-wide caches
    rounds = workload.solves
    setups, solves, rates, wall_rates = [], [], [], []
    spent = 0.0  # wall seconds of batch passes so far
    for r in range(rounds):
        for _ in range(r, SETUP_SAMPLES, rounds):
            wall, code, out = _child("setup", workload.name, seed)
            if code != 0:
                raise BenchError("set-up child exited with %d" % code)
            doc = json.loads(out.strip().splitlines()[-1])
            setups.append(corrected(wall, doc["spent"], doc["samples"]))
        solved = _child_json("solve", workload.name, seed)
        attempted += 1
        if solved is None or not solved["ok"]:
            failed += 1
            wrong += solved is not None
        else:
            solves.append(solved)
        while not rates or spent < seconds * (r + 1) / rounds:
            clock = HostClock()
            n, wall = batch_pass(clock)
            rates.append(n / clock.seconds())
            wall_rates.append(n / (clock.wall - clock.spent))
            spent += wall
    if not solves:
        raise BenchError("no headline solve succeeded")
    metrics = {
        "setup_s": statistics.median(setups),
        "batch_ops_per_s": statistics.median(rates),
        "large_solve_s": statistics.median(s["seconds"] for s in solves),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in solves),
    }
    raw = {"setup_s": setups, "pass_ops_per_s": rates,
           "pass_wall_ops_per_s": wall_rates, "solves": solves}
    return metrics, attempted, failed, wrong, raw


def measure_traced(workload, seed):
    from tracer import layer_metrics
    args = ("trace", workload.name, seed, workload.trace_passes)
    traced = _child_json(*args, "on")
    untraced = _child_json(*args, "off")
    if traced is None or untraced is None:
        raise BenchError("traced child failed")
    metrics = layer_metrics(traced, untraced["wall_s"])
    raw = {"traced": {k: traced[k] for k in ("wall_s", "spans", "counters",
                                            "maxima")},
           "untraced_wall_s": untraced["wall_s"]}
    return (metrics, traced["attempted"], traced["failed"], traced["wrong"],
            raw)


def run_workload(workload, args, spec):
    """Measure one workload and print its metrics; returns the result, or
    None when the benchmark cannot measure."""
    try:
        if args.trace:
            values, attempted, failed, wrong, raw = measure_traced(
                workload, args.seed)
            wanted = spec["per_layer"]
        else:
            values, attempted, failed, wrong, raw = measure(
                workload, args.seed, args.seconds)
            wanted = spec["end_to_end"]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("error: %s: %s" % (workload.name, exc), file=sys.stderr)
        return None
    result = {"correct": wrong == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    os.makedirs(RUNS, exist_ok=True)
    raw_path = os.path.join(RUNS, "%s-%d-trace%d.json"
                            % (workload.name, args.seed, args.trace))
    with open(raw_path, "w") as fh:
        json.dump(dict(result, raw=raw), fh, indent=1, sort_keys=True)
    for m in wanted:
        print("%s/%s = %.6g %s" % (workload.name, m["name"],
                                   values[m["name"]], m["unit"]))
    print("%s: attempted %d, failed %d" % (workload.name, attempted, failed))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="theta, koszul, isogeny_norm, cli, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "powerops", "cli.py")):
        print("error: powerops sources not found under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)
    from workloads import WORKLOADS
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error("unknown workload %r (choose from %s, or all)"
                     % (args.workload, ", ".join(WORKLOADS)))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    results = {}
    for name in names:
        result = run_workload(WORKLOADS[name], args, spec)
        if result is None:
            return 1
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:  # all workloads: metrics as <workload>/<metric>
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s/%s" % (name, m): v
                             for name, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
