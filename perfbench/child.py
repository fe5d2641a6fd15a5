"""One fresh interpreter of the benchmark; ``run.py`` starts these.

    python3 perfbench/child.py setup WORKLOAD SEED
        start, import the workload's modules, build its inputs, exit;
        prints the host-speed samples taken meanwhile
    python3 perfbench/child.py solve WORKLOAD SEED
        run the workload's headline computation cold, timed around the call
        by a HostClock
    python3 perfbench/child.py trace WORKLOAD SEED PASSES on|off
        one cold headline computation, a warm-up pass and PASSES passes,
        with the layers traced (on) or not (off)

Each mode prints one JSON object on stdout.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

from workloads import WORKLOADS, Op, Raised, run_pass, check_pass  # noqa: E402
from hostclock import HostClock  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak resident memory of this process.  VmHWM belongs to the memory
    map that exec made; ru_maxrss would also carry over the peak of the
    process that started this one."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(workload, seed):
    """The host's speed is sampled from here on; run.py times the whole
    process."""
    with HostClock() as clock:
        for name in workload.modules:
            importlib.import_module(name)
        workload.prepare(workload.build(seed))
    return {"spent": clock.spent, "samples": clock.samples}


def solve(workload, seed):
    for name in workload.modules:
        importlib.import_module(name)
    call, check = workload.solve_case(seed)
    with HostClock() as clock:
        out = call()
    rss = _peak_rss_mb()
    try:
        ok = bool(check(out))
    except Exception:  # a check that cannot read the result fails it
        ok = False
    return {"seconds": clock.seconds(), "wall_s": clock.wall - clock.spent,
            "rss_mb": rss, "ok": ok}


def trace(workload, seed, passes, on):
    import tracer as tr
    tracer = None
    if on:
        tracer = tr.Tracer()
        tr.install(tracer)
    # The solve comes first, so that it runs cold as in the untraced
    # runs; the passes after it start with a warm-up pass.
    call, check = workload.solve_case(seed)
    if tracer is not None:
        tracer.start()
    start = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # the headline computation failed
        out = Raised(exc)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.stop()
    failed, wrong = check_pass([Op(call, check)], [out])
    attempted = 1
    out_bytes = workload.stdout_bytes([out])
    specs = workload.build(seed)
    for _ in range(passes + 1):
        ops, outs, seconds = run_pass(workload, specs, tracer)
        wall += seconds
        f, w = check_pass(ops, outs)
        attempted += len(ops)
        failed += f
        wrong += w
        out_bytes += workload.stdout_bytes(outs)
    result = {"wall_s": wall, "attempted": attempted, "failed": failed,
              "wrong": wrong}
    if tracer is not None:
        tracer.add("cli.stdout_bytes", out_bytes)
        summary = tracer.summary()
        runs = os.path.join(HERE, "runs")
        os.makedirs(runs, exist_ok=True)
        # one span file per workload: the latest traced run
        tracer.write(os.path.join(runs, "trace-" + workload.name), summary)
        result.update(summary=summary, counters=tracer.counters,
                      maxima=tracer.maxima, spans=len(tracer.span_name))
    return result


def main(argv):
    mode, workload, seed = argv[0], WORKLOADS[argv[1]], int(argv[2])
    if mode == "setup":
        result = setup(workload, seed)
    elif mode == "solve":
        result = solve(workload, seed)
    elif mode == "trace":
        result = trace(workload, seed, int(argv[3]), argv[4] == "on")
    else:
        raise SystemExit("unknown mode %r" % mode)
    if result is not None:
        print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
