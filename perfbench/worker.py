"""One benchmark round in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --spawned T
        [--trace] [--spans FILE]

``--spawned`` is the parent's time.monotonic() just before it started this
process, so ``setup_s`` covers interpreter start, importing strandhopf,
loading the theory or corpus and the seeded relabelling.  The round then
runs the workload's operations once, timed one by one (optionally under
the tracer), checks their outputs and prints one JSON object.  A fixed
calibration loop runs before, between and after the operations, and
every reported time is scaled by it to a reference speed; the unscaled
times are reported too.  Nothing here
clears strandhopf's caches: every round starts cold because it is a new
process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import workloads as W
from runner_common import OUT, import_package

RAISED = object()


# Reported times are scaled to the speed at which calibrate() takes
# CAL_REF_S (about its time on a 2-vCPU machine in a fast phase); a
# calibration runs between operations at least every CAL_EVERY_S seconds.
CAL_REF_S = 0.004
CAL_EVERY_S = 0.3


def run_round(workload, seed, spawned, trace, spans_path):
    sh = import_package()
    OUT.mkdir(exist_ok=True)
    state = W.WORKLOADS[workload](sh, seed, OUT)
    setup_s = time.monotonic() - spawned

    tracer = None
    if trace:
        import tracer as T
        tracer = T.Tracer()
        tracer.install({layer: getattr(sh, layer) for layer in
                        ("graphs", "iso", "rewrite", "series", "hopf",
                         "models", "io", "cli")})
    clock = time.perf_counter
    results, errors, latencies = [], {}, []
    cals, cal_before = [(clock(), calibrate())], []
    for op in state.ops:
        if clock() - cals[-1][0] > CAL_EVERY_S:
            cals.append((clock(), calibrate()))
        cal_before.append(len(cals) - 1)
        t = clock()
        try:
            res = op()
        except Exception:
            res = RAISED
            errors[len(results)] = traceback.format_exc(limit=3)
        latencies.append(clock() - t)
        results.append(res)
    cals.append((clock(), calibrate()))
    wall_s = sum(latencies)
    # an operation runs between calibrations k and k + 1
    scaled = [lat * 2 * CAL_REF_S / (cals[k][1] + cals[k + 1][1])
              for lat, k in zip(latencies, cal_before)]
    layer = None
    if tracer is not None:
        tracer.uninstall()
        layer = tracer.summarize(wall_s)
        layer["io.bytes_out"] = state.bytes_out
        if spans_path:
            tracer.write(spans_path)

    failures = [errors[i] if r is RAISED else state.check(i, r)
                for i, r in enumerate(results)]
    digest = state.digest(results) if not errors else None
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s * CAL_REF_S / cals[0][1],
        "wall_s": sum(scaled),
        "latencies_s": scaled,
        "raw_setup_s": setup_s,
        "raw_wall_s": wall_s,
        "calibration_s": sorted(c for _, c in cals)[len(cals) // 2],
        "attempted": len(state.ops),
        "failed": sum(1 for f in failures if f is not None),
        "failures": [f for f in failures if f is not None][:5],
        "digest": digest,
        "peak_rss_mib": rss_kib / 1024.0,
        "layers": layer,
    }


def _interpreter_work():
    n = 0
    for base in range(0, 6000, 2000):   # small batches: little memory
        d, rows = {}, []
        for i in range(base, base + 2000):
            k = (i * 7919) % 10007
            d[k] = d.get(k, 0) + 1
            rows.append((k % 97, str(k), i))
        rows.sort()
        n += len({r[1] for r in rows[::3]})
    return n


def calibrate():
    """Median time of three runs of a fixed piece of interpreter work
    (dicts, tuples, strings, a sort) that uses nothing from strandhopf: how
    fast the machine runs Python at the moment."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        _interpreter_work()
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans")
    a = p.parse_args(argv)
    out = run_round(a.workload, a.seed, a.spawned, a.trace, a.spans)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
