"""strandhopf benchmark: four workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Workloads (see workloads.py and README.md): enumerate, central_check,
hopf_sweep, power_counting.  A run repeats rounds of the workload for about
``--seconds`` seconds.  Every round is a fresh interpreter (worker.py) with
its own recorded PYTHONHASHSEED, started only after the previous one has
exited, so caches start cold and no two workload processes overlap.

With ``--trace 0`` the run reports the end-to-end metrics over its rounds:
the medians of wall_s, setup_s and peak_rss_mib, and the p50 and p95 of the
latency of every operation of every round, all times scaled to a reference
speed of the machine (see worker.py and README.md).  With ``--trace 1``
untraced and traced rounds alternate, and the run reports the per-layer
metrics of the median traced round and the tracing overhead.

Every operation's output is checked against the pinned values in data/,
and the rounds of one run must agree byte for byte although their hash
seeds differ; ``failed`` counts operations that raised, returned a wrong
value, or belong to a round whose output differed from the first round's.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  ``--workload all`` runs every workload with and without tracing
and prints one summary JSON object with the environment and hash seeds.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from runner_common import OUT, PACKAGE, ROOT, SRC, git_revision  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"),
              ("query_p50_ms", "ms"), ("query_p95_ms", "ms"))
MIN_ROUNDS = 3            # untraced rounds in a --trace 0 run
ROUND_TIMEOUT_S = 150     # one worker process, including set-up
RUN_CAP_S = 160           # never start a round that could end past this


def pin_to_one_cpu():
    """Keep this process and every round it starts on the lowest CPU it
    may use.  On a shared 2-vCPU machine the two CPUs ran at different and
    differently varying speeds, and a round that the scheduler placed on
    either one spread its timings far more than one kept on a single CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def spawn_round(workload, seed, hash_seed, traced, spans):
    """Run one round in a new interpreter and return its parsed result,
    or a result marking every operation failed if the worker broke."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--spawned", repr(time.monotonic())]
    if traced:
        argv += ["--trace", "--spans", str(spans)]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=ROUND_TIMEOUT_S)
        out = json.loads(proc.stdout.strip().splitlines()[-1]) \
            if proc.returncode == 0 else None
        err = proc.stderr[-2000:]
    except subprocess.TimeoutExpired:
        out, err = None, f"round exceeded {ROUND_TIMEOUT_S} s"
    except (ValueError, IndexError) as exc:
        out, err = None, f"unreadable worker output: {exc}"
    if out is None:
        out = {"broken": err, "failed": None, "attempted": None}
    out.update(hash_seed=hash_seed, traced=traced,
               elapsed_s=time.monotonic() - start)
    return out


def run_workload(workload, seed, seconds, trace):
    """All rounds of one run; returns the record written to out/."""
    OUT.mkdir(exist_ok=True)
    rng = random.Random(f"hash-seeds:{workload}:{seed}")
    spans = OUT / f"{workload}-seed{seed}-spans.tsv.gz"
    rounds = []
    t0 = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(spawn_round(workload, seed, rng.randrange(1, 2**32),
                                  traced, spans))
        plain = [r for r in rounds if not r["traced"]]
        enough = (len(rounds) >= 2) if trace else (len(plain) >= MIN_ROUNDS)
        if any("broken" in r for r in rounds):
            break
        nxt = trace and len(rounds) % 2 == 1
        same = [r for r in rounds if r["traced"] == nxt]
        guess = same[-1]["elapsed_s"] if same else 2 * rounds[-1]["elapsed_s"]
        elapsed = time.monotonic() - t0
        # start another round only if it should end less than half a
        # round past the deadline
        if elapsed + guess > RUN_CAP_S or (enough and elapsed + guess / 2 >
                                           seconds):
            break
    return summarize(workload, seed, seconds, trace, rounds)


def p95(xs):
    return statistics.quantiles(xs, n=20)[18] if len(xs) > 1 else xs[0]


def summarize(workload, seed, seconds, trace, rounds):
    ok_rounds = [r for r in rounds if "broken" not in r]
    attempted_each = max((r["attempted"] for r in ok_rounds), default=1)
    first_digest = ok_rounds[0]["digest"] if ok_rounds else None
    attempted = failed = 0
    for r in rounds:
        if "broken" in r:
            attempted += attempted_each
            failed += attempted_each
            continue
        attempted += r["attempted"]
        bad = r["failed"]
        if r["digest"] is None or r["digest"] != first_digest:
            bad = r["attempted"]
            r.setdefault("failures", []).append(
                "output differs from the first round's")
        failed += bad
    plain = [r for r in ok_rounds if not r["traced"]]
    traced = [r for r in ok_rounds if r["traced"]]
    metrics, samples = {}, {}
    if plain:
        lat = [x * 1000 for r in plain for x in r["latencies_s"]]
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"]
                                              for r in plain),
            "query_p50_ms": statistics.median(lat),
            "query_p95_ms": p95(lat),
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
        samples = {"rounds": len(plain), "operations": len(lat),
                   "raw_wall_s": statistics.median(r["raw_wall_s"]
                                                   for r in plain),
                   "calibration_s": statistics.median(r["calibration_s"]
                                                      for r in plain)}
    layers = {}
    if traced:
        # one whole round, the median by traced wall time, so that its
        # layer self times and unattributed_s add up to its trace.wall_s
        by_wall = sorted(traced, key=lambda r: r["raw_wall_s"])
        mid = by_wall[(len(by_wall) - 1) // 2]
        for name, unit, _ in tracer.per_layer_names():
            if name == "trace.overhead_s":
                value = mid["wall_s"] - metrics["wall_s"]["value"]
            else:
                value = mid["layers"][name]
            layers[name] = {"value": value, "unit": unit}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "revision": git_revision(ROOT),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "hash_seeds": [r["hash_seed"] for r in rounds],
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and bool(ok_rounds),
        "end_to_end": metrics,
        "per_layer": layers,
        "rounds": [{k: r.get(k) for k in ("hash_seed", "traced", "wall_s",
                                           "setup_s", "raw_wall_s",
                                           "raw_setup_s", "calibration_s",
                                           "elapsed_s")}
                   for r in rounds],
        "failures": [f for r in rounds for f in
                     ([r["broken"]] if "broken" in r else
                      r.get("failures", []))][:10],
    }


def print_record(rec):
    print(f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"python={rec['python']} cpus={rec['cpu_count']} "
          f"revision={rec['revision']}")
    print(f"#   hash seeds: {rec['hash_seeds']}")
    s = rec["samples"]
    if s:
        print(f"#   samples: {s['rounds']} untraced rounds, "
              f"{s['operations']} operations; unscaled median wall "
              f"{s['raw_wall_s']:.4f} s, calibration "
              f"{s['calibration_s'] * 1000:.3f} ms (reference "
              f"{worker.CAL_REF_S * 1000:.3f} ms)")
    for name, m in list(rec["end_to_end"].items()) + \
            list(rec["per_layer"].items()):
        print(f"  {name:28s} {m['value']:>16.6f} {m['unit']}")
    ratio = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"  {'fail_ratio':28s} {ratio:>16.6f} "
          f"({rec['failed']}/{rec['attempted']})")
    for f in rec["failures"]:
        print(f"  FAILURE: {f.strip()[:500]}")


def result_line(rec, trace):
    metrics = rec["per_layer"] if trace else rec["end_to_end"]
    return json.dumps({"correct": rec["correct"],
                       "attempted": rec["attempted"],
                       "failed": rec["failed"],
                       "metrics": metrics})


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: strandhopf sources not found under {SRC}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    if a.workload != "all":
        rec = run_workload(a.workload, a.seed, a.seconds, bool(a.trace))
        name = f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
        (OUT / name).write_text(json.dumps(rec, indent=1) + "\n")
        print_record(rec)
        print(result_line(rec, a.trace))
        return 0

    summary = {"revision": git_revision(ROOT),
               "python": platform.python_version(),
               "cpu_count": os.cpu_count(), "seed": a.seed,
               "seconds": a.seconds, "workloads": {}}
    for w in workloads.WORKLOADS:
        for trace in (0, 1):
            rec = run_workload(w, a.seed, a.seconds, bool(trace))
            print_record(rec)
            entry = summary["workloads"].setdefault(
                w, {"hash_seeds": {}, "attempted": 0, "failed": 0})
            entry["hash_seeds"][f"trace{trace}"] = rec["hash_seeds"]
            entry["attempted"] += rec["attempted"]
            entry["failed"] += rec["failed"]
            entry.update(rec["per_layer"] if trace else rec["end_to_end"])
            if not trace:
                entry["samples"] = rec["samples"]
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
