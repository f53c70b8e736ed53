#!/usr/bin/env python3
"""Measures the benchmark over several seeds and appends the result to
the trajectory log.

    python3 perfbench/record.py                       # 10 seeds, every workload
    python3 perfbench/record.py --seeds 5 --workload study-paper-short --out t.json

Each (workload, seed) runs `run.py --trace 0` in its own process, seeds
interleaved across workloads. One traced run per workload follows. For
every end-to-end metric the entry records the median, the quartiles
(`statistics.quantiles(n=4)`), and the spread: the quartile distance as
a share of the median, next to the metric's bound from BENCHMARK.json.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summarize(results, spec):
    summary = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[m["name"]] = {
            "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": m["bound"], "values": values,
        }
    return summary


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", help="default: every workload")
    p.add_argument("--out", default=os.path.join(HERE, "trajectory.json"))
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(a.first_seed, a.first_seed + a.seeds))
    seconds = spec["run_seconds"]

    untraced = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            r = run(w, seed, seconds, 0)
            untraced[w].append(r)
            print(f"[record] {w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), file=sys.stderr)

    entry = {
        "rev": git_rev(),
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%MZ"),
        "machine": {"cpus": os.cpu_count(), "arch": platform.machine()},
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for w in workloads:
        traced = run(w, seeds[0], seconds, 1)
        results = untraced[w]
        entry["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in results) + traced["attempted"],
            "failed": sum(r["failed"] for r in results) + traced["failed"],
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "end_to_end": summarize(results, spec),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }

    for w, e in entry["workloads"].items():
        print(f"{w}: attempted {e['attempted']} failed {e['failed']} correct {e['correct']}",
              file=sys.stderr)
        for name, s in e["end_to_end"].items():
            flag = "ok" if s["spread"] <= s["bound"] / 3 else (
                "within bound" if s["spread"] <= s["bound"] else "OVER BOUND")
            print(f"  {name:22s} median {s['median']:12.6g} {s['unit']:5s} "
                  f"spread {s['spread']:6.3f} / bound {s['bound']:.2f}  {flag}", file=sys.stderr)

    log = {"schema": 1, "entries": []}
    if os.path.exists(a.out):
        with open(a.out) as f:
            log = json.load(f)
    log["entries"].append(entry)
    with open(a.out, "w") as f:
        json.dump(log, f, indent=1)
        f.write("\n")
    print(f"[record] appended entry {len(log['entries'])} to {a.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
