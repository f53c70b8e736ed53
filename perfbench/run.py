#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n>      # every workload, both modes
    python3 perfbench/run.py --self-test

The benchmark is the Rust package beside this file. It is built from
source into $CARGO_TARGET_DIR (`.bench_build` when unset), then each
workload runs in a process of its own so that peak RSS and allocator
state never leak between workloads. The last line of standard output is
the workload's result object; its metric names and units are checked
against BENCHMARK.json, and a mismatch marks the result incorrect.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds the benchmark; returns the path of its executable."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"build failed with exit code {proc.returncode}")
    exe = os.path.join(ROOT, target, "release", "ss-perfbench")
    if not os.path.isfile(exe):
        raise RuntimeError(f"build left no executable at {exe}")
    return exe


def run_child(args):
    """Runs the benchmark executable; returns its stdout lines."""
    proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[1:])}: exit code {proc.returncode}")
    return out.splitlines()


def expected_metrics(spec, trace):
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[section]}


def run_workload(exe, spec, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its result object."""
    lines = run_child([exe, "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)])
    if not lines:
        raise RuntimeError(f"{workload}: printed no result")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(spec, trace)
    if got != want:
        log(f"{workload}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
            f"units {sorted(n for n in set(got) & set(want) if got[n] != want[n])}")
        result["correct"] = False
    return result


def run_all(exe, spec, seed, seconds):
    """Every workload, untraced then traced; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            r = run_workload(exe, spec, w["name"], seed, seconds, trace)
            print(json.dumps({"workload": w["name"], "trace": trace, **r}), flush=True)
            combined["correct"] = combined["correct"] and r["correct"]
            combined["attempted"] += r["attempted"]
            combined["failed"] += r["failed"]
            for name, m in r["metrics"].items():
                combined["metrics"][f"{w['name']}/{name}"] = m
    return combined


def self_test(exe, spec):
    """Pins the drivers against `Study::run` and the metric names
    against BENCHMARK.json; returns a list of problems."""
    problems = []
    try:
        run_child([exe, "--self-test"])
    except RuntimeError as e:
        problems.append(f"driver equivalence: {e}")
    for w in spec["workloads"]:
        for trace in (0, 1):
            lines = run_child([exe, "--workload", w["name"], "--seed", "7",
                               "--seconds", "1", "--trace", str(trace), "--tiny"])
            r = json.loads(lines[-1])
            got = {name: m["unit"] for name, m in r["metrics"].items()}
            if got != expected_metrics(spec, trace):
                problems.append(f"{w['name']} trace {trace}: printed metrics differ")
            if not r["correct"] or r["failed"]:
                problems.append(f"{w['name']} trace {trace}: tiny run failed checks")
    return problems


def stop(signum, _frame):
    # Unwinds through run_child's `finally`, which kills and reaps the
    # running workload before this process exits.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, help="default: BENCHMARK.json run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if not a.self_test and a.workload not in names + ["all"]:
            p.error(f"--workload must be one of {names + ['all']}")
        seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
        exe = build()
        if a.self_test:
            problems = self_test(exe, spec)
            for problem in problems:
                log(f"self-test: {problem}")
            log("self-test " + ("FAILED" if problems else "passed"))
            return 1 if problems else 0
        if a.workload == "all":
            result = run_all(exe, spec, a.seed, seconds)
        else:
            result = run_workload(exe, spec, a.workload, a.seed, seconds, a.trace)
    except (OSError, RuntimeError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
