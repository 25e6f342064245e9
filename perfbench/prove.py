#!/usr/bin/env python3
"""Stability proof for the benchmark described by BENCHMARK.json.

    python3 perfbench/prove.py [--workloads cold_read,hot_cached] [--seeds 10]
                               [--first-seed 1] [--no-repeat]

For each workload, runs the benchmark untraced once per seed (seeds
first-seed .. first-seed+seeds-1) and prints, per end-to-end metric, the
median, the quartiles and the spread (Q3 - Q1) / median next to the metric's
bound; a spread at or above a third of the bound is flagged (setup_s is
exempt from the spread rule). Unless --no-repeat, it then repeats the first
seed untraced once and traced twice, and checks that the answer digest and
every work counter of the traced replay repeat exactly. Exits non-zero when
any run fails, a spread is flagged, or a witness does not repeat.
Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"run failed: {workload} seed={seed} trace={trace}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"incorrect run: {workload} seed={seed} trace={trace}")
    digest = [l for l in lines if l.startswith("answer digest")]
    return result, digest


def counters(workload, seed):
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    path = build_root / "perfbench-out" / f"trace-{workload}-seed{seed}.json"
    return json.loads(path.read_text())["counters"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--no-repeat", action="store_true")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        for seed in seeds:
            result, _ = run(spec["command"], workload, seed, seconds, 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload}: {len(seeds)} seeds, {seconds}s per run")
        print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound/3':>8}")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            flagged = name != "setup_s" and spread >= bounds[name] / 3
            ok = ok and not flagged
            print(f"  {name:16} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bounds[name] / 3:8.4f}"
                  f"{'  TOO WIDE' if flagged else ''}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in vals))
        if args.no_repeat:
            continue
        seed = args.first_seed
        _, digest_a = run(spec["command"], workload, seed, seconds, 0)
        _, digest_b = run(spec["command"], workload, seed, seconds, 0)
        run(spec["command"], workload, seed, seconds, 1)
        first = counters(workload, seed)
        run(spec["command"], workload, seed, seconds, 1)
        second = counters(workload, seed)
        same_digest = digest_a == digest_b
        same_counters = first == second
        ok = ok and same_digest and same_counters
        print(f"  answer digest repeats for seed {seed}: "
              f"{'yes' if same_digest else 'NO'} {digest_a}")
        print(f"  {len(first)} work counters repeat for seed {seed}: "
              f"{'yes' if same_counters else 'NO'}")
        for name in sorted(set(first) | set(second)):
            if first.get(name) != second.get(name):
                print(f"    {name}: {first.get(name)} vs {second.get(name)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
