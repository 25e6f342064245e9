#!/usr/bin/env python3
"""Builds and runs the TopL/DTopL engine benchmark.

    python3 perfbench/run.py --workload cold_read --seed 1 --seconds 10 --trace 0

BENCHMARK.json measures cold_read and hot_cached; update_storm runs by hand.

Run from the root of a checkout. The first run configures and builds the
library (Release, fault injection compiled out) plus the topl_perfbench
program under $CARGO_TARGET_DIR (default .bench_build); later runs reuse
the build. Build output goes to stderr; topl_perfbench's report goes to
stdout, whose last line is the JSON result. Trace files land in
<build dir>/perfbench-out. The exit code is topl_perfbench's: non-zero on
any answer divergence or failed op.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_read", "update_storm", "hot_cached")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("error: the library sources are not next to perfbench/; "
              "run from a full checkout", file=sys.stderr)
        return 2

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    out_dir = build_root / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)

    jobs = str(min(4, os.cpu_count() or 1))
    for step in (["cmake", "-S", str(HERE), "-B", str(build_dir),
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "topl_perfbench"]):
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("error: build failed: " + " ".join(step), file=sys.stderr)
            return 2

    return subprocess.run([
        str(build_dir / "topl_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(out_dir),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
