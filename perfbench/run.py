#!/usr/bin/env python3
"""Build and run the zonalhist benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library sources under src/ plus the zh_perfbench driver into
.bench_build/perfbench (Release); later calls rebuild incrementally. The
driver generates its inputs from the seed, runs the workload for about S
seconds, checks every output against an independent oracle and prints
one JSON result object as the last line of stdout. Scratch files and the
traced run's span file go to .bench_build/perfbench-run/<workload>/.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("dem_bq_counties", "aoi_query_batch", "cluster_journaled")
# A run must end within 180 s; keep a margin for start-up and teardown.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configure once, then build incrementally; returns the driver path."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail(f"build failed ({' '.join(cmd)}):\n{tail}")
    return os.path.join(build_dir, "zh_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {root}/src; run from a "
             "checkout of the repository")
    build_root = os.path.join(root, ".bench_build")
    driver = build(root, os.path.join(build_root, "perfbench"))
    work_dir = os.path.join(build_root, "perfbench-run", args.workload)
    os.makedirs(work_dir, exist_ok=True)

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        fail(f"{args.workload} failed (exit {proc.returncode})")
    sys.stdout.write(stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
