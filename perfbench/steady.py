#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs agree.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]

Runs two sets of each workload, --runs runs per set, every run with its
own seed (set 0 uses seeds 100.., set 1 continues after it), through
perfbench/run.py with the run length and metrics named in BENCHMARK.json.
For every end-to-end metric it prints each set's median and quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median, and whether
  * the spread stays within the metric's bound, and
  * the two sets' medians agree: they differ by at most the bound, as a
    share of the first set's median, in either direction.
It also checks that no operation failed and that the share of failed
operations is identical in both sets. Exits 1 if any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

SEED_BASE = 100
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    # The driver logs the share of CPU time the hypervisor stole.
    host = [l.split("host: ", 1)[1] for l in proc.stderr.splitlines()
            if "host: " in l]
    return json.loads(lines[-1]), host[-1] if host else "host steal unknown"


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for wl in workloads:
        sets = []
        for s in range(2):
            results = []
            for i in range(args.runs):
                seed = SEED_BASE + s * args.runs + i
                result, host = run_once(wl, seed, spec["run_seconds"])
                results.append(result)
                print(f"{wl} set {s} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.4g}"
                                  for k, v in result["metrics"].items())
                      + f" ({host})", flush=True)
            sets.append(results)
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in sets]
        print(f"\n{wl}: failed share per set {shares}")
        if any(r["failed"] for rs in sets for r in rs) or len(set(shares)) > 1:
            ok = False
        print(f"{'metric':16} {'set':>3} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for s, rs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in rs]
                med, q1, q3, sp = spread(vals)
                meds.append(med)
                steady = sp <= bound
                ok = ok and steady
                print(f"{name:16} {s:>3} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{sp:7.3f} {bound:6.3f}  "
                      f"{'steady' if steady else 'SPREAD TOO WIDE'}"
                      f"{' (< bound/3)' if sp < bound / 3 else ''}")
            diff = (meds[1] - meds[0]) / meds[0]
            agree = abs(diff) <= bound
            ok = ok and agree
            print(f"{name:16}     second set median {diff:+.3f} from the "
                  f"first: {'agree' if agree else 'DISAGREE'}")
        print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
