#!/usr/bin/env python3
"""Runs the benchmark the way the driver does and reports how steady it is.

For each workload: one run per seed through the command in BENCHMARK.json,
then, per end-to-end metric, the median over the seeds and the spread
(distance between the first and third quartile, statistics.quantiles(n=4),
as a share of the median) next to the metric's bound. Run it twice to get an
A/A pair: the second set's medians must not be worse than the first's by
more than the bound.

    python3 perfbench/aa.py                      # every workload, seeds 1..10
    python3 perfbench/aa.py --workloads scale-place --seeds 7 99 --trace 1
    python3 perfbench/aa.py --json set_a.json    # keep every value

Run from the root of the repository (or of a checkout).
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    manifest = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in manifest["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--json", help="write every run's values to this file")
    args = ap.parse_args()

    defs = manifest["per_layer" if args.trace else "end_to_end"]
    runs = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            cmd = manifest["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            t0 = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["elapsed_s"] = seed, round(time.time() - t0, 1)
            runs[workload].append(result)
            print(f"{workload} seed {seed}: {result['elapsed_s']} s, attempted "
                  f"{result['attempted']}, failed {result['failed']}", file=sys.stderr)

    for workload, results in runs.items():
        failed = sum(r["failed"] for r in results)
        print(f"\n{workload}: {len(results)} runs, {failed} failed operations")
        print(f"  {'metric':<44} {'median':>14} {'spread':>8} {'bound':>7}")
        for d in defs:
            values = [r["metrics"][d["name"]]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2 and med:
                q = statistics.quantiles(values, n=4)
                spread = f"{(q[2] - q[0]) / abs(med):8.2%}"
            else:
                spread = f"{'-':>8}"
            bound = f"{d['bound']:7.0%}" if "bound" in d else ""
            print(f"  {d['name']:<44} {med:>14.6g} {spread} {bound}")
    if args.json:
        json.dump(runs, open(args.json, "w"), indent=1)


if __name__ == "__main__":
    main()
