#!/usr/bin/env python3
"""Run the benchmark several times per workload and report each end-to-end
metric's median and spread (interquartile range over median), against the
bounds in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Each run gets its own seed (first-seed, first-seed + 1, ...). Raw results
are appended as JSON lines to perfbench/out/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    os.makedirs("perfbench/out", exist_ok=True)
    log = open("perfbench/out/spread.jsonl", "a")
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            log.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            log.flush()
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = "" if spread < m["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{workload:13} {m['name']:12} median {med:12.5f} {m['unit']:6} "
                  f"spread {spread:7.4f} (bound {m['bound']}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
