#!/usr/bin/env python3
"""Run each workload repeatedly and report how steady its metrics are.

    python3 perfbench/steadiness.py [--runs 10] [--seconds S]
                                    [--workloads a,b] [--first-seed 1]
                                    [--trace 0|1] [--out results.jsonl]

Run from the repository root. Each run uses another seed. For every
end-to-end metric the script prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) /
median, and the metric's bound from BENCHMARK.json, plus the share of
failed ops. --trace 1 tabulates the per-layer metrics instead (no bounds).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="append every result line to this file")
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in
              spec["per_layer" if args.trace else "end_to_end"]}

    worst = 0.0
    for w in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(w, seed, args.seconds, args.trace)
            results.append(r)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed,
                                        "result": r}) + "\n")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{w}: {args.runs} runs x {args.seconds:g} s, ops attempted "
              f"{attempted}, failed {failed}, failed shares {shares}, "
              f"all correct: {all(r['correct'] for r in results)}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in results
                    if name in r["metrics"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            b = bounds[name]
            flag = ""
            if b is not None:
                if name != "setup_s":
                    worst = max(worst, spread / b)
                flag = "  over bound/3" if spread > b / 3 else ""
            print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {b if b is not None else '-':>6}{flag}")
    if not args.trace:
        print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
