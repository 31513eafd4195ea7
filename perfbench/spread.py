#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload hot_opendata --seeds 1-10 \
        [--seconds 10] [--trace 0] [--bin PATH] [--out results.jsonl]

For each metric it prints the median over the seeds and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of that median, next to a third of the metric's bound from
``BENCHMARK.json``. ``--bin`` runs an already built benchmark binary
instead of the command in ``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin")
    ap.add_argument("--out")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    command = [args.bin] if args.bin else bench["command"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in seeds(args.seeds):
        cmd = command + ["--workload", args.workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr)
        runs.append(result)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed} done", file=sys.stderr)

    print(f"{'metric':32} {'median':>14} {'spread':>8} {'bound/3':>8}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        third = f"{bound / 3:8.3f}" if bound else "       -"
        flag = " !" if bound and name != "setup_s" and spread >= bound / 3 else ""
        print(f"{name:32} {med:14.4f} {spread:8.3f} {third}{flag}")


if __name__ == "__main__":
    main()
