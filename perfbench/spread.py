#!/usr/bin/env python3
"""Run-to-run spread of every benchmark metric.

Usage (from the repository root):

    python3 perfbench/spread.py [--runs 10] [--seconds 25]

Runs each workload --runs times in separate processes through
perfbench/run.py, seeds 1 .. runs, alternating the workload order from one
round to the next.  Then it runs each workload on seed 1 once more.  For
every end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread: the inter-quartile
distance as a share of the median.  These spreads are what the bounds in
BENCHMARK.json are set from.

Exits non-zero when a run fails, reports correct = false, or when a modeled
metric (unit model_s, or a modeled_* share or ratio) differs between the
two runs of the same seed: those are computed by the cost model and must
repeat bit for bit.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("decode", "prefill_sharded", "conversation")
FIRST_SEED = 1


def run_once(workload, seed, seconds):
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"spread: {workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"spread: {workload} seed {seed} reported correct = false")
    return result


def is_modeled(name, unit):
    return unit == "model_s" or name.startswith("modeled_")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    if args.runs < 2:
        sys.exit("spread: need --runs >= 2")

    results = {w: [] for w in WORKLOADS}
    for i in range(args.runs):
        seed = FIRST_SEED + i
        for workload in WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]:
            results[workload].append(run_once(workload, seed, args.seconds))
            print(f"ran {workload} seed {seed}", file=sys.stderr, flush=True)

    mismatches = []
    for workload in WORKLOADS:
        again = run_once(workload, FIRST_SEED, args.seconds)
        first = results[workload][0]["metrics"]
        for name, metric in again["metrics"].items():
            if is_modeled(name, metric["unit"]) and metric["value"] != first[name]["value"]:
                mismatches.append(f"{workload}/{name}: {first[name]['value']!r} "
                                  f"then {metric['value']!r}")

    print(f"{'workload/metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for workload in WORKLOADS:
        for name, metric in results[workload][0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results[workload]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            mid = statistics.median(values)
            spread = (q3 - q1) / mid if mid else 0.0
            print(f"{workload + '/' + name:48s} {mid:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{100 * spread:7.2f}%  [{metric['unit']}]")
    if mismatches:
        print("modeled metrics differ between runs of the same seed:", file=sys.stderr)
        for line in mismatches:
            print("  " + line, file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
