#!/usr/bin/env python3
"""Steadiness helper: how much each benchmark metric moves between runs.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--seconds 10]

Runs every workload --runs times through perfbench/run.py, each run with
the next seed, alternating the workload order from round to round so slow
drift in the machine does not land on one workload. For each metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
spread IQR / median, plus the bound BENCHMARK.json gives it; a spread above
a third of the bound is marked. Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    values = {w: {} for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        seed = args.first_seed + r
        for w in order:
            result = run_once(w, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                print("note: %s seed %d: correct=%s failed=%d of %d" % (
                    w, seed, result["correct"], result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
            print("%s seed %d done" % (w, seed), file=sys.stderr)

    for w in workloads:
        print("\n%s (%d runs)" % (w, args.runs))
        print("%-34s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print("%-34s %12.6g %12.6g %12.6g %8.4f %6s%s" % (
                name, med, q1, q3, spread, "" if bound is None else bound, flag))


if __name__ == "__main__":
    main()
