#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed on each named workload
and prints, per metric, the median and the interquartile range as a share
of the median (Python's statistics.quantiles, n=4), next to the metric's
bound. With --save, the values are written to a JSON file; with --against,
each median is compared with the median of an earlier saved set, and the
change in the metric's worse direction is printed as a share of the earlier
median. Run from the repository root:

    python3 perfbench/spread.py --seeds 10 --save first.json
    python3 perfbench/spread.py --seeds 10 --against first.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    names = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--save", help="write the measured values to this JSON file")
    ap.add_argument("--against", help="compare medians with this saved JSON file")
    args = ap.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.load(open(args.against)) if args.against else {}
    saved = {}
    worst = 0.0
    for w in args.workloads.split(","):
        values = {name: [] for name in metrics}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(out.stdout, file=sys.stderr)
                sys.exit(f"{w} seed {seed}: run not correct")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        saved[w] = values
        print(f"{w}: {args.seeds} runs")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            bound = metrics[name]["bound"]
            worst = max(worst, spread / bound)
            mark = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            line = f"  {name:<24} median {med:<14.6g} spread {spread:7.4f} bound {bound} {mark}"
            if w in earlier:
                before = statistics.median(earlier[w][name])
                sign = 1 if metrics[name]["better"] == "lower" else -1
                worse = sign * (med - before) / before
                worst = max(worst, worse / bound)
                line += f" | vs earlier median {before:.6g}: worse by {worse:+.4f}"
            print(line)
            print("    " + " ".join(f"{v:.6g}" for v in vs))
    if args.save:
        json.dump(saved, open(args.save, "w"), indent=1)
    print(f"largest spread or median change / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
