#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of the repository:

    python3 perfbench/spread.py --workload tcp-synflood --seeds 1-10
    python3 perfbench/spread.py --workload wan-smp --seeds 1-5 --trace 1

Each seed runs the command from BENCHMARK.json once. For every metric the
script prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
distance between the quartiles as a share of the median. End-to-end
metrics are compared with a third of their bound, and each run's values
of them are printed to standard error as it ends. With --json the
summary is also printed as one JSON object on the last line.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(span):
    lo, _, hi = span.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="seed range lo-hi")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, units, failures = {}, {}, 0
    for s in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(s),
                                  "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        rep = json.loads(out.strip().splitlines()[-1])
        if not rep["correct"] or rep["failed"]:
            failures += 1
            print(f"seed {s}: correct={rep['correct']} failed={rep['failed']}", file=sys.stderr)
        shown = [n for n in sorted(bounds) if n in rep["metrics"]]
        if shown:
            print(f"seed {s}: " + " ".join(f"{n}={rep['metrics'][n]['value']:.6g}" for n in shown),
                  file=sys.stderr)
        for name, m in rep["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    summary = {}
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  bound/3")
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else 0.0
        limit = bounds[name] / 3 if name in bounds else None
        flag = "" if limit is None else (f"{limit:.3f}" + ("  OVER" if spread > limit else ""))
        print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}  {flag}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": units[name], "runs": len(v)}
    if args.json:
        print(json.dumps({"workload": args.workload, "seeds": args.seeds, "trace": args.trace,
                          "seconds": seconds, "failures": failures, "metrics": summary}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
