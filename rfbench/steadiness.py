#!/usr/bin/env python3
"""Steadiness check of the benchmark's end-to-end metrics.

    python3 rfbench/steadiness.py [--runs 10] [--seconds 10] [--out FILE] [workload ...]

Runs `run.py --trace 0` once per seed (seeds 1..runs) on each workload
and reports, for every end-to-end metric, the median and the spread: the
distance between the first and third quartile of the runs
(statistics.quantiles(values, n=4)) as a share of their median. A metric
is steady when its spread stays below a third of its bound in
BENCHMARK.json (setup_s, whose spread is not gated, is reported too).
With --out, writes the figures as JSON.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds):
    res = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if res.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{res.stderr[-3000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--out")
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    args = ap.parse_args()

    report = {}
    steady = True
    for workload in args.workloads:
        values = {m["name"]: [] for m in SPEC["end_to_end"]}
        for seed in range(1, args.runs + 1):
            for name, m in run_once(workload, seed, args.seconds).items():
                values[name].append(m["value"])
        report[workload] = {}
        for m in SPEC["end_to_end"]:
            v = values[m["name"]]
            median = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / median if median else 0.0
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            steady &= ok
            report[workload][m["name"]] = {"median": median, "spread": round(spread, 4),
                                           "bound": m["bound"], "values": v}
            print(f"{workload:12s} {m['name']:14s} median {median:14.4f} spread {spread:7.4f} "
                  f"bound {m['bound']:.2f} {'ok' if ok else 'NOT STEADY'}", flush=True)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
