#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 rfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the simulator and the benchmark
benchmark binary (rfbench/src) with CMake into $CARGO_TARGET_DIR/rfbench (default
.bench_build/rfbench), then:

  --trace 0  runs the workload untraced in PROCESSES fresh processes, each
             with the same seed and 1/PROCESSES of the work, checks that
             they agree exactly on every count and virtual time, and
             prints every end-to-end metric of BENCHMARK.json as the
             median over the processes.
  --trace 1  runs the workload as above and then once traced (spans on, plus
             the fabric ladder, invoke ladder and manager-core replay) and
             prints every per-layer metric of BENCHMARK.json, including
             trace.overhead_pct. The spans go to
             .bench_out/trace-<workload>-<seed>.json (Chrome trace-event
             JSON, opens in Perfetto).

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The
exit code is nonzero, with no result line, when the build fails or a
correctness gate fails.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# Each run measures in PROCESSES fresh processes, each doing 1/PROCESSES of
# the work with the same seed, and reports the median of every metric: a
# whole process can land on a slow or busy part of a shared host.
PROCESSES = 9
# Metrics that must repeat exactly in every process of a run.
DETERMINISTIC = ("allocs_per_op", "vlat_p50_us", "vlat_p99_us", "vlat_p999_us", "ok_pct",
                 "sim.events_per_op", "heap.live_per_op", "manager.grants")
# Wall-clock budget of all the benchmark processes of one run, after the
# build; the whole command must end within 180 s.
RUN_BUDGET_S = 165


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = pathlib.Path.cwd() / base
    return base / "rfbench"


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            raise SystemExit(f"rfbench: build failed: {' '.join(cmd)}")
    return out / "rfbench"


def run_binary(binary, args, deadline, echo=True):
    """Runs the benchmark binary once; returns its parsed report (last stdout line).
    With `echo`, its human-readable lines are passed through. The process
    is killed at `deadline` (time.monotonic())."""
    cmd = [str(binary)] + args
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"rfbench: timed out: {' '.join(cmd)}")
    lines = res.stdout.strip().splitlines()
    for line in lines[:-1] if echo or res.returncode != 0 else []:
        print(line)
    if res.returncode != 0 or not lines:
        log(res.stderr[-4000:])
        raise SystemExit(f"rfbench: {' '.join(cmd)} exited with {res.returncode}")
    report = json.loads(lines[-1])
    if not report["correct"]:
        raise SystemExit(f"rfbench: correctness gates failed: {report['gate_failures']}")
    return report


def check_deterministic(reports):
    """The simulation is deterministic for a seed: every process of a run
    must count and time exactly the same."""
    for name in DETERMINISTIC:
        values = {r["metrics"][name][0] for r in reports if name in r["metrics"]}
        if len(values) > 1:
            raise SystemExit(f"rfbench: {name} differs between identical runs: {sorted(values)}")
    if len({(r["attempted"], r["failed"]) for r in reports}) > 1:
        raise SystemExit("rfbench: operation counts differ between identical runs")


def merge(reports):
    """One metric set from the processes of a run: the medians."""
    out = {name: [statistics.median(r["metrics"][name][0] for r in reports), unit]
           for name, (_, unit) in reports[0]["metrics"].items()}
    out["setup_s"] = [statistics.median(r["setup_s"] for r in reports), "s"]
    return out


def select(report_metrics, wanted, missing_is_zero):
    """Metrics named in BENCHMARK.json, in its order, with its units. A
    per-layer metric of a layer the workload does not use reads 0."""
    out = {}
    for m in wanted:
        if m["name"] not in report_metrics and not missing_is_zero:
            raise SystemExit(f"rfbench: the benchmark binary did not report {m['name']}")
        value, unit = report_metrics.get(m["name"], (0.0, m["unit"]))
        if unit != m["unit"]:
            raise SystemExit(f"rfbench: {m['name']} reported in {unit}, expected {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"rfbench: unknown workload {args.workload}")
    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds / PROCESSES)]

    untraced = [run_binary(binary, common + ["--trace", "0"], deadline, echo=(i == 0))
                for i in range(PROCESSES)]
    check_deterministic(untraced)
    merged = merge(untraced)
    if args.trace == 0:
        print("setup_s per process (s at the reference speed): "
              + " ".join(f"{r['setup_s']:.4f}" for r in untraced))
        metrics = select(merged, spec["end_to_end"], False)
        result = untraced[0]
    else:
        out_dir = pathlib.Path.cwd() / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-{args.seed}.json"
        traced = run_binary(binary, common + ["--trace", "1", "--trace-out", str(trace_file)],
                            deadline)
        # One traced process against the typical untraced one: the median.
        base = statistics.median(r["metrics"]["ops_per_cpu_s"][0] for r in untraced)
        with_spans = traced["metrics"]["ops_per_cpu_s"][0]
        traced["metrics"]["trace.overhead_pct"] = [100.0 * (base / with_spans - 1.0), "%"]
        print(f"spans written to {trace_file}")
        metrics = select(traced["metrics"], spec["per_layer"], True)
        result = traced

    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
