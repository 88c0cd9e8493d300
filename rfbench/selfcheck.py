#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 rfbench/selfcheck.py

Runs every workload twice with the same seed at reduced size and fails
(exit 1) unless both runs agree exactly on the operation counts and on
every metric that must not depend on the host: allocs_per_op, the virtual
latencies, ok_pct, sim.events_per_op, heap.live_per_op and the grant
count. A change that makes the simulation nondeterministic fails here
within seconds, before any timing is compared.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run as bench  # noqa: E402

WORKLOADS = ("invoke_hot", "invoke_ft", "lease_churn")
SEED = 7
SECONDS = 0.5


def main():
    binary = bench.build()
    deadline = time.monotonic() + 10 * bench.RUN_BUDGET_S
    failures = []
    for workload in WORKLOADS:
        args = ["--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS)]
        first, second = (bench.run_binary(binary, args, deadline) for _ in range(2))
        if (first["attempted"], first["failed"]) != (second["attempted"], second["failed"]):
            failures.append(f"{workload}: operation counts differ")
        for name in bench.DETERMINISTIC:
            a = first["metrics"].get(name)
            b = second["metrics"].get(name)
            if a != b:
                failures.append(f"{workload}: {name} differs: {a} vs {b}")
        print(f"{workload}: {first['attempted']} operations, "
              f"{sum(name in first['metrics'] for name in bench.DETERMINISTIC)} "
              f"deterministic metrics compared")
    for f in failures:
        print("FAIL", f)
    print("determinism self-check", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
