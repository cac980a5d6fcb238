"""Self-test of the benchmark: python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics run.py reports, that
one round of every workload passes its checks both plain and traced, and
that a request whose expectation is flipped is counted in fail_share.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import ROOT, Bench
from workloads import WORKLOADS, build_round

SEED = 7


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        bench = Bench(workload, SEED, 1, trace=True)
        try:
            bench.work.mkdir(parents=True, exist_ok=True)
            bench.warm_up()
            requests = build_round(workload, SEED, 0, bench.work / "inputs")
            for rid, request in enumerate(requests):
                bench.send(rid, 0, request)
            per_layer = bench.trace_metrics()
            bench.time_setup()
            end_to_end = bench.end_to_end()
            if bench.failed():
                problems.append(f"{workload}: {bench.failed()[0]['error']}")
            # Flip the first request's expected exit code: exactly it must fail.
            flipped = requests[0]
            flipped.expect_exit = 1 - flipped.expect_exit
            before = len(bench.records)
            bench.execute(len(requests), 0, flipped, traced=False)
            want = 1 / len(bench.records)
            if bench.records[before]["ok"] or abs(bench.fail_share() - want) > 1e-12:
                problems.append(f"{workload}: fail_share {bench.fail_share()} after one flipped expectation")
        finally:
            bench.close()
            shutil.rmtree(bench.work, ignore_errors=True)
        for key, got in (("per_layer", per_layer), ("end_to_end", end_to_end)):
            names = [m["name"] for m in declared[key]]
            if sorted(names) != sorted(got):
                problems.append(f"{key} in BENCHMARK.json differs from run.py: {sorted(set(names) ^ set(got))}")
        print(f"{workload}: {len(requests)} requests, plain and traced, checked", flush=True)
    for problem in problems:
        print("PROBLEM", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
