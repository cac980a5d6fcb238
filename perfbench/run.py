"""Closed-loop benchmark of the bisimkit command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One client sends one request at a time:
each request spawns a fresh ``bisimkit`` process on seeded input files,
waits for it to exit, and checks its exit code and stdout against answers
known from how the input was built. The last line of stdout is one JSON
object with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1); raw per-request records, machine info and spans go to
.perfbench_out/. See perfbench/NOTES.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import VERIFY_SUITES, build_round

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

CLI = "import sys; from bisimkit.cli import main; sys.exit(main())"
IMPORT_ONLY = "import bisimkit.cli"
SETUP_SAMPLES_PER_ROUND = 3
REQUEST_LIMIT_S = 30.0
ROUND_DEADLINE = 1.5  # shares of --seconds; see Bench.run
REQUEST_DEADLINE = 3.0
TAIL_BEYOND = 10

# Seconds one round takes on the reference machine (see NOTES.md), with
# the client's own generation and checking. A run makes round(seconds /
# cost) rounds, so every run of a given seed sends the same requests
# however fast the program is.
ROUND_COST_S = {"refine": 3.6, "canon": 4.3, "verify": 6.3}

# Span names from traced_cli.py, by the per-layer metric of their self time.
SPAN_METRICS = {
    "cli.import": "cli.import_s",
    "cli.main": "cli.self_s",
    "jsonio.read": "jsonio.read_s",
    "jsonio.parse": "jsonio.parse_s",
    "jsonio.serialize": "jsonio.serialize_s",
    "lts.greatest_bisim": "lts.greatest_bisim_s",
    "lts.state_rank": "lts.state_rank_s",
    "lts.eval_formula": "lts.eval_formula_s",
    "lts.is_bisimulation": "lts.is_bisimulation_s",
    "nlmp.greatest_state_bisim": "nlmp.greatest_state_bisim_s",
    "nlmp.greatest_ext_bisim": "nlmp.greatest_ext_bisim_s",
    "nlmp.is_bisim": "nlmp.is_bisim_s",
    "expansion.expand": "expansion.expand_s",
    "treeiso.canon": "treeiso.canon_s",
    "treeiso.iso_at_rank": "treeiso.iso_at_rank_s",
    "uniform.pipeline_bisim": "uniform.pipeline_bisim_s",
    "uniform.search": "uniform.search_s",
    "e0.eval_symbolic": "e0.eval_symbolic_s",
    "e0.mod_glue_bisim": "e0.mod_glue_bisim_s",
    "e0.witness": "e0.witness_s",
    "trees.truncate_symbolic": "trees.truncate_symbolic_s",
}


TIMED_LAYERS = [*SPAN_METRICS.values()] + [f"verify.suite_s.{suite}" for suite in VERIFY_SUITES]


class Launcher:
    """The helper process that spawns every child (see launcher.py)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str], env: dict, stdout: Path, stderr: Path) -> dict:
        job = {
            "argv": argv,
            "env": env,
            "cwd": str(ROOT),
            "stdout": str(stdout),
            "stderr": str(stderr),
            "limit_s": REQUEST_LIMIT_S,
        }
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process died")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def hash_seed(workload: str, seed: int, rid: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{rid}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def child_env(hseed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "BISIMKIT"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hseed)
    return env


def tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return 50, statistics.median(ordered)


def machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
        self.records: list[dict] = []
        self.spans: list[list] = []
        self.setup_samples: list[float] = []
        self.launcher = Launcher()

    def spawn(self, argv: list[str], hseed: int, extra_env: dict | None = None) -> dict:
        env = child_env(hseed)
        env.update(extra_env or {})
        return self.launcher.run(argv, env, self.work / "stdout", self.work / "stderr")

    def warm_up(self) -> None:
        """Import once untimed, so bytecode compilation is not timed."""
        result = self.spawn([sys.executable, "-c", IMPORT_ONLY], hash_seed(self.workload, self.seed, -1))
        if result["exit"] != 0:
            raise RuntimeError("bisimkit.cli does not import: " + (self.work / "stderr").read_text()[-2000:])

    def time_setup(self) -> None:
        """Time fresh interpreters importing bisimkit.cli: what every call pays first."""
        argv = [sys.executable, "-c", IMPORT_ONLY]
        for _ in range(SETUP_SAMPLES_PER_ROUND):
            hseed = hash_seed(self.workload, self.seed, -2 - len(self.setup_samples))
            self.setup_samples.append(self.spawn(argv, hseed)["wall_s"])

    def send(self, rid: int, rnd: int, request) -> None:
        if not self.trace:
            self.execute(rid, rnd, request, False)
            return
        # Plain and traced back to back, alternating which goes first.
        for traced in (False, True) if rid % 2 == 0 else (True, False):
            self.execute(rid, rnd, request, traced)

    def execute(self, rid: int, rnd: int, request, traced: bool) -> dict:
        hseed = hash_seed(self.workload, self.seed, rid)
        if traced:
            spans_file = self.work / "spans.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), *request.args]
            result = self.spawn(argv, hseed, {"PERFBENCH_SPANS": str(spans_file)})
        else:
            result = self.spawn([sys.executable, "-c", CLI, *request.args], hseed)
        stdout = (self.work / "stdout").read_bytes()
        error = self.verdict_error(request, result, stdout)
        record = {
            "workload": self.workload,
            "rid": rid,
            "round": rnd,
            "verb": request.verb,
            "sizes": request.sizes,
            "hash_seed": hseed,
            "traced": traced,
            "exit": result["exit"],
            "expected_exit": request.expect_exit,
            "wall_s": result["wall_s"],
            "cpu_s": result["cpu_s"],
            "maxrss_kb": result["maxrss_kb"],
            "out_bytes": len(stdout),
            "ok": error is None,
            "error": error,
        }
        if traced and error is None:
            # Times from the request's spawn; parents index into self.spans.
            offset = len(self.spans)
            for name, start, end, parent, counters in json.loads(spans_file.read_text()):
                parent = parent + offset if parent >= 0 else -1
                self.spans.append([rid, name, start - result["start"], end - result["start"], parent, counters])
        self.records.append(record)
        return record

    def verdict_error(self, request, result: dict, stdout: bytes) -> str | None:
        if result["timed_out"]:
            return f"no verdict within {REQUEST_LIMIT_S} s"
        if result["exit"] != request.expect_exit:
            err = (self.work / "stderr").read_text(errors="replace")[-500:]
            return f"exit {result['exit']}, expected {request.expect_exit}: {err}"
        try:
            report = json.loads(stdout)
        except ValueError:
            return "stdout is not one JSON report"
        if not isinstance(report, dict):
            return "stdout is not a JSON object"
        return request.check(report)

    def run(self) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        self.warm_up()
        # A traced run sends every request twice, so it makes half the rounds.
        cost = ROUND_COST_S[self.workload] * (2 if self.trace else 1)
        rounds = max(2, round(self.seconds / cost))
        started = time.perf_counter()

        def past(share: float) -> bool:
            return time.perf_counter() - started > share * self.seconds

        rid = 0
        for rnd in range(rounds):
            # On a slow machine, drop whole rounds to stay near the budget;
            # on a pathologically slow program, stop mid-round.
            if past(ROUND_DEADLINE):
                break
            # Set-up samples are spread over the run, so that one slow spell
            # of the machine does not decide their median.
            if not self.trace:
                self.time_setup()
            requests = build_round(self.workload, self.seed, rnd, self.work / "inputs" / f"r{rnd}")
            for request in requests:
                if past(REQUEST_DEADLINE):
                    break
                self.send(rid, rnd, request)
                rid += 1
        shutil.rmtree(self.work)
        return self.trace_metrics() if self.trace else self.end_to_end()

    def end_to_end(self) -> dict:
        walls = [r["wall_s"] for r in self.records]
        pct, tail_s = tail(walls)
        self.notes = {"tail_percentile": pct, "samples": len(walls)}
        return {
            "setup_s": (statistics.median(self.setup_samples), "s"),
            "verdict_p50_ms": (statistics.median(walls) * 1000, "ms"),
            "verdict_tail_ms": (tail_s * 1000, "ms"),
            "requests_per_s": (len(walls) / sum(walls), "1/s"),
            "peak_rss_mb": (max(r["maxrss_kb"] for r in self.records) / 1024, "MiB"),
        }

    def trace_metrics(self) -> dict:
        traced = [r for r in self.records if r["traced"]]
        plain = {r["rid"]: r["wall_s"] for r in self.records if not r["traced"]}
        n = len(traced)
        busy: dict[str, float] = {}
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (_, name, start, end, _, _) in enumerate(self.spans):
            metric = SPAN_METRICS.get(name) or "verify.suite_s." + name.removeprefix("verify.suite.")
            busy[metric] = busy.get(metric, 0.0) + (end - start - covered[i])

        def counter_sum(names: tuple[str, ...], key: str) -> tuple[int, int]:
            total = calls = 0
            for _, name, _, _, _, counters in self.spans:
                if name in names and counters:
                    total += counters[key]
                    calls += 1
            return total, calls

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        metrics = {m: (busy.get(m, 0.0) / n, "s") for m in TIMED_LAYERS}
        in_bytes, _ = counter_sum(("jsonio.read",), "bytes")
        metrics["jsonio.input_bytes"] = (in_bytes / n, "bytes")
        metrics["jsonio.output_bytes"] = (sum(r["out_bytes"] for r in traced) / n, "bytes")
        for layer, names in (
            ("lts", ("lts.greatest_bisim",)),
            ("nlmp", ("nlmp.greatest_state_bisim", "nlmp.greatest_ext_bisim")),
        ):
            kept, _ = counter_sum(names, "kept")
            pairs, _ = counter_sum(names, "pairs")
            metrics[f"{layer}.rel_density"] = (ratio(kept, pairs), "ratio")
        dag, expands = counter_sum(("expansion.expand",), "dag_nodes")
        unfolded, _ = counter_sum(("expansion.expand",), "unfolded")
        metrics["expansion.dag_nodes"] = (ratio(dag, expands), "count")
        metrics["expansion.sharing"] = (ratio(unfolded, dag), "ratio")
        canon_bytes, canons = counter_sum(("treeiso.canon",), "bytes")
        metrics["treeiso.canon_bytes"] = (ratio(canon_bytes, canons), "bytes")
        overhead = [r["wall_s"] - plain[r["rid"]] for r in traced]
        metrics["trace.overhead_ms"] = (statistics.median(overhead) * 1000, "ms")
        self.notes = {"traced_requests": n, "spans": len(self.spans)}
        return metrics

    def write_records(self, metrics: dict) -> Path:
        path = OUT / f"{self.workload}-seed{self.seed}-trace{int(self.trace)}.json"
        doc = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "machine": machine_info(),
            "notes": self.notes,
            "fail_share": self.fail_share(),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "records": self.records,
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def failed(self) -> list[dict]:
        return [r for r in self.records if not r["ok"]]

    def fail_share(self) -> float:
        """Failed over attempted requests: wrong exit, wrong stdout or timeout."""
        return len(self.failed()) / len(self.records)

    def close(self) -> None:
        self.launcher.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(ROUND_COST_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "bisimkit" / "cli.py").is_file():
        print(f"error: no bisimkit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = bench.run()
    finally:
        bench.close()
    path = bench.write_records(metrics)
    failed = bench.failed()
    for record in failed[:5]:
        print(f"FAILED rid={record['rid']} {record['verb']}: {record['error']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_share = {bench.fail_share():.4g} of {len(bench.records)}; {bench.notes}; records in {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(bench.records),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
