"""Spawn one CLI child at a time for the benchmark client and report its cost.

This runs as its own small process, started before the client builds any
inputs. On Linux a child's ru_maxrss starts from its parent's RSS
high-water mark at exec, so spawning from the client would report the
client's footprint instead of the child's. Spawning from here caps that
floor at this process's size, which is below a bare interpreter's.

Protocol: one JSON job per line on stdin, one JSON result per line on
stdout. The process ends when stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(job: dict) -> dict:
    timed_out = threading.Event()
    with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(job["argv"], stdout=out, stderr=err, env=job["env"], cwd=job["cwd"])

        def kill() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(job["limit_s"], kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "start": start,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit": proc.returncode,
        "timed_out": timed_out.is_set(),
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
