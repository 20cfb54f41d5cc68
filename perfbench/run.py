"""Benchmark entry point; see perfbench/README.md for what it measures.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

Runs iterations of one workload, each in a fresh interpreter
(perfbench/iteration.py), until ``--seconds`` have passed, then more
set-up-only interpreters until ``SETUP_SAMPLES`` set-ups were timed.
Prints a line of host facts and per-iteration details, then, as the last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones from traced iterations).

Must be run from a checkout holding ``src/repro``; elsewhere it exits 2
without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("campaign", "audit", "rerun", "parallel")

#: set-ups timed per run; the median is reported as setup_s.
SETUP_SAMPLES = 5

#: one interpreter may take this long before it is killed.
CHILD_TIMEOUT_S = 150.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mib", "MiB"), ("executions", "count"))

#: per-layer metrics that must be non-zero in a traced run of the
#: workload whose iterations exercise that layer.  A zero means a wrapper
#: missed the callers of the function it wraps, and fails the run.
EXERCISED = {
    "campaign": ("conf.get_calls", "conf.intercept_get_calls",
                 "ipc.call_calls", "ipc.check_conn_calls",
                 "wire.roundtrip_calls", "wire.encode_calls",
                 "simulation.schedule_calls", "simulation.run_calls",
                 "runner.execute_calls", "runner.confirm_calls",
                 "prerun.self_s", "pooling.run_calls",
                 "orchestrator.self_s"),
    "audit": ("conf.get_calls", "conf.intercept_get_calls",
              "ipc.call_calls", "ipc.check_conn_calls",
              "simulation.run_calls", "prerun.self_s",
              "audit.probe_executions", "audit.self_s"),
    "rerun": ("execcache.lookups", "store.append_calls",
              "store.lookup_calls", "store.open_s",
              "checkpoint.record_calls", "fsync.calls", "plan.build_s",
              "plan.reuse_profiles", "service.requests",
              "jobqueue.submit_s", "jobqueue.queue_wait_s",
              "report.render_s"),
    "parallel": ("parallel.commit_calls", "parallel.decode_s",
                 "parallel.wait_s"),
}

#: per-layer metrics the workload reports itself (not span-derived),
#: taken from the run's untraced iteration.
WORKLOAD_LAYER_METRICS = ("parallel.useful_ratio",
                          "parallel.report_identical",
                          "rerun.cold_s", "rerun.warm_s",
                          "rerun.incremental_s")


def layer_unit(name: str) -> str:
    """Per-layer units follow the metric's name."""
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_bytes", "B"),
                         (".s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


class BenchmarkError(Exception):
    pass


def host_facts() -> Dict[str, Any]:
    """Facts that let numbers from different hosts be compared; never
    gated on.  ``calibration_s`` is the best of three runs of a fixed
    pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "calibration_s": best}


def run_child(workload: str, seed: int, trace: bool = False,
              probe: bool = False) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Start one interpreter; return (set-up seconds, its result)."""
    cmd = [sys.executable, os.path.join(HERE, "iteration.py"),
           "--workload", workload, "--seed", str(seed),
           "--scratch", SCRATCH]
    cmd += ["--trace"] * trace + ["--probe"] * probe
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or code != 0:
        raise BenchmarkError("%s iteration exited %s%s" % (
            workload, code, "" if first.strip() == "ready"
            else " before set-up finished"))
    if probe:
        return setup, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchmarkError("%s iteration printed no result" % workload)
    return setup, json.loads(lines[-1])


def timed_run(workload: str, seed: int, seconds: float
              ) -> Tuple[List[float], List[Dict[str, Any]]]:
    setups: List[float] = []
    results: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        setup, result = run_child(workload, seed)
        setups.append(setup)
        results.append(result)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, seed, probe=True)[0])
    return setups, results


def end_to_end(setups: List[float], results: List[Dict[str, Any]]
               ) -> Dict[str, float]:
    values = {"setup_s": statistics.median(setups)}
    for name, _unit in END_TO_END[1:]:
        values[name] = statistics.median(r[name] for r in results)
    return values


def per_layer(workload: str, seed: int, seconds: float
              ) -> Tuple[List[Dict[str, Any]], Dict[str, float]]:
    """One untraced iteration, then traced ones until ``seconds`` pass."""
    start = time.perf_counter()
    untraced = run_child(workload, seed)[1]
    traced: List[Dict[str, Any]] = []
    while not traced or time.perf_counter() - start < seconds:
        traced.append(run_child(workload, seed, trace=True)[1])
    names = traced[0]["layers"]
    values = {name: statistics.fmean(r["layers"][name] for r in traced)
              for name in names}
    for name in WORKLOAD_LAYER_METRICS:
        values[name] = untraced["extra"].get(name, 0.0)
    values["trace.overhead_ratio"] = (
        statistics.fmean(r["wall_s"] for r in traced) / untraced["wall_s"])
    missing = [name for name in EXERCISED[workload] if values[name] <= 0]
    if missing:
        raise BenchmarkError("traced %s run recorded no work in: %s"
                             % (workload, ", ".join(missing)))
    return [untraced] + traced, values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro under %s; run from a checkout"
              % ROOT, file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        if args.trace:
            results, metrics = per_layer(args.workload, args.seed,
                                         args.seconds)
            units = {name: layer_unit(name) for name in metrics}
        else:
            setups, results = timed_run(args.workload, args.seed,
                                        args.seconds)
            metrics = end_to_end(setups, results)
            units = dict(END_TO_END)
    except BenchmarkError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for problem in sorted({p for r in results for p in r["problems"]}):
        print("perfbench: FAILED %s" % problem, file=sys.stderr)
    print(json.dumps({"host": host_facts(), "iterations": [
        {key: r[key] for key in ("wall_s", "cpu_s", "executions", "extra")}
        for r in results]}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
