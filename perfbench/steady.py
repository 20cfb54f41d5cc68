"""Steadiness self-check: run each workload repeatedly and report spread.

    python3 perfbench/steady.py [--runs 10] [--json out.json]

Runs BENCHMARK.json's command once per seed (seeds 1 to ``--runs``) on
each workload of BENCHMARK.json, then prints, per end-to-end metric,
the median, the quartiles (``statistics.quantiles(n=4)``), the sample
count and the spread (interquartile range over median) against the
metric's bound.  A metric whose spread exceeds its bound is marked
``OVER``; one that does not repeat within a tenth is marked ``UNSTEADY``.
``error_rate`` is failed over attempted operations across all runs.
Exits 1 if any run fails, is incorrect, or any spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(bench: Dict[str, Any], workload: str, seed: int
             ) -> Dict[str, Any]:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited %d" % (workload, seed,
                                                   proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result.update(json.loads(lines[-2]))
    return result


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--json", default=None,
                        help="also write every run's result here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    metrics = bench["end_to_end"]
    ok = True
    raw: Dict[str, List[Dict[str, Any]]] = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(bench, workload, seed)
                for seed in range(1, args.runs + 1)]
        raw[workload] = runs
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        ok &= correct and failed == 0
        host = runs[0]["host"]
        print("== %s: %d runs, error_rate %.4f (%d/%d), correct %s; "
              "nproc %s, python %s, calibration %.3fs"
              % (workload, len(runs), failed / attempted, failed, attempted,
                 correct, host["nproc"], host["python"],
                 host["calibration_s"]))
        print("  %-14s %-6s %12s %12s %12s %3s %7s %6s" % (
            "metric", "unit", "median", "q1", "q3", "n", "spread", "bound"))
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (median,) * 3)
            spread = (q3 - q1) / median if median else float("inf")
            flags = []
            if spread > metric["bound"]:
                flags.append("OVER")
                ok = False
            if spread > 0.1:
                flags.append("UNSTEADY")
            print("  %-14s %-6s %12.4f %12.4f %12.4f %3d %7.4f %6.3f %s" % (
                metric["name"], metric["unit"], median, q1, q3, len(values),
                spread, metric["bound"], " ".join(flags)))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(raw, handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
