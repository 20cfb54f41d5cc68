"""One benchmark iteration in a fresh interpreter (started by run.py).

Prints ``ready`` on stdout the moment set-up is over (imports, catalog
and corpus load, and for ``rerun`` the daemon start), so the parent can
time set-up from outside.  Then, unless ``--probe`` is given, it runs one
iteration of the workload and prints its measurements as one JSON line.

Every iteration runs in its own process, as a user's CLI invocation
would: process-wide memos left by one iteration cannot speed up the next.

    python3 perfbench/iteration.py --workload campaign --seed 1 [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_seconds() -> float:
    """User+sys CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest child (Linux
    reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up")
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads
    from repro.core.registry import load_all_suites

    load_all_suites()
    for app in workloads.APPS:
        workloads.catalog.spec_for(app)
    with open(os.path.join(HERE, "reference.json")) as handle:
        reference = json.load(handle)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    start = {}

    def ready() -> None:
        print("ready", flush=True)
        if tracer is not None:
            tracer.install()
        start["cpu"] = cpu_seconds()
        start["wall"] = time.perf_counter()

    ctx = workloads.Context(seed=args.seed, reference=reference,
                            work=tempfile.mkdtemp(prefix=args.workload + "-",
                                                  dir=args.scratch),
                            ready=ready)
    try:
        if args.probe:
            if args.workload == "rerun":
                workloads.serve_probe(ctx)
            else:
                ready()
            return 0
        outcome = workloads.WORKLOADS[args.workload](ctx)
        wall = time.perf_counter() - start["wall"]
        cpu = cpu_seconds() - start["cpu"]
    finally:
        if tracer is not None:
            tracer.uninstall()
        # Removed only now, so its cost is not counted as the program's.
        shutil.rmtree(ctx.work, ignore_errors=True)
    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mib": peak_rss_mib(),
              "attempted": outcome.attempted, "failed": outcome.failed,
              "executions": outcome.executions,
              "problems": outcome.problems, "extra": outcome.extra}
    if tracer is not None:
        from tracing import layer_metrics
        result["layers"] = layer_metrics(tracer)
        tracer.write_spans(os.path.join(
            args.scratch, "spans-%s.json" % args.workload))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
