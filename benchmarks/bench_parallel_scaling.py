"""§4 "Test in parallel": unit tests are independent, so campaigns fan
out across workers (the paper used up to 100 machines / 2,000 containers).

The bench runs the HDFS campaign at several ``--workers`` counts; every
width above 1 runs the supervised process pool (``repro/core/
supervise.py``), width 1 the serial loop.  The load-bearing property is
**independence**: findings must be identical at every width.  Speedup
depends on the host's cores — widths beyond the CPU count only add
forked workers contending for the same cores — so the gate bounds the
widest run's overhead against serial rather than demanding a speedup.
"""

from __future__ import annotations

import time

from repro.apps import catalog
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.report import render_table


def run_at_width(workers: int):
    spec = catalog.spec_for("hdfs")
    started = time.time()
    report = Campaign("hdfs", spec.registry,
                      dependency_rules=spec.dependency_rules,
                      config=CampaignConfig(workers=workers)).run()
    return {
        "workers": workers,
        "wall_s": time.time() - started,
        "true_problems": tuple(sorted(v.param for v in report.true_problems)),
        "executions": report.executions,
    }


def sweep():
    return [run_at_width(workers) for workers in (1, 2, 4, 8)]


def test_parallel_scaling(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\nWorker-count sweep (HDFS campaign):")
    print(render_table(
        ["workers", "wall seconds", "executions", "true problems"],
        [[r["workers"], "%.1f" % r["wall_s"], r["executions"],
          len(r["true_problems"])] for r in rows]))
    serial = rows[0]["wall_s"]
    widest = rows[-1]["wall_s"]
    print("speedup 1 -> 8 workers: %.1fx" % (serial / max(widest, 1e-9)))
    print("(the paper parallelised across up to 100 machines x 20 "
          "containers; unit-test independence is what makes this safe)")

    # findings are identical at every parallelism — the property that
    # makes machine-level fan-out safe
    assert len({r["true_problems"] for r in rows}) == 1
    # pool overhead stays bounded (no pathological contention)
    assert widest <= serial * 1.7
