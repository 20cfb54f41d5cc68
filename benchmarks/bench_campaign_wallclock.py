"""End-to-end HDFS campaign wall clock, gated by calibrated ceilings.

Two configurations are timed, each the best (min) of two runs divided by
the host's ``calibration_s`` (``wall_norm``):

* **serial** — the default campaign: one worker, no pool.  Its wall is
  interpreter, kernel and wire work end to end.
* **process x4** — the supervised process pool with 4 workers and
  decoupled profiles (``blacklist_threshold=999``).  Decoupled profiles
  make the pool's report byte-identical to a serial campaign at the same
  threshold, which this bench asserts (minus the pool's run-scoped
  ``supervision`` counters).  That serial reference is timed once and
  recorded, ungated.

Findings of the default campaign are pinned separately, by
``tests/golden/campaign_findings_digests.json``.  Rows land in
``BENCH_campaign_wallclock.json``; the committed ceilings under
``benchmarks/baselines/`` fail the bench when a ``wall_norm`` rises more
than 10%.
"""

from __future__ import annotations

import json
import os
import time

from _shared import calibration_s, check_against_baseline, write_bench_artifact
from repro.apps import catalog
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.report import app_report_to_dict, render_table

ARTIFACT = "BENCH_campaign_wallclock.json"
APP = "hdfs"


def _run(**config_kwargs):
    spec = catalog.spec_for(APP)
    campaign = Campaign(APP, spec.registry,
                        dependency_rules=spec.dependency_rules,
                        config=CampaignConfig(**config_kwargs))
    started = time.perf_counter()
    report = campaign.run()
    return report, time.perf_counter() - started


def _findings_view(report) -> str:
    """The full report minus the pool's run-scoped supervision counters
    (worker respawns are pool mechanics, not findings)."""
    record = app_report_to_dict(report)
    record.pop("supervision", None)
    return json.dumps(record, sort_keys=True)


def _best(rounds: int = 2, **config_kwargs):
    """(report, best wall) over ``rounds`` runs.

    The minimum is the standard noise estimator for a wall-clock gate:
    a background-load spike can only ever make a run *slower*.
    """
    report, wall = _run(**config_kwargs)
    for _ in range(rounds - 1):
        wall = min(wall, _run(**config_kwargs)[1])
    return report, wall


def measure() -> dict:
    calibration = calibration_s()
    _, serial_wall = _best()
    pool_report, pool_wall = _best(workers=4, blacklist_threshold=999)
    reference, reference_wall = _run(blacklist_threshold=999)
    return {
        "app": APP,
        "cpu_count": os.cpu_count() or 1,
        "calibration_s": calibration,
        "serial": {"wall_s": serial_wall,
                   "wall_norm": serial_wall / calibration},
        "process4": {
            "wall_s": pool_wall,
            "wall_norm": pool_wall / calibration,
            "serial_reference_wall_s": reference_wall,
            "report_identical_to_serial":
                _findings_view(pool_report) == _findings_view(reference),
        },
    }


def test_campaign_wallclock(benchmark):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    serial, process4 = rows["serial"], rows["process4"]
    print("\nHDFS campaign wall clock (%d CPUs, calibration %.3fs):"
          % (rows["cpu_count"], rows["calibration_s"]))
    print(render_table(
        ["configuration", "wall", "wall / calibration"],
        [["serial", "%.2fs" % serial["wall_s"], "%.2f" % serial["wall_norm"]],
         ["process x4", "%.2fs" % process4["wall_s"],
          "%.2f" % process4["wall_norm"]]]))
    print("serial reference at blacklist_threshold=999: %.2fs"
          % process4["serial_reference_wall_s"])

    write_bench_artifact(ARTIFACT, rows)

    # Soundness first: with decoupled profiles the pool may only change
    # how fast the campaign runs, never what it reports.
    assert process4["report_identical_to_serial"]

    regressions = check_against_baseline(ARTIFACT, rows)
    assert not regressions, "\n".join(regressions)
