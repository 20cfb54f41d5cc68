"""Registry wiring audit: probe economy and separate-budget accounting.

The audit's pitch is "cheap to build, cheap to run": differential
probes reuse the exec-cache canonical forms, so most of the sweep
collapses onto the baseline or hits the probe memo, and a probe whose
config reads would be answered like one already run is replayed.  The bench audits
every app, prints the per-app probe economy, and gates on the two
headline invariants — planted fixtures flagged, zero false positives
against each app's evaluation ground truth — plus a sanity floor on
the economy itself (the memo + collapse must save at least as many
executions as it spends).
"""

from __future__ import annotations

from repro.apps import catalog
from repro.core.audit import READ_BUT_INERT, UNREAD, audit_app
from repro.core.report import render_table


def audit_all_apps():
    return {app: audit_app(app) for app in catalog.APP_NAMES}


def test_audit_probe_economy(benchmark):
    results = benchmark.pedantic(audit_all_apps, rounds=1, iterations=1)

    rows = []
    for app, stats in sorted(results.items()):
        rows.append([app, stats.params_total, stats.wired, stats.unread,
                     stats.inert, stats.probe_executions,
                     stats.probe_replays, stats.probe_cache_hits,
                     stats.probes_collapsed,
                     "%.1f" % (stats.machine_time_s / 3600)])
    print("\n" + render_table(
        ["app", "params", "WIRED", "UNREAD", "INERT", "probes",
         "replays", "memo hits", "collapsed", "audit hours"], rows))

    for app, stats in results.items():
        spec = catalog.spec_for(app)
        reported = (set(spec.expected_unsafe)
                    | set(spec.expected_false_positives))
        flagged = {f.param for f in stats.flagged()}
        assert not (flagged & reported), (app, flagged & reported)
        # probe economy: the memo and baseline collapse save executions
        saved = stats.probe_cache_hits + stats.probes_collapsed
        assert saved >= stats.probe_executions // 2, (app, saved)

    # the planted fixtures are the living end-to-end proof
    assert results["hdfs"].verdict_for(
        "dfs.namenode.lock.detailed-metrics.enabled") == UNREAD
    assert results["hdfs"].verdict_for(
        "dfs.datanode.metrics.logger.period.seconds") == READ_BUT_INERT
    assert results["yarn"].verdict_for(
        "yarn.nodemanager.disk-health-checker.enable") == UNREAD
    assert results["yarn"].verdict_for(
        "yarn.nodemanager.container-metrics.period-ms") == READ_BUT_INERT
