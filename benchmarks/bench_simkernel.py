"""Simulation-kernel microbenchmarks, gated by calibrated ceilings.

Every unit-test execution in the reproduction is pure scheduling work on
:class:`repro.common.simulation.Simulator`, so kernel overhead multiplies
through the runner, the pooled tester, and every parallel backend.  This
bench isolates the kernel and wire mechanisms on workloads where each
one is the whole cost:

1. **cancel-heavy** — the heartbeat/timeout-reset pattern (ipc timeouts,
   node heartbeats, bandwidth throttling): a monitor cancels and
   re-arms a deadline timer on every tick.  The kernel compacts the heap
   once cancelled entries dominate, instead of paying ``log`` of a
   bloated heap on every push/pop until the dead entries are popped.
2. **pending-scan** — ``Simulator.pending_events()`` reads an O(1) live
   counter rather than scanning the heap.
3. **wire-encode** — repeated identical layered frames (codec /
   encryption / ssl headers) are served from the encode memo.

Each gated row reports its best-of-three wall clock divided by the
host's ``calibration_s`` (``wall_norm``); the committed ceilings under
``benchmarks/baselines/`` fail the bench when one rises more than 10%.
Where a mechanism leaves a deterministic trace it is asserted too: the
cancel-heavy heap stays bounded, and repeated frames leave one encode
memo entry.  Raw event throughput and ``Configuration.get`` cost are
trajectory rows (absolute, host-dependent, not gated).  The measured
rows land in ``BENCH_simkernel.json``.
"""

from __future__ import annotations

import time

from _shared import calibration_s, check_against_baseline, write_bench_artifact
from repro.common import wire
from repro.common.simulation import (COMPACT_MIN_CANCELLED, PeriodicTask,
                                     Simulator, kernel_stats_snapshot)
from repro.common.wire import clear_wire_memo, encode_payload
from repro.core.report import render_table

ARTIFACT = "BENCH_simkernel.json"

#: timed runs per gated row; the minimum is reported (a background-load
#: spike can only make a run slower).
ROUNDS = 3


def _timed(fn, *args):
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started


def _best(fn, *args):
    """(result of the last run, best wall) over ROUNDS cold runs."""
    best = float("inf")
    for _ in range(ROUNDS):
        clear_wire_memo()
        result, wall = _timed(fn, *args)
        best = min(best, wall)
    return result, best


def cancel_heavy(resets: int) -> int:
    """Heartbeat monitor: every tick cancels and re-arms its deadline.

    Returns the heap's final size.  Lazy deletion alone would still hold
    ~600 dead deadlines (one per tick of the 600 s timeout).
    """
    sim = Simulator()
    state = {"deadline": None, "expired": 0}

    def expire() -> None:
        state["expired"] += 1

    def beat() -> None:
        if state["deadline"] is not None:
            state["deadline"].cancel()
        state["deadline"] = sim.schedule(600.0, expire)

    task = PeriodicTask(sim, lambda: 1.0, beat)
    sim.run_until(float(resets))
    task.stop()
    assert state["expired"] == 0  # the monitor always reset in time
    return len(sim._heap)


def pending_scan(live: int, calls: int) -> int:
    sim = Simulator()
    for _ in range(live):
        sim.schedule(1.0, int)
    total = 0
    for _ in range(calls):
        total += sim.pending_events()
    assert total == live * calls
    return total


def wire_encode(frames: int) -> int:
    payload = {"method": "sendHeartbeat", "node": "dn-0", "blocks": 128}
    total = 0
    for _ in range(frames):
        total += len(encode_payload(payload, codec="gzip",
                                    encryption_key=b"sasl-privacy-wrap"))
    return total


def wire_encode_large(frames: int) -> int:
    """Large repeated frames: the digest-keyed encode memo's home turf.

    A block manifest is kilobytes of JSON; with the memo keyed by a
    16-byte content digest instead of the full canonical text, thousands
    of distinct large frames fit in the memo without pinning their key
    strings, and repeated sends skip the compress+encrypt stack.
    """
    payload = {"method": "blockReport", "node": "dn-0",
               "blocks": [{"id": i, "gen": i % 7, "len": 134217728}
                          for i in range(256)]}
    total = 0
    for _ in range(frames):
        total += len(encode_payload(payload, codec="gzip",
                                    encryption_key=b"sasl-privacy-wrap"))
    return total


def conf_get(lookups: int) -> int:
    """Registry-backed ``Configuration.get`` outside any agent scope: the
    hottest call in the harness, recorded for trajectory only."""
    import sys
    sys.path.insert(0, "tests") if "tests" not in sys.path else None
    from synthetic_app import SynthConfiguration

    conf = SynthConfiguration()
    conf.set("synth.replication", 3)
    total = 0
    for _ in range(lookups):
        total += conf.get("synth.replication")
    return total


def event_throughput(events: int) -> float:
    sim = Simulator()
    for i in range(events):
        sim.schedule(float(i % 97), int)
    _, wall = _timed(sim.run)
    return events / wall if wall else float("inf")


def measure() -> dict:
    calibration = calibration_s()
    rows = {"calibration_s": calibration}

    def gated(name, fn, *args, **facts):
        result, wall = _best(fn, *args)
        rows[name] = dict(facts, wall_s=wall, wall_norm=wall / calibration)
        return result

    _, compactions_before, _ = kernel_stats_snapshot()
    heap = gated("cancel_heavy", cancel_heavy, 20000, resets=20000)
    _, compactions_after, _ = kernel_stats_snapshot()
    rows["cancel_heavy"].update(final_heap=heap,
                                compactions=compactions_after
                                - compactions_before)
    gated("pending_scan", pending_scan, 2000, 2000, live_timers=2000,
          calls=2000)
    gated("wire_encode", wire_encode, 20000, frames=20000)
    rows["wire_encode"]["memo_entries"] = len(wire._ENCODE_MEMO)
    gated("wire_encode_large", wire_encode_large, 2000, frames=2000)
    rows["wire_encode_large"]["memo_entries"] = len(wire._ENCODE_MEMO)

    _, wall = _timed(conf_get, 200000)
    rows["conf_get"] = {"lookups": 200000, "wall_s": wall}
    rows["event_throughput"] = {"events": 50000,
                                "events_per_s": event_throughput(50000)}
    return rows


def test_simkernel_mechanisms(benchmark):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    print("\nSimulation-kernel mechanisms (calibration %.3fs):"
          % rows["calibration_s"])
    print(render_table(
        ["microbench", "wall", "wall / calibration"],
        [[name, "%.4fs" % row["wall_s"], "%.4f" % row["wall_norm"]]
         for name, row in rows.items()
         if isinstance(row, dict) and "wall_norm" in row]))
    print("Configuration.get: %.3fs per 200k lookups; raw event throughput:"
          " %.0f events/s" % (rows["conf_get"]["wall_s"],
                              rows["event_throughput"]["events_per_s"]))

    write_bench_artifact(ARTIFACT, rows)

    # Deterministic witnesses: compaction keeps the heap bounded while
    # cancels dominate, and a repeated frame occupies one memo entry.
    cancel = rows["cancel_heavy"]
    assert cancel["compactions"] > 0
    assert cancel["final_heap"] <= 2 * COMPACT_MIN_CANCELLED
    assert rows["wire_encode"]["memo_entries"] == 1
    assert rows["wire_encode_large"]["memo_entries"] == 1

    regressions = check_against_baseline(ARTIFACT, rows)
    assert not regressions, "\n".join(regressions)
