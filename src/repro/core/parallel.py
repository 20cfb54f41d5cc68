"""Parent-side plumbing shared by every multi-process executor.

A campaign's parallelism granule is one unit test's whole profile (the
paper's §4 "test in parallel").  Two executors run profiles outside the
campaign process — the supervised pool (:mod:`repro.core.supervise`,
what ``--workers N`` means) and the distributed coordinator
(:mod:`repro.core.distrib`) — and both return finished profiles to the
parent through this module:

* **The wire format.**  :func:`profile_outcome_to_dict` /
  :func:`profile_outcome_from_dict` turn a ``ProfileOutcome`` into the
  JSON-able checkpoint record and back.  Only unit-test *names* cross
  going out (forked children inherit registries, corpora and profiles by
  copy-on-write), and these dicts cross coming back.
* **The commit point.**  :func:`commit_outcome` applies a finished
  profile's shared-state effects in the parent.  A forked worker's
  :class:`FrequentFailureTracker` and checkpoint journal are private
  copies, so the parent replays its confirmed-unsafe results into the
  real tracker and writes the authoritative ``test-done`` record itself,
  **as each profile completes**, so a mid-campaign crash loses only the
  in-flight profiles.  Blacklist propagation *between* concurrently
  running profiles therefore follows completion order.
* **The fork probe.**  :func:`fork_available` decides whether the
  supervised pool can run at all; without ``fork`` (Windows, some
  sandboxes) ``--workers N`` falls back to the serial loop.

Each forked child inherits a fork-time snapshot of the execution cache
(normally empty) and keeps a private cache across the profiles it owns;
cache keys include the unit-test name, so per-child caches lose no
cross-profile sharing for the same profile set.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Mapping, Optional

from repro.core.checkpoint import result_from_dict, result_to_dict
from repro.core.pooling import PoolStats
from repro.core.registry import UnitTest


# ---------------------------------------------------------------------------
# ProfileOutcome <-> JSON-able dict (the checkpoint wire format)
# ---------------------------------------------------------------------------
def profile_outcome_to_dict(outcome: Any) -> Dict[str, Any]:
    return {
        "results": [result_to_dict(r) for r in outcome.results],
        "pool_stats": asdict(outcome.stats),
        "executions": outcome.executions,
        "fault_counts": dict(outcome.fault_counts),
        "retries": outcome.retries,
        "error": outcome.error,
        "error_kind": outcome.error_kind,
        # Observation.to_wire() dict (spans + metrics + sim clock) when
        # the observability layer is on; already JSON-able.
        "observation": outcome.observation,
    }


def profile_outcome_from_dict(record: Mapping[str, Any],
                              tests_by_name: Mapping[str, UnitTest]) -> Any:
    from repro.core.orchestrator import ProfileOutcome
    return ProfileOutcome(
        results=[result_from_dict(r, tests_by_name)
                 for r in record["results"]],
        stats=PoolStats(**record["pool_stats"]),
        executions=int(record["executions"]),
        fault_counts={str(k): int(v)
                      for k, v in record["fault_counts"].items()},
        retries=int(record["retries"]),
        error=str(record["error"]),
        error_kind=str(record.get("error_kind", "")),
        observation=record.get("observation"))


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------
def fork_available() -> bool:
    import multiprocessing
    return "fork" in multiprocessing.get_all_start_methods()


def commit_outcome(campaign: Any, checkpoint: Optional[Any], name: str,
                   outcome: Any) -> None:
    """Apply one finished worker profile's shared-state effects in the
    parent.

    Frequent-failure bookkeeping feeds both future blacklisting and the
    final report's blacklist section, and the forked worker's tracker was
    a private copy, so confirmations are replayed here.  The
    ``test-done`` journal record is written immediately — the
    incremental-journaling invariant crash-resume relies on.
    """
    from repro.core.runner import CONFIRMED_UNSAFE
    for result in outcome.results:
        if result.verdict == CONFIRMED_UNSAFE:
            for param in result.instance.params:
                campaign.tracker.record_unsafe(param, name)
    if checkpoint is not None:
        checkpoint.record_test_done(
            name, outcome.results, outcome.stats, outcome.executions,
            fault_counts=outcome.fault_counts, retries=outcome.retries,
            error=outcome.error, error_kind=outcome.error_kind)
    # Measured scheduling weights (repro.core.costmodel.CostBook) are a
    # commit-time concern too: they must be durable beside the journal
    # before a crash, so a resume reschedules from measured costs.
    campaign._record_measured_cost(name, outcome)
    # Live observability fold (metrics merge + progress tick); span
    # adoption happens later in deterministic profile order.
    campaign._profile_committed(outcome)
