"""The campaign's one commit point and the lease ledger its executors share.

A campaign's parallelism granule is one unit test's whole profile (the
paper's §4 "test in parallel").  Every finished profile — run by the
serial loop, the supervised pool (:mod:`repro.core.supervise`, what
``--workers N`` means) or a remote worker of the coordinator
(:mod:`repro.core.distrib`), restored from a checkpoint, or folded from
a plan-REUSE store record — enters the campaign through this module:

* **The commit point.**  :func:`commit_outcome` replays the profile's
  confirmed-unsafe results into the campaign's frequent-failure tracker
  (a forked worker's tracker is a private copy), writes the
  authoritative ``test-done`` journal record, feeds the cost book, folds
  the outcome into the live observation and hands it to the outcome
  sink.  Executors commit **as each profile completes**, so a crash
  loses only the in-flight profiles.
* **The lease ledger.**  :class:`LeaseLedger` is what the supervised pool
  and the coordinator share: the pending ``(test, delivery)`` queue, the
  committed outcomes (first commit wins), the ``worker_redelivery``
  requeue-or-quarantine rule, the
  :data:`~repro.core.runner.WORKER_CRASH` quarantine, and
  :meth:`LeaseLedger.confirmations`, the committed blacklist state that
  every pool task and every lease carries; the worker merges it into its
  own tracker before running.  A worker therefore tests against the
  blacklist as known at dispatch time; only confirmations committed
  while a profile is *in flight* stay invisible to it, so at a
  ``blacklist_threshold`` a run reaches, findings still depend on the
  schedule.  The ledger knows nothing of pipes, sockets, kills or
  steals, and takes no lock (the coordinator calls it under its own).
* **The wire format.**  :func:`profile_outcome_to_dict` /
  :func:`profile_outcome_from_dict` turn a ``ProfileOutcome`` into the
  JSON-able checkpoint record and back.  Only unit-test *names* cross
  going out (forked children inherit registries, corpora and profiles by
  copy-on-write), and these dicts cross coming back.
* **The fork probe.**  :func:`fork_available`; without ``fork``
  (Windows, some sandboxes) ``--workers N`` runs the serial loop.

Each forked child inherits a fork-time snapshot of the execution cache
(normally empty) and keeps a private cache across the profiles it owns;
cache keys include the unit-test name, so per-child caches lose no
cross-profile sharing for the same profile set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict
from typing import (Any, Deque, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

from repro.core.checkpoint import result_from_dict, result_to_dict
from repro.core.pooling import PoolStats
from repro.core.registry import UnitTest
from repro.core.runner import CONFIRMED_UNSAFE, WORKER_CRASH

#: how a finished profile reached the commit point.
FRESH, RESTORED, REUSED = "fresh", "restored", "reused"


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
                   outcome: Any, status: str = FRESH,
                   sink: Optional[Any] = None) -> None:
    """Commit one finished profile to the campaign: the only way in.

    ``status`` is where the outcome came from: ``FRESH`` (run now, by any
    executor), ``RESTORED`` (the checkpoint journal) or ``REUSED`` (a
    plan-REUSE store record).  The tracker replay is idempotent, so the
    serial loop, whose tracker saw its confirmations live, loses nothing.
    """
    for result in outcome.results:
        if result.verdict == CONFIRMED_UNSAFE:
            for param in result.instance.params:
                campaign.tracker.record_unsafe(param, name)
    # Journaled immediately (crash-resume relies on it), unless the
    # outcome was read back from that very journal.
    if checkpoint is not None and status != RESTORED:
        checkpoint.record_test_done(
            name, outcome.results, outcome.stats, outcome.executions,
            fault_counts=outcome.fault_counts, retries=outcome.retries,
            error=outcome.error, error_kind=outcome.error_kind)
    # Measured scheduling weights must be durable beside the journal so a
    # resume reschedules from measured costs; only a fresh run measured.
    if status == FRESH:
        campaign._record_measured_cost(name, outcome)
    # Live observability fold (metrics merge + progress tick); span
    # adoption happens later in deterministic profile order.
    campaign._profile_committed(outcome, status)
    if sink is not None:
        sink(name, outcome)


class LeaseLedger:
    """Pending deliveries and committed outcomes of one executor run.

    A lost delivery is requeued while its number is within
    ``redelivery``, then quarantined.  ``stats`` is the executor's report
    section (``redeliveries`` / ``quarantined`` counters) and ``kind``
    tags the ``quarantine`` observation event.
    """

    def __init__(self, campaign: Any, checkpoint: Optional[Any],
                 names: Iterable[str], redelivery: int, stats: Any,
                 kind: str, sink: Optional[Any] = None) -> None:
        self.campaign = campaign
        self.checkpoint = checkpoint
        self.redelivery = max(redelivery, 0)
        self.stats = stats
        self.kind = kind
        self.sink = sink
        #: (test full name, delivery number) in grant order.
        self.queue: Deque[Tuple[str, int]] = deque(
            (name, 1) for name in names)
        self.names = frozenset(name for name, _ in self.queue)
        self.outcomes: Dict[str, Any] = {}

    def pop(self) -> Optional[Tuple[str, int]]:
        """The next pending delivery, skipping tests committed meanwhile."""
        while self.queue:
            item = self.queue.popleft()
            if item[0] not in self.outcomes:
                return item
        return None

    def putback(self, name: str, delivery: int) -> None:
        """Return a delivery that could not be handed out, at the front."""
        self.queue.appendleft((name, delivery))

    def pending(self) -> bool:
        return any(name not in self.outcomes for name, _ in self.queue)

    def confirmations(self) -> Dict[str, List[str]]:
        """The committed confirmed-unsafe results, as the dispatch payload
        a worker merges into its tracker (a fork-time or remote tracker
        never sees commits made after it was built)."""
        return self.campaign.tracker.confirmations()

    def finished(self) -> bool:
        return len(self.outcomes) == len(self.names)

    def commit(self, name: str, outcome: Any) -> bool:
        """First commit wins; returns False for a duplicate."""
        if name in self.outcomes:
            return False
        commit_outcome(self.campaign, self.checkpoint, name, outcome,
                       sink=self.sink)
        self.outcomes[name] = outcome
        return True

    def lost(self, name: str, delivery: int, reason: str) -> None:
        """A delivery ended without a result: requeue or quarantine."""
        if delivery <= self.redelivery:
            self.stats.redeliveries += 1
            self.queue.append((name, delivery + 1))
        else:
            self.quarantine(name, "%s; profile quarantined after %d "
                                  "deliveries" % (reason, delivery))

    def quarantine(self, name: str, reason: str) -> None:
        """Commit a ``WORKER_CRASH`` outcome instead of aborting the run.
        It is journaled, so a resume does not retry poison (delete the
        journal record to force a re-run)."""
        from repro.core.orchestrator import ProfileOutcome
        if not self.commit(name, ProfileOutcome(error=reason,
                                                error_kind=WORKER_CRASH)):
            return
        self.stats.quarantined += 1
        campaign = self.campaign
        if campaign.observation is not None:
            campaign.observation.event("quarantine", kind=self.kind,
                                       test=name, reason=reason)
        trace = campaign.config.trace
        if trace is not None:
            trace.emit("worker-quarantine", app=campaign.app, test=name,
                       error=reason)
