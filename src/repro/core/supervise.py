"""The local executor: the serial loop or the supervised worker pool.

:func:`run_profiles` is the one place a campaign chooses how to run its
pending profiles on this host: ``--workers 1`` (or a platform without
``fork``) runs them serially in the order given; ``--workers N > 1``
fans them over the supervised pool below.  The orchestrator, the
distributed coordinator's fall-back to local execution, and the
``repro worker`` lease loop all call it.

A campaign over thousands of flaky unit-test executions (§5, §7.2) needs
the harness itself to tolerate worker failure — a child that segfaults,
OOMs or ``os._exit``s must not abort the campaign, and a CPU-bound hung
child must not block it forever, because the simulated-time watchdog
cannot see *real-time* hangs.  So the pool owns its workers directly
instead of borrowing an executor:

* each worker is a **forked child on an explicit duplex pipe**; the
  parent sends ``{"task", "delivery", "confirmations"}`` messages and
  consumes results **as they complete**, committing (and so journaling)
  each at once — a crash (parent or child) loses at most the in-flight
  profiles;
* a side thread in every child sends **heartbeats**; plain CPU-bound
  work keeps beating (the GIL preempts), so silence means the process is
  genuinely frozen (SIGSTOP, stuck syscall) and it is killed and its
  profile redelivered;
* the parent enforces a per-profile **wall-clock deadline**
  (``--profile-deadline``): on expiry the worker is SIGKILLed, reaped,
  and the profile quarantined — redelivering a deterministic infinite
  loop would only burn another deadline;
* a worker that **dies while running a profile** is reaped (exit signal
  captured) and respawned, and the profile is redelivered to a fresh
  worker at most ``worker_redelivery`` times before it is quarantined as
  a :data:`~repro.core.runner.WORKER_CRASH` infra outcome instead of
  aborting the run (the :class:`~repro.core.parallel.LeaseLedger` rule
  the distributed coordinator shares);
* ``worker_rlimit_cpu_s`` / ``worker_rlimit_mem_mb`` apply
  ``resource.setrlimit`` caps inside each child.  RLIMIT_CPU accrues per
  *process*, so with a CPU cap set, workers are **recycled** after every
  completed profile — each profile gets a fresh budget;
* ``crash_loop_threshold`` consecutive worker deaths (no completed
  profile in between) trip a **circuit breaker**: something is wrong
  with the environment, not one profile, so the supervisor stops
  dispatching, kills the in-flight workers, and salvages a partial
  report rather than respawning forever;
* the campaign's ``cancel_event`` is checked **before every dispatch**:
  once set, nothing new is dispatched, the in-flight profiles finish and
  are journaled, and :class:`~repro.core.orchestrator.CampaignCancelled`
  is raised — a resume runs only the rest.

Worker lifecycle::

    spawn ──> IDLE ──deliver──> BUSY ──result──> IDLE (or recycled)
                │                 │
                │                 ├─ crash / rlimit kill ──> DEAD ─respawn─> IDLE
                │                 ├─ deadline expiry  (SIGKILL) ──> DEAD ...
                │                 └─ heartbeat silence (SIGKILL) ──> DEAD ...
                └─ crash while idle ──> DEAD

Results are journaled in completion order (resume correctness is keyed
by test name, and the final report folds outcomes back in profile
order); quarantined profiles are journaled too, so a resume does not
retry poison.

A child's tracker is a fork-time copy that the parent's commits never
reach, so every task message carries the parent's committed
confirmations (:meth:`~repro.core.parallel.LeaseLedger.confirmations`)
and the child merges them before running: each profile starts from the
blacklist as known at dispatch time.  Confirmations committed while a
profile is in flight still cannot reach it, so which ones it sees
depends on timing: run-to-run byte-identity at ``workers > 1`` requires
decoupled profiles (a ``blacklist_threshold`` no run reaches).
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core import parallel
from repro.core.registry import UnitTest

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None  # type: ignore[assignment]

#: cadence of the child-side heartbeat thread.
HEARTBEAT_INTERVAL_S = 0.5
#: parent poll tick: deadline/heartbeat checks happen at this resolution.
_POLL_INTERVAL_S = 0.05
#: exit status used by the injected worker_crash chaos hook.
INJECTED_CRASH_EXIT = 70

#: worker states (the lifecycle diagram in the module docstring).
IDLE, BUSY, DEAD = "idle", "busy", "dead"


# ---------------------------------------------------------------------------
# the local executor (the single entry point for every caller)
# ---------------------------------------------------------------------------
def run_profiles(campaign: Any, profiles: Sequence[Any],
                 checkpoint: Optional[Any],
                 tests_by_name: Mapping[str, UnitTest],
                 outcome_sink: Optional[Any] = None) -> List[Any]:
    """Run ``profiles`` on this host; outcomes come back aligned with them.

    ``workers > 1`` (with fork available) means the supervised pool,
    dispatching longest-predicted-first under ``schedule == "lpt"``;
    otherwise profiles run serially in the order given.  Either way each
    outcome goes through :func:`repro.core.parallel.commit_outcome` the
    moment it finishes, which hands it to ``outcome_sink(name, outcome)``
    when one is given (the distributed worker ships results upstream
    through it).
    """
    config = campaign.config
    if config.workers > 1 and profiles and parallel.fork_available():
        # Dispatch order is a pure makespan concern: outcomes are keyed
        # by test and folded back in catalog order, so reordering cannot
        # change findings or deterministic metrics.
        order = (campaign.cost_model.lpt_order(profiles)
                 if config.schedule == "lpt" else list(profiles))
        supervisor = Supervisor(campaign, order, checkpoint, tests_by_name,
                                outcome_sink=outcome_sink)
        campaign.supervision = supervisor.stats
        outcomes = supervisor.run()
        return [outcomes[p.test.full_name] for p in profiles]
    outcomes = []
    for profile in profiles:
        campaign._check_cancelled()
        outcome = campaign._run_profile_contained(profile, checkpoint)
        parallel.commit_outcome(campaign, checkpoint, profile.test.full_name,
                                outcome, sink=outcome_sink)
        outcomes.append(outcome)
    return outcomes


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------
def _apply_rlimits(cpu_s: Optional[int], mem_mb: Optional[int]) -> None:
    if resource is None:  # pragma: no cover - non-POSIX
        return
    if cpu_s:
        # SIGXCPU at the soft limit (default action: terminate); the
        # kernel escalates to SIGKILL at the hard limit if ignored.
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s + 1))
    if mem_mb:
        cap = mem_mb * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def _child_main(conn: Any, inherited: List[Any], campaign: Any,
                profiles: Mapping[str, Any], rlimit_cpu: Optional[int],
                rlimit_mem: Optional[int], heartbeat_every: float) -> None:
    """Forked worker: recv task names (with the parent's committed
    blacklist confirmations), run profiles, send result dicts.

    ``campaign`` and ``profiles`` arrive as Process args, which the fork
    context hands over by inheritance, never by pickling — so each
    supervisor's children see exactly its own campaign even when several
    supervisors run at once on threads of one process.
    """
    # Close fork-inherited copies of other pipes (and our own parent
    # end): a sibling's EOF must become visible to the parent the moment
    # that sibling dies, not when we do too.
    for other in inherited:
        try:
            other.close()
        except OSError:  # pragma: no cover - already closed
            pass
    # A forked TraceLog would interleave writes from many processes into
    # one fd; counters still flow back through the outcome dicts.
    campaign.config.trace = None
    _apply_rlimits(rlimit_cpu, rlimit_mem)

    send_lock = threading.Lock()
    stop_beating = threading.Event()

    def _beat() -> None:
        while not stop_beating.wait(heartbeat_every):
            try:
                with send_lock:
                    conn.send({"kind": "heartbeat"})
            except OSError:  # parent is gone; no reason to live
                os._exit(0)

    threading.Thread(target=_beat, name="heartbeat", daemon=True).start()

    plan = campaign.config.fault_plan
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            os._exit(0)
        if msg is None:  # orderly shutdown / recycle sentinel
            break
        name, delivery = msg["task"], msg["delivery"]
        if plan is not None and plan.worker_crash_decision(name, delivery):
            os._exit(INJECTED_CRASH_EXIT)
        campaign.tracker.merge(msg["confirmations"])
        try:
            outcome = campaign._run_test_profile(profiles[name],
                                                 checkpoint=None)
        except BaseException:  # noqa: BLE001 - the wire carries the stack
            from repro.core.orchestrator import HARNESS_ERROR, ProfileOutcome
            outcome = ProfileOutcome(error=traceback.format_exc(),
                                     error_kind=HARNESS_ERROR)
        record = parallel.profile_outcome_to_dict(outcome)
        try:
            with send_lock:
                conn.send({"kind": "result", "task": name,
                           "delivery": delivery, "outcome": record})
        except OSError:
            os._exit(0)
    stop_beating.set()
    conn.close()
    os._exit(0)


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------
def _describe_exit(code: Optional[int]) -> str:
    if code is None:
        return "unknown exit status"
    if code < 0:
        try:
            name = signal.Signals(-code).name
        except ValueError:  # pragma: no cover - exotic signal number
            name = "signal %d" % -code
        return "killed by %s" % name
    if code == INJECTED_CRASH_EXIT:
        return "exit status %d (injected worker_crash fault)" % code
    return "exit status %d" % code


class _Worker:
    """One supervised child process and its pipe."""

    def __init__(self, worker_id: int) -> None:
        self.id = worker_id
        self.state = DEAD
        self.conn: Any = None
        self.proc: Any = None
        #: test full name in flight (None when idle) + its delivery number.
        self.task: Optional[str] = None
        self.delivery = 0
        self.started_at = 0.0
        self.last_seen = 0.0


class Supervisor:
    """Runs one campaign's pending profiles over supervised workers."""

    def __init__(self, campaign: Any, profiles: Sequence[Any],
                 checkpoint: Optional[Any],
                 tests_by_name: Mapping[str, UnitTest],
                 outcome_sink: Optional[Any] = None) -> None:
        from repro.core.report import SupervisionStats
        config = campaign.config
        self.campaign = campaign
        self.profiles = list(profiles)
        self.by_name = {p.test.full_name: p for p in self.profiles}
        self.tests_by_name = tests_by_name
        self.stats = SupervisionStats(enabled=True)
        self.ledger = parallel.LeaseLedger(
            campaign, checkpoint, self.by_name, config.worker_redelivery,
            self.stats, "supervisor", sink=outcome_sink)
        self.deadline = config.profile_deadline_s
        self.heartbeat_timeout = max(config.heartbeat_timeout_s,
                                     2 * HEARTBEAT_INTERVAL_S)
        self.breaker_threshold = max(config.crash_loop_threshold, 1)
        self.rlimit_cpu = config.worker_rlimit_cpu_s
        self.rlimit_mem = config.worker_rlimit_mem_mb
        #: RLIMIT_CPU accrues per process: recycle workers between
        #: profiles so every profile starts with the full budget.
        self.recycle_after_profile = self.rlimit_cpu is not None
        self.slots = max(min(config.workers, len(self.profiles)), 1)

        # Imported here, not at module level: the serial loop shares this
        # module and should not pay for loading multiprocessing.
        import multiprocessing
        self.context = multiprocessing.get_context("fork")
        self.workers: List[_Worker] = []
        self.consecutive_crashes = 0
        self.halted = False
        #: the campaign's cancel_event was seen set: dispatch stops and
        #: the in-flight profiles drain before CampaignCancelled.
        self.cancelled = False
        self._next_worker_id = 0

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Run every profile; returns the outcomes keyed by test name."""
        ledger = self.ledger
        try:
            for _ in range(self.slots):
                self.workers.append(self._spawn())
            while True:
                self._dispatch()
                if not self._busy() and (not ledger.pending()
                                         or self._draining()):
                    break
                self._poll()
                self._enforce_timeouts()
        finally:
            self._shutdown()
        if self.cancelled and ledger.pending():
            from repro.core.orchestrator import CampaignCancelled
            raise CampaignCancelled(self.campaign.app)
        return ledger.outcomes

    # -- worker lifecycle ----------------------------------------------
    def _spawn(self) -> _Worker:
        worker = _Worker(self._next_worker_id)
        self._next_worker_id += 1
        parent_conn, child_conn = self.context.Pipe(duplex=True)
        inherited = [w.conn for w in self.workers if w.state != DEAD]
        inherited.append(parent_conn)
        proc = self.context.Process(
            target=_child_main,
            args=(child_conn, inherited, self.campaign, self.by_name,
                  self.rlimit_cpu, self.rlimit_mem, HEARTBEAT_INTERVAL_S),
            name="repro-worker-%d" % worker.id, daemon=True)
        proc.start()
        child_conn.close()  # the child's end lives only in the child now
        worker.conn, worker.proc = parent_conn, proc
        worker.state = IDLE
        worker.last_seen = time.monotonic()
        self.stats.workers_spawned += 1
        return worker

    def _respawn(self) -> None:
        if self._draining() or not (self.ledger.pending() or self._busy()):
            return
        self.stats.respawns += 1
        self.workers.append(self._spawn())

    def _retire(self, worker: _Worker) -> None:
        worker.state = DEAD
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if worker in self.workers:
            self.workers.remove(worker)

    def _kill(self, worker: _Worker) -> None:
        """SIGKILL + reap: the only safe way off a wedged child."""
        try:
            os.kill(worker.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, OSError):  # pragma: no cover - raced
            pass
        worker.proc.join(timeout=5.0)
        self._retire(worker)

    def _recycle(self, worker: _Worker) -> None:
        """Retire a healthy worker (fresh rlimit budget) and replace it."""
        self.stats.recycles += 1
        try:
            worker.conn.send(None)
        except OSError:
            pass
        worker.proc.join(timeout=1.0)
        if worker.proc.is_alive():  # pragma: no cover - stuck in shutdown
            self._kill(worker)
        else:
            self._retire(worker)
        if self.ledger.pending() and not self._draining():
            self.workers.append(self._spawn())

    # -- scheduling ----------------------------------------------------
    def _busy(self) -> bool:
        return any(w.state == BUSY for w in self.workers)

    def _draining(self) -> bool:
        """True once nothing more may be dispatched: the breaker tripped
        or the campaign's ``cancel_event`` is set (checked afresh here,
        i.e. before every dispatch)."""
        if not self.cancelled:
            event = self.campaign.config.cancel_event
            self.cancelled = event is not None and event.is_set()
        return self.halted or self.cancelled

    def _dispatch(self) -> None:
        for worker in list(self.workers):
            if self._draining():
                break
            if worker.state != IDLE:
                continue
            item = self.ledger.pop()
            if item is None:
                break
            name, delivery = item
            try:
                worker.conn.send({"task": name, "delivery": delivery,
                                  "confirmations":
                                      self.ledger.confirmations()})
            except OSError:
                self.ledger.putback(name, delivery)
                self._worker_died(worker)
                continue
            worker.task, worker.delivery = name, delivery
            worker.state = BUSY
            worker.started_at = worker.last_seen = time.monotonic()

    def _poll(self) -> None:
        conns = {w.conn: w for w in self.workers if w.state != DEAD}
        if not conns:
            return
        from multiprocessing import connection
        ready = connection.wait(list(conns), timeout=_POLL_INTERVAL_S)
        for conn in ready:
            worker = conns[conn]
            try:
                while worker.state != DEAD and conn.poll():
                    self._handle(worker, conn.recv())
            except (EOFError, OSError):
                self._worker_died(worker)
        # Forked siblings hold copies of each other's pipe ends, so EOF
        # alone cannot be trusted to announce a death — ask the kernel.
        for worker in list(self.workers):
            if worker.state != DEAD and not worker.proc.is_alive():
                self._worker_died(worker)

    def _handle(self, worker: _Worker, msg: Mapping[str, Any]) -> None:
        worker.last_seen = time.monotonic()
        if msg.get("kind") != "result":
            return  # heartbeat
        self.ledger.commit(msg["task"], parallel.profile_outcome_from_dict(
            msg["outcome"], self.tests_by_name))
        self.consecutive_crashes = 0
        worker.task = None
        worker.state = IDLE
        if self.recycle_after_profile:
            self._recycle(worker)

    # -- failure handling ----------------------------------------------
    def _worker_died(self, worker: _Worker) -> None:
        if worker.state == DEAD:
            return
        # Last-gasp drain: a result already in the pipe completes the
        # task even though its worker is gone.
        try:
            while worker.task is not None and worker.conn.poll():
                self._handle(worker, worker.conn.recv())
        except (EOFError, OSError):
            pass
        worker.proc.join(timeout=5.0)
        reason = _describe_exit(worker.proc.exitcode)
        self._retire(worker)
        self.stats.crashes += 1
        self.consecutive_crashes += 1
        obs = self.campaign.observation
        if obs is not None:
            # Instant span on the campaign timeline; only emitted on a
            # death, so healthy-run span trees stay backend-identical.
            obs.event("worker-death", kind="supervisor", exit=reason,
                      task=worker.task)
        if worker.task is not None:
            name, delivery = worker.task, worker.delivery
            worker.task = None
            self.ledger.lost(
                name, delivery,
                "worker process died while running the profile (%s)" % reason)
        if self.consecutive_crashes >= self.breaker_threshold:
            self._trip_breaker(reason)
        else:
            self._respawn()

    def _enforce_timeouts(self) -> None:
        now = time.monotonic()
        for worker in list(self.workers):
            if worker.state != BUSY:
                continue
            over_deadline = (self.deadline is not None
                             and now - worker.started_at > self.deadline)
            silent = now - worker.last_seen > self.heartbeat_timeout
            if not (over_deadline or silent):
                continue
            # The result may have landed just under the wire.
            try:
                while worker.state == BUSY and worker.conn.poll():
                    self._handle(worker, worker.conn.recv())
            except (EOFError, OSError):
                self._worker_died(worker)
                continue
            if worker.state != BUSY:
                continue
            name, delivery = worker.task, worker.delivery
            worker.task = None
            self._kill(worker)
            if over_deadline:
                # A deterministic runaway loop would just burn another
                # full deadline on redelivery: quarantine immediately.
                self.stats.deadline_kills += 1
                self.ledger.quarantine(
                    name,
                    "profile exceeded the %.1fs wall-clock deadline "
                    "(--profile-deadline); worker SIGKILLed and reaped"
                    % self.deadline)
                self._respawn()
            else:
                # Heartbeat silence means *frozen*, which is plausibly
                # environmental — redeliver within the usual bound.
                self.stats.heartbeat_kills += 1
                self.consecutive_crashes += 1
                self.ledger.lost(
                    name, delivery,
                    "worker sent no heartbeat for %.1fs; killed as frozen"
                    % self.heartbeat_timeout)
                if self.consecutive_crashes >= self.breaker_threshold:
                    self._trip_breaker("repeated heartbeat silence")
                else:
                    self._respawn()

    def _trip_breaker(self, reason: str) -> None:
        if self.halted:
            return
        self.halted = True
        self.stats.circuit_breaker_tripped = True
        halt = ("campaign halted by the supervisor's crash-loop circuit "
                "breaker (%d consecutive worker deaths; last: %s)"
                % (self.consecutive_crashes, reason))
        for worker in list(self.workers):
            if worker.state != BUSY:
                continue
            name = worker.task
            worker.task = None
            self._kill(worker)
            self.ledger.quarantine(name, halt)
        item = self.ledger.pop()
        while item is not None:
            self.ledger.quarantine(item[0], halt)
            item = self.ledger.pop()

    # -- teardown ------------------------------------------------------
    def _shutdown(self) -> None:
        for worker in list(self.workers):
            if worker.state == DEAD:
                continue
            try:
                worker.conn.send(None)
            except OSError:
                pass
        for worker in list(self.workers):
            if worker.state == DEAD:
                continue
            worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():
                self._kill(worker)
            else:
                self._retire(worker)
