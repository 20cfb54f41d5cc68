"""Per-layer tracing for the traced benchmark run.

The program itself is not instrumented.  Instead this module wraps the
public entry points of each layer (see ``TARGETS``) from the outside,
for the duration of one traced iteration, and aggregates spans in memory:

* every wrapped call is a span; a per-thread stack gives each span its
  parent, and a span's *self time* is its duration minus the time of the
  spans it contains;
* spans are aggregated by ``(parent, name)`` as they close, so memory
  stays bounded even for the millions of ``Configuration.get`` calls an
  audit makes;
* hooks may add named values (bytes encoded, cache hits, ...) at the
  boundary where the work happens.

A module-level function is patched in every ``repro`` module that holds a
reference to it, not only where it is defined: ``repro.common.ipc`` does
``from repro.common.wire import roundtrip_payload``, so wrapping the
definition alone would record no calls.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
import weakref
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


def _store_hit(notes: Dict[str, float], args: Tuple[Any, ...],
               result: Any, start: float) -> None:
    notes["store.lookup_hits"] += result[0] is not None


def _cache_hit(notes: Dict[str, float], args: Tuple[Any, ...],
               result: Any, start: float) -> None:
    notes["execcache.hits"] += result is not None


def _encoded(notes: Dict[str, float], args: Tuple[Any, ...],
             result: Any, start: float) -> None:
    notes["wire.encode_bytes"] += len(result)


def _audited(notes: Dict[str, float], args: Tuple[Any, ...],
             result: Any, start: float) -> None:
    notes["audit.probe_executions"] += result.probe_executions
    notes["audit.probes_saved"] += (result.probe_cache_hits
                                    + result.probes_collapsed)


def _planned(notes: Dict[str, float], args: Tuple[Any, ...],
             result: Any, start: float) -> None:
    from repro.core.plan import PLAN_RERUN, PLAN_REUSE
    notes["plan.reuse_profiles"] += result.count(PLAN_REUSE)
    notes["plan.rerun_profiles"] += result.count(PLAN_RERUN)


#: when each job's ``queued`` event was appended.  The HTTP handler
#: thread appends it and the scheduler thread appends ``running``, both
#: under the queue's lock, so ``queued`` is always recorded first.
_QUEUED_AT: "weakref.WeakKeyDictionary[Any, float]" = (
    weakref.WeakKeyDictionary())


def _job_event(notes: Dict[str, float], args: Tuple[Any, ...],
               result: Any, start: float) -> None:
    """Queue wait as the daemon records it: from a job's ``queued``
    event to its ``running`` event."""
    _queue, job, event = args
    state = event.get("state") if event.get("event") == "state" else None
    if state == "queued":
        _QUEUED_AT[job] = start
    elif state == "running" and job in _QUEUED_AT:
        notes["jobqueue.queue_wait_s"] += start - _QUEUED_AT.pop(job)


#: (span name, module, attribute path, hook).  An attribute path with a
#: dot names a method, patched on its class; one without names a
#: module-level function, patched wherever callers bound it.  A hook is
#: called as ``hook(notes, args, result, start)`` after each call, with
#: the call's positional arguments and its ``perf_counter`` start.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("conf.get", "repro.common.configuration", "Configuration.get", None),
    ("conf.intercept_get", "repro.core.confagent",
     "ConfAgent.intercept_get", None),
    ("ipc.call", "repro.common.ipc", "RpcClient.call", None),
    ("ipc.check_conn", "repro.common.ipc",
     "IpcComponent.check_connection_params", None),
    ("wire.roundtrip", "repro.common.wire", "roundtrip_payload", None),
    ("wire.encode", "repro.common.wire", "encode_payload", _encoded),
    ("simulation.schedule", "repro.common.simulation",
     "Simulator.schedule", None),
    ("simulation.run", "repro.common.simulation", "Simulator.run", None),
    ("runner.execute", "repro.core.runner", "TestRunner.execute", None),
    ("runner.confirm", "repro.core.runner", "TestRunner.confirm", None),
    ("execcache.lookup", "repro.core.execcache", "ExecutionCache.lookup",
     _cache_hit),
    ("execcache.lookup", "repro.core.store",
     "StoreBackedExecutionCache.lookup", _cache_hit),
    ("prerun", "repro.core.prerun", "prerun_corpus", None),
    ("pooling.run", "repro.core.pooling", "PooledTester.run", None),
    ("orchestrator", "repro.core.orchestrator", "Campaign.run", None),
    ("audit", "repro.core.audit", "WiringAuditor.run", _audited),
    ("store.append", "repro.core.store", "ResultStore.append_entry", None),
    ("store.append", "repro.core.store", "ResultStore.append_profile", None),
    ("store.append", "repro.core.store", "ResultStore.put_report", None),
    ("store.lookup", "repro.core.store", "ResultStore.lookup_entry",
     _store_hit),
    ("store.open", "repro.core.store", "ResultStore.open", None),
    ("checkpoint.record", "repro.core.checkpoint",
     "CampaignCheckpoint.record_test_done", None),
    ("checkpoint.record", "repro.core.checkpoint",
     "CampaignCheckpoint.record_instance", None),
    ("checkpoint.record", "repro.core.checkpoint",
     "CampaignCheckpoint.record_plan", None),
    ("fsync", "os", "fsync", None),
    ("plan.build", "repro.core.plan", "build_plan", _planned),
    ("parallel.commit", "repro.core.parallel", "commit_outcome", None),
    ("parallel.decode", "repro.core.parallel", "profile_outcome_from_dict",
     None),
    ("parallel.wait", "multiprocessing.connection", "wait", None),
    ("service.request", "repro.core.service", "_Handler.do_GET", None),
    ("service.request", "repro.core.service", "_Handler.do_POST", None),
    ("jobqueue.submit", "repro.core.jobqueue", "JobQueue.submit", None),
    ("jobqueue.event", "repro.core.jobqueue", "JobQueue._append_event",
     _job_event),
    # The events endpoint blocks here between progress events; as a span
    # of its own this wait is kept out of service.request self time.
    ("jobqueue.wait", "repro.core.jobqueue", "JobQueue.wait_for_change",
     None),
    ("report.render", "repro.core.report", "app_report_to_dict", None),
    ("report.render", "repro.core.reportmd", "app_report_markdown", None),
)


class _ThreadState:
    __slots__ = ("children", "names", "spans", "notes")

    def __init__(self) -> None:
        #: time covered by the children of each open span.
        self.children: List[float] = []
        self.names: List[str] = [""]
        #: (parent, name) -> [calls, total seconds, self seconds]
        self.spans: Dict[Tuple[str, str], List[float]] = {}
        self.notes: Dict[str, float] = defaultdict(float)


class Tracer:
    """Wraps ``TARGETS`` while installed; aggregates spans per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]
              ) -> Callable:
        clock = time.perf_counter
        state_of = self._state

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = state_of()
            children = state.children
            names = state.names
            key = (names[-1], name)
            children.append(0.0)
            names.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                names.pop()
                if children:
                    children[-1] += elapsed
                record = state.spans.get(key)
                if record is None:
                    record = state.spans[key] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - inner
            if hook is not None:
                hook(state.notes, args, result, start)
            return result

        return traced

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        for name, module_name, path, hook in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, original, hook))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(name, original, hook)
            self._patch(module, path, wrapped)
            for other_name, other in list(sys.modules.items()):
                if (other is not None and other is not module
                        and other_name.split(".")[0] == "repro"
                        and getattr(other, path, None) is original):
                    self._patch(other, path, wrapped)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------
    def spans(self) -> Dict[Tuple[str, str], List[float]]:
        merged: Dict[Tuple[str, str], List[float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (calls, total, own) in state.spans.items():
                record = merged.setdefault(key, [0, 0.0, 0.0])
                record[0] += calls
                record[1] += total
                record[2] += own
        return merged

    def notes(self) -> Dict[str, float]:
        merged: Dict[str, float] = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, value in state.notes.items():
                merged[key] += value
        return merged

    def write_spans(self, path: str) -> None:
        """The aggregated span tree as JSON: one row per (parent, name)."""
        rows = [{"parent": parent or None, "name": name, "calls": calls,
                 "total_s": total, "self_s": own}
                for (parent, name), (calls, total, own)
                in sorted(self.spans().items())]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(rows, handle, indent=1)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The span-derived per-layer metrics of BENCHMARK.json.

    ``trace.overhead_ratio``, ``parallel.*`` report comparisons and
    ``rerun.*`` phase times come from the workload, not from spans, and
    are filled in by run.py.
    """
    calls: Dict[str, float] = defaultdict(float)
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    for (_parent, name), (n, seconds, self_s) in tracer.spans().items():
        calls[name] += n
        total[name] += seconds
        own[name] += self_s
    notes = tracer.notes()

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    return {
        "conf.get_calls": calls["conf.get"],
        "conf.get_self_s": own["conf.get"],
        "conf.intercept_get_calls": calls["conf.intercept_get"],
        "conf.intercept_get_self_s": own["conf.intercept_get"],
        "ipc.call_calls": calls["ipc.call"],
        "ipc.call_self_s": own["ipc.call"],
        "ipc.check_conn_calls": calls["ipc.check_conn"],
        "ipc.check_conn_self_s": own["ipc.check_conn"],
        "wire.roundtrip_calls": calls["wire.roundtrip"],
        "wire.roundtrip_self_s": own["wire.roundtrip"],
        "wire.encode_calls": calls["wire.encode"],
        "wire.encode_bytes": notes["wire.encode_bytes"],
        "wire.encode_self_s": own["wire.encode"],
        "simulation.schedule_calls": calls["simulation.schedule"],
        "simulation.run_calls": calls["simulation.run"],
        "simulation.self_s": own["simulation.run"]
        + own["simulation.schedule"],
        "runner.execute_calls": calls["runner.execute"],
        "runner.execute_self_s": own["runner.execute"],
        "runner.confirm_calls": calls["runner.confirm"],
        "execcache.lookups": calls["execcache.lookup"],
        "execcache.hit_ratio": ratio(notes["execcache.hits"],
                                     calls["execcache.lookup"]),
        "prerun.self_s": own["prerun"],
        "pooling.run_calls": calls["pooling.run"],
        "pooling.self_s": own["pooling.run"],
        "orchestrator.self_s": own["orchestrator"],
        "audit.probe_executions": notes["audit.probe_executions"],
        "audit.saved_ratio": ratio(notes["audit.probes_saved"],
                                   notes["audit.probes_saved"]
                                   + notes["audit.probe_executions"]),
        "audit.self_s": own["audit"],
        "store.append_calls": calls["store.append"],
        "store.append_self_s": own["store.append"],
        "store.lookup_calls": calls["store.lookup"],
        "store.lookup_hit_ratio": ratio(notes["store.lookup_hits"],
                                        calls["store.lookup"]),
        "store.open_s": total["store.open"],
        "checkpoint.record_calls": calls["checkpoint.record"],
        "checkpoint.self_s": own["checkpoint.record"],
        "fsync.calls": calls["fsync"],
        "fsync.s": total["fsync"],
        "plan.build_s": total["plan.build"],
        "plan.reuse_profiles": notes["plan.reuse_profiles"],
        "plan.rerun_profiles": notes["plan.rerun_profiles"],
        "parallel.commit_calls": calls["parallel.commit"],
        "parallel.commit_self_s": own["parallel.commit"],
        "parallel.decode_s": total["parallel.decode"],
        "parallel.wait_s": total["parallel.wait"],
        "service.requests": calls["service.request"],
        "service.request_s": own["service.request"],
        "jobqueue.submit_s": total["jobqueue.submit"],
        "jobqueue.queue_wait_s": notes["jobqueue.queue_wait_s"],
        "report.render_s": total["report.render"],
    }
