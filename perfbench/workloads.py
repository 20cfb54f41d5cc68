"""The benchmark's workloads and the oracle that checks their outputs.

Each workload function runs one iteration and returns an ``Outcome``.
An *operation* is one app campaign, one app audit or one service job.
It fails if it raises, if a job ends in any state other than ``done``,
or if its findings differ from the workload's reference.

``campaign``, ``audit`` and ``parallel`` are deterministic in (corpus,
registry, settings): the seed does not shape them.  It shapes ``rerun``
only, by choosing which parameters each reconfiguration plan vets.
"""

from __future__ import annotations

import http.client
import io
import json
import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps import catalog
from repro.core.audit import (FIXTURE_INERT_TAG, FIXTURE_UNREAD_TAG,
                              READ_BUT_INERT, UNREAD, audit_app)
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.report import app_report_to_dict, findings_projection
from repro.core.service import run_service, service_token

APPS = catalog.APP_NAMES

#: ``--workers`` of the parallel workload: the CPU count of the 2-CPU
#: host the benchmark was defined on, fixed so results stay comparable.
PARALLEL_WORKERS = 2

#: shared secret of the rerun workload's daemon (submits need its token).
SERVE_SECRET = "perfbench"

#: ``--serve-max-active`` of the rerun daemon, as in docs/SERVICE.md's
#: example.  One job's fsync waits overlap the other's computation, so
#: the wall time is not ruled by the shared disk's fsync latency, which
#: varied from 0.3 to 0.9 ms between minutes on the defining host.
SERVE_MAX_ACTIVE = 2


@dataclass
class Context:
    seed: int
    reference: Dict[str, Any]
    #: an empty directory of this iteration's own; the caller removes it
    #: after taking the iteration's wall and CPU time.
    work: str
    #: called once, when set-up is over and the first test is about to
    #: run; the ``rerun`` workload calls it from inside the started daemon.
    ready: Callable[[], None]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    executions: int = 0
    problems: List[str] = field(default_factory=list)
    #: workload-specific values reported as per-layer metrics.
    extra: Dict[str, float] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def canonical(record: Any) -> str:
    return json.dumps(record, sort_keys=True)


def flagged(record: Dict[str, Any]) -> List[str]:
    return sorted({verdict["param"] for verdict in record["verdicts"]})


def _campaign(app: str, config: CampaignConfig) -> Dict[str, Any]:
    spec = catalog.spec_for(app)
    report = Campaign(app, spec.registry,
                      dependency_rules=spec.dependency_rules,
                      config=config).run()
    return app_report_to_dict(report)


# ---------------------------------------------------------------------------
# campaign: serial default campaign over every app, no store
# ---------------------------------------------------------------------------
def campaign(ctx: Context) -> Outcome:
    out = Outcome()
    ctx.ready()
    for app in APPS:
        out.attempted += 1
        try:
            record = _campaign(app, CampaignConfig())
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            out.fail("%s: campaign raised %r" % (app, exc))
            continue
        out.executions += record["executions"]
        if (canonical(findings_projection(record))
                != canonical(ctx.reference["campaign"][app])):
            out.fail("%s: findings differ from the serial reference" % app)
    return out


# ---------------------------------------------------------------------------
# audit: registry wiring audit of every app
# ---------------------------------------------------------------------------
def audit(ctx: Context) -> Outcome:
    out = Outcome()
    ctx.ready()
    for app in APPS:
        out.attempted += 1
        try:
            stats = audit_app(app)
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            out.fail("%s: audit raised %r" % (app, exc))
            continue
        out.executions += stats.probe_executions
        verdicts = stats.to_dict()["verdicts"]
        if verdicts != ctx.reference["audit"][app]:
            out.fail("%s: verdicts differ from the reference" % app)
            continue
        # The planted fixtures must keep their verdicts whatever the
        # reference says: they are the audit's own ground truth.
        for param in catalog.spec_for(app).registry:
            expected = (UNREAD if FIXTURE_UNREAD_TAG in param.tags
                        else READ_BUT_INERT if FIXTURE_INERT_TAG in param.tags
                        else None)
            if expected is not None and verdicts.get(param.name) != expected:
                out.fail("%s: fixture %s is %s, expected %s"
                         % (app, param.name, verdicts.get(param.name),
                            expected))
                break
    return out


# ---------------------------------------------------------------------------
# parallel: --workers 2 on the default supervised process backend
# ---------------------------------------------------------------------------
def parallel(ctx: Context) -> Outcome:
    out = Outcome()
    ctx.ready()
    config = CampaignConfig(workers=PARALLEL_WORKERS,
                            parallel_backend="process")
    identical = 0
    for app in APPS:
        out.attempted += 1
        try:
            record = _campaign(app, config)
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            out.fail("%s: campaign raised %r" % (app, exc))
            continue
        out.executions += record["executions"]
        reference = ctx.reference["campaign"][app]
        if flagged(record) != flagged(reference):
            out.fail("%s: flagged parameters differ from serial" % app)
        # At the default blacklist threshold the rest of the report
        # depends on the schedule; that is tracked, not counted as an error.
        identical += (canonical(findings_projection(record))
                      == canonical(reference))
    serial = sum(ctx.reference["executions"].values())
    out.extra["parallel.useful_ratio"] = (serial / out.executions
                                          if out.executions else 0.0)
    out.extra["parallel.report_identical"] = identical
    return out


# ---------------------------------------------------------------------------
# rerun: serve submit -> report, cold, warm and incremental
# ---------------------------------------------------------------------------
#: share of each app's parameters a seeded plan vets.  Close to 1, so
#: the work of an iteration hardly depends on the seed: plans of half the
#: parameters varied the executions of an iteration by 8% between seeds.
PLAN_SHARE = 0.9


def rerun_plans(seed: int) -> List[Dict[str, Any]]:
    """One seeded reconfiguration plan per app (``params`` of the spec)."""
    rng = random.Random(seed)
    specs = []
    for app in APPS:
        names = sorted(param.name for param in catalog.spec_for(app).registry)
        chosen = rng.sample(names, round(len(names) * PLAN_SHARE))
        specs.append({"app": app, "params": sorted(chosen)})
    return specs


@dataclass
class _Job:
    state: str
    report: Optional[Dict[str, Any]]


class _Client:
    """One client thread, one request at a time (the daemon speaks
    HTTP/1.0, so each request has its own connection)."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.token = service_token(SERVE_SECRET)

    def _open(self, method: str, path: str, body: Any = None
              ) -> Tuple[http.client.HTTPConnection,
                         http.client.HTTPResponse]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        headers = {"Authorization": "Bearer " + self.token}
        data = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=data, headers=headers)
        return conn, conn.getresponse()

    def _request(self, method: str, path: str, body: Any = None
                 ) -> Tuple[int, bytes]:
        conn, response = self._open(method, path, body)
        try:
            return response.status, response.read()
        finally:
            conn.close()

    def healthy(self) -> bool:
        return self._request("GET", "/v1/healthz")[0] == 200

    def run_plan(self, specs: List[Dict[str, Any]]) -> Tuple[float, List[_Job]]:
        """Submit every spec, then follow each job's NDJSON event stream
        to a terminal state (no sleep-polling) and fetch its report.
        Returns the plan's submit-to-last-report seconds and the jobs."""
        start = time.perf_counter()
        submitted = []
        for spec in specs:
            status, body = self._request("POST", "/v1/campaigns", spec)
            location = json.loads(body)["location"] if status == 202 else None
            submitted.append((location, status))
        jobs = []
        for location, status in submitted:
            if location is None:
                jobs.append(_Job("rejected %d" % status, None))
                continue
            state = self._follow(location + "/events")
            report = None
            if state == "done":
                status, body = self._request("GET", location + "/report")
                report = json.loads(body) if status == 200 else None
            jobs.append(_Job(state, report))
        return time.perf_counter() - start, jobs

    def _follow(self, path: str) -> str:
        conn, response = self._open("GET", path)
        state = "unknown"
        try:
            for line in response:
                event = json.loads(line)
                if event.get("event") == "state":
                    state = event["state"]
        finally:
            conn.close()
        return state


def _serve(state_dir: str, store_dir: str,
           drive: Callable[[_Client], None],
           ready: Callable[[], None]) -> None:
    """Run the daemon in this (main) thread while ``drive`` talks to it
    from a client thread; SIGTERM from the client stops the daemon."""
    errors: List[BaseException] = []

    def client_main(port: int) -> None:
        try:
            client = _Client(port)
            # A response proves serve_forever runs, so the daemon's
            # SIGTERM handler is installed before the client sends it.
            if not client.healthy():
                raise RuntimeError("daemon health check failed")
            drive(client)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
        finally:
            os.kill(os.getpid(), signal.SIGTERM)

    threads: List[threading.Thread] = []

    def on_listening(address: Tuple[str, int]) -> None:
        ready()
        thread = threading.Thread(target=client_main, args=(address[1],))
        thread.start()
        threads.append(thread)

    run_service("127.0.0.1:0", state_dir, store_path=store_dir,
                max_active=SERVE_MAX_ACTIVE, secret=SERVE_SECRET, log=io.StringIO(),
                ready=on_listening)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def serve_probe(ctx: Context) -> None:
    """Set-up of the rerun workload alone: start the daemon, then stop."""
    _serve(os.path.join(ctx.work, "state"), os.path.join(ctx.work, "store"),
           lambda client: None, ctx.ready)


def rerun(ctx: Context) -> Outcome:
    out = Outcome()
    specs = rerun_plans(ctx.seed)
    store_dir = os.path.join(ctx.work, "store")
    phases: Dict[str, List[_Job]] = {}

    def run_phase(name: str, client: _Client,
                  phase_specs: List[Dict[str, Any]]) -> None:
        seconds, phases[name] = client.run_plan(phase_specs)
        out.extra["rerun.%s_s" % name] = seconds

    _serve(os.path.join(ctx.work, "state-cold"), store_dir,
           lambda client: run_phase("cold", client, specs), ctx.ready)
    # A fresh --serve-state over the same store: the store is read, the
    # digest-keyed checkpoint journal is not replayed.
    incremental = [dict(spec, incremental=True) for spec in specs]

    def warm_then_incremental(client: _Client) -> None:
        run_phase("warm", client, specs)
        run_phase("incremental", client, incremental)

    _serve(os.path.join(ctx.work, "state-warm"), store_dir,
           warm_then_incremental, lambda: None)

    cold = phases["cold"]
    for name in ("cold", "warm", "incremental"):
        for index, job in enumerate(phases[name]):
            out.attempted += 1
            what = "%s %s job %d" % (name, specs[index]["app"], index)
            if job.state != "done" or job.report is None:
                out.fail("%s ended %s" % (what, job.state))
                continue
            out.executions += job.report["executions"]
            if name != "cold" and (
                    cold[index].report is None
                    or canonical(findings_projection(job.report))
                    != canonical(findings_projection(cold[index].report))):
                out.fail("%s: findings differ from the cold report" % what)
    return out


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "campaign": campaign,
    "audit": audit,
    "rerun": rerun,
    "parallel": parallel,
}
