"""Supervised worker pool: crash containment, reaping, quarantine.

Every poison body here is conditioned on *heterogeneous* configuration,
because pre-run baselines execute in the parent process — only the
supervised workers may be sacrificed.
"""

from __future__ import annotations

import json
import os
import signal
import threading

import pytest

from repro.common.faults import FaultPlan
from repro.core.checkpoint import CampaignCheckpoint
from repro.core.orchestrator import Campaign, CampaignCancelled, CampaignConfig
from repro.core.report import app_report_to_dict
from repro.core.reportmd import app_report_markdown
from synthetic_app import (SYNTH_REGISTRY, SynthConfiguration, Service,
                           client_vs_service_test, hanging_test,
                           hard_crash_test, safe_only_test, spinning_test,
                           two_service_test)
from repro.core.registry import UnitTest

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="supervision needs fork")


def campaign(tests, **config_kwargs):
    config_kwargs.setdefault("workers", 2)
    config_kwargs.setdefault("blacklist_threshold", 999)  # decouple profiles
    return Campaign("synth", SYNTH_REGISTRY, tests=tests,
                    config=CampaignConfig(**config_kwargs))


def verdicts_view(report):
    return json.dumps(
        sorted((v.param, v.verdict, v.category, v.fp_reason)
               for v in report.verdicts))


def sigkill_self_test(name="TestSynth.testSigkillSelf"):
    """Simulates an external `kill -9` landing on the worker."""
    def body(ctx):
        conf = SynthConfiguration()
        first, second = Service(conf), Service(conf)
        if first.mode != second.mode or first.level != second.level:
            os.kill(os.getpid(), signal.SIGKILL)

    return UnitTest(app="synth", name=name, fn=body)


def sigstop_self_test(name="TestSynth.testFreeze"):
    """Freezes the whole worker process: even the heartbeat thread stops,
    which is exactly what distinguishes frozen from merely busy."""
    def body(ctx):
        conf = SynthConfiguration()
        first, second = Service(conf), Service(conf)
        if first.mode != second.mode or first.level != second.level:
            os.kill(os.getpid(), signal.SIGSTOP)

    return UnitTest(app="synth", name=name, fn=body)


# ---------------------------------------------------------------------------
# crash containment + quarantine
# ---------------------------------------------------------------------------
class TestCrashContainment:
    def test_hard_crash_is_quarantined_not_fatal(self):
        poison = hard_crash_test()
        report = campaign([poison, two_service_test(), safe_only_test()],
                          worker_redelivery=1).run()
        assert poison.full_name in report.quarantined_tests
        assert poison.full_name in report.degraded_tests
        error = report.degraded_errors[poison.full_name]
        assert "exit status 1" in error and "quarantined" in error
        # healthy profiles were unaffected
        found = {v.param for v in report.verdicts if v.is_true_problem}
        assert found == {"synth.mode", "synth.level"}
        stats = report.supervision
        assert stats.enabled
        assert stats.crashes >= 2  # first delivery + one redelivery
        assert stats.redeliveries == 1
        assert stats.respawns >= 1
        assert stats.quarantined == 1
        assert not stats.circuit_breaker_tripped

    def test_sigkilled_worker_reports_the_signal(self):
        poison = sigkill_self_test()
        report = campaign([poison, safe_only_test()],
                          worker_redelivery=0).run()
        assert poison.full_name in report.quarantined_tests
        assert "SIGKILL" in report.degraded_errors[poison.full_name]

    def test_unpoisoned_verdicts_identical_to_unsupervised_run(self):
        healthy = lambda: [two_service_test(), client_vs_service_test(),  # noqa: E731
                           safe_only_test()]
        supervised = campaign([hard_crash_test()] + healthy(),
                              worker_redelivery=0).run()
        sequential = campaign(healthy(), workers=1).run()
        assert verdicts_view(supervised) == verdicts_view(sequential)

    def test_markdown_renders_supervision_and_quarantine(self):
        poison = hard_crash_test()
        report = campaign([poison, safe_only_test()],
                          worker_redelivery=0).run()
        markdown = app_report_markdown(report)
        assert "## Worker supervision" in markdown
        assert "## Infrastructure failures" in markdown
        assert "worker crash (profile quarantined)" in markdown
        assert poison.full_name in markdown

    def test_injected_worker_crash_recovers_by_redelivery(self):
        plan = FaultPlan(seed=7, worker_crash_prob=0.5)
        report = campaign([two_service_test(), client_vs_service_test(),
                           safe_only_test()],
                          fault_plan=plan, worker_redelivery=6,
                          crash_loop_threshold=999).run()
        stats = report.supervision
        assert stats.crashes > 0 and stats.redeliveries > 0
        assert stats.quarantined == 0
        assert not report.degraded_tests
        found = {v.param for v in report.verdicts if v.is_true_problem}
        assert found == {"synth.mode", "synth.level"}

    def test_circuit_breaker_halts_with_salvaged_report(self):
        poisons = [hard_crash_test(name="TestSynth.testCrash%d" % i)
                   for i in range(3)]
        report = campaign(poisons, worker_redelivery=0,
                          crash_loop_threshold=2).run()
        stats = report.supervision
        assert stats.circuit_breaker_tripped
        assert set(report.quarantined_tests) == {p.full_name for p in poisons}
        assert any("circuit breaker" in report.degraded_errors[name]
                   for name in report.quarantined_tests)
        assert not report.verdicts  # nothing completed, nothing reported


# ---------------------------------------------------------------------------
# incremental journaling + resume
# ---------------------------------------------------------------------------
class TestIncrementalJournaling:
    def test_quarantined_profile_is_journaled_and_not_retried(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        tests = lambda: [hard_crash_test(), safe_only_test()]  # noqa: E731
        first = campaign(tests(), checkpoint_path=path,
                         worker_redelivery=0).run()
        assert first.supervision.quarantined == 1
        resumed = campaign(tests(), checkpoint_path=path,
                           worker_redelivery=0).run()
        # fully restored: the supervisor never even started
        assert not resumed.supervision.enabled
        assert resumed.quarantined_tests == first.quarantined_tests
        record = app_report_to_dict(resumed)
        record_first = app_report_to_dict(first)
        record.pop("supervision"), record_first.pop("supervision")
        assert record == record_first

    def test_cancel_stops_dispatch_and_resumes_byte_identical(
            self, tmp_path):
        """cancel_event is checked before every dispatch: in-flight
        profiles finish and are journaled, nothing new starts, and the
        campaign raises CampaignCancelled; a resume runs only the rest."""
        tests = lambda: [  # noqa: E731
            two_service_test(), client_vs_service_test(), safe_only_test(),
            two_service_test(name="TestSynth.testExchangeAgain"),
            client_vs_service_test(name="TestSynth.testClientAgain")]
        path = str(tmp_path / "ck.jsonl")
        cancel = threading.Event()
        with pytest.raises(CampaignCancelled):
            # parallel_backend="process": the spelling serve specs used to
            # pick this pool, accepted and ignored now.
            campaign(tests(), checkpoint_path=path, cancel_event=cancel,
                     parallel_backend="process",
                     progress_hook=lambda snapshot: cancel.set()).run()
        journaled = CampaignCheckpoint(path).load()
        # the first commit set the event: at most the other slot's
        # in-flight profile finished after it
        assert 1 <= journaled <= 2

        resumed = campaign(tests(), checkpoint_path=path).run()
        uncancelled = campaign(tests()).run()
        record = app_report_to_dict(resumed)
        reference = app_report_to_dict(uncancelled)
        record.pop("supervision"), reference.pop("supervision")
        assert (json.dumps(record, sort_keys=True)
                == json.dumps(reference, sort_keys=True))


# ---------------------------------------------------------------------------
# concurrent supervisors in one process (``repro serve --max-active N``)
# ---------------------------------------------------------------------------
class TestConcurrentSupervisors:
    def test_each_pool_runs_its_own_campaign(self):
        """Two pools running at once on threads of one process must fork
        children that run their own campaign.  Both campaigns use the
        same test names over different parameters, so a child that ran
        the other pool's campaign would report the wrong parameters.
        (Supervision counters are left out: how many replacement workers
        a recycle spawns depends on how results batch up per poll.)"""
        specs = [frozenset({"synth.mode"}), frozenset({"synth.level"})]

        def report_json(only_params):
            tests = [two_service_test(name="TestSynth.testExchange%d" % i)
                     for i in range(6)]
            # a CPU rlimit recycles every worker after each profile, so
            # both pools keep forking for the whole run
            report = campaign(tests, only_params=only_params,
                              worker_rlimit_cpu_s=600).run()
            record = app_report_to_dict(report)
            record.pop("supervision")
            return json.dumps(record, sort_keys=True)

        alone = [report_json(only) for only in specs]
        assert alone[0] != alone[1]
        for _ in range(3):
            together = [None, None]

            def run(i):
                together[i] = report_json(specs[i])

            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert together == alone


# ---------------------------------------------------------------------------
# degraded (in-process) error rendering
# ---------------------------------------------------------------------------
class TestDegradedTraceback:
    def test_full_traceback_reaches_the_markdown_report(self, monkeypatch):
        from repro.core.pooling import PooledTester
        broken = two_service_test(name="TestSynth.testExplodes")
        original_run = PooledTester.run

        def exploding_run(self, test, group, strategy, units):
            if test.full_name == broken.full_name:
                raise RuntimeError("harness bug for the report")
            return original_run(self, test, group, strategy, units)

        monkeypatch.setattr(PooledTester, "run", exploding_run)
        report = campaign([broken, safe_only_test()], workers=1).run()
        assert broken.full_name in report.degraded_tests
        assert broken.full_name not in report.quarantined_tests
        error = report.degraded_errors[broken.full_name]
        assert "RuntimeError: harness bug for the report" in error
        assert "Traceback" in error
        markdown = app_report_markdown(report)
        assert "harness error (profile degraded)" in markdown
        assert "RuntimeError: harness bug for the report" in markdown

    def test_worker_traceback_crosses_the_pipe(self, monkeypatch):
        from repro.core.pooling import PooledTester
        broken = two_service_test(name="TestSynth.testExplodesInWorker")
        original_run = PooledTester.run

        def exploding_run(self, test, group, strategy, units):
            if test.full_name == broken.full_name:
                raise RuntimeError("harness bug in the worker")
            return original_run(self, test, group, strategy, units)

        monkeypatch.setattr(PooledTester, "run", exploding_run)
        report = campaign([broken, safe_only_test()]).run()
        assert broken.full_name in report.degraded_tests
        assert broken.full_name not in report.quarantined_tests  # contained
        assert ("RuntimeError: harness bug in the worker"
                in report.degraded_errors[broken.full_name])


# ---------------------------------------------------------------------------
# hung workers: deadlines, frozen processes, rlimits (slow -> chaos)
# ---------------------------------------------------------------------------
@pytest.mark.chaos
class TestHungWorkers:
    def test_deadline_kills_realtime_hang(self):
        hung = hanging_test()
        report = campaign([hung, two_service_test()],
                          profile_deadline_s=1.0).run()
        assert hung.full_name in report.quarantined_tests
        assert "deadline" in report.degraded_errors[hung.full_name]
        assert report.supervision.deadline_kills == 1
        # redelivering a deterministic hang would just hang again
        assert report.supervision.redeliveries == 0
        found = {v.param for v in report.verdicts if v.is_true_problem}
        assert found == {"synth.mode", "synth.level"}

    def test_frozen_worker_is_killed_on_heartbeat_silence(self):
        frozen = sigstop_self_test()
        report = campaign([frozen, safe_only_test()],
                          heartbeat_timeout_s=1.0, worker_redelivery=0).run()
        assert frozen.full_name in report.quarantined_tests
        assert "heartbeat" in report.degraded_errors[frozen.full_name]
        assert report.supervision.heartbeat_kills >= 1

    def test_rlimit_cpu_kills_spinning_worker(self):
        spin = spinning_test()
        report = campaign([spin, safe_only_test()],
                          worker_rlimit_cpu_s=1, worker_redelivery=0).run()
        assert spin.full_name in report.quarantined_tests
        assert "SIGXCPU" in report.degraded_errors[spin.full_name]
        # completed profiles trigger a recycle so every profile gets a
        # fresh CPU budget
        assert report.supervision.recycles >= 1
