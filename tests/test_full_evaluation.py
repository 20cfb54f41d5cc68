"""End-to-end evaluation tests: the paper's §7 results must reproduce.

These all share one cached full campaign (the ``full_report`` session
fixture, ~20s) and assert the evaluation's headline numbers and shapes.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.apps import catalog
from repro.core.orchestrator import CampaignConfig, run_full_campaign
from repro.core.report import (app_report_to_dict, findings_projection,
                               render_stage_counts, render_summary,
                               render_unsafe_params)
from repro.core.triage import (FP_PRIVATE_ONLY, FP_SHARED_IPC,
                               FP_STRICT_ASSERTION, FP_UNREALISTIC)


GOLDEN_DIGESTS = os.path.join(os.path.dirname(__file__), "golden",
                              "campaign_findings_digests.json")


def campaign_findings_digest(app_report):
    """sha256 over one app's findings projection plus its execution
    count: every verdict, stage count and statistic the campaign found,
    and the work it took to find them."""
    record = app_report_to_dict(app_report)
    payload = [findings_projection(record), record["executions"]]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def regenerate_golden_files():
    """import test_full_evaluation; test_full_evaluation.regenerate_golden_files()

    Regenerate only in a change that means to alter findings or
    execution counts."""
    report = run_full_campaign(CampaignConfig())
    digests = {app.app: campaign_findings_digest(app) for app in report.apps}
    with open(GOLDEN_DIGESTS, "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")


class TestGolden:
    def test_campaign_findings_match_golden_digest(self, full_report):
        """The default campaign's findings and executions per app are
        pinned: a mechanism change (read views, memos, kernel
        compaction, batched RNG draws) may not move a single one."""
        with open(GOLDEN_DIGESTS) as handle:
            expected = json.load(handle)
        found = {app.app: campaign_findings_digest(app)
                 for app in full_report.apps}
        assert found == expected, (
            "regenerate with 'import test_full_evaluation; "
            "test_full_evaluation.regenerate_golden_files()'")


class TestHeadlineNumbers:
    def test_41_true_problems(self, full_report):
        assert len(full_report.unique_true_problems()) == 41

    def test_16_false_positives(self, full_report):
        assert len(full_report.unique_false_positives()) == 16

    def test_57_reported(self, full_report):
        assert len(full_report.unique_verdicts()) == 57

    def test_table3_section_split(self, full_report):
        sections = {}
        for verdict in full_report.unique_true_problems():
            section = catalog.section_for_param(verdict.param)
            sections[section] = sections.get(section, 0) + 1
        assert sections == {"Flink": 3, "Hadoop Common": 2, "HBase": 2,
                            "HDFS": 21, "MapReduce": 8, "Yarn": 5}

    def test_exact_table3_parameters(self, full_report):
        found = {v.param for v in full_report.unique_true_problems()}
        expected = set()
        for app in catalog.APP_NAMES:
            expected |= set(catalog.spec_for(app).expected_unsafe)
        assert found == expected

    def test_seven_user_visible_inconsistency_true_problems(self, full_report):
        """§7.1: of the 16 parameters exposing config/behaviour
        inconsistencies, 'this principle separates them into 7 true
        problems and 9 false positives' — the 7 observable through
        public APIs."""
        inconsistency = [v for v in full_report.unique_true_problems()
                         if v.category == "user-visible inconsistency"]
        assert len(inconsistency) == 7

    def test_category_families_present(self, full_report):
        """§7.1's discussion groups: wire formats, heartbeats, max
        limits, task counts, and the 'others' grab bag all appear."""
        categories = {v.category for v in full_report.unique_true_problems()}
        assert categories == {
            "compression/encryption/authentication/transport",
            "heartbeat-related", "max-limit-related", "counts of tasks",
            "user-visible inconsistency", "others"}


class TestFalsePositiveCauses:
    def test_every_fp_cause_from_the_paper_appears(self, full_report):
        reasons = {v.fp_reason for v in full_report.unique_false_positives()}
        assert reasons == {FP_UNREALISTIC, FP_SHARED_IPC,
                           FP_STRICT_ASSERTION, FP_PRIVATE_ONLY}

    def test_four_shared_ipc_false_positives(self, full_report):
        ipc = [v for v in full_report.unique_false_positives()
               if v.fp_reason == FP_SHARED_IPC]
        assert len(ipc) == 4

    def test_nine_private_only_false_positives(self, full_report):
        """§7.1: of the 16 inconsistency-flavoured parameters, 9 are only
        observable through private functions and are false positives."""
        private = [v for v in full_report.unique_false_positives()
                   if v.fp_reason == FP_PRIVATE_ONLY]
        assert len(private) == 9

    def test_no_expected_fp_classified_as_true(self, full_report):
        expected_fp = set()
        for app in catalog.APP_NAMES:
            expected_fp |= set(catalog.spec_for(app).expected_false_positives)
        found_true = {v.param for v in full_report.unique_true_problems()}
        assert not (expected_fp & found_true)


class TestPerAppCampaigns:
    @pytest.mark.parametrize("app", catalog.APP_NAMES)
    def test_app_finds_its_expected_unsafe_params(self, full_report, app):
        report = full_report.app(app)
        found = {v.param for v in report.true_problems}
        assert set(catalog.spec_for(app).expected_unsafe) <= found

    @pytest.mark.parametrize("app", catalog.APP_NAMES)
    def test_reduction_per_app(self, full_report, app):
        counts = full_report.app(app).stage_counts
        assert counts.original > counts.after_prerun
        assert counts.after_prerun >= counts.after_uncertainty
        assert counts.after_uncertainty > counts.after_pooling
        # the paper reports 2-4 orders of magnitude end to end
        assert counts.reduction_orders() >= 1.0

    def test_hdfs_uncertainty_exclusions_exist(self, full_report):
        counts = full_report.app("hdfs").stage_counts
        assert counts.after_uncertainty < counts.after_prerun

    def test_blacklist_catches_wide_failures(self, full_report):
        assert "hadoop.rpc.protection" in full_report.app("hdfs").blacklisted


class TestHypothesisTestingEffects:
    def test_flaky_instances_filtered(self, full_report):
        filtered = sum(a.hypothesis_stats.filtered_as_flaky
                       for a in full_report.apps)
        suspicious = sum(a.hypothesis_stats.suspicious_first_trial
                         for a in full_report.apps)
        assert filtered > 0
        assert suspicious > filtered

    def test_no_flaky_test_yields_a_true_problem(self, full_report):
        for app_report in full_report.apps:
            for verdict in app_report.true_problems:
                results = app_report.results_by_param.get(verdict.param, [])
                realistic = [r for r in results
                             if r.instance.test.realistic
                             and not r.instance.test.strict_assertion
                             and r.instance.test.observability == "public"]
                assert all(r.tally.significant() for r in realistic
                           if r.tally is not None)


class TestMachineTimeAndRendering:
    def test_machine_time_reported(self, full_report):
        assert full_report.total_machine_hours > 0

    def test_render_unsafe_params_lists_41(self, full_report):
        text = render_unsafe_params(full_report)
        assert "dfs.heartbeat.interval" in text
        assert "akka.ssl.enabled" in text

    def test_render_summary(self, full_report):
        text = render_summary(full_report)
        assert "true problems            : 41" in text
        assert "false positives          : 16" in text

    def test_render_stage_counts_has_all_apps(self, full_report):
        text = render_stage_counts(full_report.apps)
        for app in catalog.APP_NAMES:
            assert app in text
