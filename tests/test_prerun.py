"""Unit tests for the pre-run profiling phase (§4, §6.2 Observation 3)."""

from __future__ import annotations

import pytest

from repro.apps import catalog
from repro.core.confagent import UNIT_TEST, ConfAgent
from repro.core.prerun import PreRunSummary, prerun_corpus, prerun_test
from synthetic_app import (broken_baseline_test, client_vs_service_test,
                           no_node_test, safe_only_test, two_service_test,
                           uncertain_conf_test)


class TestProfiles:
    def test_node_groups_recorded(self):
        profile = prerun_test(two_service_test())
        assert profile.groups["Service"] == 2
        assert profile.starts_nodes
        assert profile.usable

    def test_unit_test_counts_as_client_group(self):
        profile = prerun_test(client_vs_service_test())
        assert profile.groups.get(UNIT_TEST) == 1

    def test_usage_recorded_per_group(self):
        profile = prerun_test(two_service_test())
        assert "synth.mode" in profile.params_by_group["Service"]
        assert "synth.level" in profile.params_by_group["Service"]
        assert "synth.never-read" not in profile.params_by_group["Service"]

    def test_no_node_test_filtered(self):
        profile = prerun_test(no_node_test())
        assert not profile.starts_nodes
        assert not profile.usable

    def test_broken_baseline_filtered(self):
        profile = prerun_test(broken_baseline_test())
        assert profile.baseline_error is not None
        assert "broken at baseline" in profile.baseline_error
        assert not profile.usable

    def test_uncertain_params_excluded_from_testable(self):
        profile = prerun_test(uncertain_conf_test())
        assert "synth.safe-c" in profile.uncertain_params
        assert "synth.safe-c" not in profile.testable_params("Service")
        # parameters read only through mapped confs stay testable
        assert "synth.mode" in profile.testable_params("Service")

    def test_profile_is_deterministic(self):
        first = prerun_test(two_service_test())
        second = prerun_test(two_service_test())
        assert first.groups == second.groups
        assert first.params_by_group == second.params_by_group


class TestSummary:
    def test_summary_counts(self):
        profiles = prerun_corpus([
            two_service_test(), no_node_test(), broken_baseline_test(),
            uncertain_conf_test(), safe_only_test(),
        ])
        summary = PreRunSummary.from_profiles(profiles)
        assert summary.total_tests == 5
        assert summary.tests_without_nodes == 1
        assert summary.tests_broken_at_baseline == 1
        assert summary.tests_with_uncertain_confs == 1


class TestFastPathEquivalence:
    @staticmethod
    def snapshot(profiles):
        """Everything the pre-run records per test, with the insertion
        order of every dict kept (``params_by_group`` key order and
        ``read_sites`` key order at both levels)."""
        return [(p.test.full_name, list(p.groups.items()),
                 [(site, list(counts.items()))
                  for site, counts in p.read_sites.items()],
                 [(group, sorted(params))
                  for group, params in p.params_by_group.items()],
                 sorted(p.uncertain_params), sorted(p.explicit_sets),
                 p.baseline_error)
                for p in profiles]

    @pytest.mark.parametrize("app", catalog.APP_NAMES)
    def test_profiles_identical_with_fast_path_off(self, corpus, app,
                                                   monkeypatch):
        """The read views and the IPC cross-check memo stay on while the
        pre-run records; every count must equal the unmemoised path's.
        An agent that opens no views (``opens_views = False``, as the
        thread-ownership ablation does) takes the full path on every
        read and re-runs every cross-check: that is the reference."""
        tests = corpus.for_app(app)
        memoised = self.snapshot(prerun_corpus(tests))
        monkeypatch.setattr(ConfAgent, "opens_views", False)
        reference = self.snapshot(prerun_corpus(tests))
        assert memoised == reference
