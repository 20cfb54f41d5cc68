"""Registry wiring audit: verdict engine, fixtures, campaign integration.

The headline invariants:

* the deliberately mis-wired fixture parameters planted in the HDFS and
  YARN registries are flagged with exactly their planted verdicts;
* the audit never flags a parameter the campaign evaluation reports
  (true problem or §7.1 false positive) — zero false positives on the
  untouched registries;
* switching ``--audit`` on changes *nothing* about the unsafe findings:
  verdicts, executions, and modelled machine time are byte-identical,
  the audit only attaches its own separately-budgeted section.
"""

from __future__ import annotations

import hashlib
import json
import os
from unittest import mock

import pytest

from repro.apps import catalog
from repro.cli import main
from repro.common.errors import TestFailure
from repro.core.audit import (AUDIT_EXEMPT_TAG, FIXTURE_INERT_TAG,
                              FIXTURE_UNREAD_TAG, READ_BUT_INERT, UNREAD,
                              WIRED, WiringAuditor, _Probe, _ReadTrie,
                              audit_app)
from repro.core.confagent import (UNCERTAIN, UNIT_TEST, WATCH_ALL, ConfAgent,
                                  read_key)
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.prerun import prerun_test
from repro.core.registry import UnitTest
from repro.core.testgen import (HeteroAssignment, HomoAssignment,
                                ParamAssignment)
from repro.core.report import app_report_to_dict
from repro.core.reportmd import app_report_markdown
from synthetic_app import SYNTH_REGISTRY, Service, SynthConfiguration

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: the living fixtures planted in apps/*/params.py
FIXTURES = {
    "hdfs": {"dfs.namenode.lock.detailed-metrics.enabled": UNREAD,
             "dfs.datanode.metrics.logger.period.seconds": READ_BUT_INERT},
    "yarn": {"yarn.nodemanager.disk-health-checker.enable": UNREAD,
             "yarn.nodemanager.container-metrics.period-ms": READ_BUT_INERT},
}


def flink_campaign(**kw):
    spec = catalog.spec_for("flink")
    return Campaign("flink", spec.registry,
                    dependency_rules=spec.dependency_rules,
                    config=CampaignConfig(**kw)).run()


@pytest.fixture(scope="module")
def audited():
    """One full audit per app, shared by the tests that only read it (an
    HDFS audit takes seconds).  Tests that mutate the registry or compare
    two audits run their own."""
    stats_by_app = {}

    def audit(app):
        if app not in stats_by_app:
            stats_by_app[app] = audit_app(app)
        return stats_by_app[app]

    return audit


# ---------------------------------------------------------------------------
# planted fixtures
# ---------------------------------------------------------------------------
class TestFixtures:
    @pytest.mark.parametrize("app", sorted(FIXTURES))
    def test_fixtures_get_their_planted_verdicts(self, audited, app):
        stats = audited(app)
        for param, verdict in FIXTURES[app].items():
            assert stats.verdict_for(param) == verdict, param

    @pytest.mark.parametrize("app", sorted(FIXTURES))
    def test_fixture_tags_match_verdicts(self, audited, app):
        """The tags are the contract: anything tagged as a fixture must
        be flagged with the verdict its tag announces."""
        stats = audited(app)
        spec = catalog.spec_for(app)
        tagged = {p.name: p.tags for p in spec.registry
                  if FIXTURE_UNREAD_TAG in p.tags or FIXTURE_INERT_TAG in p.tags}
        assert len(tagged) >= 2
        for name, tags in tagged.items():
            want = UNREAD if FIXTURE_UNREAD_TAG in tags else READ_BUT_INERT
            assert stats.verdict_for(name) == want

    def test_fixtures_are_flagged_not_exempt(self, audited):
        stats = audited("hdfs")
        flagged = {f.param for f in stats.flagged()}
        for param in FIXTURES["hdfs"]:
            assert param in flagged

    def test_inert_fixture_has_read_sites_and_probes(self, audited):
        stats = audited("hdfs")
        finding = next(f for f in stats.findings
                       if f.param == "dfs.datanode.metrics.logger.period.seconds")
        assert finding.verdict == READ_BUT_INERT
        assert finding.read_sites, "INERT requires at least one read site"
        assert finding.probes > 0, "INERT must be established by probing"

    def test_unread_fixture_never_probed(self, audited):
        stats = audited("yarn")
        finding = next(f for f in stats.findings
                       if f.param == "yarn.nodemanager.disk-health-checker.enable")
        assert finding.verdict == UNREAD
        assert not finding.read_sites and finding.probes == 0


# ---------------------------------------------------------------------------
# zero false positives on the untouched registries
# ---------------------------------------------------------------------------
class TestNoFalsePositives:
    @pytest.mark.parametrize("app", catalog.APP_NAMES)
    def test_no_reported_parameter_is_flagged(self, audited, app):
        """A parameter the evaluation reports (true problem or §7.1 FP)
        is by construction read AND behaviourally live — the audit must
        never flag it."""
        stats = audited(app)
        spec = catalog.spec_for(app)
        reported = set(spec.expected_unsafe) | set(spec.expected_false_positives)
        flagged = {f.param for f in stats.flagged()}
        assert not (flagged & reported)

    def test_single_candidate_params_conservatively_wired(self, audited):
        """Path-like parameters offer no candidate value pairs, so there
        is nothing to probe with — the audit must not guess INERT."""
        stats = audited("hdfs")
        finding = next(f for f in stats.findings
                       if f.param == "dfs.datanode.data.dir")
        assert finding.verdict == WIRED
        assert finding.probes == 0

    def test_exempt_tag_suppresses_flagging(self):
        """`audit-exempt` keeps the verdict but drops it from flagged()."""
        spec = catalog.spec_for("yarn")
        for p in spec.registry:
            if FIXTURE_UNREAD_TAG in p.tags:
                object.__setattr__(p, "tags", p.tags + (AUDIT_EXEMPT_TAG,))
                exempted = p.name
                break
        try:
            stats = audit_app("yarn")
            assert stats.verdict_for(exempted) == UNREAD
            assert exempted not in {f.param for f in stats.flagged()}
            assert stats.exempt_flagged >= 1
        finally:
            for p in spec.registry:
                if p.name == exempted:
                    object.__setattr__(
                        p, "tags",
                        tuple(t for t in p.tags if t != AUDIT_EXEMPT_TAG))


# ---------------------------------------------------------------------------
# determinism and accounting
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_two_runs_identical(self):
        assert audit_app("flink").to_dict() == audit_app("flink").to_dict()

    def test_counts_reconcile(self, audited):
        stats = audited("flink")
        assert (stats.wired + stats.unread + stats.inert
                == stats.params_total == len(stats.findings))
        assert stats.machine_time_s == stats.probe_executions * 60.0

    def test_param_scoping(self):
        target = "dfs.datanode.metrics.logger.period.seconds"
        stats = audit_app("hdfs", params=[target])
        assert stats.params_total == 1
        assert stats.verdict_for(target) == READ_BUT_INERT


# ---------------------------------------------------------------------------
# campaign integration: --audit must not move the findings
# ---------------------------------------------------------------------------
class TestCampaignIntegration:
    @pytest.fixture(scope="class")
    def reports(self):
        return flink_campaign(audit=False), flink_campaign(audit=True)

    def test_findings_identical(self, reports):
        base, audited = reports
        assert base.audit is None and audited.audit is not None

        def findings(r):
            return [(v.param, v.is_true_problem, v.category, v.fp_reason,
                     tuple(v.failing_tests)) for v in r.verdicts]
        assert findings(base) == findings(audited)
        assert base.executions == audited.executions
        assert base.machine_time_s == audited.machine_time_s

    def test_report_dict_carries_audit_block(self, reports):
        base, audited = reports
        assert app_report_to_dict(base)["audit"] is None
        block = app_report_to_dict(audited)["audit"]
        assert block["params_total"] == audited.audit.params_total
        json.dumps(block)  # must be JSON-serializable

    def test_markdown_section_only_when_audited(self, reports):
        base, audited = reports
        assert "## Wiring audit" not in app_report_markdown(base)
        assert "## Wiring audit" in app_report_markdown(audited)

    def test_audit_metrics_in_separate_budget(self):
        report = flink_campaign(audit=True, observe=True)
        metrics = report.observation.metrics
        assert metrics.total("zc_audit_probe_executions_total") > 0
        assert metrics.total("zc_audit_params_total") == report.audit.params_total
        # the campaign's own budget is untouched by audit probes
        assert (metrics.total("zc_executions_total")
                + metrics.total("zc_prerun_executions_total")
                == report.executions)
        assert any(s.kind == "audit" for s in report.observation.spans)


# ---------------------------------------------------------------------------
# golden markdown section
# ---------------------------------------------------------------------------
def audit_markdown_section(markdown):
    lines = markdown.splitlines()
    start = lines.index("## Wiring audit")
    end = next(i for i in range(start + 1, len(lines))
               if lines[i].startswith("## "))
    return "\n".join(lines[start:end]) + "\n"


def regenerate_golden_files():
    """import test_audit; test_audit.regenerate_golden_files()"""
    report = flink_campaign(audit=True)
    section = audit_markdown_section(app_report_markdown(report))
    with open(os.path.join(GOLDEN_DIR, "audit_section.md"), "w") as handle:
        handle.write(section)


def audit_digest(stats):
    """sha256 over the full audit output: the stats block plus every
    finding with its read sites, probe count and detail."""
    payload = [stats.to_dict(), [f.to_dict() for f in stats.findings]]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: AuditStats keys that measure the probe economy rather than findings:
#: how a probe was answered (executed, replayed) never changes a verdict.
ECONOMY_KEYS = ("probe_executions", "probe_replays", "probe_conflicts",
                "machine_time_s")


def findings_digest(stats):
    """sha256 over the findings only: the stats block without its probe
    economy counters, plus every finding with its read sites, probe
    count and detail."""
    block = {key: value for key, value in stats.to_dict().items()
             if key not in ECONOMY_KEYS}
    payload = [block, [f.to_dict() for f in stats.findings]]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def regenerate_findings_digests():
    """import test_audit; test_audit.regenerate_findings_digests()

    The committed digests predate read-trie replay.  Regenerate them
    only in a change that means to alter findings."""
    digests = {app: findings_digest(audit_app(app))
               for app in catalog.APP_NAMES}
    with open(os.path.join(GOLDEN_DIR, "audit_findings_digests.json"),
              "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")


def regenerate_audit_digests():
    """import test_audit; test_audit.regenerate_audit_digests()"""
    digests = {app: audit_digest(audit_app(app)) for app in catalog.APP_NAMES}
    with open(os.path.join(GOLDEN_DIR, "audit_digests.json"), "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")


class TestGolden:
    @pytest.mark.parametrize("app", catalog.APP_NAMES)
    def test_findings_match_pre_replay_digest(self, audited, app):
        """Digests generated before read-trie replay existed: replaying
        a probe instead of executing it must not move a single verdict,
        probe count, detail or read site."""
        path = os.path.join(GOLDEN_DIR, "audit_findings_digests.json")
        with open(path) as handle:
            expected = json.load(handle)
        assert findings_digest(audited(app)) == expected[app]

    @pytest.mark.parametrize("app", catalog.APP_NAMES)
    def test_audit_output_matches_golden_digest(self, audited, app):
        """The read path's fast paths (per-conf read view, IPC
        cross-check memo) must not move a single verdict, probe count,
        detail or read-site count."""
        with open(os.path.join(GOLDEN_DIR, "audit_digests.json")) as handle:
            expected = json.load(handle)
        assert audit_digest(audited(app)) == expected[app], (
            "regenerate with 'import test_audit; "
            "test_audit.regenerate_audit_digests()'")

    def test_wiring_audit_section_matches_golden(self):
        report = flink_campaign(audit=True)
        section = audit_markdown_section(app_report_markdown(report))
        with open(os.path.join(GOLDEN_DIR, "audit_section.md")) as expected:
            assert section == expected.read(), (
                "regenerate with 'import test_audit; "
                "test_audit.regenerate_golden_files()'")


# ---------------------------------------------------------------------------
# read-trie replay
# ---------------------------------------------------------------------------
#: probes per app before read-trie replay: (executions, cache hits,
#: collapsed).  Replay may only move a probe from executed to replayed.
PROBES_BEFORE_REPLAY = {
    "flink": (505, 450, 280),
    "hadooptools": (343, 280, 192),
    "hbase": (1488, 1294, 811),
    "hdfs": (3756, 3223, 2187),
    "mapreduce": (528, 484, 310),
    "yarn": (528, 418, 299),
}


def verified_audit(app):
    """Audit ``app``, executing every replayed probe anyway.  Returns the
    stats and the replays whose execution disagreed with the replay."""
    mismatches = []
    probe = WiringAuditor._probe

    def checked_probe(self, profile, assignment, canonical, trie=None):
        replays = self.probe_replays
        result = probe(self, profile, assignment, canonical, trie)
        if self.probe_replays != replays:
            executed, _ = self._execute(profile.test, assignment, None)
            if executed != result:
                mismatches.append((profile.test.full_name, canonical))
        return result

    with mock.patch.object(WiringAuditor, "_probe", checked_probe):
        stats = audit_app(app)
    return stats, mismatches


def assert_replays_sound(app):
    """Every replay equals its execution, no test is caught
    nondeterministic, and replays only replace executions.  The CI audit
    job runs this on hdfs, the slowest app."""
    stats, mismatches = verified_audit(app)
    assert mismatches == []
    assert stats.probe_conflicts == 0
    assert stats.probe_replays > 0
    executions, cache_hits, collapsed = PROBES_BEFORE_REPLAY[app]
    assert stats.probe_executions + stats.probe_replays == executions
    assert stats.probe_cache_hits == cache_hits
    assert stats.probes_collapsed == collapsed


def leaf(tag):
    """A probe leaf for trie-level tests (only identity matters)."""
    return _Probe(fingerprint=tag, ok=True, error_type="", timed_out=False)


def read(owner, name, uninjected, answer):
    return ((owner, 0, name, read_key(uninjected)), read_key(answer))


SAFE_A = "synth.safe-a"  # INT, default 1, candidates (1, 100)

#: executions of ``counter_order_test`` so far: its nondeterminism.
_CALLS = [0]


def counter_order_test(flip):
    """Reads ``synth.safe-a`` through the unit test's conf and the
    service's clone; with ``flip`` the order of the two reads follows a
    module counter, so consecutive executions disagree."""
    def body(ctx):
        _CALLS[0] += 1
        conf = SynthConfiguration()
        # Explicit, so the homogeneous default side is probed, not
        # collapsed onto the baseline.
        conf.set(SAFE_A, 1)
        client_first = not (flip and _CALLS[0] % 2)
        if client_first:
            conf.get_int(SAFE_A)
        Service(conf)
        if not client_first:
            conf.get_int(SAFE_A)

    return UnitTest(app="synth", name="TestSynth.testOrder%s" % flip,
                    fn=body)


def two_conf_test():
    """Two unit-test confs hold different explicit values; only a
    variant that changes the *second* one breaks the test."""
    def body(ctx):
        first = SynthConfiguration()
        first.set(SAFE_A, 1)
        second = SynthConfiguration()
        second.set(SAFE_A, 100)
        Service(first)
        first.get_int(SAFE_A)
        if second.get_int(SAFE_A) != 100:
            raise TestFailure("second conf lost its value")

    return UnitTest(app="synth", name="TestSynth.testTwoConfs", fn=body)


def audit_synth(test):
    auditor = WiringAuditor(SYNTH_REGISTRY, [prerun_test(test)],
                            param_allowed=lambda name: name == SAFE_A)
    return auditor.run()


class TestReplay:
    @pytest.mark.parametrize(
        "app", ["flink", "yarn", "mapreduce", "hadooptools", "hbase"])
    def test_replays_equal_executions(self, app):
        assert_replays_sound(app)

    def test_trie_keys_reads_not_owners(self):
        """Two reads by one owner through confs with different explicit
        values are two trie nodes: a variant that agrees on the first and
        diverges on the second is not the baseline."""
        baseline = [read(UNIT_TEST, SAFE_A, 1, 1),
                    read(UNIT_TEST, SAFE_A, 100, 100)]
        trie = _ReadTrie(frozenset([SAFE_A]), baseline, leaf("base"))
        all_one = HomoAssignment(values=((SAFE_A, 1),))
        assert trie.lookup(all_one) is None
        assert trie.insert([baseline[0], read(UNIT_TEST, SAFE_A, 100, 1)],
                           leaf("second"))
        assert trie.lookup(all_one) == leaf("second")
        assert trie.lookup(HomoAssignment(values=((SAFE_A, 100),))) is None

    def test_second_conf_divergence_found_first(self):
        """The all-defaults homogeneous side agrees with the baseline on
        every read but the second conf's: it must execute, and settle
        WIRED exactly where an audit without replay does."""
        stats = audit_synth(two_conf_test())
        with mock.patch.object(_ReadTrie, "lookup", lambda self, v: None):
            reference = audit_synth(two_conf_test())
        assert stats.findings == reference.findings
        assert stats.verdict_for(SAFE_A) == WIRED
        assert "[Service/cross/homo[0]]" in stats.findings[0].detail

    def test_answers_keyed_by_type_and_repr(self):
        trie = _ReadTrie(frozenset(["p"]), [read(UNIT_TEST, "p", 1, 1)],
                         leaf("base"))
        for same_but_not_equal in (True, 1.0):
            assert trie.lookup(HomoAssignment(
                values=(("p", same_but_not_equal),))) is None
        assert trie.lookup(HomoAssignment(values=(("p", 1),))) == leaf("base")

    def test_uncertain_reads_never_recorded(self):
        agent = ConfAgent(record_usage=True)
        agent.watch = WATCH_ALL
        with agent:
            conf = SynthConfiguration()
            Service(conf)
            late = SynthConfiguration()  # nodes exist: unmappable
            late.get_int("synth.safe-c")
            conf.get_int("synth.safe-c")
        assert UNCERTAIN in agent.usage
        owners = {owner for (owner, _, _, _), _ in agent.watched_reads}
        assert UNCERTAIN not in owners
        assert ((UNIT_TEST, 0, "synth.safe-c", read_key(7)), read_key(7)) \
            in agent.watched_reads

    def test_nondeterministic_test_conflicts_and_never_replays(self):
        stable = audit_synth(counter_order_test(flip=False))
        assert stable.probe_conflicts == 0 and stable.probe_replays > 0
        unstable = audit_synth(counter_order_test(flip=True))
        assert unstable.probe_conflicts == 1
        assert unstable.probe_replays == 0
        # every probe the stable twin replayed was executed instead
        assert unstable.probe_executions == (stable.probe_executions
                                             + stable.probe_replays)
        assert unstable.verdict_for(SAFE_A) == stable.verdict_for(SAFE_A)

    def test_conflicts_are_never_inserted(self):
        trie = _ReadTrie(frozenset(["p"]), [read(UNIT_TEST, "p", 1, 1)],
                         leaf("base"))
        other_read = [read("Service", "p", 1, 5)]
        assert not trie.insert(other_read, leaf("x"))  # different read
        assert not trie.insert([], leaf("x"))  # ends at an internal node
        assert not trie.insert([read(UNIT_TEST, "p", 1, 1)], leaf("x"))
        assert trie.lookup(HomoAssignment(values=(("p", 1),))) == leaf("base")

    def test_unwatched_variant_refused(self):
        trie = _ReadTrie(frozenset([SAFE_A]), [], leaf("base"))
        with pytest.raises(ValueError, match="synth.safe-b"):
            trie.lookup(HomoAssignment(values=((SAFE_A, 1),),
                                       pinned=(("synth.safe-b", False),)))
        pinned = ParamAssignment(param=SAFE_A, group="Service",
                                 group_values=(1,), other_value=100,
                                 pinned=(("synth.safe-c", 7),))
        with pytest.raises(ValueError, match="synth.safe-c"):
            trie.lookup(HeteroAssignment((pinned,)))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def test_audit_subcommand(self, capsys):
        assert main(["audit", "yarn"]) == 0
        out = capsys.readouterr().out
        assert "wiring audit over 'yarn'" in out
        for param in FIXTURES["yarn"]:
            assert param in out

    def test_audit_param_scoping(self, capsys):
        target = "yarn.nodemanager.container-metrics.period-ms"
        assert main(["audit", "yarn", "--param", target]) == 0
        out = capsys.readouterr().out
        assert "1 parameters" in out and target in out

    def test_audit_json(self, tmp_path, capsys):
        # Scoped to the two fixtures: the full HDFS CLI audit runs in the
        # CI audit job, the verdict engine's full sweep in TestGolden.
        path = str(tmp_path / "audit.json")
        argv = ["audit", "hdfs", "--json", path]
        for param in sorted(FIXTURES["hdfs"]):
            argv += ["--param", param]
        assert main(argv) == 0
        capsys.readouterr()
        with open(path) as handle:
            record = json.load(handle)
        assert sorted(record["verdicts"]) == sorted(FIXTURES["hdfs"])
        for param, verdict in FIXTURES["hdfs"].items():
            assert record["verdicts"][param] == verdict

    def test_campaign_audit_flag(self, capsys):
        assert main(["campaign", "flink", "--audit"]) == 0
        out = capsys.readouterr().out
        assert "wiring audit:" in out
