"""Unit tests for ConfAgent: the §6.2 mapping rules and §6.3 machinery."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.common.configuration import Configuration, ref_to_clone
from repro.common.params import INT, ParamRegistry
from repro.core.confagent import (NO_OVERRIDE, UNCERTAIN, UNIT_TEST,
                                  ConfAgent, NullAgent, ThreadOwnershipAgent,
                                  current_agent)
from repro.core.testgen import HeteroAssignment, ParamAssignment


def make_conf_class():
    registry = ParamRegistry("agenttest")
    registry.define("x.alpha", INT, 1)
    registry.define("x.beta", INT, 2)

    class AgentTestConfiguration(Configuration):
        pass

    AgentTestConfiguration.registry = registry
    return AgentTestConfiguration


class FakeNode:
    """Minimal node following the Fig. 2b pattern."""

    node_type = "Server"

    def __init__(self, conf, node_type="Server", make_component_conf=False):
        self.node_type = node_type
        agent = current_agent()
        agent.start_init(self, node_type)
        try:
            self.conf = ref_to_clone(conf)
            if make_component_conf:
                # line 19 of Fig. 2b: a subcomponent creating its own conf
                self.component_conf = type(conf)()
        finally:
            agent.stop_init()


class TestRules:
    def test_rule_1_2_conf_before_nodes_belongs_to_unit_test(self):
        cls = make_conf_class()
        with ConfAgent() as agent:
            conf = cls()
            assert agent._resolve(conf) == (UNIT_TEST, 0)

    def test_rule_1_1_conf_during_init_belongs_to_node(self):
        cls = make_conf_class()
        with ConfAgent() as agent:
            shared = cls()
            node = FakeNode(shared, make_component_conf=True)
            assert agent._resolve(node.component_conf) == ("Server", 0)

    def test_rule_2_ref_to_clone_maps_clone_to_node(self):
        cls = make_conf_class()
        with ConfAgent() as agent:
            shared = cls()
            node = FakeNode(shared)
            assert node.conf is not shared
            assert agent._resolve(node.conf) == ("Server", 0)
            assert agent._resolve(shared) == (UNIT_TEST, 0)

    def test_rule_3_clone_follows_source_owner(self):
        cls = make_conf_class()
        with ConfAgent() as agent:
            shared = cls()
            clone = cls(shared)
            assert agent._resolve(clone) == (UNIT_TEST, 0)

    def test_conf_created_after_nodes_is_uncertain(self):
        cls = make_conf_class()
        with ConfAgent() as agent:
            shared = cls()
            FakeNode(shared)
            late = cls()
            assert agent._resolve(late) == (UNCERTAIN, 0)
            assert agent.has_uncertain_confs()

    def test_node_indexes_count_per_type(self):
        cls = make_conf_class()
        with ConfAgent() as agent:
            shared = cls()
            a = FakeNode(shared, node_type="Server")
            b = FakeNode(shared, node_type="Server")
            c = FakeNode(shared, node_type="Worker")
            assert agent._resolve(a.conf) == ("Server", 0)
            assert agent._resolve(b.conf) == ("Server", 1)
            assert agent._resolve(c.conf) == ("Worker", 0)
            assert agent.started_node_groups() == {"Server": 2, "Worker": 1}

    def test_nested_init_attributes_to_innermost_node(self):
        cls = make_conf_class()
        with ConfAgent() as agent:
            shared = cls()

            class Outer:
                def __init__(self):
                    agent.start_init(self, "Outer")
                    try:
                        self.conf = ref_to_clone(shared)
                        self.inner = FakeNode(shared, node_type="Inner",
                                              make_component_conf=True)
                        self.own_conf = cls()
                    finally:
                        agent.stop_init()

            outer = Outer()
            assert agent._resolve(outer.inner.component_conf) == ("Inner", 0)
            assert agent._resolve(outer.own_conf) == ("Outer", 0)


def alpha_assignment():
    """Servers see x.alpha=100, everyone else 200."""
    return HeteroAssignment((ParamAssignment(
        param="x.alpha", group="Server", group_values=(100,),
        other_value=200),))


class TestInjection:
    def _assignment(self):
        return alpha_assignment()

    def test_node_sees_group_value(self):
        cls = make_conf_class()
        with ConfAgent(assignment=self._assignment()):
            shared = cls()
            node = FakeNode(shared)
            assert node.conf.get("x.alpha") == 100

    def test_unit_test_sees_other_value(self):
        cls = make_conf_class()
        with ConfAgent(assignment=self._assignment()):
            shared = cls()
            FakeNode(shared)
            assert shared.get("x.alpha") == 200

    def test_untargeted_param_not_overridden(self):
        cls = make_conf_class()
        with ConfAgent(assignment=self._assignment()):
            shared = cls()
            node = FakeNode(shared)
            assert node.conf.get("x.beta") == 2

    def test_uncertain_conf_never_injected(self):
        cls = make_conf_class()
        with ConfAgent(assignment=self._assignment()):
            shared = cls()
            FakeNode(shared)
            late = cls()
            assert late.get("x.alpha") == 1  # registry default, no override

    def test_injected_reads_counted(self):
        cls = make_conf_class()
        with ConfAgent(assignment=self._assignment()) as agent:
            shared = cls()
            node = FakeNode(shared)
            node.conf.get("x.alpha")
            assert agent.injected_reads >= 1

    def test_shared_object_reads_attribute_by_object_not_thread(self):
        """The key §6.1 scenario: the unit test calls a node's function on
        the main thread; the read must still resolve to the node."""
        cls = make_conf_class()
        with ConfAgent(assignment=self._assignment()):
            shared = cls()
            node = FakeNode(shared)

            def fun_a():  # node-internal function called by the test
                return node.conf.get("x.alpha")

            assert fun_a() == 100


class TestInterceptSet:
    def test_write_through_to_parent(self):
        cls = make_conf_class()
        with ConfAgent():
            shared = cls()
            node = FakeNode(shared)
            # the node fills in a value; the unit test must see it through
            # its original object (§6.3 interceptSet)
            node.conf.set("x.beta", 77)
            assert shared.get("x.beta") == 77

    def test_unit_test_set_does_not_write_through(self):
        cls = make_conf_class()
        with ConfAgent():
            shared = cls()
            node = FakeNode(shared)
            shared.set("x.beta", 5)
            assert node.conf.get("x.beta") == 2  # clone made before the set


class TestPreRunRecording:
    def test_usage_recorded_per_owner(self):
        cls = make_conf_class()
        with ConfAgent(record_usage=True) as agent:
            shared = cls()
            shared.get("x.alpha")
            node = FakeNode(shared)
            node.conf.get("x.beta")
            assert "x.alpha" in agent.params_used_by(UNIT_TEST)
            assert "x.beta" in agent.params_used_by("Server")

    def test_uncertain_params_recorded(self):
        cls = make_conf_class()
        with ConfAgent(record_usage=True) as agent:
            shared = cls()
            FakeNode(shared)
            late = cls()
            late.get("x.alpha")
            assert "x.alpha" in agent.uncertain_params

    def test_no_recording_without_flag(self):
        cls = make_conf_class()
        with ConfAgent(record_usage=False) as agent:
            conf = cls()
            conf.get("x.alpha")
            assert agent.usage == {}


class TestReadViews:
    """Repeat reads are answered from a per-conf view owned by one agent;
    every input the resolved value depends on must drop the view."""

    def test_repeat_reads_are_counted_into_read_sites(self):
        cls = make_conf_class()
        with ConfAgent(record_usage=True) as agent:
            shared = cls()
            node = FakeNode(shared)
            for _ in range(4):
                node.conf.get("x.beta")
            assert node.conf._view[0] is agent
        assert node.conf._view is None
        assert agent.read_sites[("Server", 0)] == {"x.beta": 4}

    def test_write_drops_the_view(self):
        cls = make_conf_class()
        with ConfAgent():
            conf = cls()
            assert conf.get("x.beta") == 2
            conf.set("x.beta", 7)
            assert conf.get("x.beta") == 7
            conf.unset("x.beta")
            assert conf.get("x.beta") == 2
            conf.raw_set("x.beta", 9)
            assert conf.get("x.beta") == 9

    def test_ownership_change_drops_the_view(self):
        """An uncertain conf is never injected; once Rule 2 moves it to
        the unit test, the next read must see the unit test's value."""
        cls = make_conf_class()
        with ConfAgent(assignment=alpha_assignment(),
                       record_usage=True) as agent:
            FakeNode(cls())
            late = cls()
            assert late.get("x.alpha") == 1
            assert late.get("x.alpha") == 1
            FakeNode(late)
            assert late.get("x.alpha") == 200
            assert late.get("x.alpha") == 200
        assert agent.read_sites[(UNCERTAIN, 0)]["x.alpha"] == 2
        assert agent.read_sites[(UNIT_TEST, 0)]["x.alpha"] == 2

    def test_default_argument_is_never_cached(self):
        cls = make_conf_class()
        with ConfAgent():
            conf = cls()
            assert conf.get("x.unknown", 5) == 5
            assert conf.get("x.unknown", 6) == 6
            assert conf._view is None

    def test_another_agent_never_takes_the_view_over(self):
        cls = make_conf_class()
        with ConfAgent(assignment=alpha_assignment(),
                       record_usage=True) as outer:
            shared = cls()
            node = FakeNode(shared)
            assert node.conf.get("x.alpha") == 100
            with ConfAgent(record_usage=True) as inner:
                # a conf the inner session does not know is uncertain to
                # it; it must resolve on its own, not from outer's view
                assert node.conf.get("x.alpha") == 1
                assert node.conf.get("x.alpha") == 1
                assert node.conf._view[0] is outer
            assert node.conf.get("x.alpha") == 100
        assert inner.read_sites == {(UNCERTAIN, 0): {"x.alpha": 2}}
        assert outer.read_sites[("Server", 0)] == {"x.alpha": 2}

    def test_sessions_on_threads_sharing_a_conf_count_exactly(self):
        """Sessions on several threads read one global conf (uncertain to
        all of them) and race to open views on it; each must still count
        every one of its own reads exactly once."""
        shared = make_conf_class()()
        sessions, reads = 100, 10
        counts, errors = [], []

        def worker():
            try:
                for _ in range(sessions):
                    with ConfAgent(record_usage=True) as agent:
                        for _ in range(reads):
                            shared.get("x.alpha")
                    counts.append(agent.read_sites)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(counts) == 8 * sessions
        assert all(c == {(UNCERTAIN, 0): {"x.alpha": reads}} for c in counts)
        assert shared._view is None

    def test_thread_ownership_agent_never_opens_a_view(self):
        cls = make_conf_class()
        with ThreadOwnershipAgent():
            conf = cls()
            conf.get("x.alpha")
            conf.get("x.alpha")
            assert conf._view is None

    def test_no_view_outside_sessions(self):
        conf = make_conf_class()()
        conf.get("x.alpha")
        assert conf._view is None


class TestScoping:
    def test_null_agent_outside_sessions(self):
        assert isinstance(current_agent(), NullAgent)
        assert current_agent().intercept_get(None, "x") is NO_OVERRIDE

    def test_agent_restored_after_session(self):
        with ConfAgent() as agent:
            assert current_agent() is agent
        assert isinstance(current_agent(), NullAgent)

    def test_sessions_nest(self):
        with ConfAgent() as outer:
            with ConfAgent() as inner:
                assert current_agent() is inner
            assert current_agent() is outer


class TestThreadOwnershipAblation:
    def test_misattributes_test_thread_calls(self):
        """The paper's failed third attempt: node functions called from
        the unit-test thread are attributed to whichever node 'owns' the
        thread — here the first node initialized on it."""
        cls = make_conf_class()
        with ThreadOwnershipAgent() as agent:
            shared = cls()
            first = FakeNode(shared, node_type="Server")
            second = FakeNode(shared, node_type="Worker")
            # a read through the *second* node's conf object...
            resolved = agent._resolve(second.conf)
            # ...is wrongly attributed to the first node (thread owner).
            assert resolved == ("Server", 0)
            assert agent.misattributions >= 1
