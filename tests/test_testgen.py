"""Unit tests for TestGenerator: values, strategies, assignments (§4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.confagent import NO_OVERRIDE, UNIT_TEST
from repro.core.registry import UnitTest
from repro.core.testgen import (ALL_STRATEGIES, CROSS, CROSS_SWAPPED,
                                DependencyRule, HeteroAssignment,
                                HomoAssignment, ParamAssignment, ROUND_ROBIN,
                                ROUND_ROBIN_SWAPPED, TestGenerator,
                                TestInstance)
from synthetic_app import SYNTH_REGISTRY, no_node_test


@pytest.fixture()
def generator():
    return TestGenerator(SYNTH_REGISTRY)


class TestValueSelection:
    def test_bool_has_one_pair(self, generator):
        pairs = generator.value_pairs(SYNTH_REGISTRY.get("synth.mode"))
        assert pairs == [(True, False)]

    def test_explicit_candidates_pair(self, generator):
        pairs = generator.value_pairs(SYNTH_REGISTRY.get("synth.level"))
        assert pairs == [(10, 1000)]

    def test_pair_cap_respected(self):
        from repro.common.params import INT, ParamRegistry
        registry = ParamRegistry("caps")
        registry.define("p", INT, 5, candidates=(1, 2, 3, 4, 5))
        generator = TestGenerator(registry, max_value_pairs=3)
        assert len(generator.value_pairs(registry.get("p"))) == 3


class TestStrategies:
    def test_single_node_group_has_cross_only(self, generator):
        assert generator.strategies_for_group(1) == [CROSS, CROSS_SWAPPED]

    def test_multi_node_group_adds_round_robin(self, generator):
        assert generator.strategies_for_group(2) == list(ALL_STRATEGIES)

    def test_cross_assignment_values(self, generator):
        param = SYNTH_REGISTRY.get("synth.level")
        assignment = generator.assignment(param, "Service", CROSS, (10, 1000))
        assert assignment.value_for("Service", 0, "synth.level") == 10
        assert assignment.value_for("Service", 5, "synth.level") == 10
        assert assignment.value_for("Other", 0, "synth.level") == 1000
        assert assignment.value_for(UNIT_TEST, 0, "synth.level") == 1000

    def test_cross_swapped_flips(self, generator):
        param = SYNTH_REGISTRY.get("synth.level")
        assignment = generator.assignment(param, "Service", CROSS_SWAPPED,
                                          (10, 1000))
        assert assignment.value_for("Service", 0, "synth.level") == 1000
        assert assignment.value_for(UNIT_TEST, 0, "synth.level") == 10

    def test_round_robin_alternates_within_group(self, generator):
        param = SYNTH_REGISTRY.get("synth.level")
        assignment = generator.assignment(param, "Service", ROUND_ROBIN,
                                          (10, 1000))
        assert assignment.value_for("Service", 0, "synth.level") == 10
        assert assignment.value_for("Service", 1, "synth.level") == 1000
        assert assignment.value_for("Service", 2, "synth.level") == 10
        assert assignment.value_for("Other", 0, "synth.level") == 1000

    def test_round_robin_swapped(self, generator):
        param = SYNTH_REGISTRY.get("synth.level")
        assignment = generator.assignment(param, "Service",
                                          ROUND_ROBIN_SWAPPED, (10, 1000))
        assert assignment.value_for("Service", 0, "synth.level") == 1000
        assert assignment.value_for("Service", 1, "synth.level") == 10
        assert assignment.value_for("Other", 0, "synth.level") == 10

    def test_unknown_strategy_rejected(self, generator):
        with pytest.raises(ValueError):
            generator.assignment(SYNTH_REGISTRY.get("synth.level"), "Service",
                                 "diagonal", (10, 1000))

    def test_other_params_not_touched(self, generator):
        param = SYNTH_REGISTRY.get("synth.level")
        assignment = generator.assignment(param, "Service", CROSS, (10, 1000))
        assert assignment.value_for("Service", 0, "synth.mode") is NO_OVERRIDE


class TestHeteroAssignment:
    def make(self, generator):
        level = generator.assignment(SYNTH_REGISTRY.get("synth.level"),
                                     "Service", CROSS, (10, 1000))
        mode = generator.assignment(SYNTH_REGISTRY.get("synth.mode"),
                                    "Service", CROSS, (True, False))
        return HeteroAssignment((level, mode))

    def test_pooled_lookup_routes_by_param(self, generator):
        assignment = self.make(generator)
        assert assignment.value_for("Service", 0, "synth.level") == 10
        assert assignment.value_for("Service", 0, "synth.mode") is True
        assert assignment.value_for("Service", 0, "synth.safe-a") is NO_OVERRIDE

    def test_duplicate_param_rejected(self, generator):
        unit = generator.assignment(SYNTH_REGISTRY.get("synth.level"),
                                    "Service", CROSS, (10, 1000))
        with pytest.raises(ValueError):
            HeteroAssignment((unit, unit))

    def test_homo_variant_is_uniform(self, generator):
        assignment = self.make(generator)
        for side in range(assignment.sides()):
            homo = assignment.homo_variant(side)
            values = {homo.value_for(entity, index, "synth.level")
                      for entity in ("Service", "Other", UNIT_TEST)
                      for index in range(3)}
            assert len(values) == 1

    def test_homo_sides_cover_both_values(self, generator):
        assignment = self.make(generator)
        sides = {assignment.homo_variant(side).value_for("Service", 0,
                                                         "synth.level")
                 for side in range(assignment.sides())}
        assert sides == {10, 1000}

    def test_subset_filters_params(self, generator):
        assignment = self.make(generator)
        subset = assignment.subset(["synth.mode"])
        assert subset.params == ("synth.mode",)

    @given(st.sampled_from(ALL_STRATEGIES), st.integers(0, 5),
           st.sampled_from(["Service", "Other", UNIT_TEST]))
    @settings(max_examples=60, deadline=None)
    def test_every_entity_gets_one_of_the_pair(self, strategy, index, entity):
        generator = TestGenerator(SYNTH_REGISTRY)
        assignment = generator.assignment(SYNTH_REGISTRY.get("synth.level"),
                                          "Service", strategy, (10, 1000))
        assert assignment.value_for(entity, index, "synth.level") in (10, 1000)

    @given(st.sampled_from(ALL_STRATEGIES))
    @settings(max_examples=10, deadline=None)
    def test_hetero_assignment_is_actually_heterogeneous(self, strategy):
        generator = TestGenerator(SYNTH_REGISTRY)
        assignment = generator.assignment(SYNTH_REGISTRY.get("synth.level"),
                                          "Service", strategy, (10, 1000))
        values = {assignment.value_for(entity, index, "synth.level")
                  for entity in ("Service", UNIT_TEST) for index in range(2)}
        assert values == {10, 1000}


# ---------------------------------------------------------------------------
# value_for against linear first-wins scans
# ---------------------------------------------------------------------------
NAMES = ("p.a", "p.b", "p.c", "p.d")
ENTITIES = ("G", "H", UNIT_TEST)


def param_scan(assignment, node_type, node_index, name):
    """``ParamAssignment.value_for`` as a linear scan: the first pinned
    value of ``name`` wins, then the tested parameter's strategy."""
    for pinned_name, pinned_value in assignment.pinned:
        if name == pinned_name:
            return pinned_value
    if name != assignment.param:
        return NO_OVERRIDE
    if node_type == assignment.group:
        values = assignment.group_values
        return values[node_index % len(values)]
    return assignment.other_value


def hetero_scan(hetero, node_type, node_index, name):
    """The first pooled member that answers wins."""
    for assignment in hetero.assignments:
        value = param_scan(assignment, node_type, node_index, name)
        if value is not NO_OVERRIDE:
            return value
    return NO_OVERRIDE


def homo_scan(homo, name):
    """Pinned companions first, then the uniform values."""
    for param, value in homo.pinned + homo.values:
        if name == param:
            return value
    return NO_OVERRIDE


pairs = st.lists(st.tuples(st.sampled_from(NAMES), st.integers(0, 9)),
                 max_size=5).map(tuple)


@st.composite
def param_assignments(draw, param):
    return ParamAssignment(
        param=param, group=draw(st.sampled_from(("G", "H"))),
        group_values=tuple(draw(st.lists(st.integers(0, 9), min_size=1,
                                         max_size=2))),
        other_value=draw(st.integers(0, 9)), pinned=draw(pairs))


@st.composite
def hetero_assignments(draw):
    params = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3,
                           unique=True))
    return HeteroAssignment(tuple(draw(param_assignments(p))
                                  for p in params))


class TestValueForMatchesLinearScan:
    """The indexed ``value_for`` lookups answer exactly like the
    first-wins scans over the assignment tuples, duplicates included."""

    @given(hetero_assignments())
    @settings(max_examples=150, deadline=None)
    def test_param_and_hetero_lookups(self, hetero):
        for node_type in ENTITIES:
            for node_index in range(3):
                for name in NAMES + ("p.unknown",):
                    for member in hetero.assignments:
                        assert member.value_for(
                            node_type, node_index, name) == param_scan(
                            member, node_type, node_index, name)
                    assert hetero.value_for(
                        node_type, node_index, name) == hetero_scan(
                        hetero, node_type, node_index, name)

    @given(pairs, pairs)
    @settings(max_examples=100, deadline=None)
    def test_homo_lookup(self, values, pinned):
        homo = HomoAssignment(values=values, pinned=pinned)
        for name in NAMES + ("p.unknown",):
            assert homo.value_for("G", 0, name) == homo_scan(homo, name)

    @given(hetero_assignments(), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_homo_variants(self, hetero, side):
        homo = hetero.homo_variant(side)
        for name in NAMES:
            assert homo.value_for(UNIT_TEST, 0, name) == homo_scan(homo, name)


class TestDependencyRules:
    def test_companion_pinned_everywhere(self):
        rules = (DependencyRule("synth.level", 1000, "synth.safe-a", 42),)
        generator = TestGenerator(SYNTH_REGISTRY, dependency_rules=rules)
        assignment = generator.assignment(SYNTH_REGISTRY.get("synth.level"),
                                          "Service", CROSS, (10, 1000))
        assert assignment.value_for("Service", 0, "synth.safe-a") == 42
        assert assignment.value_for(UNIT_TEST, 0, "synth.safe-a") == 42

    def test_unrelated_value_not_pinned(self):
        rules = (DependencyRule("synth.level", 77, "synth.safe-a", 42),)
        generator = TestGenerator(SYNTH_REGISTRY, dependency_rules=rules)
        assignment = generator.assignment(SYNTH_REGISTRY.get("synth.level"),
                                          "Service", CROSS, (10, 1000))
        assert assignment.value_for("Service", 0, "synth.safe-a") is NO_OVERRIDE

    def test_homo_variant_keeps_pins(self):
        rules = (DependencyRule("synth.level", 1000, "synth.safe-a", 42),)
        generator = TestGenerator(SYNTH_REGISTRY, dependency_rules=rules)
        assignment = HeteroAssignment((generator.assignment(
            SYNTH_REGISTRY.get("synth.level"), "Service", CROSS, (10, 1000)),))
        homo = assignment.homo_variant(0)
        assert homo.value_for("Service", 0, "synth.safe-a") == 42


class TestInstanceEnumeration:
    def test_instances_for_profiled_test(self, generator):
        test = no_node_test()
        instances = generator.instances_for_test(
            test, groups={"Service": 2},
            params_by_group={"Service": {"synth.level", "synth.mode"}})
        # 2 params x 1 pair x 4 strategies (group of 2)
        assert len(instances) == 8
        assert all(isinstance(i, TestInstance) for i in instances)

    def test_unknown_params_skipped(self, generator):
        test = no_node_test()
        instances = generator.instances_for_test(
            test, groups={"Service": 1},
            params_by_group={"Service": {"not.a.param"}})
        assert instances == []

    def test_original_count_formula(self, generator):
        per_param = sum(len(generator.value_pairs(p)) for p in SYNTH_REGISTRY)
        expected = 10 * per_param * 2 * 4
        assert generator.count_original_instances(
            10, ["Service", "Client"]) == expected

    def test_original_enumeration_agrees_with_count(self, generator):
        names = ["t%d" % i for i in range(4)]
        node_types = ["Service", "Client"]
        enumerated = list(generator.enumerate_original_instances(
            names, node_types))
        assert len(enumerated) == generator.count_original_instances(
            len(names), node_types)
        # no duplicates in the universe
        assert len(set(enumerated)) == len(enumerated)
        # every tuple is well formed
        test, node_type, strategy, param, pair = enumerated[0]
        assert test in names and node_type in node_types
        assert param in SYNTH_REGISTRY
        assert len(pair) == 2
