"""Tests for the null-introducing repair semantics (Definitions 6–7, Proposition 1)."""

import pytest

from repro.constraints.factories import not_null
from repro.constraints.ic import ConstraintSet
from repro.constraints.parser import parse_constraint, parse_constraints
from repro.core.repairs import (
    RepairEngine,
    RepairSearchBudgetExceeded,
    brute_force_repairs,
    delta,
    deletion_fixes,
    insertion_fixes,
    leq_d,
    lt_d,
    minimal_under_leq_d,
    repairs,
    restricted_domain,
    within_restricted_domain,
)
from repro.core.satisfaction import is_consistent, violations
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance, Fact


def fact_sets(instances):
    return {instance.fact_set() for instance in instances}


class TestOrderingLeqD:
    """Definition 6 on the instances discussed in Examples 16 and 17."""

    def test_example_16_repairs_are_incomparable(self, all_scenarios):
        scenario = all_scenarios["example_16"]
        original = scenario.instance
        first, second = scenario.expected_repairs
        assert not leq_d(original, first, second)
        assert not leq_d(original, second, first)
        assert not lt_d(original, first, second)

    def test_example_17_null_insertion_dominates_constant_insertion(self, example_17):
        original = example_17.instance
        null_repair = example_17.expected_repairs[0]  # inserts R(b, null)
        constant_version = DatabaseInstance.from_dict(
            {"P": [("a", NULL), ("b", "c")], "R": [("a", "b"), ("b", "d")]},
            schema=original.schema,
        )
        assert lt_d(original, null_repair, constant_version)
        assert not leq_d(original, constant_version, null_repair)

    def test_identity_is_minimal(self):
        db = DatabaseInstance.from_dict({"P": [("a",)]})
        other = DatabaseInstance.from_dict({"P": [("a",), ("b",)]})
        assert leq_d(db, db, other)
        assert not leq_d(db, other, db)
        assert leq_d(db, db, db)

    def test_delta_is_symmetric_difference(self):
        original = DatabaseInstance.from_dict({"P": [("a",), ("b",)]})
        changed = DatabaseInstance.from_dict({"P": [("b",), ("c",)]})
        assert delta(original, changed) == frozenset({Fact("P", ("a",)), Fact("P", ("c",))})

    def test_minimal_under_leq_d_filters_dominated(self, example_17):
        original = example_17.instance
        dominated = DatabaseInstance.from_dict(
            {"P": [("a", NULL), ("b", "c")], "R": [("a", "b"), ("b", "zzz")]},
            schema=original.schema,
        )
        survivors = minimal_under_leq_d(
            original, example_17.expected_repairs + [dominated]
        )
        assert fact_sets(survivors) == fact_sets(example_17.expected_repairs)


class TestFixes:
    def test_deletion_fixes_deduplicate(self):
        ic = parse_constraint("P(x), P(x) -> false")
        db = DatabaseInstance.from_dict({"P": [("a",)]})
        violation = violations(db, ic)[0]
        assert deletion_fixes(violation) == [Fact("P", ("a",))]

    def test_insertion_fixes_fill_existentials_with_null(self):
        ric = parse_constraint("Course(i, c) -> Student(i, n)")
        db = DatabaseInstance.from_dict({"Course": [(34, "C18")]})
        violation = violations(db, ric)[0]
        assert insertion_fixes(violation) == [Fact("Student", (34, NULL))]

    def test_insertion_fixes_for_uic_are_fully_determined(self):
        uic = parse_constraint("P(x, y) -> R(y, x)")
        db = DatabaseInstance.from_dict({"P": [("a", "b")]})
        violation = violations(db, uic)[0]
        assert insertion_fixes(violation) == [Fact("R", ("b", "a"))]

    def test_denial_constraints_have_no_insertion_fixes(self):
        denial = parse_constraint("P(x) -> false")
        db = DatabaseInstance.from_dict({"P": [("a",)]})
        violation = violations(db, denial)[0]
        assert insertion_fixes(violation) == []

    def test_not_null_has_only_deletion_fixes(self):
        nnc = not_null("P", 0, arity=1)
        db = DatabaseInstance.from_dict({"P": [(NULL,)]})
        from repro.core.satisfaction import not_null_violations

        violation = not_null_violations(db, nnc)[0]
        assert insertion_fixes(violation) == []
        assert deletion_fixes(violation) == [Fact("P", (NULL,))]


class TestRepairEnumeration:
    @pytest.mark.parametrize(
        "scenario_name", ["example_14", "example_16", "example_17", "example_18", "example_19"]
    )
    def test_paper_repairs_reproduced(self, all_scenarios, scenario_name):
        scenario = all_scenarios[scenario_name]
        computed = repairs(scenario.instance, scenario.constraints)
        assert fact_sets(computed) == fact_sets(scenario.expected_repairs)

    def test_consistent_database_is_its_own_unique_repair(self, all_scenarios):
        scenario = all_scenarios["example_11"]
        computed = repairs(scenario.instance, scenario.constraints)
        assert len(computed) == 1
        assert computed[0] == scenario.instance

    def test_every_repair_is_consistent_and_in_domain(self, all_scenarios):
        for name in ("example_14", "example_17", "example_18", "example_19"):
            scenario = all_scenarios[name]
            for repair in repairs(scenario.instance, scenario.constraints):
                assert is_consistent(repair, scenario.constraints)
                assert within_restricted_domain(scenario.instance, repair, scenario.constraints)

    def test_statistics_are_populated(self, example_19):
        engine = RepairEngine(example_19.constraints)
        result = engine.repairs(example_19.instance)
        assert engine.statistics.repairs_found == len(result) == 4
        assert engine.statistics.candidates_found >= 4
        assert engine.statistics.states_explored > 0

    def test_budget_exceeded_raises(self, example_19):
        engine = RepairEngine(example_19.constraints, max_states=1)
        with pytest.raises(RepairSearchBudgetExceeded):
            engine.repairs(example_19.instance)

    def test_cascading_ric_chain(self):
        """P → Q → R: repairing by insertion cascades a second null insertion."""

        constraints = parse_constraints(["P(x) -> Q(x, y)", "Q(x, y) -> R(x, z)"])
        db = DatabaseInstance.from_dict({"P": [("a",)]})
        computed = repairs(db, constraints)
        expected_insertion = DatabaseInstance.from_dict(
            {"P": [("a",)], "Q": [("a", NULL)], "R": [("a", NULL)]}
        )
        expected_deletion = DatabaseInstance.from_dict({})
        assert fact_sets(computed) == fact_sets([expected_insertion, expected_deletion])

    def test_key_violation_only_deletions(self):
        key = parse_constraint("R(x, y), R(x, z) -> y = z")
        db = DatabaseInstance.from_dict({"R": [("a", 1), ("a", 2), ("b", 3)]})
        computed = repairs(db, [key])
        assert len(computed) == 2
        for repair in computed:
            assert Fact("R", ("b", 3)) in repair
            assert len(repair) == 2

    def test_empty_database_is_consistent(self):
        constraints = parse_constraints(["P(x) -> Q(x, y)"])
        db = DatabaseInstance()
        computed = repairs(db, constraints)
        assert len(computed) == 1
        assert len(computed[0]) == 0


class TestProposition1:
    def test_restricted_domain_contents(self, example_19):
        domain = restricted_domain(example_19.instance, example_19.constraints)
        assert NULL in domain
        assert "a" in domain and "f" in domain

    def test_repairs_exist_and_are_finitely_many(self, all_scenarios):
        for name in ("example_14", "example_16", "example_17", "example_18", "example_19"):
            scenario = all_scenarios[name]
            computed = repairs(scenario.instance, scenario.constraints)
            assert 1 <= len(computed) < 50


class TestBruteForceCrossValidation:
    def test_tiny_ric_instance(self):
        """Every engine repair is ≤_D-minimal among *all* consistent instances.

        The literal Definition 6 admits additional, incomparable minimal
        instances that contain gratuitous null-padded insertions (see the
        faithfulness notes in DESIGN.md); the engine computes the repairs
        the paper actually lists in its examples, so the assertion is a
        subset check rather than set equality.
        """

        constraints = ConstraintSet([parse_constraint("P(x) -> Q(x, y)")])
        db = DatabaseInstance.from_dict({"P": [("a",)]})
        reference = brute_force_repairs(db, constraints)
        computed = repairs(db, constraints)
        assert fact_sets(computed) <= fact_sets(reference)
        expected = [
            DatabaseInstance.from_dict({}),
            DatabaseInstance.from_dict({"P": [("a",)], "Q": [("a", NULL)]}),
        ]
        assert fact_sets(computed) == fact_sets(expected)

    def test_tiny_denial_instance(self):
        constraints = ConstraintSet([parse_constraint("P(x), Q(x) -> false")])
        db = DatabaseInstance.from_dict({"P": [("a",)], "Q": [("a",)]})
        reference = brute_force_repairs(db, constraints, max_insertable_atoms=6)
        computed = repairs(db, constraints)
        assert fact_sets(reference) == fact_sets(computed)

    def test_budget_guard(self):
        constraints = ConstraintSet([parse_constraint("P(x, y) -> Q(x, y, z)")])
        db = DatabaseInstance.from_dict({"P": [("a", "b"), ("c", "d")]})
        with pytest.raises(ValueError):
            brute_force_repairs(db, constraints, max_insertable_atoms=4)


class TestReferencesAreDeltaMinimalityFree:
    """The ``≤_D`` references filter with :func:`leq_deltas` alone.

    With the production comparator made to raise, the ``naive`` engine,
    :func:`minimal_under_leq_d` and :func:`brute_force_repairs` must
    still run — so a bug in :class:`DeltaMinimality` cannot hide behind
    the oracles it is checked against.
    """

    @pytest.fixture
    def comparator_raises(self, monkeypatch):
        import importlib
        import sys

        repairs_module = importlib.import_module("repro.core.repairs")

        def forbidden(*args, **kwargs):
            raise AssertionError("a reference path reached the production comparator")

        for name in ("DeltaMinimality", "minimal_flags_for_deltas"):
            original = getattr(repairs_module, name)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and (
                    getattr(module, name, None) is original
                ):
                    monkeypatch.setattr(module, name, forbidden)

    def test_naive_engine_and_filter_on_every_paper_scenario(
        self, all_scenarios, comparator_raises
    ):
        for scenario in all_scenarios.values():
            engine = RepairEngine(scenario.constraints, method="naive")
            found = engine.repairs(scenario.instance)
            candidates = engine.candidates(scenario.instance)
            assert fact_sets(minimal_under_leq_d(scenario.instance, candidates)) == (
                fact_sets(found)
            )
            if scenario.expected_repairs:
                assert fact_sets(found) == fact_sets(scenario.expected_repairs)

    def test_brute_force_on_every_paper_scenario(self, all_scenarios, comparator_raises):
        # Every paper scenario exceeds the exhaustive enumerator's atom
        # limit, so the size guard fires before any filtering; the tiny
        # instances below reach the filter.
        for scenario in all_scenarios.values():
            try:
                brute_force_repairs(scenario.instance, scenario.constraints)
            except ValueError as error:
                assert "insertable atoms" in str(error)

    def test_brute_force_filters_tiny_instances(self, comparator_raises):
        ric = ConstraintSet([parse_constraint("P(x) -> Q(x, y)")])
        found = brute_force_repairs(DatabaseInstance.from_dict({"P": [("a",)]}), ric)
        assert {frozenset()} <= fact_sets(found)
        denial = ConstraintSet([parse_constraint("P(x), Q(x) -> false")])
        db = DatabaseInstance.from_dict({"P": [("a",)], "Q": [("a",)]})
        assert len(brute_force_repairs(db, denial, max_insertable_atoms=6)) == 2
