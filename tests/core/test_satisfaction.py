"""Tests for the null-aware satisfaction relation |=_N (Definitions 4–5)."""

import pytest

from repro.constraints.factories import not_null
from repro.constraints.parser import parse_constraint, parse_query
from repro.core.satisfaction import (
    all_violations,
    is_consistent,
    not_null_violations,
    satisfies,
    satisfies_via_projection,
    violations,
)
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance, Fact
from repro.workloads import scenarios


class TestPaperVerdicts:
    @pytest.mark.parametrize(
        "scenario_name",
        [
            "example_4",
            "example_4_psi2",
            "example_5",
            "example_6",
            "example_8",
            "example_9",
            "example_11",
            "example_12",
            "example_13",
            "example_14",
            "example_16",
            "example_17",
            "example_18",
            "example_19",
        ],
    )
    def test_scenario_consistency_matches_paper(self, all_scenarios, scenario_name):
        scenario = all_scenarios[scenario_name]
        assert is_consistent(scenario.instance, scenario.constraints) is scenario.expected_consistent

    def test_example_5_rejected_insert(self):
        instance = scenarios.example_5_rejected_insert()
        constraints = scenarios.example_5().constraints
        assert not is_consistent(instance, constraints)

    def test_example_6_rejected_insert(self):
        instance = scenarios.example_6_violating_row()
        constraints = scenarios.example_6().constraints
        assert not is_consistent(instance, constraints)

    def test_example_11_extension_breaks_constraint_a(self):
        scenario = scenarios.example_11()
        extended = scenarios.example_11_extended()
        constraint_a = scenario.constraints[0]
        assert satisfies(scenario.instance, constraint_a)
        assert not satisfies(extended, constraint_a)


class TestViolationEnumeration:
    def test_violation_reports_facts_and_assignment(self):
        ic = parse_constraint("P(x, y) -> R(x)")
        db = DatabaseInstance.from_dict({"P": [("a", "b"), ("c", "d")], "R": [("a",)]})
        found = violations(db, ic)
        assert len(found) == 1
        violation = found[0]
        assert violation.body_facts == (Fact("P", ("c", "d")),)
        assert violation.assignment[next(iter(ic.body_variables() & {v for v in violation.assignment}))] in ("c", "d")

    def test_each_matching_tuple_is_its_own_violation(self):
        """Two P-tuples that agree on the relevant attributes give two violations."""

        ic = parse_constraint("P(x, y, z) -> R(x, y)")
        db = DatabaseInstance.from_dict(
            {"P": [("a", "b", "c1"), ("a", "b", "c2")]}
        )
        assert len(violations(db, ic)) == 2

    def test_null_in_relevant_attribute_suppresses_violation(self):
        ic = parse_constraint("P(x, y) -> R(x)")
        db = DatabaseInstance.from_dict({"P": [(NULL, "b")]})
        assert violations(db, ic) == []

    def test_null_in_irrelevant_attribute_does_not_help(self):
        ic = parse_constraint("P(x, y) -> R(x)")
        db = DatabaseInstance.from_dict({"P": [("a", NULL)]})
        assert len(violations(db, ic)) == 1

    def test_comparison_disjunct_satisfies(self):
        ic = parse_constraint("P(x, y) -> R(x) | y > 10")
        db = DatabaseInstance.from_dict({"P": [("a", 20), ("b", 5)]})
        found = violations(db, ic)
        assert len(found) == 1
        assert found[0].body_facts[0] == Fact("P", ("b", 5))

    def test_join_on_null_uses_constant_semantics(self):
        """Example 12: null joins with null in the antecedent, IsNull guards apply."""

        scenario = scenarios.example_12()
        assert violations(scenario.instance, scenario.constraints[0]) == []

    def test_denial_constraint_violations(self):
        denial = parse_constraint("P(x), Q(x) -> false")
        db = DatabaseInstance.from_dict({"P": [("a",), ("b",)], "Q": [("a",)]})
        found = violations(db, denial)
        assert len(found) == 1
        assert Fact("P", ("a",)) in found[0].body_facts

    def test_all_violations_collects_every_constraint(self):
        constraints = [
            parse_constraint("P(x, y) -> R(x)"),
            not_null("P", 1, arity=2),
        ]
        db = DatabaseInstance.from_dict({"P": [("a", NULL)]})
        found = all_violations(db, constraints)
        assert len(found) == 2  # missing R(a) and the null in P[2]


class TestNotNullConstraints:
    def test_not_null_violation_detection(self):
        nnc = not_null("Emp", 1, arity=2)
        db = DatabaseInstance.from_dict({"Emp": [("a", NULL), ("b", "x")]})
        found = not_null_violations(db, nnc)
        assert len(found) == 1
        assert found[0].body_facts == (Fact("Emp", ("a", NULL)),)
        assert found[0].assignment == {}

    def test_not_null_on_empty_relation(self):
        nnc = not_null("Emp", 0, arity=2)
        assert not_null_violations(DatabaseInstance(), nnc) == []


class TestProjectionCrossValidation:
    """The direct checker and the literal Definition 4 must agree."""

    @pytest.mark.parametrize(
        "scenario_name",
        [
            "example_4",
            "example_4_psi2",
            "example_9",
            "example_11",
            "example_12",
            "example_13",
            "example_17",
            "example_18",
        ],
    )
    def test_direct_equals_projection(self, all_scenarios, scenario_name):
        scenario = all_scenarios[scenario_name]
        for constraint in scenario.constraints.integrity_constraints:
            assert satisfies(scenario.instance, constraint) == satisfies_via_projection(
                scenario.instance, constraint
            )

    def test_null_free_database_matches_classical_reading(self):
        """Without nulls, |=_N coincides with first-order satisfaction."""

        from repro.core.semantics import Semantics, satisfies_under

        ic = parse_constraint("P(x, y) -> R(x)")
        consistent = DatabaseInstance.from_dict({"P": [("a", "b")], "R": [("a",)]})
        inconsistent = DatabaseInstance.from_dict({"P": [("a", "b")]})
        for db in (consistent, inconsistent):
            assert satisfies(db, ic) == satisfies_under(db, ic, Semantics.CLASSICAL)


class TestNaiveOracleIsKernelFree:
    """The ``naive=True`` reference never reaches the compiled kernel.

    Lint rule INV004 only checks imports; this pins the runtime
    property the equivalence suites rely on.  With every kernel entry
    point and the generated-executor factory made to raise, the naive
    violation sweep and the naive query evaluator must still answer on
    every paper scenario.
    """

    @pytest.fixture(autouse=True)
    def _kernel_raises(self, monkeypatch):
        from repro.compile import codegen, kernel

        def refuse(*args, **kwargs):
            raise AssertionError("the naive reference path reached the kernel")

        for name in ("compiled_constraint", "compiled_body", "compiled_query", "compile_program"):
            monkeypatch.setattr(kernel, name, refuse)
        monkeypatch.setattr(codegen, "matcher", refuse)

    def test_patches_are_live(self):
        instance = DatabaseInstance.from_dict({"P": [("a",)]})
        with pytest.raises(AssertionError, match="reached the kernel"):
            violations(instance, parse_constraint("P(x) -> Q(x)"))

    @pytest.mark.parametrize("scenario_name", sorted(scenarios.all_scenarios()))
    def test_naive_paths_answer_without_the_kernel(self, all_scenarios, scenario_name):
        scenario = all_scenarios[scenario_name]
        instance = scenario.instance
        found = all_violations(instance, scenario.constraints, naive=True)
        if scenario.expected_consistent is not None:
            assert (not found) == scenario.expected_consistent
        for predicate in sorted(instance.predicates):
            variables = ", ".join(f"x{i}" for i in range(instance.schema.arity(predicate)))
            query = parse_query(f"ans({variables}) <- {predicate}({variables})")
            for null_is_unknown in (False, True):
                answers = query.answers(instance, null_is_unknown=null_is_unknown, naive=True)
                assert answers == frozenset(instance.tuples(predicate))
