"""Tests for the SQLite backend: violation SQL, native acceptance and query SQL."""

import pytest

from repro.constraints.parser import parse_constraint, parse_query
from repro.core.repairs import repairs
from repro.core.satisfaction import satisfies
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance
from repro.sqlbackend.backend import SQLiteBackend, conjunctive_query_sql, violation_sql
from repro.workloads import scenarios


class TestViolationSQL:
    @pytest.mark.parametrize(
        "scenario_name",
        [
            "example_4",
            "example_4_psi2",
            "example_5",
            "example_6",
            "example_9",
            "example_11",
            "example_12",
            "example_13",
            "example_14",
            "example_17",
            "example_19",
        ],
    )
    def test_sql_rewriting_agrees_with_in_memory_semantics(self, all_scenarios, scenario_name):
        """The violation SQL implements |=_N: it flags exactly the violated constraints."""

        scenario = all_scenarios[scenario_name]
        with SQLiteBackend(scenario.instance, scenario.constraints) as backend:
            for constraint in scenario.constraints:
                in_memory = satisfies(scenario.instance, constraint)
                via_sql = not backend.violations(constraint)
                assert in_memory == via_sql, f"{constraint!r} disagrees"

    def test_is_consistent_matches_scenario_verdict(self, all_scenarios):
        for name in ("example_5", "example_6", "example_11", "example_14", "example_19"):
            scenario = all_scenarios[name]
            with SQLiteBackend(scenario.instance, scenario.constraints) as backend:
                assert backend.is_consistent() == scenario.expected_consistent

    def test_not_null_violation_sql(self):
        nnc = parse_constraint("Emp(i, n, s), isnull(s) -> false")
        db = DatabaseInstance.from_dict({"Emp": [(1, "a", NULL), (2, "b", 10)]})
        with SQLiteBackend(db, [nnc]) as backend:
            assert len(backend.violations(nnc)) == 1

    def test_null_constant_in_the_antecedent_matches_null(self):
        """A ``null`` constant renders as ``IS NULL``, never ``= NULL``."""

        from repro import ConsistentDatabase
        from repro.rewriting import ConflictGraph

        constraint = parse_constraint("P(x, null) -> Q(x)")
        db = DatabaseInstance.from_dict({"P": [(1, NULL), (2, 5)], "Q": [(9,)]})
        session = ConsistentDatabase(db, [constraint])
        assert session.violation_count() == 1
        assert session.is_consistent() is False
        with SQLiteBackend(db, [constraint]) as backend:
            assert backend.violations(constraint) == [(1, None)]
            assert backend.is_consistent() is False
        assert ConflictGraph.from_sql(db, [constraint]).violation_count == 1
        assert ConflictGraph.build(db, [constraint]).violation_count == 1

    def test_null_constant_in_a_witness_matches_null(self):
        constraint = parse_constraint("P(x) -> Q(x, null, z)")
        db = DatabaseInstance.from_dict(
            {"P": [(1,), (2,)], "Q": [(1, NULL, 3), (2, 4, 5)]}
        )
        with SQLiteBackend(db, [constraint]) as backend:
            assert backend.violations(constraint) == [(2,)]
        assert not satisfies(db, constraint)

    def test_violation_sql_text_contains_not_exists(self):
        ric = parse_constraint("Course(i, c) -> Student(i, n)")
        db = scenarios.example_14().instance
        sql = violation_sql(ric, db.schema)
        assert "NOT EXISTS" in sql
        assert "IS NOT NULL" in sql


class TestNativeAcceptance:
    def test_consistent_paper_examples_are_accepted(self, all_scenarios):
        for name in ("example_5", "example_6"):
            scenario = all_scenarios[name]
            with SQLiteBackend(scenario.instance, scenario.constraints) as backend:
                assert backend.accepts_natively()

    def test_repairs_are_accepted_natively(self, example_19):
        """The paper's claim: repaired instances pass a commercial engine's checks."""

        for repair in repairs(example_19.instance, example_19.constraints):
            with SQLiteBackend(repair, example_19.constraints) as backend:
                assert backend.accepts_natively()

    def test_inconsistent_instance_is_rejected_natively(self, example_19):
        with SQLiteBackend(example_19.instance, example_19.constraints) as backend:
            assert not backend.accepts_natively()

    def test_example_5_rejected_insert_is_rejected(self):
        scenario = scenarios.example_5()
        extended = scenarios.example_5_rejected_insert()
        with SQLiteBackend(extended, scenario.constraints) as backend:
            assert not backend.accepts_natively()


class TestQuerySQL:
    def test_conjunctive_query_matches_in_memory(self):
        db = scenarios.example_14().instance
        query = parse_query("ans(c) <- Course(i, c), Student(i, n)")
        with SQLiteBackend(db) as backend:
            assert backend.answers(query) == query.answers(db)

    def test_query_with_comparison_and_negation(self):
        db = DatabaseInstance.from_dict(
            {"Emp": [("ann", 120), ("bob", 80)], "Mgr": [("ann",)]}
        )
        query = parse_query("ans(x) <- Emp(x, s), not Mgr(x), s > 50")
        with SQLiteBackend(db) as backend:
            assert backend.answers(query) == frozenset({("bob",)})

    def test_boolean_query(self):
        db = scenarios.example_14().instance
        query = parse_query("ans() <- Course(i, 'C18')")
        with SQLiteBackend(db) as backend:
            assert backend.answers(query) == frozenset({()})

    def test_sql_text_generation(self):
        db = scenarios.example_14().instance
        query = parse_query("ans(c) <- Course(i, c), not Student(i, 'Ann')")
        sql = conjunctive_query_sql(query, db.schema)
        assert sql.startswith("SELECT DISTINCT")
        assert "NOT EXISTS" in sql

    def test_raw_execute(self):
        db = scenarios.example_14().instance
        with SQLiteBackend(db) as backend:
            rows = backend.execute('SELECT COUNT(*) FROM "Course"')
            assert rows == [(2,)]
