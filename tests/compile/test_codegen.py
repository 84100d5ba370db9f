"""repro.compile.codegen: generated executors, caching, cancellation, naive agreement."""

import pytest

from repro.compile import codegen
from repro.compile.kernel import compiled_constraint, compiled_query
from repro.constraints.parser import parse_constraint, parse_query
from repro.core.satisfaction import violations
from repro.errors import QueryCancelledError
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance, Fact
from repro.resilience import Budget, using_budget


FD = "Emp(e, d, s), Emp(e, f, t) -> d = f"


def _instance():
    return DatabaseInstance.from_dict(
        {
            "Emp": [
                ("a", "sales", 1),
                ("a", "hr", 2),
                ("b", "sales", 3),
                ("c", NULL, 4),
            ]
        }
    )


def _run(plan, executor, instance, seed_row=None):
    """Every match an executor yields, as (slots, rows) snapshots."""

    slots = [None] * plan.n_slots
    rows = [None] * plan.n_atoms
    return [
        (tuple(slots), tuple(rows))
        for _ in executor(instance, slots, rows, seed_row=seed_row)
    ]


def _violating_pairs(matches):
    """The body-fact pairs of FD matches whose built-in ``d = f`` fails."""

    return {
        (Fact("Emp", first), Fact("Emp", second))
        for _, (first, second) in matches
        if first[1] != second[1]
    }


class TestMatcherCaching:
    def test_generated_executor_is_cached_on_the_plan(self):
        plan = compiled_constraint(parse_constraint(FD)).full_plan
        first = codegen.matcher(plan)
        assert codegen.matcher(plan) is first
        assert hasattr(first, "__repro_source__")

    def test_statistics_count_each_plan_once(self):
        constraint = parse_constraint("Uniq(u, v), Uniq(u, w) -> v = w")
        plan = compiled_constraint(constraint).full_plan
        before = codegen.codegen_statistics().plans_generated
        codegen.matcher(plan)
        after_first = codegen.codegen_statistics().plans_generated
        codegen.matcher(plan)
        assert codegen.codegen_statistics().plans_generated == after_first
        assert after_first >= before


class TestGeneratedSource:
    def test_source_structure(self):
        plan = compiled_constraint(parse_constraint(FD)).full_plan
        source = codegen.generated_source(plan)
        assert source.startswith("def _plan_matches(")
        # Two body atoms unroll to two nested loops over the same relation.
        assert source.count("in _tm(") == 2
        # One budget checkpoint per join descent.
        assert "_budget.checkpoint()" in source
        assert "yield" in source

    def test_constants_inline_through_the_namespace(self):
        plan = compiled_constraint(
            parse_constraint("T(x, 'fixed') -> false")
        ).full_plan
        source = codegen.generated_source(plan)
        assert "_k0" in source or "probe" in source

    def test_query_plans_generate_too(self):
        plan = compiled_query(parse_query("ans(e) <- Emp(e, d, s)")).plan
        assert "def _plan_matches(" in codegen.generated_source(plan)


class TestExecutorEquivalence:
    """Each match's ``rows`` against the ``naive=True`` oracle."""

    def test_full_plan_rows_are_the_naive_violations(self):
        constraint = parse_constraint(FD)
        plan = compiled_constraint(constraint).full_plan
        instance = _instance()
        matches = _run(plan, codegen.matcher(plan), instance)
        naive = {v.body_facts for v in violations(instance, constraint, naive=True)}
        assert _violating_pairs(matches) == naive
        assert naive  # the instance has an FD conflict
        # The relevant-attribute guard rejects the null department in the join.
        assert all(NULL not in row for _, rows in matches for row in rows)

    def test_seed_plans_rows_are_the_naive_violations(self):
        constraint = parse_constraint(FD)
        unit = compiled_constraint(constraint)
        instance = _instance()
        naive = violations(instance, constraint, naive=True)
        for index, seed_plan in unit.seed_plans.items():
            for fact in instance.facts():
                matches = _run(
                    seed_plan, codegen.matcher(seed_plan), instance, seed_row=fact.values
                )
                assert all(rows[index] == fact.values for _, rows in matches)
                assert _violating_pairs(matches) == {
                    v.body_facts for v in naive if v.body_facts[index] == fact
                }

    def test_query_plan_rows_are_the_naive_answers(self):
        query = parse_query("ans(e, d) <- Emp(e, d, s)")
        plan = compiled_query(query).plan
        instance = _instance()
        matches = _run(plan, codegen.matcher(plan), instance)
        answers = {(row[0], row[1]) for _, (row,) in matches}
        assert answers == query.answers(instance, naive=True)
        assert ("c", NULL) in answers  # query plans carry no null guards

    def test_missing_relation_yields_nothing(self):
        plan = compiled_constraint(parse_constraint(FD)).full_plan
        empty = DatabaseInstance.from_dict({"Dept": [("sales",)]})
        assert _run(plan, codegen.matcher(plan), empty) == []

    def test_seed_row_of_wrong_arity_yields_nothing(self):
        unit = compiled_constraint(parse_constraint(FD))
        seed_plan = unit.seed_plans[0]
        assert _run(seed_plan, codegen.matcher(seed_plan), _instance(), seed_row=("x",)) == []


class TestCancellation:
    """The ambient budget is checked once per join descent, and only there."""

    INSTANCE = {
        "P": [("a", "b"), ("c", "d")],
        "R": [("b", "e"), ("d", "f")],
        "T": [("e", "g")],
    }

    @staticmethod
    def _cancelled():
        budget = Budget()
        budget.cancel()
        return using_budget(budget)

    def test_a_full_sweep_stops_at_its_first_descent(self):
        plan = compiled_constraint(parse_constraint("P(x, y), R(y, z) -> false")).full_plan
        instance = DatabaseInstance.from_dict(self.INSTANCE)
        assert len(_run(plan, codegen.matcher(plan), instance)) == 2
        with self._cancelled():
            with pytest.raises(QueryCancelledError):
                _run(plan, codegen.matcher(plan), instance)

    def test_a_seeded_plan_that_descends_stops(self):
        unit = compiled_constraint(parse_constraint("P(x, y), R(y, z), T(z, w) -> false"))
        instance = DatabaseInstance.from_dict(self.INSTANCE)
        seed = Fact("P", ("a", "b"))
        assert len(list(unit.seeded_violations(instance, seed))) == 1
        with self._cancelled():
            with pytest.raises(QueryCancelledError):
                list(unit.seeded_violations(instance, seed))

    def test_a_one_step_seeded_plan_never_descends_so_never_checks(self):
        # Documented contract: the checkpoint runs only before a descent,
        # so a seeded plan with one remaining step is bounded by one probe.
        unit = compiled_constraint(parse_constraint("P(x, y), R(y, z) -> false"))
        instance = DatabaseInstance.from_dict(self.INSTANCE)
        seed = Fact("P", ("a", "b"))
        with self._cancelled():
            assert len(list(unit.seeded_violations(instance, seed))) == 1
