"""The rewriting itself: equality with repair enumeration, refusals, renderings."""

import pytest

from repro.constraints.parser import parse_constraint, parse_query
from repro.core.cqa import consistent_answers
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance
from repro.rewriting import (
    RewritingUnsupportedError,
    rewrite_query,
)
from repro.workloads import (
    foreign_key_workload,
    grouped_key_workload,
    scaled_course_student,
    scenarios,
)


KEY = parse_constraint("R(x, y), R(x, z) -> y = z")


def _generic_queries(instance):
    """A small battery of queries per relation of *instance*."""

    queries = []
    for predicate in instance.predicates:
        arity = instance.schema.arity(predicate)
        variables = ", ".join(f"x{i}" for i in range(arity))
        queries.append(parse_query(f"ans({variables}) <- {predicate}({variables})"))
        queries.append(parse_query(f"ans() <- {predicate}({variables})"))
        queries.append(parse_query(f"ans(x0) <- {predicate}({variables})"))
    return queries


class TestEqualityWithEnumeration:
    @pytest.mark.parametrize("name", sorted(scenarios.all_scenarios()))
    def test_every_scenario(self, name):
        """Cross-validation against ``direct`` on every paper scenario.

        Scenarios outside the fragment must raise (and are counted), never
        disagree.
        """

        scenario = scenarios.all_scenarios()[name]
        for query in _generic_queries(scenario.instance):
            try:
                rewritten = rewrite_query(query, scenario.constraints)
            except RewritingUnsupportedError:
                continue
            expected = consistent_answers(
                scenario.instance, scenario.constraints, query
            )
            assert rewritten.answers(scenario.instance) == expected, query

    def test_supported_scenarios_include_the_core_class(self):
        """Example 5, 14, 17 and 19 (key + FK + NNC) must be in the fragment."""

        for name in ["example_5", "example_14", "example_17", "example_19"]:
            scenario = scenarios.all_scenarios()[name]
            query = _generic_queries(scenario.instance)[0]
            rewrite_query(query, scenario.constraints)  # must not raise

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: foreign_key_workload(
                n_parents=8, n_children=12, violation_ratio=0.2, null_ratio=0.2, seed=11
            ),
            lambda: grouped_key_workload(n_groups=3, group_size=2, n_clean=8, seed=11),
            lambda: scaled_course_student(n_courses=12, dangling_ratio=0.25, seed=11),
        ],
    )
    def test_synthetic_workloads(self, factory):
        instance, constraints = factory()
        for query in _generic_queries(instance):
            try:
                rewritten = rewrite_query(query, constraints)
            except RewritingUnsupportedError:
                continue
            expected = consistent_answers(instance, constraints, query)
            assert rewritten.answers(instance) == expected, query

    def test_join_through_the_key(self):
        """FK-join queries (child joined to the parent key) are supported."""

        instance, constraints = foreign_key_workload(
            n_parents=8, n_children=16, violation_ratio=0.3, null_ratio=0.2, seed=2
        )
        query = parse_query("ans(c) <- Child(c, p, d), Parent(p, q)")
        rewritten = rewrite_query(query, constraints)
        assert rewritten.answers(instance) == consistent_answers(
            instance, constraints, query
        )

    def test_null_answers_are_preserved(self):
        instance = DatabaseInstance.from_dict(
            {"R": [("a", NULL), ("a", "b"), ("c", NULL)]}
        )
        query = parse_query("ans(x, y) <- R(x, y)")
        rewritten = rewrite_query(query, [KEY])
        expected = consistent_answers(instance, [KEY], query)
        assert rewritten.answers(instance) == expected
        # R(a, null) never conflicts under |=_N, R(c, null) is alone.
        assert ("a", NULL) in expected and ("c", NULL) in expected


class TestRefusedQueries:
    def test_negated_atoms(self):
        query = parse_query("ans(x) <- R(x, y), not S(x)")
        with pytest.raises(RewritingUnsupportedError, match="negated"):
            rewrite_query(query, [KEY])

    def test_first_order_queries(self):
        from repro.logic.formula import AtomFormula
        from repro.logic.queries import FirstOrderQuery
        from repro.constraints.atoms import Atom
        from repro.constraints.terms import Variable

        x = Variable("x")
        query = FirstOrderQuery((x,), AtomFormula(Atom("R", (x, x))))
        with pytest.raises(RewritingUnsupportedError, match="conjunctive"):
            rewrite_query(query, [KEY])

    def test_join_through_a_nonkey_position(self):
        query = parse_query("ans() <- R(a, y), S(y)")
        with pytest.raises(RewritingUnsupportedError, match="joined"):
            rewrite_query(query, [KEY])

    def test_comparison_on_a_nonkey_position(self):
        query = parse_query("ans() <- R(a, y), y > 5")
        with pytest.raises(RewritingUnsupportedError, match="joined, compared"):
            rewrite_query(query, [KEY])

    def test_mixed_pinned_and_unpinned_nonkey_positions(self):
        key3 = parse_constraint("T(x, y, z), T(x, u, w) -> y = u")
        key3b = parse_constraint("T(x, y, z), T(x, u, w) -> z = w")
        query = parse_query("ans(y) <- T(x, y, z)")
        with pytest.raises(RewritingUnsupportedError, match="mixes"):
            rewrite_query(query, [key3, key3b])

    def test_unpinned_atom_over_a_denial_predicate(self):
        denial = parse_constraint("P(x), P(y) -> x = y")
        # P(x), P(y) -> x = y is FD-shaped?  No: single-position atoms have
        # no determinant, so it lands in the multi-atom denial bucket.
        query = parse_query("ans() <- P(x)")
        with pytest.raises(RewritingUnsupportedError, match="answer variable"):
            rewrite_query(query, [denial])

    def test_unpinned_key_atom_over_a_ric_antecedent(self):
        """Regression: a keyed RIC antecedent can lose a whole key group.

        With ``E = {(a,b,w), (a,c,null)}`` and no ``Q(c,·)``, the repair
        that resolves the key conflict by deleting ``(a,b,w)`` and then
        deletes the dangling ``(a,c,null)`` empties the group (its delta
        is ``≤_D``-incomparable thanks to the null), so ``ans(x)`` has no
        certain answer — group survival does not hold and the unpinned
        rewriting must refuse.
        """

        instance = DatabaseInstance.from_dict(
            {"E": [("a", "b", "w"), ("a", "c", NULL)], "Q": [("b", "q")]}
        )
        key = parse_constraint("E(k, d, u), E(k, e, v) -> d = e", name="a_key")
        ric = parse_constraint("E(k, d, u) -> Q(d, z)", name="z_ric")
        query = parse_query("ans(x) <- E(x, y, u)")
        with pytest.raises(RewritingUnsupportedError, match="antecedent"):
            rewrite_query(query, [key, ric])
        assert consistent_answers(
            instance, [key, ric], query, method="auto"
        ) == consistent_answers(instance, [key, ric], query)
        # The fully pinned query over the same predicate stays supported.
        pinned = parse_query("ans(x, y, u) <- E(x, y, u)")
        rewritten = rewrite_query(pinned, [key, ric])
        assert rewritten.answers(instance) == consistent_answers(
            instance, [key, ric], pinned
        )

    def test_head_variables_make_denial_atoms_supported(self):
        denial = parse_constraint("P(x), P(y) -> x = y")
        instance = DatabaseInstance.from_dict({"P": [("a",), ("b",)]})
        query = parse_query("ans(x) <- P(x)")
        rewritten = rewrite_query(query, [denial])
        assert rewritten.answers(instance) == consistent_answers(
            instance, [denial], query
        )


class TestRenderings:
    def test_formula_rendering_matches_fast_evaluator(self):
        scenario = scenarios.example_19()
        for query in _generic_queries(scenario.instance):
            try:
                rewritten = rewrite_query(query, scenario.constraints)
            except RewritingUnsupportedError:
                continue
            formula_answers = rewritten.to_formula().answers(scenario.instance)
            assert formula_answers == rewritten.answers(scenario.instance), query

    def test_explain_mentions_modes(self):
        instance, constraints = foreign_key_workload(seed=0)
        query = parse_query("ans(c) <- Child(c, p, d), Parent(p, q)")
        rewritten = rewrite_query(query, constraints)
        text = rewritten.explain()
        assert "key-group" in text  # parent atom: unpinned non-key position
        assert "no-violation[child_parent_fk#0]" in text  # child atom carries the FK residue

    def test_modes_depend_on_pinning(self):
        query_pinned = parse_query("ans(x, y) <- R(x, y)")
        query_group = parse_query("ans(x) <- R(x, y)")
        assert rewrite_query(query_pinned, [KEY]).atoms[0].mode == "key-pinned"
        assert rewrite_query(query_group, [KEY]).atoms[0].mode == "key-group"


class TestCompiledJoin:
    """``Q'`` runs on the compiled query plan; residues filter complete matches."""

    def test_residues_run_only_on_complete_matches(self, monkeypatch):
        from repro.rewriting import residues

        calls = []
        for cls in (residues.ConstraintResidue, residues.NotNullResidue):
            original = cls.holds

            def counted(self, row, instance, _original=original):
                calls.append(row)
                return _original(self, row, instance)

            monkeypatch.setattr(cls, "holds", counted)
        constraints = [
            KEY,
            parse_constraint("S(u, v) -> R(v, w)"),
            parse_constraint("R(x, y), isnull(x) -> false"),
        ]
        # Every S row dangles and no S row joins an R row, so the base
        # join is empty even though both relations have rows that carry
        # residues.
        instance = DatabaseInstance.from_dict(
            {"R": [("a", "b"), ("a", "c")], "S": [("s1", "z"), ("s2", NULL)]}
        )
        query = parse_query("ans(u, v, y) <- S(u, v), R(v, y)")
        rewritten = rewrite_query(query, constraints)
        assert all(rewriting.residues for rewriting in rewritten.atoms)
        assert rewritten.answers(instance) == frozenset()
        assert calls == []
        # With a joining pair the residues do run, once per distinct row.
        joined = DatabaseInstance.from_dict({"R": [("a", "b")], "S": [("s1", "a"), ("s2", "a")]})
        assert rewritten.answers(joined) == {("s1", "a", "b"), ("s2", "a", "b")}
        assert sorted(calls) == sorted(
            [("s1", "a"), ("s2", "a")]  # the RIC on S
            + [("a", "b")] * 2  # the key and the NOT NULL on R
        )

    def test_a_fresh_session_compiles_nothing(self):
        from repro import ConsistentDatabase
        from repro.compile.codegen import codegen_statistics
        from repro.compile.kernel import compiler_statistics

        instance, constraints = foreign_key_workload(
            n_parents=6, n_children=10, violation_ratio=0.3, null_ratio=0.2, seed=5
        )
        query = parse_query("ans(c, q) <- Child(c, p, d), Parent(p, q)")
        first = ConsistentDatabase(instance, constraints).consistent_answers(
            query, method="rewriting"
        )
        before = compiler_statistics().snapshot()
        plans_before = codegen_statistics().plans_generated
        second = ConsistentDatabase(instance, constraints).consistent_answers(
            query, method="rewriting"
        )
        assert second == first
        assert compiler_statistics() == before
        assert codegen_statistics().plans_generated == plans_before

    def test_a_cancelled_budget_stops_the_join(self):
        from repro.errors import QueryCancelledError
        from repro.resilience import Budget, using_budget

        instance = DatabaseInstance.from_dict(
            {"S": [("a", "b"), ("c", "d")], "T": [("b", "e"), ("d", "f")]}
        )
        query = parse_query("ans(u, w) <- S(u, v), T(v, w)")
        rewritten = rewrite_query(query, [KEY])
        assert not any(rewriting.residues for rewriting in rewritten.atoms)
        assert rewritten.answers(instance) == {("a", "e"), ("c", "f")}
        budget = Budget()
        budget.cancel()
        with using_budget(budget):
            with pytest.raises(QueryCancelledError):
                rewritten.answers(instance)
