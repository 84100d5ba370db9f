"""Property-based cross-validation of the first-order CQA rewriting.

Random instances over a two-relation schema constrained by the paper's
core tractable class — a primary key on the referenced relation, a
foreign key, and NOT-NULL — are swept with a pool of supported queries;
``method="rewriting"`` must agree with ``method="direct"`` on every one
of them, and ``method="auto"`` must never raise.  The instances are tiny
so that exhaustive repair enumeration stays cheap while still exercising
nulls, dangling references and key conflicts simultaneously.

A second sweep covers the query shapes the compiled join of ``Q'`` must
get right beyond plain projections: comparisons under both null
conventions, constants inside atoms, same-predicate self-joins (where a
residue list read at the wrong body position shows) and queries over a
multi-atom denial set and a check + RIC set.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constraints.atoms import Atom
from repro.constraints.factories import (
    functional_dependency,
    not_null,
    referential_constraint,
)
from repro.constraints.ic import ConstraintSet
from repro.constraints.parser import parse_constraint, parse_query
from repro.constraints.terms import Variable
from repro.core.cqa import consistent_answers
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import DatabaseSchema
from repro.rewriting import RewritingUnsupportedError, rewrite_query


def _v(name):
    return Variable(name)


SCHEMA = DatabaseSchema.from_dict({"R": ["X", "Y"], "S": ["U", "V"]})

#: Example 19's constraint family: key + foreign key + NOT NULL.
CONSTRAINTS = ConstraintSet(
    [
        functional_dependency("R", 2, determinant=[0], dependent=[1], name="r_key")[0],
        referential_constraint(
            Atom("S", (_v("u"), _v("v"))), Atom("R", (_v("v"), _v("y"))), name="s_r_fk"
        ),
        not_null("R", 0, 2, name="r_x_not_null"),
    ]
)

#: Key-only constraint set for the orphan/pinned key modes.
KEY_ONLY = ConstraintSet([parse_constraint("R(x, y), R(x, z) -> y = z")])

SUPPORTED_QUERIES = [
    parse_query("ans(x, y) <- R(x, y)"),
    parse_query("ans(x) <- R(x, y)"),
    parse_query("ans() <- R(x, y)"),
    parse_query("ans(u, v) <- S(u, v)"),
    parse_query("ans(u) <- S(u, v)"),
    parse_query("ans() <- S(u, v), R(v, y)"),
    parse_query("ans(u) <- S(u, v), R(v, y)"),
]

#: One multi-atom denial across both relations.
DENIAL = ConstraintSet([parse_constraint("R(x, y), S(y, z) -> false")])

#: A single-atom check next to a RIC on the same antecedent.
CHECK_AND_RIC = ConstraintSet(
    [parse_constraint("S(u, v) -> u != v"), parse_constraint("S(u, v) -> R(v, y)")]
)

SHAPED_CONSTRAINT_SETS = {"key-fk-nnc": CONSTRAINTS, "denial": DENIAL, "check-ric": CHECK_AND_RIC}

#: Comparisons, constants in atoms, self-joins and cross-relation joins.
SHAPED_QUERIES = [
    parse_query("ans(x, y) <- R(x, y), y != 'a'"),
    parse_query("ans(u, v) <- S(u, v), u = v"),
    parse_query("ans(u, v) <- S(u, v), v > 'a'"),
    parse_query("ans(x) <- R(x, 'a')"),
    parse_query("ans(u, v, w) <- S(u, v), S(w, v)"),
    parse_query("ans(u, w) <- S(u, v), S(w, v)"),
    parse_query("ans(x, y) <- R(x, y), R(y, x)"),
    parse_query("ans(u, v, y) <- S(u, v), R(v, y)"),
    parse_query("ans(x, y, z) <- R(x, y), S(y, z)"),
]

VALUES = st.sampled_from(["a", "b", NULL])


@st.composite
def small_instances(draw):
    """≤ 3 R-facts and ≤ 3 S-facts over a 2-value domain plus null."""

    r_rows = draw(st.lists(st.tuples(VALUES, VALUES), max_size=3))
    s_rows = draw(st.lists(st.tuples(VALUES, VALUES), max_size=3))
    return DatabaseInstance.from_dict({"R": r_rows, "S": s_rows}, schema=SCHEMA)


common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestRewritingAgreesWithEnumeration:
    @common_settings
    @given(small_instances())
    def test_core_class_agreement(self, instance):
        for query in SUPPORTED_QUERIES:
            rewritten = rewrite_query(query, CONSTRAINTS)
            assert rewritten.answers(instance) == consistent_answers(
                instance, CONSTRAINTS, query
            ), query

    @common_settings
    @given(small_instances())
    def test_key_only_agreement(self, instance):
        for text in ["ans(x, y) <- R(x, y)", "ans(x) <- R(x, y)", "ans() <- R(x, y)"]:
            query = parse_query(text)
            rewritten = rewrite_query(query, KEY_ONLY)
            assert rewritten.answers(instance) == consistent_answers(
                instance, KEY_ONLY, query
            ), query

    @common_settings
    @given(small_instances())
    def test_shaped_queries_agree_with_direct(self, instance):
        for name, constraints in SHAPED_CONSTRAINT_SETS.items():
            for query in SHAPED_QUERIES:
                try:
                    rewritten = rewrite_query(query, constraints)
                except RewritingUnsupportedError:
                    continue  # only the orphan self-join under the denial
                for null_is_unknown in (False, True):
                    expected = consistent_answers(
                        instance,
                        constraints,
                        query,
                        method="direct",
                        null_is_unknown=null_is_unknown,
                    )
                    got = rewritten.answers(instance, null_is_unknown=null_is_unknown)
                    assert got == expected, (name, query, null_is_unknown)

    def test_shaped_queries_are_in_the_fragment(self):
        """Every shaped query rewrites under every set but one refusal."""

        refused = []
        for name, constraints in SHAPED_CONSTRAINT_SETS.items():
            for query in SHAPED_QUERIES:
                try:
                    rewrite_query(query, constraints)
                except RewritingUnsupportedError as error:
                    refused.append((name, str(query), error.clause))
        assert refused == [
            ("denial", str(SHAPED_QUERIES[5]), "non-answer-variable-in-denial")
        ]

    @common_settings
    @given(small_instances())
    def test_auto_never_raises(self, instance):
        for query in SUPPORTED_QUERIES:
            try:
                expected = consistent_answers(instance, CONSTRAINTS, query)
            except Exception:
                continue
            got = consistent_answers(
                instance, CONSTRAINTS, query, method="auto"
            )
            assert got == expected, query

    @common_settings
    @given(small_instances())
    def test_formula_rendering_agrees(self, instance):
        """The paper-faithful FO rendering equals the fast evaluator."""

        for text in ["ans(x) <- R(x, y)", "ans(u) <- S(u, v)"]:
            query = parse_query(text)
            rewritten = rewrite_query(query, CONSTRAINTS)
            assert rewritten.to_formula().answers(instance) == rewritten.answers(
                instance
            ), query
