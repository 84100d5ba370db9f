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

A third sweep pins the three renderings of every residue's violation
condition to each other — the compiled plans behind
``RewrittenQuery.answers``, the first-order formula of ``to_formula()``
and the SQL ``SQLiteBackend`` runs — over random constraint sets drawn
from a pool inside the fragment (a key of two FDs, RICs, checks,
multi-atom denials and a NOT NULL, several with ``null`` constants).
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
from repro.rewriting import RewritingUnsupportedError, analyze_constraints, rewrite_query
from repro.sqlbackend.backend import SQLiteBackend


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


# --------------------------------------------------------------------------- three renderings
RENDER_SCHEMA = DatabaseSchema.from_dict(
    {"K": ["A", "B", "C"], "S": ["U", "V"], "T": ["X", "Y"], "W": ["P", "Q"], "Z": ["E", "F", "G"]}
)

#: Any subset of this pool that the fragment accepts is a drawn constraint set.
RENDER_POOL = [
    parse_constraint(text)
    for text in (
        "K(a, b, c), K(a, e, f) -> b = e",  # two FDs: one key, two residues
        "K(a, b, c), K(a, e, f) -> c = f",
        "K(a, b, c), isnull(a) -> false",
        "S(u, v) -> K(v, y, z)",
        "S(u, null) -> K(u, y, z)",
        "S(u, v) -> Z(v, y, y)",  # a repeated existential: one shared variable
        "S(u, v) -> u != v",
        "S(null, v) -> false",
        "T(x, y), W(y, z) -> false",
        "T(x, y), T(y, x) -> x = y",
        "T(x, null), W(x, z) -> z = null",
    )
]

RENDER_QUERIES = [
    parse_query(text)
    for text in (
        "ans(a, b, c) <- K(a, b, c)",
        "ans(a) <- K(a, b, c)",
        "ans(a, c) <- K(a, null, c)",
        "ans(u, v) <- S(u, v)",
        "ans(u, v, b, c) <- S(u, v), K(v, b, c)",
        "ans(u) <- S(u, v), K(v, b, c)",
        "ans(x, y) <- T(x, y)",
        "ans(x) <- T(x, null)",
        "ans(x, y, z) <- T(x, y), W(y, z)",
    )
]


@st.composite
def rendered_cases(draw):
    """A fragment constraint set from the pool and a small instance over it."""

    chosen = [c for c in RENDER_POOL if draw(st.booleans())]
    rows = {
        name: draw(st.lists(st.tuples(*[VALUES] * arity), max_size=3))
        for name, arity in (("K", 3), ("S", 2), ("T", 2), ("W", 2), ("Z", 3))
    }
    return chosen, DatabaseInstance.from_dict(rows, schema=RENDER_SCHEMA)


class TestThreeRenderingsAgree:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rendered_cases())
    def test_plans_formula_and_sql_agree(self, case):
        constraints, instance = case
        try:
            analysis = analyze_constraints(constraints)
        except RewritingUnsupportedError:
            return
        with SQLiteBackend(instance, constraints) as backend:
            for query in RENDER_QUERIES:
                try:
                    rewritten = rewrite_query(query, analysis)
                except RewritingUnsupportedError:
                    continue
                in_memory = rewritten.answers(instance)
                assert rewritten.to_formula().answers(instance) == in_memory, query
                assert (
                    backend.consistent_answers(query, rewritten, null_is_unknown=False)
                    == in_memory
                ), query

    def test_the_pool_reaches_every_residue_shape(self):
        """The whole pool is inside the fragment, multi-FD key included."""

        analysis = analyze_constraints(RENDER_POOL)
        assert len(analysis.keys["K"].fds) == 2
        shapes = {
            type(residue).__name__ + str(getattr(residue, "occurrence", ""))
            for query in RENDER_QUERIES
            for atom in rewrite_query(query, analysis).atoms
            for residue in atom.residues
        }
        assert shapes == {"NotNullResidue", "ConstraintResidue0", "ConstraintResidue1"}
