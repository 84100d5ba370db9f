"""Generated executors ≡ naive.

The compiled kernel runs every join plan through the per-plan generated
Python closures of :mod:`repro.compile.codegen`, the one plan executor.
This suite drives the public entry points and pins them against the
``naive=True`` nested-loop reference, which never touches the kernel, so
the oracle can never become circular.  Payloads (bindings, body facts),
seeded delta plans (against the naive violations that use the seeded
fact), binding-pattern plans (against the naive violations agreeing
with the pre-bound values) and query answers under both null
conventions are compared, on the paper scenarios, the null-heavy
generated workloads, fixed emitter cases and hypothesis-random
instances.

The emitter cases exercise each field :func:`codegen._generate`
specialises, so a dropped check fails a deterministic test: within-atom
repeated variables (``eq``) in an outer and in the innermost step, an
in-atom constant as a hoisted and as a mixed probe (``const``), a seed
atom carrying both, and pre-bound slots (``initial``/``initial_guard``).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compile import codegen
from repro.constraints.ic import ConstraintSet, NotNullConstraint
from repro.constraints.parser import parse_constraint, parse_query
from repro.compile.kernel import compiled_constraint
from repro.core.satisfaction import all_violations, violations
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance, Fact
from repro.workloads import (
    foreign_key_workload,
    grouped_key_workload,
    key_violation_workload,
    scenarios,
)

WORKLOADS = {
    "foreign_key_null_heavy": lambda: foreign_key_workload(
        n_parents=4, n_children=10, violation_ratio=0.5, null_ratio=0.4, seed=5
    ),
    "key_violation_null_heavy": lambda: key_violation_workload(
        n_rows=12, duplicate_ratio=0.4, null_ratio=0.4, seed=7
    ),
    "grouped_key": lambda: grouped_key_workload(
        n_groups=3, group_size=3, n_clean=6, seed=11
    ),
}


def emitter_instance():
    """Rows that a dropped ``eq``/``const`` check or guard would let through."""

    return DatabaseInstance.from_dict(
        {
            "P": [("a", "a"), ("a", "b"), ("b", "b"), ("c", "d"), (NULL, NULL)],
            "R": [("a", 1), ("b", NULL), ("c", 2), ("d", 3), (NULL, 4)],
            "S": [
                ("a", "a", "k"),
                ("a", "b", "k"),
                ("b", "b", "j"),
                ("c", "e", "e"),
                ("c", "f", "g"),
                ("d", NULL, NULL),
            ],
            "T": [("a", "k"), ("b", "j"), ("c", "k"), (NULL, "k"), (1, "k")],
        }
    )


#: Fixed cases for the emitter's specialised fields, one constraint set each.
EMITTER_CASES = {
    # eq in the outer step (P is scheduled first) and, through the
    # seed plans pinned at P, in the seed matcher.
    "emitter_eq_outer": ["P(x, x), R(x, y) -> false"],
    # eq in the innermost step: S is joined after R binds x.
    "emitter_eq_innermost": ["R(x, y), S(x, z, z) -> false"],
    # A constant-only probe (hoisted dict) and a constant next to a
    # bound slot (dict display rebuilt per descent): P and T tie on one
    # constant each, so P goes first and T is probed with x bound.
    "emitter_const": ["T(x, 'k') -> P(x, y)", "P(x, 'b'), T(x, 'k') -> false"],
    # A seed atom with both a repeated variable and a constant.
    "emitter_seed_eq_const": ["S(x, x, 'k'), R(x, y) -> false"],
}


def all_cases():
    for name, scenario in sorted(scenarios.all_scenarios().items()):
        yield name, scenario.instance, scenario.constraints
    for name, factory in WORKLOADS.items():
        instance, constraints = factory()
        yield name, instance, constraints
    for name, texts in EMITTER_CASES.items():
        yield name, emitter_instance(), ConstraintSet(
            [parse_constraint(text) for text in texts]
        )


CASES = list(all_cases())
CASE_IDS = [name for name, _, _ in CASES]


def partial_oracle(naive, partial):
    """The *naive* violations whose assignment agrees with *partial*."""

    return {
        v
        for v in naive
        if all(v.assignment[variable] == value for variable, value in partial.items())
    }


# --------------------------------------------------------------------------- violations
@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_violations_match_naive(name, instance, constraints):
    for constraint in constraints:
        reference = set(violations(instance, constraint, naive=True))
        result = violations(instance, constraint)
        assert set(result) == reference, (name, constraint)
        assert len(result) == len(set(result)), (name, constraint)
    assert set(all_violations(instance, constraints)) == set(
        all_violations(instance, constraints, naive=True)
    ), name


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_violation_payloads_match_naive(name, instance, constraints):
    """Bindings and body_facts — not just equality as opaque objects."""

    for constraint in constraints:
        by_key = {
            (v.bindings, v.body_facts)
            for v in violations(instance, constraint, naive=True)
        }
        for violation in violations(instance, constraint):
            assert (violation.bindings, violation.body_facts) in by_key, name
            assert len(violation.body_facts) == (
                1
                if isinstance(constraint, NotNullConstraint)
                else len(constraint.body)
            )


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_seeded_delta_plans_match_naive(name, instance, constraints):
    for constraint in constraints:
        if isinstance(constraint, NotNullConstraint):
            continue
        naive = violations(instance, constraint, naive=True)
        unit = compiled_constraint(constraint)
        for fact in instance.facts():
            reference = {v for v in naive if fact in v.body_facts}
            result = set(unit.seeded_violations(instance, fact))
            assert result == reference, (name, constraint, fact)


@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_binding_pattern_plans_match_naive(name, instance, constraints):
    """``violations_under``: pre-bound slots, with their null guards.

    Each body variable alone is pre-bound to every value of the active
    domain and to ``null``; each head atom's variable set (the pattern
    the tracker's lost-witness re-enumeration pins) to the values of
    every naive violation and to all-``null``.
    """

    domain = sorted(
        {value for fact in instance.facts() for value in fact.values} | {NULL}, key=repr
    )
    for constraint in constraints:
        if isinstance(constraint, NotNullConstraint):
            continue
        naive = violations(instance, constraint, naive=True)
        unit = compiled_constraint(constraint)
        body_variables = sorted(constraint.body_variables(), key=lambda v: v.name)
        partials = [{variable: value} for variable in body_variables for value in domain]
        for atom in constraint.head_atoms:
            pattern = [v for v in body_variables if v in set(atom.variables())]
            if not pattern:
                continue
            partials.append({variable: NULL for variable in pattern})
            for violation in naive:
                partials.append(
                    {variable: violation.assignment[variable] for variable in pattern}
                )
        for partial in partials:
            result = set(unit.violations_under(instance, partial))
            assert result == partial_oracle(naive, partial), (name, constraint, partial)


# --------------------------------------------------------------------------- queries
@pytest.mark.parametrize("name,instance,constraints", CASES, ids=CASE_IDS)
def test_query_answers_match_naive(name, instance, constraints):
    for predicate in sorted(instance.predicates):
        arity = instance.schema.arity(predicate)
        variables = ", ".join(f"x{i}" for i in range(arity))
        for text in (
            f"ans({variables}) <- {predicate}({variables})",
            f"ans(x0) <- {predicate}({variables})",
        ):
            query = parse_query(text)
            for null_is_unknown in (False, True):
                result = query.answers(instance, null_is_unknown=null_is_unknown)
                reference = query.answers(
                    instance, null_is_unknown=null_is_unknown, naive=True
                )
                assert result == reference, (name, text, null_is_unknown)


@pytest.mark.parametrize(
    "text",
    [
        "ans(x) <- P(x, x)",
        "ans(x, z) <- R(x, y), S(x, z, z)",
        "ans(x) <- T(x, 'k')",
        "ans(x, y) <- S(x, x, 'k'), R(x, y)",
        "ans(x) <- P(x, 'b'), T(x, 'k')",
    ],
)
def test_emitter_query_answers_match_naive(text):
    instance = emitter_instance()
    query = parse_query(text)
    for null_is_unknown in (False, True):
        assert query.answers(instance, null_is_unknown=null_is_unknown) == (
            query.answers(instance, null_is_unknown=null_is_unknown, naive=True)
        ), null_is_unknown


# --------------------------------------------------------------------------- hypothesis
CONSTRAINTS = ConstraintSet(
    [
        parse_constraint("P(x, y) -> R(x, z)"),
        parse_constraint("R(x, y), R(x, z) -> y = z"),
        parse_constraint("P(x, x), R(x, y) -> false"),
        parse_constraint("P(x, y), P(y, z) -> R(x, z)"),
    ]
)

VALUES = st.sampled_from(["a", "b", NULL])
FACTS = st.tuples(st.sampled_from(["P", "R"]), VALUES, VALUES).map(
    lambda t: Fact(t[0], (t[1], t[2]))
)

common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@common_settings
@given(facts=st.lists(FACTS, max_size=8))
def test_random_instances_match_naive(facts):
    instance = DatabaseInstance.from_facts(facts)
    for constraint in CONSTRAINTS:
        reference = set(violations(instance, constraint, naive=True))
        assert set(violations(instance, constraint)) == reference


@common_settings
@given(facts=st.lists(FACTS, max_size=6), seed=FACTS)
def test_random_mutations_stay_in_sync(facts, seed):
    """Generated executors see instance mutations generation by generation."""

    instance = DatabaseInstance.from_facts(facts)

    def snapshot():
        reference = set(all_violations(instance, CONSTRAINTS, naive=True))
        assert set(all_violations(instance, CONSTRAINTS)) == reference
        return reference

    was_present = seed in set(instance.facts())
    before = snapshot()
    instance.add(seed)
    snapshot()
    instance.remove(seed)
    restored = snapshot()
    if not was_present:  # set semantics: removing a pre-existing seed shrinks
        assert restored == before


@common_settings
@given(facts=st.lists(FACTS, max_size=6))
def test_random_queries_match_naive(facts):
    instance = DatabaseInstance.from_facts(facts)
    query = parse_query("ans(x, y) <- P(x, y), R(y, z)")
    for null_is_unknown in (False, True):
        reference = query.answers(
            instance, null_is_unknown=null_is_unknown, naive=True
        )
        assert query.answers(instance, null_is_unknown=null_is_unknown) == reference


def test_generated_source_is_cached_and_equivalent():
    """One source text per plan, and running it again equals the first run."""

    instance, constraints = grouped_key_workload(
        n_groups=2, group_size=3, n_clean=4, seed=13
    )
    first = all_violations(instance, constraints)
    generated = codegen.codegen_statistics().plans_generated
    again = all_violations(instance, constraints)
    assert set(first) == set(again)
    assert set(first) == set(all_violations(instance, constraints, naive=True))
    # Re-running generated nothing new: the executor memo is process-wide.
    assert codegen.codegen_statistics().plans_generated == generated
