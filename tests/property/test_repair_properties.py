"""Property-based tests (hypothesis) for the repair semantics invariants.

The generated instances are deliberately tiny (at most a handful of facts
over two relations) so that exhaustive repair enumeration stays fast while
still exercising nulls, dangling references and key conflicts.
"""

from itertools import product

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.constraints.ic import ConstraintSet
from repro.constraints.parser import parse_constraint
from repro.core.repairs import (
    DeltaMinimality,
    RepairEngine,
    leq_d,
    leq_deltas,
    lt_d,
    minimal_flags_for_deltas,
    repairs,
    within_restricted_domain,
)
from repro.core.satisfaction import is_consistent
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance, Fact


VALUES = st.sampled_from(["a", "b", NULL])
NON_NULL_VALUES = st.sampled_from(["a", "b", "c"])

#: A referential constraint plus a key: the combination the paper focuses on.
CONSTRAINTS = ConstraintSet(
    [
        parse_constraint("P(x, y) -> R(x, z)"),
        parse_constraint("R(x, y), R(x, z) -> y = z"),
    ]
)


@st.composite
def small_instances(draw):
    """An instance with ≤ 3 P-facts and ≤ 2 R-facts over a 3-value domain."""

    p_rows = draw(st.lists(st.tuples(VALUES, VALUES), max_size=3))
    r_rows = draw(st.lists(st.tuples(VALUES, VALUES), max_size=2))
    return DatabaseInstance.from_dict({"P": p_rows, "R": r_rows})


common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestRepairInvariants:
    @common_settings
    @given(small_instances())
    def test_every_repair_satisfies_the_constraints(self, instance):
        for repair in repairs(instance, CONSTRAINTS):
            assert is_consistent(repair, CONSTRAINTS)

    @common_settings
    @given(small_instances())
    def test_at_least_one_repair_exists(self, instance):
        assert len(repairs(instance, CONSTRAINTS)) >= 1

    @common_settings
    @given(small_instances())
    def test_repairs_stay_within_the_restricted_domain(self, instance):
        for repair in repairs(instance, CONSTRAINTS):
            assert within_restricted_domain(instance, repair, CONSTRAINTS)

    @common_settings
    @given(small_instances())
    def test_repairs_are_pairwise_incomparable(self, instance):
        computed = repairs(instance, CONSTRAINTS)
        for first in computed:
            for second in computed:
                if first is not second:
                    assert not lt_d(instance, first, second)

    @common_settings
    @given(small_instances())
    def test_consistent_instances_are_their_own_unique_repair(self, instance):
        if is_consistent(instance, CONSTRAINTS):
            computed = repairs(instance, CONSTRAINTS)
            assert len(computed) == 1
            assert computed[0] == instance

    @common_settings
    @given(small_instances())
    def test_repairs_of_a_repair_are_a_fixpoint(self, instance):
        for repair in repairs(instance, CONSTRAINTS):
            again = repairs(repair, CONSTRAINTS)
            assert len(again) == 1
            assert again[0] == repair


class TestOrderingProperties:
    @common_settings
    @given(small_instances(), small_instances())
    def test_strict_order_is_irreflexive(self, original, other):
        """``<_D`` is always irreflexive; ``≤_D`` is reflexive on null-free deltas.

        (Condition (b) of Definition 6 makes ``≤_D`` non-reflexive when the
        symmetric difference contains an atom with nulls — the atom cannot
        serve as its own witness.  This is a quirk of the literal definition;
        strictness is what the repair semantics actually relies on.)
        """

        assert not lt_d(original, other, other)
        if not any(fact.has_null() for fact in original.symmetric_difference(other)):
            assert leq_d(original, other, other)

    @common_settings
    @given(small_instances())
    def test_original_instance_is_minimum_when_consistent(self, instance):
        if is_consistent(instance, CONSTRAINTS):
            for repair in repairs(instance, CONSTRAINTS):
                assert leq_d(instance, instance, repair)


class TestEngineBehaviour:
    @common_settings
    @given(small_instances())
    def test_candidates_superset_of_repairs(self, instance):
        engine = RepairEngine(CONSTRAINTS)
        candidate_sets = {c.fact_set() for c in engine.candidates(instance)}
        repair_sets = {r.fact_set() for r in engine.repairs(instance)}
        assert repair_sets <= candidate_sets

    @common_settings
    @given(st.lists(st.tuples(NON_NULL_VALUES, NON_NULL_VALUES), min_size=1, max_size=4))
    def test_null_free_key_repairs_are_subsets(self, rows):
        """Key violations are repaired by deletions only: repairs ⊆ D."""

        key_only = ConstraintSet([parse_constraint("R(x, y), R(x, z) -> y = z")])
        instance = DatabaseInstance.from_dict({"R": rows})
        for repair in repairs(instance, key_only):
            assert repair.fact_set() <= instance.fact_set()
            assert is_consistent(repair, key_only)


#: Facts over two relations of different arity and a 2-value domain plus
#: ``null``, so projections collide often.
DELTA_FACTS = st.one_of(
    st.builds(lambda values: Fact("R", values), st.tuples(VALUES, VALUES)),
    st.builds(lambda values: Fact("T", values), st.tuples(VALUES, VALUES, VALUES)),
)


@st.composite
def grown_deltas(draw):
    """Deltas plus, per addition, the ``leq`` probes made right after it."""

    deltas = draw(st.lists(st.frozensets(DELTA_FACTS, max_size=4), min_size=1, max_size=6))
    probes = [
        draw(st.lists(st.tuples(st.integers(0, i), st.integers(0, i)), max_size=3))
        for i in range(len(deltas))
    ]
    return deltas, probes


def _all_probes(deltas):
    """Probe every pair after every addition (for the explicit examples)."""

    return [list(product(range(i + 1), repeat=2)) for i in range(len(deltas))]


def _grown(*deltas):
    deltas = [frozenset(d) for d in deltas]
    return deltas, _all_probes(deltas)


def _r(*values):
    return Fact("R", values)


def _fd(predicate, *rows):
    return [Fact(predicate, row) for row in rows]


#: ``gen-0-2506``: FD ``R2(x1, x2, x3), R2(y1, x2, y3) -> x3 = y3`` on
#: {(0,0,0), (1,0,0), (null,0,1)} — the deltas of its deletion candidates.
_A, _B, _C = _fd("R2", (0, 0, 0), (1, 0, 0), (NULL, 0, 1))
#: ``gen-0-3923``: FD ``R1(x1, x2, x3), R1(y1, y2, x3) -> x2 = y2`` on
#: {(null,1,1), (null,2,1), (2,2,1)}.
_D, _E, _F = _fd("R1", (NULL, 1, 1), (NULL, 2, 1), (2, 2, 1))


class TestDeltaMinimalityMatchesDefinition6:
    """The production comparator agrees with :func:`leq_deltas` pair by pair."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(grown_deltas())
    # Shared projections: one null atom, several same-projection covers.
    @example(_grown({_r("a", NULL)}, {_r("a", "b"), _r("a", NULL)}, {_r("a", "b")}))
    # Self-cover: the only cover of a null atom is the atom itself.
    @example(_grown({_r("a", NULL)}, {_r("a", NULL)}, {_r("a", NULL), _r("b", "a")}))
    @example(_grown({_r("a", NULL), _r("a", "b")}, {_r("a", "b")}))
    @example(_grown({_C}, {_A, _B}, {_A, _C}, {_B, _C}))
    @example(_grown({_D}, {_E, _F}, {_D, _E}, {_D, _F}, {_E}, {_F}))
    def test_grown_context_agrees_with_the_definition(self, grown):
        deltas, probes = grown
        context = DeltaMinimality()
        for index, delta in enumerate(deltas):
            assert context.add(delta) == index
            for first, second in probes[index]:
                assert context.leq(first, second) == leq_deltas(
                    deltas[first], deltas[second]
                )
        for first, second in product(range(len(deltas)), repeat=2):
            assert context.leq(first, second) == leq_deltas(
                deltas[first], deltas[second]
            )
        reference = [
            not any(
                other != index
                and leq_deltas(deltas[other], deltas[index])
                and not leq_deltas(deltas[index], deltas[other])
                for other in range(len(deltas))
            )
            for index in range(len(deltas))
        ]
        assert [not context.dominated(i) for i in range(len(deltas))] == reference
        flags, comparisons = minimal_flags_for_deltas(deltas)
        assert flags == reference
        assert comparisons >= (len(deltas) - 1 if len(deltas) > 1 else 0)
