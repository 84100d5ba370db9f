"""The frontier repair search, inline and on a process pool, and its anytime stream.

Covers the frontier-task decomposition of :mod:`repro.core.parallel`:
bit-identical output against the ``"naive"`` oracle (list equality —
same repairs, same discovery order), the sibling-exclusion partitioning
on denial-only constraint sets, deferred-task splitting under tiny
chunk budgets, process-pool execution, the explicit per-worker
:meth:`RepairStatistics.merge`, and the anytime stream/short-circuit
surface of the session.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constraints.ic import ConstraintSet
from repro.constraints.parser import parse_constraint, parse_query
from repro.core.parallel import (
    AnytimeRepairStream,
    FrontierTask,
    ParallelRepairSearch,
    exclusion_safe,
    frontier_could_dominate,
)
from repro.core.repairs import (
    REPAIR_METHODS,
    RepairEngine,
    RepairSearchBudgetExceeded,
    RepairStatistics,
)
from repro.engines import CQAConfig
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance, Fact
from repro.session import ConsistentDatabase
from repro.workloads import (
    foreign_key_workload,
    grouped_key_workload,
    scenarios,
)


def naive_repairs(instance, constraints, **kwargs):
    return RepairEngine(constraints, method="naive", **kwargs).repairs(instance)


def frontier_repairs(instance, constraints, **kwargs):
    return RepairEngine(constraints, **kwargs).repairs(instance)


class TestBitIdenticalOutput:
    @pytest.mark.parametrize("chunk", [1, 3, 1024])
    def test_every_scenario_matches_naive_exactly(self, all_scenarios, chunk):
        """Same repair *list* — contents and discovery order — per scenario."""

        for name, scenario in sorted(all_scenarios.items()):
            if not scenario.constraints.is_non_conflicting():
                continue
            reference = naive_repairs(scenario.instance, scenario.constraints)
            found = frontier_repairs(
                scenario.instance, scenario.constraints, chunk_states=chunk
            )
            assert found == reference, f"scenario {name} diverged at chunk={chunk}"

    @pytest.mark.parametrize("chunk", [5, 64])
    def test_grouped_key_workload_exclusion_partitioning(self, chunk):
        instance, constraints = grouped_key_workload(
            n_groups=3, group_size=3, n_clean=6, seed=3
        )
        assert exclusion_safe(constraints)
        reference = naive_repairs(instance, constraints)
        assert frontier_repairs(instance, constraints, chunk_states=chunk) == reference

    @pytest.mark.parametrize("chunk", [5, 64])
    def test_foreign_key_workload_overlapping_subtrees(self, chunk):
        """RICs insert null witnesses: no exclusions, path-dedup reconciles."""

        instance, constraints = foreign_key_workload(
            n_parents=4, n_children=7, violation_ratio=0.4, null_ratio=0.3, seed=1
        )
        assert not exclusion_safe(constraints)
        reference = naive_repairs(instance, constraints)
        assert frontier_repairs(instance, constraints, chunk_states=chunk) == reference

    def test_process_pool_matches_inline(self):
        instance, constraints = grouped_key_workload(
            n_groups=3, group_size=3, n_clean=5, seed=0
        )
        reference = naive_repairs(instance, constraints)
        with_processes = frontier_repairs(
            instance, constraints, workers=2, chunk_states=7
        )
        assert with_processes == reference

    def test_process_pool_with_null_insertions(self):
        """Null facts and constraint objects round-trip through pickling."""

        instance, constraints = foreign_key_workload(
            n_parents=3, n_children=5, violation_ratio=0.5, null_ratio=0.4, seed=7
        )
        reference = naive_repairs(instance, constraints)
        assert (
            frontier_repairs(instance, constraints, workers=2, chunk_states=5)
            == reference
        )

    def test_parallel_minimality_slicing_matches(self):
        """≥ 64 candidates triggers the sliced ≤_D filter across processes."""

        instance, constraints = grouped_key_workload(
            n_groups=4, group_size=3, n_clean=4, seed=2
        )
        reference = frontier_repairs(instance, constraints)  # inline filter
        assert len(reference) == 81  # above the slicing threshold
        assert frontier_repairs(instance, constraints, workers=2) == reference

    def test_method_validation(self):
        assert REPAIR_METHODS == ("incremental", "naive")
        for retired in ("turbo", "indexed", "parallel"):
            with pytest.raises(ValueError, match=retired):
                RepairEngine(ConstraintSet(), method=retired)
        for method in REPAIR_METHODS:
            RepairEngine(ConstraintSet(), method=method)  # accepted

    def test_budget_applies_to_the_task_sum(self):
        instance, constraints = grouped_key_workload(
            n_groups=3, group_size=3, n_clean=5, seed=0
        )
        with pytest.raises(RepairSearchBudgetExceeded):
            frontier_repairs(instance, constraints, max_states=10, chunk_states=4)


class TestHypothesisEquivalence:
    CONSTRAINTS = ConstraintSet(
        [
            parse_constraint("P(x, y) -> R(x, z)"),
            parse_constraint("R(x, y), R(x, z) -> y = z"),
        ]
    )
    VALUES = st.sampled_from(["a", "b", NULL])

    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        st.lists(st.tuples(VALUES, VALUES), max_size=3),
        st.lists(st.tuples(VALUES, VALUES), max_size=2),
        st.integers(min_value=1, max_value=9),
    )
    def test_frontier_equals_naive_on_generated_instances(
        self, p_rows, r_rows, chunk
    ):
        instance = DatabaseInstance.from_dict({"P": p_rows, "R": r_rows})
        reference = naive_repairs(instance, self.CONSTRAINTS)
        assert (
            frontier_repairs(instance, self.CONSTRAINTS, chunk_states=chunk)
            == reference
        )


class TestStatisticsMerge:
    def test_merge_sums_counters_but_not_wall_clock(self):
        """Counters and task CPU sum; wall-clock stays the driver's own.

        Summing per-task wall clock across frontier tasks would
        report more elapsed time than actually passed — the driver owns
        ``search_seconds``/``minimality_seconds``, tasks contribute
        ``task_cpu_seconds``.
        """

        first = RepairStatistics(
            states_explored=10,
            candidates_found=2,
            repairs_found=1,
            dead_branches=3,
            violation_updates=40,
            constraints_reevaluated=80,
            leq_d_comparisons=5,
            search_seconds=0.25,
            minimality_seconds=0.5,
            task_cpu_seconds=0.2,
        )
        second = RepairStatistics(
            states_explored=7,
            candidates_found=1,
            dead_branches=2,
            violation_updates=13,
            constraints_reevaluated=20,
            search_seconds=0.75,
            task_cpu_seconds=0.6,
        )
        merged = first.merge(second)
        assert merged is first
        assert first.states_explored == 17
        assert first.candidates_found == 3
        assert first.repairs_found == 1
        assert first.dead_branches == 5
        assert first.violation_updates == 53
        assert first.constraints_reevaluated == 100
        assert first.leq_d_comparisons == 5
        assert first.search_seconds == pytest.approx(0.25)
        assert first.minimality_seconds == pytest.approx(0.5)
        assert first.task_cpu_seconds == pytest.approx(0.8)

    def test_workers_never_share_a_statistics_object(self):
        """Every task result carries its own object; the driver merges."""

        instance, constraints = grouped_key_workload(
            n_groups=2, group_size=3, n_clean=3, seed=4
        )
        search = ParallelRepairSearch(instance, constraints, chunk_states=4)
        stats_objects = []
        total_states = 0
        for batch in search.batches():
            total_states = batch.states_explored
        # The aggregate equals the per-task sum, i.e. nothing was lost to
        # racy in-place sharing.
        assert search.statistics.states_explored == total_states
        assert total_states > 0

    def test_engine_statistics_are_aggregated(self):
        instance, constraints = grouped_key_workload(
            n_groups=2, group_size=3, n_clean=3, seed=4
        )
        engine = RepairEngine(constraints, chunk_states=4)
        found = engine.repairs(instance)
        stats = engine.statistics
        assert stats.repairs_found == len(found) == 9
        assert stats.candidates_found == 9
        assert stats.states_explored > 0
        assert stats.violation_updates > 0
        assert stats.leq_d_comparisons > 0
        assert stats.search_seconds > 0


class TestAnytimeStream:
    def test_streams_every_repair_before_search_completes(self):
        """On a ≥100-repair instance the stream yields mid-search."""

        instance, constraints = grouped_key_workload(
            n_groups=3, group_size=5, n_clean=8, seed=1
        )
        reference = RepairEngine(constraints, max_states=2_000_000).repairs(instance)
        assert len(reference) == 125
        search = ParallelRepairSearch(
            instance, constraints, max_states=2_000_000, chunk_states=50
        )
        stream = AnytimeRepairStream(search, schema=instance.schema)
        streamed = list(stream)
        assert stream.ordered_repairs == reference
        assert {r.fact_set() for r in streamed} == {
            r.fact_set() for r in reference
        }
        assert stream.yields_before_completion > 0
        assert stream.states_at_first_yield < search.statistics.states_explored

    def test_stream_set_matches_on_insertion_workload(self):
        instance, constraints = foreign_key_workload(
            n_parents=4, n_children=6, violation_ratio=0.5, null_ratio=0.3, seed=5
        )
        reference = RepairEngine(constraints).repairs(instance)
        search = ParallelRepairSearch(instance, constraints, chunk_states=6)
        stream = AnytimeRepairStream(search, schema=instance.schema)
        streamed = list(stream)
        assert stream.ordered_repairs == reference
        assert len(streamed) == len(reference)

    def test_frontier_domination_certificate(self):
        fact = Fact("R", ("a", "b"))
        other = Fact("R", ("a", "c"))
        null_fact = Fact("R", ("a", NULL))
        # A frontier committed to a fact outside the candidate delta can
        # never dominate it.
        assert not frontier_could_dominate(
            frozenset({other}), frozenset({fact})
        )
        assert frontier_could_dominate(frozenset({fact}), frozenset({fact}))
        # Null atoms only need a same-non-null-projection cover.
        assert frontier_could_dominate(
            frozenset({null_fact}), frozenset({fact})
        )
        assert not frontier_could_dominate(
            frozenset({Fact("R", ("z", NULL))}), frozenset({fact})
        )

    def test_frontier_task_delta(self):
        task = FrontierTask(
            (0, 1),
            frozenset({Fact("Q", ("a", NULL))}),
            frozenset({Fact("E", ("a", "b"))}),
        )
        assert task.delta() == frozenset(
            {Fact("Q", ("a", NULL)), Fact("E", ("a", "b"))}
        )


RIC = parse_constraint("Course(i, c) -> Student(i, n)")
KEY = parse_constraint("Emp(e, d), Emp(e, f) -> d = f")


class TestSessionSurface:
    def make_grouped(self, **kwargs):
        instance, constraints = grouped_key_workload(
            n_groups=3, group_size=3, n_clean=5, seed=0
        )
        return ConsistentDatabase(instance, constraints, method="direct", **kwargs)

    def test_iter_repairs_streams_from_the_pool(self):
        db = self.make_grouped(workers=2)
        reference = list(self.make_grouped(repair_mode="naive").iter_repairs())
        streamed = list(db.iter_repairs(stream=True))
        assert {r.fact_set() for r in streamed} == {
            r.fact_set() for r in reference
        }

    def test_stream_warms_the_repair_cache(self):
        db = self.make_grouped()
        list(db.iter_repairs(stream=True))
        query = parse_query("ans(e) <- Emp(e, d, s)")
        db.consistent_answers(query)
        stats = db.last_repair_statistics
        assert stats is not None and stats.repairs_found == 27
        # The answer call must have reused the streamed list: no second
        # enumeration ran, so the counters are still the stream's.
        assert db.cache_info().hits >= 1

    def test_stream_and_list_agree(self):
        db = self.make_grouped()
        streamed = list(db.iter_repairs(stream=True))
        listed = list(db.iter_repairs(stream=False))
        assert {r.fact_set() for r in streamed} == {r.fact_set() for r in listed}

    def test_stream_requires_direct_method(self):
        db = self.make_grouped()
        with pytest.raises(ValueError, match="stream"):
            db.iter_repairs(method="program", stream=True)

    def test_certain_anytime_matches_standard(self):
        db = self.make_grouped()
        query = parse_query("ans(e) <- Emp(e, d, s)")
        refuted = parse_query("ans(d) <- Emp(e, d, s)")
        assert db.certain(query, ("e0",), anytime=True) is True
        assert db.certain(query, ("e0",)) is True
        assert db.certain(refuted, ("dept0_0",), anytime=True) is False
        assert db.certain(refuted, ("dept0_0",)) is False

    def test_certain_anytime_boolean_query(self):
        db = ConsistentDatabase(
            {"Course": [(21, "C15"), (34, "C18")], "Student": [(21, "Ann")]},
            [RIC],
            method="direct",
        )
        held = parse_query("ans() <- Student(i, n)")
        assert db.certain(held, anytime=True) == db.certain(held)

    def test_certain_anytime_through_auto_and_rewriting(self):
        db = ConsistentDatabase(
            {"Emp": [("e1", "sales"), ("e1", "hr"), ("e2", "hr")]},
            [KEY],
            method="auto",
        )
        query = parse_query("ans(e) <- Emp(e, d)")
        assert db.certain(query, ("e2",), anytime=True) is True
        assert db.certain(query, ("e2",)) is True
        open_refuted = parse_query("ans(d) <- Emp(e, d)")
        assert db.certain(open_refuted, ("sales",), anytime=True) is False

    def test_config_carries_workers_and_anytime(self):
        db = self.make_grouped(workers=3, anytime=True)
        assert db.config.workers == 3
        assert db.config.anytime is True
        assert db.config.cache_key()[-1] == 3  # workers segment the cache
        with pytest.raises(TypeError, match="unknown CQA option"):
            db.consistent_answers(
                parse_query("ans(e) <- Emp(e, d, s)"), turbo=True
            )


class TestAutoPlansParallel:
    @staticmethod
    def cyclic(**kwargs):
        from repro.workloads import cyclic_ric_workload

        instance, constraints = cyclic_ric_workload(
            n_rows=6, violation_ratio=0.5, seed=2
        )
        return ConsistentDatabase(instance, constraints, method="auto", **kwargs)

    def test_plan_hands_the_pool_its_workers(self):
        db = self.cyclic(workers=4)
        query = parse_query("ans(x) <- P(x, y)")  # cyclic RICs: unsupported
        plan = db.explain(query)
        assert plan.method == "direct"
        assert plan.workers == 4
        assert plan.costs["parallel"] == pytest.approx(plan.costs["direct"] / 4)
        assert "parallel" in plan.reason

    def test_plan_keeps_serial_without_workers(self):
        db = self.cyclic()
        query = parse_query("ans(x) <- P(x, y)")
        plan = db.explain(query)
        assert plan.workers == 0
        assert "parallel" not in plan.costs

    def test_auto_runs_only_large_fallbacks_on_the_pool(self):
        """PARALLEL_REPAIR_THRESHOLD picks the worker count auto hands direct."""

        from repro.workloads import cyclic_ric_workload

        query = parse_query("ans(x) <- P(x, y)")
        for n_rows, planned, pooled in ((2, 0, False), (6, 2, True)):
            instance, constraints = cyclic_ric_workload(
                n_rows=n_rows, violation_ratio=0.5, seed=2
            )
            db = ConsistentDatabase(instance, constraints, method="auto", workers=2)
            assert db.explain(query).workers == planned
            db.report(query)
            assert (db.last_repair_statistics.tasks_shipped > 0) is pooled

    def test_auto_with_workers_matches_direct(self):
        instance, constraints = grouped_key_workload(
            n_groups=3, group_size=3, n_clean=5, seed=0
        )
        auto = ConsistentDatabase(instance, constraints, method="auto", workers=2)
        direct = ConsistentDatabase(instance, constraints, method="direct")
        query = parse_query("ans(e) <- Emp(e, d, s)")
        assert auto.consistent_answers(query) == direct.consistent_answers(query)
