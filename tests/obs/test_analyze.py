"""``ConsistentDatabase.explain(analyze=True)`` and its reconciliation.

The acceptance property the ISSUE pins: on every pinned scenario the
report's row/violation actuals equal the metrics registry's movement
over the call **exactly** — the analyze pass is the only publisher of
the ``repro_analyze_*`` counters, so the two accountings can never
drift apart silently.
"""

import pytest

from repro.constraints.parser import parse_constraint, parse_query
from repro.obs import trace
from repro.obs.analyze import ExplainReport
from repro.rewriting import CQAPlan
from repro.session import ConsistentDatabase
from repro.workloads import grouped_key_workload


def scenario_query(scenario):
    """A total projection over the scenario's first populated predicate."""

    fact = min(scenario.instance.facts(), key=lambda f: f.sort_key())
    variables = ", ".join(f"x{index}" for index in range(fact.arity))
    return parse_query(f"ans({variables}) <- {fact.predicate}({variables})")


class TestExplainAnalyze:
    def make_session(self):
        instance, constraints = grouped_key_workload(
            n_groups=2, group_size=2, n_clean=4, seed=3
        )
        return ConsistentDatabase(instance, constraints)

    def test_returns_a_report_not_a_plan(self):
        db = self.make_session()
        query = parse_query("ans(e, d, s) <- Emp(e, d, s)")
        plan = db.explain(query)
        report = db.explain(query, analyze=True)
        assert isinstance(plan, CQAPlan)
        assert isinstance(report, ExplainReport)
        assert report.plan.method == plan.method

    def test_phases_cover_the_request_in_order(self):
        db = self.make_session()
        report = db.explain(
            parse_query("ans(e, d, s) <- Emp(e, d, s)"), analyze=True
        )
        assert list(report.phases) == ["plan", "compile", "violations", "execute"]
        assert all(seconds >= 0.0 for seconds in report.phases.values())

    def test_actuals_match_the_executed_result(self):
        db = self.make_session()
        query = parse_query("ans(e, d, s) <- Emp(e, d, s)")
        report = db.explain(query, analyze=True)
        assert report.result.answers == db.report(query).answers
        assert report.total_violations == len(db.violations())
        assert report.total_rows_scanned >= report.total_violations
        assert len(report.constraints) == len(list(db.constraints))

    def test_answer_cache_hit_flips_on_the_second_call(self):
        db = self.make_session()
        query = parse_query("ans(e, d, s) <- Emp(e, d, s)")
        first = db.explain(query, analyze=True)
        second = db.explain(query, analyze=True)
        assert first.answer_cache_hit is False
        assert second.answer_cache_hit is True

    def test_trace_record_is_captured_without_polluting_the_tracer(self):
        with trace.tracing(False):
            trace.reset()
            db = self.make_session()
            report = db.explain(
                parse_query("ans(e, d, s) <- Emp(e, d, s)"), analyze=True
            )
            assert report.trace is not None
            assert report.trace.name == "explain.analyze"
            assert report.trace.children  # the phases recorded under it
            # The tracer was only on for the call: nothing leaks into the
            # process-wide roots and the flag is restored.
            assert trace.tracer().roots == []
            assert not trace.enabled()

    def test_trace_stays_in_the_tracer_when_already_enabled(self):
        with trace.tracing(True):
            trace.reset()
            db = self.make_session()
            db.explain(parse_query("ans(e, d, s) <- Emp(e, d, s)"), analyze=True)
            assert [root.name for root in trace.tracer().roots] == [
                "explain.analyze"
            ]

    def test_render_is_a_complete_text_block(self):
        db = self.make_session()
        report = db.explain(
            parse_query("ans(e, d, s) <- Emp(e, d, s)"), analyze=True
        )
        rendered = report.render()
        assert rendered.startswith("EXPLAIN ANALYZE")
        assert "Phases (wall clock):" in rendered
        assert "Violations:" in rendered
        assert "Delta plans:" in rendered
        assert "Answers:" in rendered

    def test_overrides_reach_the_executed_request(self):
        db = self.make_session()
        report = db.explain(
            parse_query("ans(e, d, s) <- Emp(e, d, s)"),
            analyze=True,
            method="direct",
        )
        # The plan stays advisory (it may recommend another engine); the
        # *executed* request must honour the override.
        assert report.result.method == "direct"

    def test_render_names_the_executed_engine_next_to_the_plan(self):
        db = ConsistentDatabase(
            {"Emp": [("e1", "sales"), ("e1", "hr")]},
            [parse_constraint("Emp(e, d), Emp(e, f) -> d = f")],
        )
        query = parse_query("ans(e) <- Emp(e, d)")
        forced = db.explain(query, analyze=True, method="direct").render()
        assert "Plan: rewriting" in forced
        assert "Executed: direct" in forced
        assert "Executed: rewriting" in db.explain(query, analyze=True).render()


class TestReconciliation:
    def test_exact_reconciliation_on_every_pinned_scenario(self, all_scenarios):
        """``total_rows_scanned`` / ``total_violations`` equal the registry
        deltas exactly, scenario by scenario — no sampling, no drift."""

        for name, scenario in sorted(all_scenarios.items()):
            db = ConsistentDatabase(scenario.instance, scenario.constraints)
            report = db.explain(scenario_query(scenario), analyze=True)
            rows_delta = report.metrics_delta.get(
                "repro_analyze_rows_scanned_total", 0.0
            )
            violations_delta = report.metrics_delta.get(
                "repro_analyze_violations_total", 0.0
            )
            assert report.total_rows_scanned == rows_delta, (
                f"{name}: report counted {report.total_rows_scanned} rows "
                f"but the registry moved by {rows_delta}"
            )
            assert report.total_violations == violations_delta, (
                f"{name}: report counted {report.total_violations} violations "
                f"but the registry moved by {violations_delta}"
            )
            if scenario.expected_consistent is True:
                assert report.total_violations == 0, name
            elif scenario.expected_consistent is False:
                assert report.total_violations > 0, name

    def test_consecutive_analyzes_keep_reconciling(self):
        # The counters are cumulative across calls; each report's delta must
        # still equal its own actuals.
        instance, constraints = grouped_key_workload(
            n_groups=2, group_size=2, n_clean=4, seed=3
        )
        db = ConsistentDatabase(instance, constraints)
        query = parse_query("ans(e, d, s) <- Emp(e, d, s)")
        for _ in range(3):
            report = db.explain(query, analyze=True)
            assert report.total_rows_scanned == report.metrics_delta.get(
                "repro_analyze_rows_scanned_total", 0.0
            )
            assert report.total_violations == report.metrics_delta.get(
                "repro_analyze_violations_total", 0.0
            )
