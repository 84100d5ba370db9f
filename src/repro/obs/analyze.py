"""EXPLAIN ANALYZE for the CQA stack.

:func:`analyze_request` is the engine behind
``ConsistentDatabase.explain(query, analyze=True)``: it *executes* one
full request under instrumentation and returns an
:class:`ExplainReport` that annotates the advisory
:class:`~repro.rewriting.planner.CQAPlan` with what actually happened —
wall-clock per phase, per-constraint ``JoinPlan``/``AtomStep`` rows
scanned (measured through a
:class:`~repro.compile.plans.CountingRelations` adapter, so the hot
executor is untouched), the warm tracker's delta-plan hit rates, the
session cache's generation and counters, and the repair search's
statistics when an enumeration ran.

Reconciliation is part of the contract: the analyze pass is the only
publisher of the ``repro_analyze_rows_scanned_total`` /
``repro_analyze_violations_total`` metrics, and the report carries the
registry's deltas over the call (:attr:`ExplainReport.metrics_delta`) —
so ``report.total_rows_scanned`` and ``report.total_violations`` equal
the registry movement *exactly*, a property the tier-1 suite asserts on
every pinned scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

from repro.obs import clock as _clock
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

if TYPE_CHECKING:
    from repro.core.cqa import CQAResult
    from repro.core.repairs import RepairStatistics
    from repro.rewriting.planner import CQAPlan
    from repro.session import CacheInfo, ConsistentDatabase


@dataclass
class StepAnalysis:
    """Actuals for one :class:`~repro.compile.plans.AtomStep` of a plan.

    Row accounting is per predicate: when several steps of one plan scan
    the same predicate the counter cannot be split between them, so each
    such step reports the shared figure with ``shared=True``.
    """

    index: int
    predicate: str
    probes: int
    rows: int
    shared: bool = False


@dataclass
class ConstraintAnalysis:
    """Actuals for one constraint's violation enumeration."""

    constraint: str
    violations: int
    probes: int
    rows: int
    steps: List[StepAnalysis] = field(default_factory=list)


@dataclass
class DeltaPlanStats:
    """The warm tracker's seeded-update ("delta plan") effectiveness."""

    updates: int  #: fact-level notify calls since the tracker was built
    constraints_reevaluated: int  #: per-constraint seeded passes
    hits: int  #: updates that actually changed the violation store
    violations_added: int
    violations_removed: int

    @property
    def hit_rate(self) -> float:
        """Fraction of updates that touched the store (0.0 when idle)."""

        return self.hits / self.updates if self.updates else 0.0


@dataclass
class ExplainReport:
    """The result of one instrumented request (``explain(analyze=True)``)."""

    query: str
    plan: "CQAPlan"
    generation: int
    phases: Dict[str, float]  #: phase name → wall-clock seconds, in order
    constraints: List[ConstraintAnalysis]
    total_violations: int
    total_rows_scanned: int
    total_probes: int
    delta_plans: DeltaPlanStats
    cache: "CacheInfo"
    answer_cache_hit: bool
    repair_statistics: Optional["RepairStatistics"]
    result: "CQAResult"
    metrics_delta: Dict[str, float]
    trace: Optional[_trace.SpanRecord]

    def render(self) -> str:
        """The report as an EXPLAIN ANALYZE-style text block."""

        lines: List[str] = []
        lines.append(f"EXPLAIN ANALYZE {self.query}")
        lines.append(
            f"Plan: {self.plan.method}"
            + (f" (~{self.plan.estimated_repairs} repairs est.)"
               if self.plan.estimated_repairs is not None else "")
        )
        lines.append(f"  reason: {self.plan.reason}")
        # The plan is advisory: an explicit ``method=`` override runs
        # another engine, so name the one that actually executed.
        lines.append(f"Executed: {self.result.method}")
        lines.append(
            f"Cache: generation={self.generation} "
            f"hits={self.cache.hits} misses={self.cache.misses} "
            f"answer_cache_hit={self.answer_cache_hit}"
        )
        lines.append("Phases (wall clock):")
        for name, seconds in self.phases.items():
            lines.append(f"  {name:<12} {seconds * 1e3:9.3f} ms")
        lines.append(
            f"Violations: {self.total_violations} total, "
            f"{self.total_rows_scanned} rows scanned over "
            f"{self.total_probes} index probes"
        )
        for analysis in self.constraints:
            lines.append(
                f"  {analysis.constraint}: {analysis.violations} violations, "
                f"{analysis.rows} rows / {analysis.probes} probes"
            )
            for step in analysis.steps:
                shared = " (shared counter)" if step.shared else ""
                lines.append(
                    f"    step {step.index}: {step.predicate} "
                    f"rows={step.rows} probes={step.probes}{shared}"
                )
        dp = self.delta_plans
        lines.append(
            f"Delta plans: {dp.updates} updates, "
            f"{dp.constraints_reevaluated} constraint re-evaluations, "
            f"hit rate {dp.hit_rate:.1%} "
            f"(+{dp.violations_added}/-{dp.violations_removed} violations)"
        )
        if self.repair_statistics is not None:
            rs = self.repair_statistics
            lines.append(
                f"Repair search: {rs.states_explored} states, "
                f"{rs.repairs_found} repairs, "
                f"search {rs.search_seconds * 1e3:.3f} ms wall / "
                f"{rs.task_cpu_seconds * 1e3:.3f} ms task CPU, "
                f"minimality {rs.minimality_seconds * 1e3:.3f} ms "
                f"({rs.leq_d_comparisons} ≤_D comparisons)"
            )
        lines.append(
            f"Answers: {len(self.result.answers)} "
            f"(repairs considered: {self.result.repair_count})"
        )
        return "\n".join(lines)


def _analyze_violations(
    session: "ConsistentDatabase",
) -> tuple:
    """Run every compiled plan over a counting adapter; returns actuals."""

    from repro.compile.plans import CountingRelations

    program = session.compiled_program()
    counting = CountingRelations(session.instance)
    analyses: List[ConstraintAnalysis] = []
    total_violations = 0
    for constraint, unit in zip(session.constraints, program.units):
        probes_before = dict(counting.probes)
        rows_before = dict(counting.rows)
        violations = unit.violations(counting)
        probe_delta = {
            predicate: count - probes_before.get(predicate, 0)
            for predicate, count in counting.probes.items()
            if count != probes_before.get(predicate, 0)
        }
        row_delta = {
            predicate: count - rows_before.get(predicate, 0)
            for predicate, count in counting.rows.items()
            if count != rows_before.get(predicate, 0)
        }
        steps: List[StepAnalysis] = []
        full_plan = getattr(unit, "full_plan", None)
        if full_plan is not None:
            predicate_uses: Dict[str, int] = {}
            for step in full_plan.steps:
                predicate_uses[step.predicate] = (
                    predicate_uses.get(step.predicate, 0) + 1
                )
            for step in full_plan.steps:
                steps.append(
                    StepAnalysis(
                        index=step.atom_index,
                        predicate=step.predicate,
                        probes=probe_delta.get(step.predicate, 0),
                        rows=row_delta.get(step.predicate, 0),
                        shared=predicate_uses[step.predicate] > 1,
                    )
                )
        total_violations += len(violations)
        analyses.append(
            ConstraintAnalysis(
                constraint=str(getattr(unit, "constraint", constraint)),
                violations=len(violations),
                probes=sum(probe_delta.values()),
                rows=sum(row_delta.values()),
                steps=steps,
            )
        )
    return analyses, total_violations, counting.total_rows(), counting.total_probes()


def analyze_request(
    session: "ConsistentDatabase",
    query,
    overrides: Mapping[str, Any],
) -> ExplainReport:
    """Execute one request under instrumentation (see module docstring).

    Tracing is force-enabled for the duration of the call; when the
    process-wide tracer was off, the captured span tree lives only in
    the returned report and the tracer is left exactly as found.
    """

    registry = _metrics.registry()
    tracer = _trace.tracer()
    was_enabled = tracer.enabled
    tracer.enabled = True
    before = registry.snapshot()
    config = session.config.merged(dict(overrides))
    phases: Dict[str, float] = {}
    root_span = _trace.span("explain.analyze", query=str(query), method=config.method)
    try:
        with root_span:
            started = _clock.now()
            plan = session.plan(query, config)
            phases["plan"] = _clock.now() - started

            started = _clock.now()
            analyses, violations, rows_scanned, probes = _analyze_violations(session)
            phases["violations"] = _clock.now() - started
            registry.counter(
                "repro_analyze_rows_scanned_total",
                "rows scanned by explain(analyze=True) passes",
            ).inc(rows_scanned)
            registry.counter(
                "repro_analyze_violations_total",
                "violations enumerated by explain(analyze=True) passes",
            ).inc(violations)

            tracker = session._ensure_tracker()

            answers_key = (
                "answers",
                query,
                session._fingerprint,
                session.instance.generation,
                config.cache_key(),
            )
            answer_cache_hit = answers_key in session._cache._data
            started = _clock.now()
            result = session.report(query, **dict(overrides))
            phases["execute"] = _clock.now() - started
    finally:
        tracer.enabled = was_enabled

    record = root_span.to_record() if isinstance(root_span, _trace.Span) else None
    if not was_enabled and isinstance(root_span, _trace.Span):
        # The tracer was only on for this call: keep the span out of the
        # process-wide roots, it lives in the report.
        if root_span in tracer.roots:
            tracer.roots.remove(root_span)

    delta_plans = DeltaPlanStats(
        updates=tracker.updates,
        constraints_reevaluated=tracker.constraints_reevaluated,
        hits=tracker.delta_hits,
        violations_added=tracker.delta_violations_added,
        violations_removed=tracker.delta_violations_removed,
    )
    after = registry.snapshot()
    metrics_delta = {
        name: value - before.get(name, 0.0)
        for name, value in after.items()
        if value != before.get(name, 0.0)
    }
    return ExplainReport(
        query=str(query),
        plan=plan,
        generation=session.generation,
        phases=phases,
        constraints=analyses,
        total_violations=violations,
        total_rows_scanned=rows_scanned,
        total_probes=probes,
        delta_plans=delta_plans,
        cache=session.cache_info(),
        answer_cache_hit=answer_cache_hit,
        repair_statistics=session.last_repair_statistics,
        result=result,
        metrics_delta=metrics_delta,
        trace=record,
    )
