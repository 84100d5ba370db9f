"""Layer attribution for the traced run, entirely from outside the library.

:class:`Tracer` wraps the public entry points of each layer at the very
attribute its callers resolve — a function is rebound in every ``repro``
module that holds it (``session`` imports ``rewrite_query`` by name, for
example), a method is replaced on its class.  Each wrapped call inside a
timed request becomes a span ``[name, start, end, parent, op]`` kept in
memory; :meth:`Tracer.layer_metrics` turns them into per-request self
times and :meth:`Tracer.dump` writes them out once at the end.

A span's *self time* is its duration minus the time its child spans
cover.  A span whose name is ``None`` is transparent: its self time
counts toward the nearest named ancestor (used for memo lookups that hit,
so that only real compilations show as ``compile``).  The root span of
each request is ``session``; its self time is the request's
unattributed time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Per-layer metrics: name -> (unit, better).  Times are self times and,
#: like the counts, averaged per timed request.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "session.unattributed_ms": ("ms", "lower"),
    "session.cache_hits": ("count", "lower"),
    "session.cache_misses": ("count", "lower"),
    "session.tracker_rebuilds": ("count", "lower"),
    "engines.ms": ("ms", "lower"),
    "engines.enumeration_fallbacks": ("count", "lower"),
    "core.satisfaction.sweep_ms": ("ms", "lower"),
    "core.satisfaction.sweeps": ("count", "lower"),
    "core.satisfaction.violations_found": ("count", "lower"),
    "core.repairs.tracker_update_ms": ("ms", "lower"),
    "core.repairs.tracker_updates": ("count", "lower"),
    "core.repairs.constraints_reevaluated": ("count", "lower"),
    "core.repairs.stored_violations": ("count", "lower"),
    "core.repairs.search_ms": ("ms", "lower"),
    "core.repairs.states_explored": ("count", "lower"),
    "core.repairs.dead_branches": ("count", "lower"),
    "core.repairs.candidates_found": ("count", "lower"),
    "core.repairs.repairs_found": ("count", "lower"),
    "core.repairs.repair_yield": ("ratio", "higher"),
    "core.repairs.minimality_ms": ("ms", "lower"),
    "core.repairs.leq_d_comparisons": ("count", "lower"),
    "relational.fact_set_calls": ("count", "lower"),
    "relational.fact_set_ms": ("ms", "lower"),
    "relational.copy_ms": ("ms", "lower"),
    "relational.from_facts_ms": ("ms", "lower"),
    "core.parallel.frontier_ms": ("ms", "lower"),
    "core.parallel.repairs_before_decision": ("count", "lower"),
    "core.cqa.assemble_ms": ("ms", "lower"),
    "logic.evaluate_ms": ("ms", "lower"),
    "logic.evaluate_calls": ("count", "lower"),
    "relational.columnar.builds": ("count", "lower"),
    "relational.columnar.build_ms": ("ms", "lower"),
    "compile.ms": ("ms", "lower"),
    "compile.programs_built": ("count", "lower"),
    "compile.codegen_plans": ("count", "lower"),
    "rewriting.plan_ms": ("ms", "lower"),
    "rewriting.rewrite_ms": ("ms", "lower"),
    "rewriting.answers_ms": ("ms", "lower"),
    "rewriting.residue_checks": ("count", "lower"),
    "sqlbackend.mirror_ms": ("ms", "lower"),
    "sqlbackend.rows_mirrored": ("count", "lower"),
    "sqlbackend.execute_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: Span name -> the self-time metric it feeds (``engines.<name>`` -> ``engines.ms``).
SPAN_METRIC = {
    "session": "session.unattributed_ms",
    "engines": "engines.ms",
    "core.satisfaction": "core.satisfaction.sweep_ms",
    "core.repairs.tracker": "core.repairs.tracker_update_ms",
    "core.repairs.search": "core.repairs.search_ms",
    "core.repairs.minimality": "core.repairs.minimality_ms",
    "relational.fact_set": "relational.fact_set_ms",
    "relational.copy": "relational.copy_ms",
    "relational.from_facts": "relational.from_facts_ms",
    "core.parallel": "core.parallel.frontier_ms",
    "core.cqa": "core.cqa.assemble_ms",
    "logic": "logic.evaluate_ms",
    "relational.columnar": "relational.columnar.build_ms",
    "compile": "compile.ms",
    "rewriting.plan": "rewriting.plan_ms",
    "rewriting.rewrite": "rewriting.rewrite_ms",
    "rewriting.answers": "rewriting.answers_ms",
    "sqlbackend.mirror": "sqlbackend.mirror_ms",
    "sqlbackend.execute": "sqlbackend.execute_ms",
}

_START, _END, _PARENT = 1, 2, 3


def _compilations() -> Tuple[int, int]:
    from repro.compile.codegen import codegen_statistics
    from repro.compile.kernel import compiler_statistics

    stats = compiler_statistics()
    built = (
        stats.programs_compiled
        + stats.constraints_compiled
        + stats.queries_compiled
        + stats.bodies_compiled
    )
    return built, codegen_statistics().plans_generated


class Tracer:
    """Spans and counters of the traced requests, one request at a time."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op: Optional[int] = None
        self.ops = 0
        self.counts: Dict[str, float] = defaultdict(float)
        self.compiling = False
        self._restore: List[Tuple[Any, str, Any]] = []
        self._task_statistics: List[Any] = []

    # ------------------------------------------------------------------ spans
    def open(self, name: Optional[str]) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1], self.op])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][_END] = perf_counter()
        self.stack.pop()

    def request(self, session, run: Callable[[], Any]) -> Any:
        """Run one timed request under a root ``session`` span."""

        info, rebuilds = session.cache_info(), session.statistics.tracker_rebuilds
        repair_stats = session.last_repair_statistics
        self.op = self.ops
        self.ops += 1
        self.stack = [len(self.spans)]
        self.spans.append(["session", perf_counter(), 0.0, -1, self.op])
        self._task_statistics = []
        try:
            return run()
        finally:
            self.spans[self.stack[0]][_END] = perf_counter()
            self.op = None
            after = session.cache_info()
            self.counts["session.cache_hits"] += after.hits - info.hits
            self.counts["session.cache_misses"] += after.misses - info.misses
            self.counts["session.tracker_rebuilds"] += (
                session.statistics.tracker_rebuilds - rebuilds
            )
            # The enumerating path leaves its counters on the session; the
            # anytime frontier only does so when it ran to completion, so
            # otherwise sum the statistics its search tasks returned.
            if session.last_repair_statistics is not repair_stats:
                self._search_counts([session.last_repair_statistics])
            else:
                self._search_counts(self._task_statistics)

    def _search_counts(self, statistics: List[Any]) -> None:
        for stats in statistics:
            for field in (
                "states_explored",
                "dead_branches",
                "candidates_found",
                "repairs_found",
                "leq_d_comparisons",
            ):
                self.counts[f"core.repairs.{field}"] += getattr(stats, field)

    # ------------------------------------------------------------------ wrappers
    def _timed(
        self,
        name: Optional[str],
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """*fn* timed as span *name*; *before*/*after* see the call's arguments."""

        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before else None
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after:
                after(index, state, args, kwargs, result)
            return result

        return wrapper

    def _timed_generator(
        self, name: str, fn: Callable, on_item: Optional[Callable] = None
    ) -> Callable:
        """A generator function whose every resume is a span *name*."""

        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            generator = fn(*args, **kwargs)
            try:
                while True:
                    index = tracer.open(name) if tracer.op is not None else None
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        if index is not None:
                            tracer.close(index)
                    if on_item and tracer.op is not None:
                        on_item(item)
                    yield item
            finally:
                generator.close()

        return wrapper

    def _patch_attr(self, owner: Any, attr: str, replacement: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch_attr(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._patch_attr(cls, attr, make(raw))

    def _patch_function(self, fn: Callable, replacement: Callable) -> None:
        """Rebind *fn* in every loaded ``repro`` module that holds it."""

        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch_attr(module, attr, replacement)

    # ------------------------------------------------------------------ install
    def install(self) -> None:
        """Wrap every layer's entry points (undone by :meth:`uninstall`)."""

        # import_module, not ``import a.b as c``: packages such as
        # ``repro.core`` export functions named like their submodules.
        codegen = importlib.import_module("repro.compile.codegen")
        kernel = importlib.import_module("repro.compile.kernel")
        cqa = importlib.import_module("repro.core.cqa")
        parallel = importlib.import_module("repro.core.parallel")
        repairs = importlib.import_module("repro.core.repairs")
        engines = importlib.import_module("repro.engines")
        columnar = importlib.import_module("repro.relational.columnar")
        rewriting = importlib.import_module("repro.rewriting")
        residues = importlib.import_module("repro.rewriting.residues")
        from repro.logic.queries import ConjunctiveQuery
        from repro.relational.instance import DatabaseInstance
        from repro.rewriting.rewriter import RewrittenQuery
        from repro.sqlbackend.backend import SQLiteBackend

        counts = self.counts

        # engines: every registered strategy's two entry points.
        for engine_name in engines.available_engines():
            cls = type(engines.get_engine(engine_name))
            for attr in ("answers_report", "certain_anytime"):
                if attr in cls.__dict__:
                    self._patch_method(
                        cls, attr, functools.partial(self._timed, f"engines.{engine_name}")
                    )

        # core.satisfaction: the full sweep a tracker pays when not seeded.
        def tracker_init(index, state, args, kwargs, result):
            counts["core.satisfaction.sweeps"] += 1
            counts["core.satisfaction.violations_found"] += args[0].violation_count()

        def sweep_init(init):
            timed = self._timed("core.satisfaction", init, after=tracker_init)

            @functools.wraps(init)
            def wrapper(tracker, instance, constraints, seed=None):
                if seed is not None:  # a warm start copies a store: no sweep
                    return init(tracker, instance, constraints, seed)
                return timed(tracker, instance, constraints)

            return wrapper

        self._patch_method(repairs.ViolationTracker, "__init__", sweep_init)

        # core.repairs tracker: one span per incremental update.
        def update_before(args, kwargs):
            tracker = args[0]
            return tracker.violation_count(), tracker.constraints_reevaluated

        def update_after(index, state, args, kwargs, result):
            stored, reevaluated = state
            counts["core.repairs.tracker_updates"] += 1
            counts["core.repairs.stored_violations"] += stored
            counts["core.repairs.constraints_reevaluated"] += (
                args[0].constraints_reevaluated - reevaluated
            )

        for attr in ("notify_added", "notify_removed"):
            self._patch_method(
                repairs.ViolationTracker,
                attr,
                lambda fn: self._timed(
                    "core.repairs.tracker", fn, before=update_before, after=update_after
                ),
            )

        # core.repairs search and minimality.  ``repairs`` minus its child
        # spans (the search, fact-set calls) is the ≤_D filter.
        self._patch_method(
            repairs.RepairEngine, "candidates", functools.partial(self._timed, "core.repairs.search")
        )
        self._patch_method(
            repairs.RepairEngine, "repairs", functools.partial(self._timed, "core.repairs.minimality")
        )
        self._patch_function(
            repairs.minimal_flags_for_deltas,
            self._timed("core.repairs.minimality", repairs.minimal_flags_for_deltas),
        )
        self._patch_method(
            parallel.SearchContext,
            "run_task",
            lambda fn: self._timed(
                "core.repairs.search",
                fn,
                after=lambda i, s, a, k, result: self._task_statistics.append(result.statistics),
            ),
        )

        # core.parallel: the anytime frontier and its scheduler.
        def yielded(item):
            counts["core.parallel.repairs_before_decision"] += 1

        self._patch_method(
            parallel.AnytimeRepairStream,
            "__iter__",
            lambda fn: self._timed_generator("core.parallel", fn, on_item=yielded),
        )
        self._patch_method(
            parallel.ParallelRepairSearch,
            "batches",
            lambda fn: self._timed_generator("core.parallel", fn),
        )

        # relational: fact sets, copies, materialised instances, column stores.
        def fact_set_after(*_):
            counts["relational.fact_set_calls"] += 1

        self._patch_method(
            DatabaseInstance,
            "fact_set",
            lambda fn: self._timed("relational.fact_set", fn, after=fact_set_after),
        )
        self._patch_method(DatabaseInstance, "copy", functools.partial(self._timed, "relational.copy"))
        self._patch_method(
            DatabaseInstance, "from_facts", functools.partial(self._timed, "relational.from_facts")
        )

        def column_build(*_):
            counts["relational.columnar.builds"] += 1

        self._patch_method(
            columnar.ColumnarStore,
            "from_instance",
            lambda fn: self._timed("relational.columnar", fn, after=column_build),
        )

        # core.cqa answer assembly and logic evaluation.
        self._patch_function(cqa.result_from_repairs, self._timed("core.cqa", cqa.result_from_repairs))

        def evaluated(*_):
            counts["logic.evaluate_calls"] += 1

        self._patch_method(
            ConjunctiveQuery, "answers", lambda fn: self._timed("logic", fn, after=evaluated)
        )

        # compile: memo lookups are transparent unless they really compiled.
        for fn in (
            kernel.compile_program,
            kernel.compiled_constraint,
            kernel.compiled_query,
            kernel.compiled_body,
            codegen.matcher,
        ):
            self._patch_function(fn, self._compile_span(fn))

        # rewriting: planner, rewriter, evaluator, residue checks.
        self._patch_function(rewriting.plan_cqa, self._timed("rewriting.plan", rewriting.plan_cqa))
        self._patch_function(
            rewriting.rewrite_query, self._timed("rewriting.rewrite", rewriting.rewrite_query)
        )
        self._patch_method(
            RewrittenQuery, "answers", functools.partial(self._timed, "rewriting.answers")
        )
        for cls in vars(residues).values():
            if (
                inspect.isclass(cls)
                and issubclass(cls, residues.Residue)
                and "holds" in cls.__dict__
            ):
                self._patch_method(cls, "holds", self._counted("rewriting.residue_checks"))

        # sqlbackend: building the mirror, running statements.
        def mirrored(index, state, args, kwargs, result):
            counts["sqlbackend.rows_mirrored"] += len(args[1])

        self._patch_method(
            SQLiteBackend,
            "__init__",
            lambda fn: self._timed("sqlbackend.mirror", fn, after=mirrored),
        )
        self._patch_method(
            SQLiteBackend, "execute", functools.partial(self._timed, "sqlbackend.execute")
        )

    def _compile_span(self, fn: Callable) -> Callable:
        """*fn*, a compile entry point, as a transparent span that is named
        ``compile`` when the compiler statistics moved during it.

        Only the outermost compile call on the stack opens a span and reads
        the statistics: ``compile_program`` calls ``compiled_constraint``,
        and counting both would count the inner compilation twice.
        """

        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None or tracer.compiling:
                return fn(*args, **kwargs)
            before = _compilations()
            tracer.compiling = True
            index = tracer.open(None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)
                tracer.compiling = False
                built, plans = _compilations()
                if (built, plans) != before:
                    tracer.spans[index][0] = "compile"
                    tracer.counts["compile.programs_built"] += built - before[0]
                    tracer.counts["compile.codegen_plans"] += plans - before[1]
                elif index == len(tracer.spans) - 1:
                    tracer.spans.pop()  # a leaf memo hit: drop it to keep the trace small

        return wrapper

    def _counted(self, counter: str) -> Callable[[Callable], Callable]:
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------ results
    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name, transparent spans folded up."""

        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span[_PARENT] >= 0:
                covered[span[_PARENT]] += span[_END] - span[_START]
        totals: Dict[str, float] = defaultdict(float)
        for i, span in enumerate(spans):
            owner = i
            while spans[owner][0] is None:
                owner = spans[owner][_PARENT]
            totals[spans[owner][0]] += span[_END] - span[_START] - covered[i]
        return totals

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer metric except the overhead ratio, per request."""

        ops = max(self.ops, 1)
        metrics = {name: 0.0 for name in PER_LAYER if name != "trace.overhead_ratio"}
        for name, seconds in self.self_times().items():
            metric = SPAN_METRIC[name.split(".")[0] if name.startswith("engines.") else name]
            metrics[metric] += seconds * 1000.0 / ops
        for name, value in self.counts.items():
            metrics[name] = value / ops
        updates = self.counts["core.repairs.tracker_updates"]
        metrics["core.repairs.stored_violations"] = (
            self.counts["core.repairs.stored_violations"] / updates if updates else 0.0
        )
        candidates = self.counts["core.repairs.candidates_found"]
        metrics["core.repairs.repair_yield"] = (
            self.counts["core.repairs.repairs_found"] / candidates if candidates else 0.0
        )
        names = [span[0] for span in self.spans]
        metrics["engines.enumeration_fallbacks"] = (
            sum(
                1
                for span in self.spans
                if span[0] == "engines.direct"
                and span[_PARENT] >= 0
                and names[span[_PARENT]] == "engines.auto"
            )
            / ops
        )
        return metrics

    def dump(self, path) -> None:
        """Write every span once, as one JSON array per line."""

        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
