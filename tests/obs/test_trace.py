"""The hierarchical span tracer (``repro.obs.trace``).

Ends with the well-formedness property the ISSUE pins: every trace the
stack emits — one per pinned scenario, plus a real two-process parallel
search — has every span closed, every child interval nested inside its
parent and every worker span re-parented under the driver's.
"""

import json
import os

import pytest

from repro.core.repairs import RepairEngine
from repro.obs import clock, trace
from repro.obs.trace import Span, SpanRecord, _NULL_SPAN
from repro.session import ConsistentDatabase
from repro.workloads import grouped_key_workload


def span_nodes(span):
    """Every node of the span tree, root first."""

    nodes = [span]
    for child in span.children:
        nodes.extend(span_nodes(child))
    return nodes


def assert_well_formed(span, parent=None):
    """All spans closed; every child interval nested inside its parent's."""

    assert span.end is not None, f"span {span.name!r} was never closed"
    assert span.start <= span.end, f"span {span.name!r} ends before it starts"
    if parent is not None:
        assert span.start >= parent.start, (
            f"child {span.name!r} starts before parent {parent.name!r}"
        )
        assert span.end <= parent.end, (
            f"child {span.name!r} ends after parent {parent.name!r}"
        )
    for child in span.children:
        assert_well_formed(child, span)


class TestDisabledPath:
    def test_span_returns_the_shared_falsy_null_span(self):
        with trace.tracing(False):
            sp = trace.span("anything", attr=1)
            assert sp is _NULL_SPAN
            assert not sp
            assert sp is trace.span("something.else")

    def test_null_span_operations_are_no_ops(self):
        with trace.tracing(False):
            with trace.span("ignored") as sp:
                sp.add(key="value")
                sp.add_child(object())
            assert trace.tracer().roots == []

    def test_enabled_reflects_the_flag(self):
        with trace.tracing(False):
            assert not trace.enabled()
        with trace.tracing(True):
            assert trace.enabled()


class TestRecording:
    def test_spans_nest_and_record_attributes(self):
        with trace.tracing(True):
            trace.reset()
            with trace.span("outer", method="direct") as outer:
                assert outer
                assert trace.tracer().current() is outer
                with trace.span("inner") as inner:
                    inner.add(rows=3)
            assert trace.tracer().current() is None
        roots = trace.tracer().roots
        assert [root.name for root in roots] == ["outer"]
        assert roots[0].attributes == {"method": "direct"}
        assert [child.name for child in roots[0].children] == ["inner"]
        assert roots[0].children[0].attributes == {"rows": 3}
        assert_well_formed(roots[0])

    def test_durations_come_from_the_injectable_clock(self):
        with clock.using_clock(clock.FakeClock()) as fake:
            with trace.tracing(True):
                trace.reset()
                with trace.span("outer"):
                    fake.advance(1.0)
                    with trace.span("inner"):
                        fake.advance(0.25)
        outer = trace.tracer().roots[0]
        assert outer.duration == pytest.approx(1.25)
        assert outer.children[0].duration == pytest.approx(0.25)

    def test_exception_closes_the_span_and_records_the_error(self):
        with trace.tracing(True):
            trace.reset()
            with pytest.raises(ValueError):
                with trace.span("failing"):
                    raise ValueError("boom")
        failing = trace.tracer().roots[0]
        assert failing.end is not None
        assert failing.attributes["error"] == "ValueError"

    def test_parent_end_clamps_to_the_last_child_end(self):
        with clock.using_clock(clock.FakeClock()) as fake:
            with trace.tracing(True):
                trace.reset()
                with trace.span("parent") as parent:
                    late = Span(None, "late-child", {})
                    late.start = fake.now()
                    late.end = fake.now() + 5.0  # beyond the parent's own exit
                    parent.add_child(late)
        parent = trace.tracer().roots[0]
        assert parent.end == pytest.approx(parent.children[0].end)
        assert_well_formed(parent)


class TestRetentionCaps:
    def test_child_cap_drops_and_counts(self, monkeypatch):
        monkeypatch.setattr(trace, "MAX_CHILD_SPANS", 3)
        with trace.tracing(True):
            trace.reset()
            with trace.span("parent"):
                for index in range(5):
                    with trace.span(f"child-{index}"):
                        pass
        parent = trace.tracer().roots[0]
        assert len(parent.children) == 3
        assert parent.dropped_children == 2
        assert "(+2 children dropped)" in trace.render_tree()

    def test_root_cap_drops_oldest_first(self, monkeypatch):
        monkeypatch.setattr(trace, "MAX_ROOT_SPANS", 2)
        with trace.tracing(True):
            trace.reset()
            for index in range(4):
                with trace.span(f"root-{index}"):
                    pass
        tracer = trace.tracer()
        assert [root.name for root in tracer.roots] == ["root-2", "root-3"]
        assert tracer.dropped_roots == 2


class TestCaptureAndAttach:
    def test_capture_records_freezes_and_clears_finished_roots(self):
        with trace.tracing(True):
            trace.reset()
            with trace.span("finished", rows=1):
                with trace.span("child"):
                    pass
            records = trace.capture_records()
        assert len(records) == 1
        record = records[0]
        assert isinstance(record, SpanRecord)
        assert record.name == "finished"
        assert record.attributes == {"rows": 1}
        assert [child.name for child in record.children] == ["child"]
        assert record.pid == os.getpid()
        assert trace.tracer().roots == []  # cleared by default

    def test_capture_keeps_open_roots(self):
        with trace.tracing(True):
            trace.reset()
            open_span = trace.span("still-open").__enter__()
            try:
                with trace.span("finished"):
                    pass
            finally:
                # "finished" nested under the open span, so nothing is a
                # finished *root* yet.
                assert trace.capture_records() == ()
                open_span.__exit__(None, None, None)
            assert [record.name for record in trace.capture_records()] == [
                "still-open"
            ]

    def test_attach_preserves_duration_and_shifts_to_the_merge_instant(self):
        # Worker monotonic clocks share no epoch with the driver's: a
        # record from "the past of another process" must land under the
        # current span ending now, duration intact.
        record = SpanRecord(
            name="repair.task",
            start=5.0,
            end=5.5,
            attributes={"states": 7},
            pid=4242,
        )
        with clock.using_clock(clock.FakeClock(start=100.0)) as fake:
            with trace.tracing(True):
                trace.reset()
                with trace.span("driver"):
                    fake.advance(1.0)
                    trace.attach([record])
        child = trace.tracer().roots[0].children[0]
        assert child.name == "repair.task"
        assert child.pid == 4242
        assert child.end == pytest.approx(101.0)  # the merge instant
        assert child.duration == pytest.approx(0.5)
        assert child.attributes == {"states": 7}
        assert_well_formed(trace.tracer().roots[0])

    def test_attach_clamps_starts_to_the_enclosing_span(self):
        # A worker span longer than the driver span's lifetime so far gets
        # its start clamped; nesting beats exact duration in that corner.
        record = SpanRecord(name="repair.task", start=0.0, end=9.0, pid=4242)
        with clock.using_clock(clock.FakeClock(start=50.0)) as fake:
            with trace.tracing(True):
                trace.reset()
                with trace.span("driver"):
                    fake.advance(1.0)
                    trace.attach([record])
        root = trace.tracer().roots[0]
        assert root.children[0].start == pytest.approx(root.start)
        assert_well_formed(root)

    def test_attach_outside_any_span_files_roots(self):
        record = SpanRecord(name="repair.task", start=0.0, end=1.0, pid=4242)
        with trace.tracing(True):
            trace.reset()
            trace.attach([record])
            assert [root.name for root in trace.tracer().roots] == ["repair.task"]

    def test_attach_is_a_no_op_when_disabled(self):
        record = SpanRecord(name="repair.task", start=0.0, end=1.0)
        with trace.tracing(False):
            trace.attach([record])
        assert trace.tracer().roots == []


class TestExporters:
    def make_trace(self):
        with clock.using_clock(clock.FakeClock()) as fake:
            with trace.tracing(True):
                trace.reset()
                with trace.span("session.report", query="ans()"):
                    fake.advance(0.002)
                    with trace.span("engine.direct"):
                        fake.advance(0.001)
        return trace.tracer().roots

    def test_render_tree_indents_and_shows_durations(self):
        roots = self.make_trace()
        rendered = trace.render_tree(roots)
        lines = rendered.splitlines()
        assert lines[0].startswith("session.report  3.000ms")
        assert "[query='ans()']" in lines[0]
        assert lines[1].startswith("  engine.direct  1.000ms")

    def test_chrome_trace_events_are_complete_events_in_microseconds(self):
        roots = self.make_trace()
        events = trace.chrome_trace_events(roots)
        assert [event["name"] for event in events] == [
            "session.report",
            "engine.direct",
        ]
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == os.getpid()
            assert event["tid"] == os.getpid()
        assert events[0]["dur"] == pytest.approx(3000.0)  # µs
        assert events[1]["dur"] == pytest.approx(1000.0)
        assert events[0]["args"] == {"query": "ans()"}

    def test_dump_chrome_trace_writes_loadable_json(self, tmp_path):
        roots = self.make_trace()
        path = tmp_path / "trace-events.json"
        trace.dump_chrome_trace(str(path), roots)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == 2


class TestWellFormedOnEveryScenario:
    def test_every_scenario_emits_a_well_formed_trace(self, all_scenarios):
        """The ISSUE's property: run a full request per pinned scenario and
        check every emitted trace — spans closed, children nested inside
        parents — even when the request itself fails."""

        for name, scenario in sorted(all_scenarios.items()):
            with trace.tracing(True):
                trace.reset()
                db = ConsistentDatabase(scenario.instance, scenario.constraints)
                db.is_consistent()
                db.violations()
                try:
                    db.repair_count()
                except Exception:
                    # The property under test is trace hygiene, not the
                    # request outcome: a failed request must still close
                    # every span it opened.
                    pass
                roots = trace.tracer().roots
                assert roots, f"scenario {name} recorded no spans"
                for root in roots:
                    assert_well_formed(root)

    def test_parallel_workers_ship_spans_home(self, all_scenarios):
        """A real two-process pool: worker ``repair.task`` spans arrive as
        records, re-parented under the driver's ``repair.search`` span, and
        the merged tree is still well-formed."""

        instance, constraints = grouped_key_workload(
            n_groups=3, group_size=3, n_clean=6, seed=3
        )
        with trace.tracing(True):
            trace.reset()
            engine = RepairEngine(
                constraints, workers=2, chunk_states=3
            )
            engine.repairs(instance)
            roots = trace.tracer().roots
        nodes = [node for root in roots for node in span_nodes(root)]
        search_spans = [node for node in nodes if node.name == "repair.search"]
        assert search_spans, "driver recorded no repair.search span"
        task_spans = [node for node in nodes if node.name == "repair.task"]
        assert task_spans, "no worker task spans were attached"
        worker_pids = {node.pid for node in task_spans}
        assert any(pid != os.getpid() for pid in worker_pids), (
            "every task span claims the driver's pid — worker capture "
            "did not ship across the process boundary"
        )
        for root in roots:
            assert_well_formed(root)
        # Re-parented spans sit under the driver's search span, not as roots.
        for task in task_spans:
            assert task not in roots
