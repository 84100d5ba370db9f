"""The parallel pool's wire format: codec round-trips and shm payloads."""

import pickle

import pytest

from repro.constraints.parser import parse_constraint
from repro.core import parallel
from repro.core.parallel import (
    FrontierTask,
    ParallelRepairSearch,
    TaskResult,
    _attach_instance,
    _decode_result,
    _decode_statistics,
    _decode_task,
    _encode_result,
    _encode_statistics,
    _encode_task,
)
from repro.core.repairs import RepairStatistics
from repro.relational import columnar
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance, Fact


def _instance():
    return DatabaseInstance.from_dict(
        {
            "P": [("a", 1), ("b", 2), ("c", NULL)],
            "Q": [("a",), ("b",)],
        }
    )


def _codec():
    return columnar.FactCodec.from_instance(_instance())


def _task(instance):
    facts = sorted(instance.facts(), key=Fact.sort_key)
    return FrontierTask(
        path=(0, 2),
        inserted=frozenset({Fact("Q", ("z",))}),
        deleted=frozenset(facts[:1]),
        excluded_deletions=frozenset(facts[1:2]),
        excluded_insertions=frozenset(),
    )


class TestTaskWire:
    def test_round_trip(self):
        instance = _instance()
        codec = _codec()
        task = _task(instance)
        assert _decode_task(codec, _encode_task(codec, task)) == task

    def test_base_facts_ship_as_integers(self):
        instance = _instance()
        codec = _codec()
        task = _task(instance)
        wire = _encode_task(codec, task)
        _, inserted, deleted, excluded_deletions, _ = wire
        assert all(isinstance(token, int) for token in deleted)
        assert all(isinstance(token, int) for token in excluded_deletions)
        # The inserted witness is not a base fact: it ships as a pair.
        assert inserted == (("Q", ("z",)),)

    def test_wire_is_smaller_than_the_task_pickle(self):
        instance = _instance()
        codec = _codec()
        task = _task(instance)
        wire = _encode_task(codec, task)
        assert len(pickle.dumps(wire)) < len(pickle.dumps(task))


class TestStatisticsWire:
    def test_round_trip(self):
        statistics = RepairStatistics(
            states_explored=7, tasks_shipped=3, task_ship_bytes=123
        )
        assert _decode_statistics(_encode_statistics(statistics)) == statistics

    def test_tuple_is_smaller_than_the_dataclass_pickle(self):
        statistics = RepairStatistics(states_explored=7)
        wire = _encode_statistics(statistics)
        assert len(pickle.dumps(wire)) < len(pickle.dumps(statistics))


class TestResultWire:
    def test_round_trip_rebuilds_everything(self):
        instance = _instance()
        codec = _codec()
        task = _task(instance)
        extra = Fact("P", ("new", 9))
        candidate = (
            task.path + (1,),
            task.inserted | {extra},
            task.deleted,
        )
        sub = FrontierTask(
            task.path + (0, 3),
            task.inserted,
            task.deleted | {sorted(instance.facts(), key=Fact.sort_key)[2]},
            task.excluded_deletions,
            task.excluded_insertions | {extra},
        )
        result = TaskResult(
            task,
            candidates=[candidate],
            deferred=[sub],
            statistics=RepairStatistics(states_explored=5),
        )
        wire = _encode_result(codec, result)
        decoded = _decode_result(codec, wire, task)
        assert decoded.task is task
        assert decoded.candidates == result.candidates
        assert decoded.deferred == result.deferred
        assert decoded.statistics == result.statistics
        assert decoded.spans == ()

    def test_wire_ships_suffixes_and_differences_only(self):
        instance = _instance()
        codec = _codec()
        task = _task(instance)
        candidate = (task.path + (4,), task.inserted, task.deleted)
        result = TaskResult(
            task, candidates=[candidate], deferred=[], statistics=RepairStatistics()
        )
        candidates_wire, deferred_wire, _, _ = _encode_result(codec, result)
        path, inserted, deleted = candidates_wire[0]
        assert path == (4,)  # the task's path prefix never ships back
        assert inserted == ()  # nothing beyond what the task already holds
        assert deleted == ()
        assert deferred_wire == []


class TestInstancePayload:
    CONSTRAINTS = [parse_constraint("P(x, y), P(x, z) -> y = z")]

    def test_shm_payload_round_trips(self):
        instance = _instance()
        search = ParallelRepairSearch(instance, self.CONSTRAINTS, workers=2)
        try:
            payload = search._instance_payload(audit=False)
            if payload[0] != "shm":
                pytest.skip("shared memory unavailable on this platform")
            rebuilt = _attach_instance(payload)
            assert set(rebuilt.facts()) == set(instance.facts())
            assert search.statistics.instance_ship_bytes == payload[2]
        finally:
            search.close()

    def test_shm_segment_is_released_on_close(self):
        search = ParallelRepairSearch(_instance(), self.CONSTRAINTS, workers=2)
        payload = search._instance_payload(audit=False)
        if payload[0] != "shm":
            search.close()
            pytest.skip("shared memory unavailable on this platform")
        search.close()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=payload[1])

    def test_facts_fallback_when_shm_disabled(self, monkeypatch):
        from multiprocessing import shared_memory

        def unavailable(*args, **kwargs):
            raise OSError("shared memory unavailable")

        monkeypatch.setattr(shared_memory, "SharedMemory", unavailable)
        instance = _instance()
        search = ParallelRepairSearch(instance, self.CONSTRAINTS, workers=2)
        try:
            payload = search._instance_payload(audit=False)
            assert payload[0] == "facts"
            rebuilt = _attach_instance(payload)
            assert set(rebuilt.facts()) == set(instance.facts())
        finally:
            search.close()


class TestEndToEndShipAccounting:
    def test_pool_run_counts_shipments(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHIP_AUDIT", "1")
        instance = DatabaseInstance.from_dict(
            {"P": [("a", 1), ("a", 2), ("b", 3), ("b", 4)]}
        )
        constraints = [parse_constraint("P(x, y), P(x, z) -> y = z")]
        search = ParallelRepairSearch(
            instance, constraints, workers=2, chunk_states=4
        )
        try:
            for batch in search.batches():
                if not batch.open_tasks:
                    break
            assert len(search.store)  # the FD conflicts have repairs
            stats = search.statistics
            assert stats.tasks_shipped > 0
            assert stats.task_ship_bytes > 0
            assert stats.task_ship_bytes_raw > stats.task_ship_bytes
        finally:
            search.close()
