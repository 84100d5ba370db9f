"""repro.relational.columnar: the store build, pack/unpack, FactCodec."""

import pytest

from repro.relational import columnar
from repro.relational.domain import NULL
from repro.relational.instance import DatabaseInstance, Fact


def _instance():
    return DatabaseInstance.from_dict(
        {
            "Emp": [
                ("a", "sales", 1),
                ("a", "hr", 2),
                ("b", "sales", 3),
                ("c", NULL, 4),
            ],
            "Dept": [("sales",), ("hr",)],
        }
    )


class TestStore:
    def test_null_interns_to_the_sentinel_id(self):
        store = columnar.ColumnarStore.from_instance(_instance())
        assert store.values[columnar.NULL_ID] is NULL
        assert store.intern(NULL) == columnar.NULL_ID
        assert NULL not in store.ids

    def test_columns_round_trip_the_rows(self):
        instance = _instance()
        store = columnar.ColumnarStore.from_instance(instance)
        rel = store.relations["Emp"]
        assert rel.arity == 3
        decoded = {
            tuple(store.values[rel.columns[p][r]] for p in range(rel.arity))
            for r in range(len(rel.rows))
        }
        assert decoded == set(instance.rows("Emp"))
        assert decoded == set(rel.rows)


class TestPack:
    def test_pack_unpack_round_trips_the_instance(self):
        instance = _instance()
        restored = columnar.unpack_instance(columnar.pack_instance(instance))
        assert set(restored.facts()) == set(instance.facts())
        assert restored.predicates == instance.predicates

    def test_pack_is_deterministic_for_equal_instances(self):
        assert columnar.pack_instance(_instance()) == columnar.pack_instance(
            _instance()
        )

    def test_unpack_rejects_foreign_payloads(self):
        import pickle

        with pytest.raises(ValueError, match="columnar pack"):
            columnar.unpack_instance(pickle.dumps(("other", (), ())))


class TestFactCodec:
    def test_base_facts_ship_as_integers(self):
        instance = _instance()
        codec = columnar.FactCodec.from_instance(instance)
        for fact in instance.facts():
            token = codec.encode_fact(fact)
            assert isinstance(token, int)
            assert codec.decode_fact(token) == fact

    def test_foreign_facts_ship_as_pairs(self):
        codec = columnar.FactCodec.from_instance(_instance())
        foreign = Fact("Emp", ("z", "ops", 9))
        token = codec.encode_fact(foreign)
        assert token == ("Emp", ("z", "ops", 9))
        assert codec.decode_fact(token) == foreign

    def test_both_ends_derive_the_same_numbering(self):
        instance = _instance()
        driver = columnar.FactCodec.from_instance(instance)
        worker = columnar.FactCodec.from_instance(
            columnar.unpack_instance(columnar.pack_instance(instance))
        )
        assert len(driver) == len(worker)
        for fact in instance.facts():
            assert driver.encode_fact(fact) == worker.encode_fact(fact)

    def test_fact_sets_round_trip(self):
        instance = _instance()
        codec = columnar.FactCodec.from_instance(instance)
        facts = frozenset(list(instance.facts())[:2]) | {Fact("Emp", ("q", "x", 0))}
        tokens = codec.encode_facts(facts)
        assert codec.decode_facts(tokens) == facts
        # Equal sets encode equally (sorted), whatever the input order.
        assert tokens == codec.encode_facts(sorted(facts, key=Fact.sort_key))
