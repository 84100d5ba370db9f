"""The process pool's wire format: an instance as interned columns.

:class:`ColumnarStore` turns a :class:`~repro.relational.instance.
DatabaseInstance` into interned per-position columns: every predicate
becomes one ``array('q')`` of value ids per position (the intern table
maps each distinct domain constant to a small integer, with id ``0``
reserved as the null sentinel).  :func:`pack_instance` /
:func:`unpack_instance` serialise those columns to one flat byte string
that :mod:`repro.core.parallel` places in
``multiprocessing.shared_memory``, so every distinct constant crosses
the process boundary once; :class:`FactCodec` numbers the base facts in
their deterministic ``facts()`` order so frontier tasks ship small
integers instead of pickled :class:`~repro.relational.instance.Fact`
objects.

Lint rule INV006 keeps this module free of :mod:`repro.compile.codegen`.
"""

from __future__ import annotations

import pickle
from array import array
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Sequence,
    Tuple,
    Union,
)

from repro.obs import metrics as _metrics
from repro.relational.domain import NULL, Constant, constant_sort_key, is_null
from repro.relational.instance import DatabaseInstance, Fact, Row

#: Interned id of the null sentinel — every column encodes ``null`` as 0.
NULL_ID = 0

_PACK_MAGIC = "repro-columnar-pack-v1"

_STORE_BUILDS = _metrics.counter(
    "repro_columnar_store_builds_total", "columnar store builds from an instance"
)
_STORE_ROWS = _metrics.counter(
    "repro_columnar_store_rows_total", "rows interned into columnar stores"
)


def _row_sort_key(row: Row) -> Tuple[Any, ...]:
    return tuple(constant_sort_key(value) for value in row)


class ColumnarRelation:
    """One predicate's rows as interned per-position columns.

    ``rows`` holds the original value tuples (shared with the source
    instance) in deterministic sorted order; ``columns[p]`` is an
    ``array('q')`` of value ids.
    """

    __slots__ = ("predicate", "arity", "rows", "columns")

    def __init__(
        self,
        predicate: str,
        arity: int,
        rows: List[Row],
        columns: List["array[int]"],
    ) -> None:
        self.predicate = predicate
        self.arity = arity
        self.rows = rows
        self.columns = columns


class ColumnarStore:
    """A whole instance as interned columns."""

    __slots__ = ("values", "ids", "relations")

    def __init__(self) -> None:
        #: id → value; ``values[0]`` is the null sentinel.
        self.values: List[Constant] = [NULL]
        #: non-null value → id (null never appears as a key).
        self.ids: Dict[Constant, int] = {}
        self.relations: Dict[str, ColumnarRelation] = {}

    def intern(self, value: Constant) -> int:
        """The id of *value*, interning it on first sight (null → 0)."""

        if is_null(value):
            return NULL_ID
        value_id = self.ids.get(value)
        if value_id is None:
            value_id = len(self.values)
            self.values.append(value)
            self.ids[value] = value_id
        return value_id

    @classmethod
    def from_instance(cls, instance: DatabaseInstance) -> "ColumnarStore":
        """Intern every relation of *instance* (deterministic row order)."""

        store = cls()
        n_rows = 0
        for predicate in instance.predicates:
            rows = sorted(instance.rows(predicate), key=_row_sort_key)
            if not rows:
                continue
            arity = len(rows[0])
            columns: List["array[int]"] = [array("q") for _ in range(arity)]
            for row in rows:
                for position in range(arity):
                    columns[position].append(store.intern(row[position]))
            store.relations[predicate] = ColumnarRelation(
                predicate, arity, rows, columns
            )
            n_rows += len(rows)
        _STORE_BUILDS.inc()
        _STORE_ROWS.inc(n_rows)
        return store


# --------------------------------------------------------- pack / ship / codec


def pack_instance(instance: DatabaseInstance) -> bytes:
    """Serialise *instance* as interned columns (one flat byte string).

    The layout is the store itself: the intern table plus one
    ``array('q')`` per position per predicate.  Deterministic for equal
    instances, and typically far smaller than pickling the fact set —
    every distinct constant is written once.
    """

    store = ColumnarStore.from_instance(instance)
    relations = tuple(
        (
            predicate,
            rel.arity,
            len(rel.rows),
            tuple(column.tobytes() for column in rel.columns),
        )
        for predicate, rel in sorted(store.relations.items())
    )
    payload = (_PACK_MAGIC, tuple(store.values), relations)
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def unpack_instance(data: bytes) -> DatabaseInstance:
    """Rebuild the :class:`DatabaseInstance` packed by :func:`pack_instance`."""

    magic, values, relations = pickle.loads(data)
    if magic != _PACK_MAGIC:
        raise ValueError(f"not a columnar pack (magic {magic!r})")
    tables: Dict[str, List[Sequence[Constant]]] = {}
    for predicate, arity, n_rows, column_bytes in relations:
        columns = [array("q") for _ in range(arity)]
        for position in range(arity):
            columns[position].frombytes(column_bytes[position])
        rows: List[Sequence[Constant]] = []
        for row_id in range(n_rows):
            rows.append(
                tuple(values[columns[position][row_id]] for position in range(arity))
            )
        tables[predicate] = rows
    return DatabaseInstance.from_dict(tables)


#: A shipped fact: a small integer for base facts, (predicate, values)
#: for facts outside the base instance (inserted witnesses).
FactToken = Union[int, Tuple[str, Row]]


class FactCodec:
    """Number the base instance's facts so deltas ship as small integers.

    Both pool ends derive the codec independently — the driver from its
    live instance, each worker from the instance it unpacked — and the
    numbering is the deterministic sorted ``facts()`` order, so the ids
    agree without ever shipping the mapping itself.
    """

    __slots__ = ("_facts", "_ids")

    def __init__(self, facts: Sequence[Fact]) -> None:
        self._facts: Tuple[Fact, ...] = tuple(facts)
        self._ids: Dict[Fact, int] = {
            fact: fact_id for fact_id, fact in enumerate(self._facts)
        }

    @classmethod
    def from_instance(cls, instance: DatabaseInstance) -> "FactCodec":
        return cls(tuple(instance.facts()))

    def __len__(self) -> int:
        return len(self._facts)

    def encode_fact(self, fact: Fact) -> FactToken:
        fact_id = self._ids.get(fact)
        if fact_id is not None:
            return fact_id
        return (fact.predicate, fact.values)

    def decode_fact(self, token: FactToken) -> Fact:
        if isinstance(token, int):
            return self._facts[token]
        predicate, values = token
        return Fact(predicate, values)

    def encode_facts(self, facts: Iterable[Fact]) -> Tuple[FactToken, ...]:
        """Encode a fact collection (sorted, so equal sets encode equally)."""

        ids: List[int] = []
        extra: List[Fact] = []
        for fact in facts:
            fact_id = self._ids.get(fact)
            if fact_id is not None:
                ids.append(fact_id)
            else:
                extra.append(fact)
        tokens: List[FactToken] = sorted(ids)  # type: ignore[assignment]
        tokens.extend(
            (fact.predicate, fact.values)
            for fact in sorted(extra, key=Fact.sort_key)
        )
        return tuple(tokens)

    def decode_facts(self, tokens: Iterable[FactToken]) -> FrozenSet[Fact]:
        return frozenset(self.decode_fact(token) for token in tokens)
