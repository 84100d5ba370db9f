"""Seeded inputs, timed operations and answer oracles of the benchmark.

Three scenarios, each run as a closed loop by one client in one process
with the repair pool off (``workers=0``):

* ``key_repairs`` — a keyed ``Emp`` relation with conflict groups; the
  query is outside the rewriting fragment, so ``auto`` enumerates repairs;
* ``fk_rewrite`` — a parent/child foreign key; the join is inside the
  rewriting fragment, answered by rewriting or by the SQLite mirror;
* ``mutate_query`` — one warm session over a large parent/child instance
  taking a seeded stream of inserts and deletes.

A benchmark workload is one (scenario, operation) pair, so that every
workload reports the latency of a single kind of request.  All inputs are
generated here from the seed with :class:`random.Random`; the library
receives only plain rows.  Every oracle is a closed form computed from the
generator's own bookkeeping, never from the code under test.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import NULL, ConsistentDatabase, parse_constraint, parse_query


@dataclass
class Step:
    """One timed request: ``run()`` is timed, ``check(result)`` is not."""

    op: str
    session: ConsistentDatabase
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def _digest(parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _session(rows: Dict[str, List[Tuple]], constraints) -> ConsistentDatabase:
    return ConsistentDatabase(rows, constraints, method="auto", workers=0)


class Scenario:
    """Shared shape: seeded inputs, set-up checks, an untimed warm-up, steps."""

    ops: Tuple[str, ...] = ()
    #: Operation -> requests a run makes per second of ``--seconds``.
    rates: Dict[str, float] = {}

    def inputs_digest(self) -> str:
        raise NotImplementedError

    def setup_checks(self) -> List[str]:
        """Oracle failures found while setting up (empty when all agree)."""

        return []

    def steps(self, op: str) -> Iterator[Step]:
        raise NotImplementedError

    def warm_up(self, steps: Iterator[Step]) -> List[str]:
        """Run one request untimed, so compile and codegen memos fill here."""

        step = next(steps)
        return [] if step.check(step.run()) else [f"warm-up {step.op}: wrong answer"]


# --------------------------------------------------------------------------- key_repairs
KEY_CONSTRAINTS = (
    "Emp(e, d, s), Emp(e, f, t) -> d = f",
    "Emp(e, d, s), Emp(e, f, t) -> s = t",
)
KEY_QUERY = "ans(e, d) <- Emp(e, d, s)"


@dataclass
class KeyVariant:
    rows: List[Tuple]
    clean: List[Tuple]  #: rows outside every conflict group
    conflicting: List[Tuple]  #: rows of the conflict groups


def key_variant(rng: random.Random, groups: int, group_size: int, clean: int) -> KeyVariant:
    """``groups`` key-conflict groups of ``group_size`` rows plus clean rows.

    Members of a group share the key and differ pairwise in both dependent
    attributes, so every variant has exactly ``group_size ** groups``
    repairs (one survivor per group) and its consistent answers to
    ``ans(e, d)`` are exactly the clean rows' ``(e, d)`` pairs.
    """

    conflicting = [
        (f"dup{g}", f"g{g}m{m}x{rng.randrange(100)}", 1000 * g + 10 * m + rng.randrange(10))
        for g in range(groups)
        for m in range(group_size)
    ]
    clean_rows = [
        (f"e{i}", f"dept{rng.randrange(8)}", 10 * rng.randrange(1, 200)) for i in range(clean)
    ]
    rows = conflicting + clean_rows
    rng.shuffle(rows)
    return KeyVariant(rows, clean_rows, conflicting)


class KeyRepairs(Scenario):
    """``report``/``certain`` requests that must enumerate repairs."""

    ops = ("enumerate", "certain_yes", "certain_no")
    rates = {"enumerate": 2.4, "certain_yes": 2.4, "certain_no": 8.5}
    sizes = {"full": (5, 3, 40, 12), "smoke": (2, 2, 6, 3)}

    def __init__(self, seed: int, scale: str = "full"):
        self.groups, self.group_size, clean, n_variants = self.sizes[scale]
        self.rng = random.Random(seed)
        self.variants = [
            key_variant(self.rng, self.groups, self.group_size, clean) for _ in range(n_variants)
        ]
        self.constraints = [parse_constraint(text) for text in KEY_CONSTRAINTS]
        self.query = parse_query(KEY_QUERY)
        self.repair_count = self.group_size ** self.groups

    def inputs_digest(self) -> str:
        return _digest([v.rows for v in self.variants])

    def steps(self, op: str) -> Iterator[Step]:
        index = 0
        while True:
            variant = self.variants[index % len(self.variants)]
            index += 1
            session = _session({"Emp": variant.rows}, self.constraints)
            if op == "enumerate":
                expected = frozenset((e, d) for e, d, _ in variant.clean)
                yield Step(
                    op,
                    session,
                    lambda s=session: s.report(self.query),
                    lambda r, x=expected: r.repair_count == self.repair_count and r.answers == x,
                )
            else:
                pool = variant.clean if op == "certain_yes" else variant.conflicting
                candidate = self.rng.choice(pool)[:2]
                yield Step(
                    op,
                    session,
                    lambda s=session, c=candidate: s.certain(self.query, c, anytime=True),
                    lambda r, want=(op == "certain_yes"): r is want,
                )


# --------------------------------------------------------------------------- parent/child
FK_CONSTRAINTS = (
    "Child(c, p, d) -> Parent(p, q)",
    "Parent(p, q), Parent(p, r) -> q = r",
    "Parent(p, q), isnull(p) -> false",
)
FK_JOIN = "ans(c, q) <- Child(c, p, d), Parent(p, q)"
FK_CHILDREN = "ans(c) <- Child(c, p, d)"


#: Share of generated children with a dangling reference, and with a null
#: reference (and, independently, a null payload).
DANGLING = NULLS = 0.1


def fk_rows(
    rng: random.Random, parents: int, children: int
) -> Tuple[Dict[str, str], Dict[str, Any], List[Tuple]]:
    """Parents ``p<i>`` with unique keys; children pointing at a parent, at a
    missing id (a dangling reference) or at ``null``.

    Exactly a ``DANGLING`` share of the children dangles and a ``NULLS``
    share has a null reference (in a seeded order), so every seed stores the
    same number of violations.  Returns ``(parent -> payload, child -> pid,
    child rows)``.
    """

    parent_data = {f"p{i}": f"pd{i}_{rng.randrange(1000)}" for i in range(parents)}
    ids = list(parent_data)
    nulls, dangling = round(children * NULLS), round(children * DANGLING)
    references = ["null"] * nulls + ["dangling"] * dangling
    references += ["parent"] * (children - len(references))
    rng.shuffle(references)
    child_pid: Dict[str, Any] = {}
    rows = []
    for c, reference in enumerate(references):
        cid = f"c{c}"
        if reference == "null":
            pid: Any = NULL
        elif reference == "dangling":
            pid = f"missing{c}"
        else:
            pid = rng.choice(ids)
        child_pid[cid] = pid
        rows.append((cid, pid, NULL if rng.random() < NULLS else f"cd{c}"))
    return parent_data, child_pid, rows


def fk_join_answers(parent_data: Dict[str, str], child_pid: Dict[str, Any]) -> frozenset:
    """Closed form of the join's consistent answers.

    Parents never conflict (unique, non-null keys), so a child whose parent
    exists joins in every repair.  A dangling child is deleted in one repair
    and joins only a null-padded parent in the other; a child with a null
    reference satisfies the foreign key but joins no parent.
    """

    return frozenset(
        (cid, parent_data[pid]) for cid, pid in child_pid.items() if pid in parent_data
    )


class FkRewrite(Scenario):
    """A join inside the rewriting fragment, by rewriting and by SQLite."""

    ops = ("rewrite", "sql")
    rates = {"rewrite": 2.8, "sql": 20.0}
    sizes = {"full": (250, 500, 4), "smoke": (6, 12, 2)}

    def __init__(self, seed: int, scale: str = "full"):
        parents, children, n_variants = self.sizes[scale]
        rng = random.Random(seed)
        self.variants = []
        for _ in range(n_variants):
            parent_data, child_pid, child_rows = fk_rows(rng, parents, children)
            rows = {"Parent": list(parent_data.items()), "Child": child_rows}
            self.variants.append((rows, fk_join_answers(parent_data, child_pid)))
        # A down-sized variant small enough for direct repair enumeration;
        # its first two children are forced dangling and null-referencing.
        parent_data, child_pid, child_rows = fk_rows(rng, 6, 10)
        child_rows[:2] = [("c0", "missing0", "cd0"), ("c1", NULL, "cd1")]
        child_pid.update(c0="missing0", c1=NULL)
        self.small = (
            {"Parent": list(parent_data.items()), "Child": child_rows},
            fk_join_answers(parent_data, child_pid),
        )
        self.constraints = [parse_constraint(text) for text in FK_CONSTRAINTS]
        self.query = parse_query(FK_JOIN)

    def inputs_digest(self) -> str:
        return _digest([rows for rows, _ in self.variants] + [self.small[0]])

    def setup_checks(self) -> List[str]:
        """Direct enumeration, rewriting and SQLite agree on the small variant."""

        rows, expected = self.small
        failures = []
        for method in ("direct", "rewriting", "sqlite"):
            got = _session(rows, self.constraints).consistent_answers(self.query, method=method)
            if got != expected:
                failures.append(f"fk_rewrite small variant: {method} disagrees with closed form")
        return failures

    def steps(self, op: str) -> Iterator[Step]:
        method = "auto" if op == "rewrite" else "sqlite"
        index = 0
        while True:
            rows, expected = self.variants[index % len(self.variants)]
            index += 1
            session = _session(rows, self.constraints)
            yield Step(
                op,
                session,
                lambda s=session: s.consistent_answers(self.query, method=method),
                lambda r, x=expected: r == x,
            )


# --------------------------------------------------------------------------- mutate_query
class _Bag:
    """A list with O(1) seeded random choice and swap-remove."""

    def __init__(self, items=()):
        self.items = list(items)
        self.where = {item: i for i, item in enumerate(self.items)}

    def __len__(self) -> int:
        return len(self.items)

    def add(self, item) -> None:
        self.where[item] = len(self.items)
        self.items.append(item)

    def remove(self, item) -> None:
        i = self.where.pop(item)
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.where[last] = i

    def choice(self, rng: random.Random):
        return self.items[rng.randrange(len(self.items))]


class MutateQuery(Scenario):
    """One warm session taking writes, with queries and fresh sweeps beside.

    The generator keeps its own model of the instance — parents, each
    child's reference and how many children point at each id — so the
    expected violation count (one foreign-key violation per dangling child)
    and the expected consistent answers need no call into the library.
    """

    ops = ("write", "query", "sweep")
    rates = {"write": 700.0, "query": 3.6, "sweep": 2.4}
    sizes = {"full": (5000, 10000, 10), "smoke": (20, 40, 3)}
    #: The writes, in blocks of 100 shuffled afresh from the seed.  Sorted by
    #: latency the kinds run child insert (60% of writes), parent delete
    #: (15%), child delete (10%), parent insert (15%, O(stored violations)),
    #: so the median falls well inside the child inserts and the 90th
    #: percentile a third into the parent inserts.  The mix is not
    #: stationary on purpose: with as many child deletes as inserts, the two
    #: cheap kinds (child inserts, parent deletes) make exactly half the
    #: writes and the median sits on the step between cheap and costly ones.
    #: Children grow by half the writes and dangling children (the stored
    #: violations a parent insert scans) by 5% of them; a run makes a fixed
    #: number of writes, so that growth is the same whatever the throughput.
    write_block = (
        ("child_insert", 48),
        ("dangling_child_insert", 6),
        ("null_child_insert", 6),
        ("child_delete", 10),
        ("parent", 30),
    )

    def __init__(self, seed: int, scale: str = "full"):
        parents, children, self.writes_between = self.sizes[scale]
        self.rng = random.Random(seed)
        parent_data, child_pid, child_rows = fk_rows(self.rng, parents, children)
        self.initial = {"Parent": list(parent_data.items()), "Child": child_rows}
        self.parents = _Bag(parent_data)
        self.parent_data = dict(parent_data)
        self.children = _Bag(child_pid)
        self.child_row = {row[0]: row for row in child_rows}
        self.refs: Dict[Any, int] = {}
        for pid in child_pid.values():
            if pid is not NULL:
                self.refs[pid] = self.refs.get(pid, 0) + 1
        self.dangling = sum(n for pid, n in self.refs.items() if pid not in self.parent_data)
        self.deleted_parents: List[Tuple[str, str]] = []
        self.schedule: List[str] = []
        self.fresh = 0
        self.sweep_vs_tracker_mismatches = 0
        self.constraints = [parse_constraint(text) for text in FK_CONSTRAINTS]
        self.query = parse_query(FK_CHILDREN)
        self.db = _session(self.initial, self.constraints)

    def inputs_digest(self) -> str:
        # The writes are drawn from the generator as the loop runs, so its
        # state after set-up pins the whole write sequence.
        return _digest([self.initial, self.rng.getstate()])

    # ------------------------------------------------------------------ model
    def _next_write(self, kind: Optional[str] = None) -> Tuple[str, str, Tuple]:
        """Pick the next write and apply it to the model (not to the session).

        Parent writes alternate: delete a random parent (orphaning its
        children), then re-insert it (resolving them), so the parents and
        their orphans stay level; one in ten inserted children dangles and
        one in ten has a null reference, as in the initial instance.
        """

        rng = self.rng
        if kind is None:
            if not self.schedule:
                self.schedule = [name for name, n in self.write_block for _ in range(n)]
                rng.shuffle(self.schedule)
            kind = self.schedule.pop()
        if kind == "parent":
            kind = "parent_insert" if self.deleted_parents else "parent_delete"
        if kind == "child_delete" and not self.children:
            kind = "child_insert"
        if kind == "child_insert" and not self.parents:
            kind = "parent_insert"
        self.fresh += 1
        pid: Any
        if kind.endswith("child_insert"):
            if kind == "null_child_insert":
                pid = NULL
            elif kind == "dangling_child_insert":
                pid = f"missing_n{self.fresh}"
            else:
                pid = self.parents.choice(rng)
            row = (f"cn{self.fresh}", pid, "x")
            self.children.add(row[0])
            self.child_row[row[0]] = row
            if pid is not NULL:
                self.refs[pid] = self.refs.get(pid, 0) + 1
                self.dangling += pid not in self.parent_data
            return "insert", "Child", row
        if kind == "child_delete":
            cid = self.children.choice(rng)
            row = self.child_row.pop(cid)
            self.children.remove(cid)
            pid = row[1]
            if pid is not NULL:
                self.refs[pid] -= 1
                self.dangling -= pid not in self.parent_data
            return "delete", "Child", row
        if kind == "parent_insert":
            pid, payload = self.deleted_parents.pop()
            self.parents.add(pid)
            self.parent_data[pid] = payload
            self.dangling -= self.refs.get(pid, 0)
            return "insert", "Parent", (pid, payload)
        pid = self.parents.choice(rng)
        row = (pid, self.parent_data.pop(pid))
        self.parents.remove(pid)
        self.deleted_parents.append(row)
        self.dangling += self.refs.get(pid, 0)
        return "delete", "Parent", row

    def _write_request(self, kind: Optional[str] = None) -> Callable[[], int]:
        action, predicate, row = self._next_write(kind)
        mutate = self.db.insert if action == "insert" else self.db.delete

        def request() -> int:
            mutate(predicate, row)
            return self.db.violation_count()

        return request

    def _expected_children(self) -> frozenset:
        return frozenset(
            (cid,)
            for cid, (_, pid, _) in self.child_row.items()
            if pid is NULL or pid in self.parent_data
        )

    # ------------------------------------------------------------------ steps
    def warm_up(self, steps: Iterator[Step]) -> List[str]:
        """One acknowledged write of each kind first (the first ``parent``
        write deletes, the second re-inserts): the first write pays the
        initial full sweep, and each kind fills its own delta-plan memos."""

        failures = []
        for kind in ("child_insert", "child_delete", "parent", "parent"):
            count = self._write_request(kind)()
            if count != self.dangling:
                failures.append(f"warm-up {kind}: {count} violations, expected {self.dangling}")
        return failures + super().warm_up(steps)

    def _untimed_writes(self) -> List[str]:
        failures = []
        for _ in range(self.writes_between):
            count = self._write_request()()
            if count != self.dangling:
                failures.append(f"write: {count} violations, expected {self.dangling}")
        return failures

    def steps(self, op: str) -> Iterator[Step]:
        while True:
            if op == "write":
                run = self._write_request()
                yield Step(op, self.db, run, lambda r, x=self.dangling: r == x)
                continue
            failures = self._untimed_writes()
            if failures:
                raise AssertionError("; ".join(failures))
            if op == "query":
                expected = self._expected_children()
                yield Step(
                    op,
                    self.db,
                    lambda: self.db.consistent_answers(self.query),
                    lambda r, x=expected: r == x,
                )
            else:
                fresh = ConsistentDatabase(self.db.snapshot(), self.constraints, workers=0)
                warm, model = self.db.violation_count(), self.dangling
                yield Step(
                    op,
                    fresh,
                    fresh.violation_count,
                    lambda r, w=warm, m=model: self._sweep_agrees(r, w, m),
                )

    def _sweep_agrees(self, swept: int, warm: int, model: int) -> bool:
        self.sweep_vs_tracker_mismatches += swept != warm
        return swept == warm == model


SCENARIOS = {"key_repairs": KeyRepairs, "fk_rewrite": FkRewrite, "mutate_query": MutateQuery}

#: Benchmark workload name -> (scenario, timed operation).
WORKLOADS = {
    f"{name}.{op}": (name, op) for name, scenario in SCENARIOS.items() for op in scenario.ops
}
#: Benchmark workload name -> requests a run makes per second of ``--seconds``.
REQUESTS_PER_SECOND = {
    workload: SCENARIOS[name].rates[op] for workload, (name, op) in WORKLOADS.items()
}


def build(workload: str, seed: int, scale: str = "full"):
    """The scenario of *workload*, with its inputs generated from *seed*."""

    scenario_name, _ = WORKLOADS[workload]
    return SCENARIOS[scenario_name](seed, scale)
