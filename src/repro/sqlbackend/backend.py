"""SQLite-backed consistency checking and query evaluation.

The backend serves three purposes:

1. **Violation SQL** — :func:`ic_violation_sql` is the one SQL rendering
   of a constraint's violation condition under the paper's null-aware
   semantics ``|=_N`` (Definition 4): the body join, the relevant-null
   guard and the negated consequent.  Left unpinned it is
   :func:`violation_sql`, a ``SELECT`` with one row per ground
   violation, and :meth:`SQLiteBackend.is_consistent` checks that every
   such query is empty.  Pinned at one body occurrence to a table alias
   of an enclosing query it is a rewriting residue (see
   :mod:`repro.rewriting.residues`): the condition that the row under
   that alias joins no violation.  The in-memory compiled plans and the
   residues' first-order formulas are the other two renderings of the
   same condition.
2. **Native acceptance** — :meth:`SQLiteBackend.accepts_natively` loads the
   instance into tables created with native PRIMARY KEY / FOREIGN KEY /
   CHECK / NOT NULL clauses and reports whether the engine accepts it,
   reproducing the DB2 behaviour discussed in Examples 5–7 and the claim
   that the paper's repairs are accepted by commercial implementations.
3. **Query evaluation** — conjunctive queries are compiled to SQL and
   evaluated by SQLite, cross-validating the in-memory evaluator.
"""

from __future__ import annotations

import sqlite3
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.relational.domain import Constant, NULL, is_null
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import DatabaseSchema
from repro.constraints.atoms import Atom, Comparison
from repro.constraints.ic import (
    AnyConstraint,
    ConstraintSet,
    IntegrityConstraint,
    NotNullConstraint,
)
from repro.constraints.terms import Variable, is_variable
from repro.core.relevant import relevant_body_variables, relevant_positions
from repro.logic.queries import ConjunctiveQuery
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.resilience import budget as _budget
from repro.sqlbackend.ddl import (
    _quote_identifier,
    _sql_literal,
    create_table_statements,
)


def _operator(op: str) -> str:
    return "<>" if op == "!=" else op


def _column(schema: DatabaseSchema, predicate: str, position: int, alias: str) -> str:
    attribute = schema.relation(predicate).attribute(position)
    return f"{alias}.{_quote_identifier(attribute)}"


def _nullsafe_eq(left: str, right: str) -> str:
    return f"({left} = {right} OR ({left} IS NULL AND {right} IS NULL))"


def _value_eq(column: str, value: object) -> str:
    """*column* matches the constant *value* (``null`` matches ``NULL``)."""

    if is_null(value):
        return f"{column} IS NULL"
    return f"{column} = {_sql_literal(value)}"


# --------------------------------------------------------------------------- violation SQL
def violation_sql(
    constraint: AnyConstraint, schema: DatabaseSchema
) -> str:
    """A ``SELECT`` returning one row per violation of *constraint* under ``|=_N``."""

    if isinstance(constraint, NotNullConstraint):
        relation = schema.relation(constraint.predicate)
        column = _quote_identifier(relation.attribute(constraint.position))
        return (
            f"SELECT * FROM {_quote_identifier(relation.name)} WHERE {column} IS NULL"
        )
    return ic_violation_sql(constraint, schema)


def ic_violation_sql(
    constraint: IntegrityConstraint,
    schema: DatabaseSchema,
    pin: Optional[Tuple[int, str]] = None,
) -> str:
    """The violation condition of *constraint* under ``|=_N``, as SQL.

    Unpinned, a ``SELECT *`` with one row per ground violation.  With
    ``pin=(occurrence, alias)`` body atom *occurrence* is the row of the
    enclosing query's table *alias*, and the result is the condition
    that this row joins no violation: ``NOT EXISTS (SELECT 1 …)`` over
    the other body atoms, or ``NOT (…)`` when there are none.

    Joined columns compare with plain ``=``: every joined variable is
    relevant, and the guard requires relevant variables to be non-null.
    Constants in patterns and witnesses match ``null`` as an ordinary
    value, like the in-memory matcher.
    """

    prefix = "t" if pin is None else f"{pin[1]}_"
    from_parts: List[str] = []
    conditions: List[str] = []
    columns: Dict[Variable, str] = {}

    for index, atom in enumerate(constraint.body):
        if pin is not None and index == pin[0]:
            alias = pin[1]
        else:
            alias = f"{prefix}{index}"
            from_parts.append(f"{_quote_identifier(atom.predicate)} AS {alias}")
        for position, term in enumerate(atom.terms):
            column = _column(schema, atom.predicate, position, alias)
            if not is_variable(term):
                conditions.append(_value_eq(column, term))
            elif term in columns:
                conditions.append(f"{column} = {columns[term]}")
            else:
                columns[term] = column

    for variable in sorted(relevant_body_variables(constraint), key=lambda v: v.name):
        conditions.append(f"{columns[variable]} IS NOT NULL")

    positions = relevant_positions(constraint)
    for index, atom in enumerate(constraint.head_atoms):
        kept = positions.get(atom.predicate, tuple(range(atom.arity)))
        conditions.append(
            "NOT EXISTS ("
            + _witness_subquery(atom, schema, kept, columns, f"{prefix}w{index}")
            + ")"
        )

    if constraint.head_comparisons:
        satisfied = [
            _comparison_sql(comparison, columns)
            for comparison in constraint.head_comparisons
        ]
        conditions.append("NOT (" + " OR ".join(satisfied) + ")")

    where = " AND ".join(conditions) if conditions else "1 = 1"
    if pin is None:
        return f"SELECT * FROM {', '.join(from_parts)} WHERE {where}"
    if from_parts:
        return f"NOT EXISTS (SELECT 1 FROM {', '.join(from_parts)} WHERE {where})"
    return f"NOT ({where})"


def _comparison_sql(comparison: Comparison, columns: Dict[Variable, str]) -> str:
    """A consequent comparison over guarded (non-null) body columns.

    A ``null`` constant cannot be compared in SQL, so its outcome is
    decided here as :meth:`Comparison.evaluate` decides it: ``null``
    equals only ``null``, and order comparisons against it fail.
    """

    sides = (comparison.left, comparison.right)
    nulls = [not is_variable(term) and is_null(term) for term in sides]
    if any(nulls):
        equal = all(nulls)
        holds = {"=": equal, "!=": not equal}.get(comparison.op, False)
        return "1 = 1" if holds else "1 = 0"
    left, right = (
        columns[term] if is_variable(term) else _sql_literal(term) for term in sides
    )
    return f"{left} {_operator(comparison.op)} {right}"


def _witness_subquery(
    atom: Atom,
    schema: DatabaseSchema,
    kept: Tuple[int, ...],
    columns: Dict[Variable, str],
    alias: str,
) -> str:
    """A consequent atom's witnesses, compared on the relevant positions *kept*."""

    conditions: List[str] = []
    existential_first: Dict[Variable, str] = {}
    for position in kept:
        term = atom.terms[position]
        column = _column(schema, atom.predicate, position, alias)
        if not is_variable(term):
            conditions.append(_value_eq(column, term))
        elif term in columns:
            conditions.append(f"{column} = {columns[term]}")
        else:
            first = existential_first.get(term)
            if first is None:
                existential_first[term] = column
            else:
                # Repeated existential variable: the witness columns must
                # agree; null agrees with null under |=_N (Example 13).
                conditions.append(_nullsafe_eq(column, first))
    where = " AND ".join(conditions) if conditions else "1 = 1"
    return f"SELECT 1 FROM {_quote_identifier(atom.predicate)} AS {alias} WHERE {where}"


# --------------------------------------------------------------------------- query SQL
def conjunctive_query_sql(query: ConjunctiveQuery, schema: DatabaseSchema) -> str:
    """Compile a conjunctive query (with negation and comparisons) to SQL."""

    from_parts: List[str] = []
    conditions: List[str] = []
    variable_columns: Dict[Variable, str] = {}

    for index, atom in enumerate(query.positive_atoms):
        alias = f"t{index}"
        from_parts.append(f"{_quote_identifier(atom.predicate)} AS {alias}")
        for position, term in enumerate(atom.terms):
            column = _column(schema, atom.predicate, position, alias)
            if is_variable(term):
                bound = variable_columns.get(term)
                if bound is None:
                    variable_columns[term] = column
                else:
                    conditions.append(f"{column} = {bound}")
            else:
                conditions.append(f"{column} = {_sql_literal(term)}")

    for negated_index, atom in enumerate(query.negative_atoms):
        alias = f"n{negated_index}"
        sub_conditions: List[str] = []
        for position, term in enumerate(atom.terms):
            column = _column(schema, atom.predicate, position, alias)
            if is_variable(term):
                sub_conditions.append(f"{column} = {variable_columns[term]}")
            else:
                sub_conditions.append(f"{column} = {_sql_literal(term)}")
        where = " AND ".join(sub_conditions) if sub_conditions else "1 = 1"
        conditions.append(
            f"NOT EXISTS (SELECT 1 FROM {_quote_identifier(atom.predicate)} AS {alias} WHERE {where})"
        )

    for comparison in query.comparisons:
        left = (
            variable_columns[comparison.left]
            if is_variable(comparison.left)
            else _sql_literal(comparison.left)
        )
        right = (
            variable_columns[comparison.right]
            if is_variable(comparison.right)
            else _sql_literal(comparison.right)
        )
        conditions.append(f"{left} {_operator(comparison.op)} {right}")

    if query.head_variables:
        select = ", ".join(variable_columns[v] for v in query.head_variables)
    else:
        select = "1"
    where = " AND ".join(conditions) if conditions else "1 = 1"
    return f"SELECT DISTINCT {select} FROM {', '.join(from_parts)} WHERE {where}"


# --------------------------------------------------------------------------- backend
class SQLiteBackend:
    """An in-memory SQLite database mirroring a :class:`DatabaseInstance`."""

    def __init__(
        self,
        instance: DatabaseInstance,
        constraints: Union[ConstraintSet, Iterable[AnyConstraint], None] = None,
    ):
        self._instance = instance
        if constraints is None:
            self._constraints = ConstraintSet()
        elif isinstance(constraints, ConstraintSet):
            self._constraints = constraints
        else:
            self._constraints = ConstraintSet(list(constraints))
        self._connection = sqlite3.connect(":memory:")
        self._load(enforce=False)

    # ------------------------------------------------------------------ loading
    def _load(self, enforce: bool) -> None:
        cursor = self._connection.cursor()
        for statement in create_table_statements(
            self._instance.schema, self._constraints, enforce_constraints=enforce
        ):
            cursor.execute(statement)
        for fact in self._instance.facts():
            placeholders = ", ".join("?" for _ in fact.values)
            values = tuple(None if is_null(v) else v for v in fact.values)
            cursor.execute(
                f"INSERT INTO {_quote_identifier(fact.predicate)} VALUES ({placeholders})", values
            )
        self._connection.commit()

    def close(self) -> None:
        """Close the underlying connection."""

        self._connection.close()

    def __enter__(self) -> "SQLiteBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ queries
    def execute(self, sql: str) -> List[Tuple[object, ...]]:
        """Run raw SQL and fetch all rows (the single statement funnel).

        When an ambient request budget is active
        (:func:`repro.resilience.budget.active`), a SQLite progress
        handler polls it every few thousand VM instructions and aborts
        the statement on exhaustion — real mid-statement cancellation,
        surfaced as the budget's typed
        :class:`~repro.errors.BudgetExceededError` instead of SQLite's
        ``OperationalError: interrupted``.
        """

        _metrics.counter(
            "repro_sql_statements_total", "SQL statements executed on the mirror"
        ).inc()
        budget = _budget.active()
        if budget:
            self._connection.set_progress_handler(
                lambda: 1 if budget.exhausted() else 0, 4000
            )
        try:
            with _trace.span("sql.execute") as sp:
                cursor = self._connection.cursor()
                try:
                    rows = list(cursor.execute(sql).fetchall())
                except sqlite3.OperationalError as error:
                    if budget and "interrupt" in str(error).lower():
                        raise budget.error() from error
                    raise
                if sp:
                    sp.add(sql=sql[:200], rows=len(rows))
        finally:
            if budget:
                self._connection.set_progress_handler(None, 0)
        return rows

    def violations(self, constraint: AnyConstraint) -> List[Tuple[object, ...]]:
        """Rows witnessing violations of *constraint* under ``|=_N``."""

        return self.execute(violation_sql(constraint, self._instance.schema))

    def is_consistent(self) -> bool:
        """True iff no constraint has a violation according to the SQL rewriting."""

        return all(not self.violations(constraint) for constraint in self._constraints)

    def answers(self, query: ConjunctiveQuery) -> FrozenSet[Tuple[Constant, ...]]:
        """Evaluate a conjunctive query through SQL (nulls are returned as ``NULL``)."""

        rows = self.execute(conjunctive_query_sql(query, self._instance.schema))
        if query.is_boolean:
            return frozenset({()} if rows else set())
        return frozenset(
            tuple(NULL if value is None else value for value in row) for row in rows
        )

    def consistent_answers(
        self,
        query: ConjunctiveQuery,
        rewritten=None,
        null_is_unknown: bool = True,
    ) -> FrozenSet[Tuple[Constant, ...]]:
        """Consistent answers via the first-order rewriting, entirely in SQLite.

        Rewrites *query* against the backend's constraint set
        (:func:`repro.rewriting.rewrite_query`), compiles the rewriting to
        one ``SELECT`` and runs it on the loaded tables: no repair is ever
        materialised.  Raises
        :class:`repro.rewriting.RewritingUnsupportedError` when the
        constraints or the query fall outside the tractable fragment.
        A caller holding the rewriting already (the ``"sqlite"`` engine
        serves it from the session cache) passes it as *rewritten* to
        skip the re-analysis; *null_is_unknown* picks the null convention
        for the base query's comparisons (the default keeps SQL's native
        three-valued behaviour).
        """

        if rewritten is None:
            from repro.rewriting import rewrite_query

            rewritten = rewrite_query(query, self._constraints)
        rows = self.execute(
            rewritten.to_sql(self._instance.schema, null_is_unknown=null_is_unknown)
        )
        if query.is_boolean:
            return frozenset({()} if rows else set())
        return frozenset(
            tuple(NULL if value is None else value for value in row) for row in rows
        )

    # ------------------------------------------------------------------ native acceptance
    def accepts_natively(self) -> bool:
        """Would SQLite accept the instance with native constraint enforcement?

        Recreates the tables with PRIMARY KEY / UNIQUE, FOREIGN KEY, CHECK
        and NOT NULL clauses derived from the constraint set, turns on
        foreign-key enforcement, and attempts to insert every row.  Returns
        False on the first rejected insert.
        """

        connection = sqlite3.connect(":memory:")
        try:
            cursor = connection.cursor()
            cursor.execute("PRAGMA foreign_keys = ON")
            for statement in create_table_statements(
                self._instance.schema, self._constraints, enforce_constraints=True
            ):
                cursor.execute(statement)
            # Parents before children so that foreign keys can be satisfied.
            ordered = self._parents_first_order()
            for predicate in ordered:
                for values in sorted(self._instance.tuples(predicate), key=repr):
                    placeholders = ", ".join("?" for _ in values)
                    row = tuple(None if is_null(v) else v for v in values)
                    try:
                        cursor.execute(
                            f"INSERT INTO {_quote_identifier(predicate)} VALUES ({placeholders})",
                            row,
                        )
                    except sqlite3.IntegrityError:
                        return False
            connection.commit()
            return True
        finally:
            connection.close()


    def _parents_first_order(self) -> List[str]:
        """Order relations so that referenced relations are inserted first."""

        referenced_by: Dict[str, Set[str]] = {}
        for constraint in self._constraints:
            if isinstance(constraint, IntegrityConstraint) and constraint.is_referential:
                child = constraint.body[0].predicate
                parent = constraint.head_atoms[0].predicate
                referenced_by.setdefault(child, set()).add(parent)
        ordered: List[str] = []
        remaining = list(self._instance.schema.relation_names)
        while remaining:
            progressed = False
            for name in list(remaining):
                parents = referenced_by.get(name, set())
                if all(parent in ordered or parent not in remaining for parent in parents):
                    ordered.append(name)
                    remaining.remove(name)
                    progressed = True
            if not progressed:  # a referential cycle: append the rest as-is
                ordered.extend(remaining)
                break
        return ordered
