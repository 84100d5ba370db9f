"""Compile a rewritten query to a single SQL ``SELECT``.

``Q'`` renders as one ``SELECT DISTINCT`` over the base tables of the
query atoms, conjoined with every residue's own SQL
(:meth:`repro.rewriting.residues.Residue.sql`).  A residue is one
violation condition with three renderings — compiled plan, formula and
SQL — and its SQL is the condition
:func:`repro.sqlbackend.backend.ic_violation_sql` renders for
:func:`~repro.sqlbackend.backend.violation_sql`, pinned at the residue's
body occurrence to the query atom's alias and negated.  Base-query joins
and constant patterns use null-safe equality (``a = b OR (a IS NULL AND
b IS NULL)``) because the in-memory evaluator treats ``null`` as an
ordinary constant.

Base-query comparisons are rendered for whichever null convention the
caller evaluates under (the ``null_is_unknown`` parameter, mirroring the
in-memory evaluator): with ``null_is_unknown=True`` SQL's own
three-valued behaviour is exactly right and the operators render
plainly; with the default null-as-constant semantics, ``=`` and ``!=``
involving possibly-null operands expand into ``IS NULL``-aware
disjunctions so that ``null = null`` holds and ``null != 'c'`` holds,
exactly as :meth:`repro.constraints.atoms.Comparison.evaluate` decides
them.  (Order comparisons involving ``null`` are not satisfied under
either convention, so SQL's unknown-row elimination already agrees.)
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.relational.domain import is_null
from repro.relational.schema import DatabaseSchema
from repro.constraints.atoms import Comparison
from repro.constraints.terms import Variable, is_variable
from repro.sqlbackend.backend import _column, _nullsafe_eq, _operator, _value_eq
from repro.sqlbackend.ddl import _quote_identifier, _sql_literal
from repro.rewriting.rewriter import RewrittenQuery


def _query_comparison_sql(
    comparison: Comparison,
    variable_columns: Mapping[Variable, str],
    null_is_unknown: bool,
) -> str:
    """One base-query comparison under the requested null convention."""

    def render(term: object) -> "tuple[str, bool]":
        if is_variable(term):
            return variable_columns[term], False  # a column, possibly NULL
        return _sql_literal(term), is_null(term)

    left, left_is_null = render(comparison.left)
    right, right_is_null = render(comparison.right)
    plain = f"{left} {_operator(comparison.op)} {right}"
    if null_is_unknown or comparison.op not in ("=", "!="):
        # SQL's three-valued logic drops any null-involving comparison,
        # which is exactly the unknown convention; order comparisons
        # against null are unsatisfied under both conventions.
        return plain
    if comparison.op == "=":
        if left_is_null and right_is_null:
            return "1 = 1"
        if left_is_null:
            return f"{right} IS NULL"
        if right_is_null:
            return f"{left} IS NULL"
        return _nullsafe_eq(left, right)
    # "!=" with null as an ordinary constant: true unless both are null.
    if left_is_null and right_is_null:
        return "1 = 0"
    if left_is_null:
        return f"{right} IS NOT NULL"
    if right_is_null:
        return f"{left} IS NOT NULL"
    return (
        f"({left} <> {right} OR ({left} IS NULL AND {right} IS NOT NULL) "
        f"OR ({left} IS NOT NULL AND {right} IS NULL))"
    )


def rewritten_query_sql(
    rewritten: RewrittenQuery,
    schema: DatabaseSchema,
    null_is_unknown: bool = True,
) -> str:
    """Render ``Q'`` as one ``SELECT DISTINCT`` over the base tables.

    *null_is_unknown* picks the comparison convention (see the module
    docstring); the default keeps the historical SQL-flavoured
    rendering.
    """

    query = rewritten.query
    from_parts: List[str] = []
    conditions: List[str] = []
    variable_columns: Dict[Variable, str] = {}

    for index, rewriting in enumerate(rewritten.atoms):
        atom = rewriting.atom
        alias = f"t{index}"
        from_parts.append(f"{_quote_identifier(atom.predicate)} AS {alias}")
        for position, term in enumerate(atom.terms):
            column = _column(schema, atom.predicate, position, alias)
            if is_variable(term):
                bound = variable_columns.get(term)
                if bound is None:
                    variable_columns[term] = column
                else:
                    conditions.append(_nullsafe_eq(column, bound))
            else:
                conditions.append(_value_eq(column, term))

    for index, rewriting in enumerate(rewritten.atoms):
        alias = f"t{index}"
        for residue in rewriting.residues:
            conditions.append(residue.sql(alias, schema))

    for comparison in query.comparisons:
        conditions.append(
            _query_comparison_sql(comparison, variable_columns, null_is_unknown)
        )

    if query.head_variables:
        select = ", ".join(variable_columns[v] for v in query.head_variables)
    else:
        select = "1"
    where = " AND ".join(conditions) if conditions else "1 = 1"
    return f"SELECT DISTINCT {select} FROM {', '.join(from_parts)} WHERE {where}"
