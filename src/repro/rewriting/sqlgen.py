"""Compile a rewritten query to a single SQL ``SELECT``.

The rendering mirrors :func:`repro.sqlbackend.backend.violation_sql`:
residue conditions are the *negations* of the violation conditions that
module derives for ``|=_N``, correlated against the query atom's table
alias.  Base-query joins and constant patterns use null-safe equality
(``a = b OR (a IS NULL AND b IS NULL)``) because the in-memory evaluator
treats ``null`` as an ordinary constant; inside violation conditions the
plain SQL equality suffices, since every joined variable is a relevant
attribute and the violation requires it to be non-null anyway.

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

from typing import Dict, List, Mapping, Optional, Sequence

from repro.relational.domain import is_null
from repro.relational.schema import DatabaseSchema
from repro.constraints.atoms import Atom, Comparison
from repro.constraints.ic import IntegrityConstraint
from repro.constraints.terms import Variable, is_variable
from repro.core.relevant import relevant_body_variables
from repro.sqlbackend.backend import _column, _operator
from repro.sqlbackend.ddl import _quote_identifier, _sql_literal
from repro.rewriting.residues import (
    CheckResidue,
    DenialResidue,
    FDResidue,
    NotNullResidue,
    Residue,
    RICResidue,
)
from repro.rewriting.rewriter import RewrittenQuery


class _Aliases:
    """Fresh table aliases for correlated subqueries."""

    def __init__(self) -> None:
        self._count = 0

    def next(self) -> str:
        self._count += 1
        return f"r{self._count}"


def _first_position_columns(
    atom: Atom, schema: DatabaseSchema, alias: str
) -> Dict[Variable, str]:
    columns: Dict[Variable, str] = {}
    for position, term in enumerate(atom.terms):
        if is_variable(term) and term not in columns:
            columns[term] = _column(schema, atom.predicate, position, alias)
    return columns


def _nullsafe_eq(left: str, right: str) -> str:
    return f"({left} = {right} OR ({left} IS NULL AND {right} IS NULL))"


def _value_eq(column: str, value: object) -> str:
    if is_null(value):
        return f"{column} IS NULL"
    return f"{column} = {_sql_literal(value)}"


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
    aliases = _Aliases()
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
            conditions.append(
                _residue_sql(residue, rewriting.atom, alias, schema, aliases)
            )

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


# --------------------------------------------------------------------------- residues
def _residue_sql(
    residue: Residue,
    atom: Atom,
    alias: str,
    schema: DatabaseSchema,
    aliases: _Aliases,
) -> str:
    if isinstance(residue, NotNullResidue):
        column = _column(schema, atom.predicate, residue.constraint.position, alias)
        return f"{column} IS NOT NULL"
    if isinstance(residue, CheckResidue):
        return _check_cert_sql(residue.constraint, atom, alias, schema)
    if isinstance(residue, FDResidue):
        return _fd_cert_sql(residue, atom, alias, schema, aliases)
    if isinstance(residue, RICResidue):
        return _ric_cert_sql(residue, atom, alias, schema, aliases)
    if isinstance(residue, DenialResidue):
        return _denial_cert_sql(residue, atom, alias, schema, aliases)
    raise TypeError(f"unknown residue type {type(residue).__name__}")


def _pattern_and_nonnull(
    constraint_atom: Atom,
    query_atom: Atom,
    alias: str,
    schema: DatabaseSchema,
    relevant: Sequence[Variable],
) -> List[str]:
    """Violation-side conditions binding the constraint atom to *alias*."""

    parts: List[str] = []
    first: Dict[Variable, str] = {}
    for position, term in enumerate(constraint_atom.terms):
        column = _column(schema, query_atom.predicate, position, alias)
        if is_variable(term):
            bound = first.get(term)
            if bound is None:
                first[term] = column
            else:
                parts.append(f"{column} = {bound}")
        else:
            parts.append(_value_eq(column, term))
    for variable in sorted(relevant, key=lambda v: v.name):
        parts.append(f"{first[variable]} IS NOT NULL")
    return parts


def _comparison_sql(
    comparisons: Sequence[Comparison], columns: Mapping[Variable, str]
) -> Optional[str]:
    if not comparisons:
        return None
    rendered = []
    for comparison in comparisons:
        left = (
            columns[comparison.left]
            if is_variable(comparison.left)
            else _sql_literal(comparison.left)
        )
        right = (
            columns[comparison.right]
            if is_variable(comparison.right)
            else _sql_literal(comparison.right)
        )
        rendered.append(f"{left} {_operator(comparison.op)} {right}")
    return "(" + " OR ".join(rendered) + ")"


def _check_violation_parts(
    check: IntegrityConstraint,
    predicate: str,
    alias: str,
    schema: DatabaseSchema,
) -> List[str]:
    constraint_atom = check.body[0]
    parts = _pattern_and_nonnull(
        constraint_atom,
        Atom(predicate, constraint_atom.terms),
        alias,
        schema,
        sorted(relevant_body_variables(check), key=lambda v: v.name),
    )
    columns = _first_position_columns(constraint_atom, schema, alias)
    satisfied = _comparison_sql(check.head_comparisons, columns)
    if satisfied is not None:
        parts.append(f"NOT {satisfied}")
    return parts


def _check_cert_sql(
    check: IntegrityConstraint, atom: Atom, alias: str, schema: DatabaseSchema
) -> str:
    parts = _check_violation_parts(check, atom.predicate, alias, schema)
    return "NOT (" + " AND ".join(parts) + ")"


def _fd_cert_sql(
    residue: FDResidue,
    atom: Atom,
    alias: str,
    schema: DatabaseSchema,
    aliases: _Aliases,
) -> str:
    key = residue.key
    partner = aliases.next()
    parts: List[str] = []
    for position in key.determinant:
        mine = _column(schema, key.predicate, position, alias)
        theirs = _column(schema, key.predicate, position, partner)
        parts.append(f"{theirs} = {mine}")
    conflicts: List[str] = []
    for fd in key.fds:
        mine = _column(schema, key.predicate, fd.dependent, alias)
        theirs = _column(schema, key.predicate, fd.dependent, partner)
        conflicts.append(
            f"({mine} IS NOT NULL AND {theirs} IS NOT NULL AND {theirs} <> {mine})"
        )
    parts.append("(" + " OR ".join(conflicts) + ")")
    where = " AND ".join(parts)
    return (
        f"NOT EXISTS (SELECT 1 FROM {_quote_identifier(key.predicate)} AS {partner} "
        f"WHERE {where})"
    )


def _ric_cert_sql(
    residue: RICResidue,
    atom: Atom,
    alias: str,
    schema: DatabaseSchema,
    aliases: _Aliases,
) -> str:
    body_atom = residue.body_atom
    head_atom = residue.head_atom
    parts = _pattern_and_nonnull(
        body_atom, atom, alias, schema, residue.relevant_vars
    )
    body_columns = _first_position_columns(body_atom, schema, alias)

    witness = aliases.next()
    witness_parts: List[str] = []
    existential_first: Dict[Variable, str] = {}
    for position in sorted(
        set(residue.bound_kept) | set(residue.constant_kept) | set(residue.existential_kept)
    ):
        term = head_atom.terms[position]
        column = _column(schema, head_atom.predicate, position, witness)
        if position in residue.constant_kept:
            witness_parts.append(_value_eq(column, term))
        elif position in residue.bound_kept:
            witness_parts.append(f"{column} = {body_columns[term]}")
        else:
            first = existential_first.get(term)
            if first is None:
                existential_first[term] = column
            else:
                # Repeated existential: null agrees with null under |=_N.
                witness_parts.append(_nullsafe_eq(column, first))
    witness_where = " AND ".join(witness_parts) if witness_parts else "1 = 1"
    parts.append(
        f"NOT EXISTS (SELECT 1 FROM {_quote_identifier(head_atom.predicate)} AS {witness} "
        f"WHERE {witness_where})"
    )
    return "NOT (" + " AND ".join(parts) + ")"


def _denial_cert_sql(
    residue: DenialResidue,
    atom: Atom,
    alias: str,
    schema: DatabaseSchema,
    aliases: _Aliases,
) -> str:
    denial = residue.constraint
    occurrence = denial.body[residue.index]
    pattern: List[str] = []
    columns: Dict[Variable, str] = {}
    for position, term in enumerate(occurrence.terms):
        column = _column(schema, atom.predicate, position, alias)
        if is_variable(term):
            bound = columns.get(term)
            if bound is None:
                columns[term] = column
            else:
                pattern.append(f"{column} = {bound}")
        else:
            pattern.append(_value_eq(column, term))

    sub_from: List[str] = []
    sub_parts: List[str] = []
    for index, other in enumerate(denial.body):
        if index == residue.index:
            continue
        other_alias = aliases.next()
        sub_from.append(f"{_quote_identifier(other.predicate)} AS {other_alias}")
        for position, term in enumerate(other.terms):
            column = _column(schema, other.predicate, position, other_alias)
            if is_variable(term):
                bound = columns.get(term)
                if bound is None:
                    columns[term] = column
                else:
                    sub_parts.append(f"{column} = {bound}")
            else:
                sub_parts.append(_value_eq(column, term))
    for variable in sorted(relevant_body_variables(denial), key=lambda v: v.name):
        sub_parts.append(f"{columns[variable]} IS NOT NULL")
    satisfied = _comparison_sql(denial.head_comparisons, columns)
    if satisfied is not None:
        sub_parts.append(f"NOT {satisfied}")
    sub_where = " AND ".join(sub_parts) if sub_parts else "1 = 1"
    exists = (
        f"EXISTS (SELECT 1 FROM {', '.join(sub_from)} WHERE {sub_where})"
    )
    violation = pattern + [exists]
    return "NOT (" + " AND ".join(violation) + ")"
