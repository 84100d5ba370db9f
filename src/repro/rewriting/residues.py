"""Per-atom certainty residues: one violation condition, three renderings.

The rewriting of :mod:`repro.rewriting.rewriter` turns a conjunctive
query ``Q`` into ``Q' = Q ∧ ⋀ residues``: each query atom picks up a
conjunction of *residues* — first-order conditions on the matched fact
that hold iff the fact (or, for unpinned key atoms, its conflict group)
survives in **every** repair.  Inside the fragment of
:mod:`repro.rewriting.fragment` that is always the negation of "this fact
joins a live violation" under ``|=_N`` (Definition 4), so a residue is a
pair ``(constraint, occurrence)`` — :class:`ConstraintResidue`: the
matched fact, taken as body atom *occurrence* of the constraint, is part
of no violation.  The rewriter attaches

* ``(check, 0)`` for a single-atom denial/check constraint and
  ``(ric, 0)`` for a referential constraint on the atom's predicate — a
  violating fact is deleted in every repair (an inserted RIC witness is
  never in *every* repair, so certainty is plain satisfaction in ``D``);
* ``(fd, 0)`` for every functional dependency of a pinned key — any
  conflicting partner makes the fact uncertain, because the fragment
  keeps partners alive, so the branch deleting this fact always exists;
* ``(denial, i)`` for every body occurrence ``i`` of the atom's predicate
  in a multi-atom denial — every violation has a repair deleting this
  participant.

:class:`NotNullResidue` stays separate, since a NOT NULL constraint is not
of form (1): its condition is that the protected attribute is not null.

The one violation condition has three renderings, one each:

* in memory, :meth:`~ConstraintResidue.holds` — one early-exit run of the
  constraint's compiled seeded plan with the fact pinned at the
  occurrence (:meth:`~repro.compile.kernel.CompiledConstraint.has_violation_at`),
  the same plans the violation sweep and the repair search run;
* as a first-order formula, :meth:`~ConstraintResidue.formula` — built
  by :func:`violation_formula` for the paper-faithful ``Q'``;
* as SQL, :meth:`~ConstraintResidue.sql` — the condition
  :func:`repro.sqlbackend.backend.ic_violation_sql` renders for
  :func:`~repro.sqlbackend.backend.violation_sql`, pinned at the
  occurrence to the query atom's table alias.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.relational.domain import Constant, is_null
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import DatabaseSchema
from repro.compile.kernel import CompiledConstraint, compiled_constraint
from repro.constraints.atoms import Atom, Comparison, IsNullAtom
from repro.constraints.ic import IntegrityConstraint, NotNullConstraint
from repro.constraints.terms import Term, Variable, is_variable
from repro.core.relevant import relevant_body_variables, relevant_positions
from repro.logic.formula import (
    AtomFormula,
    ComparisonFormula,
    Exists,
    FalseFormula,
    Formula,
    IsNullFormula,
    Not,
    TrueFormula,
    conjunction,
    disjunction,
)
from repro.sqlbackend.backend import _column, ic_violation_sql


Row = Tuple[Constant, ...]


class FreshVariables:
    """Generator of variables that cannot clash with query variables."""

    def __init__(self, prefix: str = "_r"):
        self._prefix = prefix
        self._count = 0

    def next(self) -> Variable:
        self._count += 1
        return Variable(f"{self._prefix}{self._count}")


# --------------------------------------------------------------------------- residues
class Residue:
    """A certainty condition attached to one query atom."""

    #: The constraint the residue was derived from.
    constraint: object

    def holds(self, row: Row, instance: DatabaseInstance) -> bool:
        """Does the condition hold for the fact *row* of *instance*?"""

        raise NotImplementedError

    def formula(self, terms: Sequence[Term], fresh: FreshVariables) -> Formula:
        """The condition as a first-order formula over the query atom's *terms*."""

        raise NotImplementedError

    def sql(self, alias: str, schema: DatabaseSchema) -> str:
        """The condition as SQL over the query atom's table *alias*."""

        raise NotImplementedError


def _not_null_formula(term: Term) -> Formula:
    if is_variable(term):
        return Not(IsNullFormula(IsNullAtom(term)))
    return FalseFormula() if is_null(term) else TrueFormula()


@dataclass
class NotNullResidue(Residue):
    """``¬IsNull`` of the protected position."""

    constraint: NotNullConstraint

    def holds(self, row: Row, instance: DatabaseInstance) -> bool:
        return not is_null(row[self.constraint.position])

    def formula(self, terms: Sequence[Term], fresh: FreshVariables) -> Formula:
        return _not_null_formula(terms[self.constraint.position])

    def sql(self, alias: str, schema: DatabaseSchema) -> str:
        column = _column(schema, self.constraint.predicate, self.constraint.position, alias)
        return f"{column} IS NOT NULL"

    def __repr__(self) -> str:
        return f"not-null[{self.constraint.predicate}[{self.constraint.position + 1}]]"


@dataclass
class ConstraintResidue(Residue):
    """The fact, as body atom *occurrence* of *constraint*, joins no violation."""

    constraint: IntegrityConstraint
    occurrence: int
    unit: CompiledConstraint = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Bound once, so a row check is one direct seeded run.
        self.unit = compiled_constraint(self.constraint)  # type: ignore[assignment]

    def holds(self, row: Row, instance: DatabaseInstance) -> bool:
        return not self.unit.has_violation_at(instance, self.occurrence, row)

    def formula(self, terms: Sequence[Term], fresh: FreshVariables) -> Formula:
        return violation_formula(self.constraint, self.occurrence, terms, fresh)

    def sql(self, alias: str, schema: DatabaseSchema) -> str:
        return ic_violation_sql(self.constraint, schema, pin=(self.occurrence, alias))

    def __repr__(self) -> str:
        name = self.constraint.name or repr(self.constraint)
        return f"no-violation[{name}#{self.occurrence}]"


def violation_formula(
    constraint: IntegrityConstraint,
    occurrence: int,
    terms: Sequence[Term],
    fresh: FreshVariables,
) -> Formula:
    """``¬∃ȳ (body ∧ relevant-non-null ∧ ¬head)`` with one body atom fixed.

    Body atom *occurrence* is unified with the query atom's *terms*; the
    other body atoms range over fresh variables ``ȳ``.  The negated head
    is the negated comparison disjunction plus, per consequent atom, a
    ``¬∃`` witness over its relevant positions, where a repeated
    existential variable stays one shared variable.
    """

    translation: Dict[Variable, Term] = {}
    quantified: List[Variable] = []
    violation: List[Formula] = []
    for term, value in zip(constraint.body[occurrence].terms, terms):
        if not is_variable(term):
            violation.append(ComparisonFormula(Comparison("=", value, term)))
        elif term in translation:
            violation.append(ComparisonFormula(Comparison("=", value, translation[term])))
        else:
            translation[term] = value

    def bound(term: Term) -> Term:
        if not is_variable(term):
            return term
        if term not in translation:
            variable = fresh.next()
            translation[term] = variable
            quantified.append(variable)
        return translation[term]

    for index, atom in enumerate(constraint.body):
        if index != occurrence:
            violation.append(AtomFormula(Atom(atom.predicate, [bound(t) for t in atom.terms])))
    for variable in sorted(relevant_body_variables(constraint), key=lambda v: v.name):
        violation.append(_not_null_formula(translation[variable]))
    if constraint.head_comparisons:
        satisfied = disjunction(
            [
                ComparisonFormula(Comparison(c.op, bound(c.left), bound(c.right)))
                for c in constraint.head_comparisons
            ]
        )
        violation.append(Not(satisfied))

    positions = relevant_positions(constraint)
    for atom in constraint.head_atoms:
        kept = positions.get(atom.predicate, tuple(range(atom.arity)))
        witness_vars: List[Variable] = []
        shared: Dict[Variable, Variable] = {}
        witness_terms: List[Term] = []
        for position, term in enumerate(atom.terms):
            if position not in kept:
                variable = fresh.next()
                witness_vars.append(variable)
                witness_terms.append(variable)
            elif not is_variable(term) or term in translation:
                witness_terms.append(bound(term))
            else:  # a repeated existential stays one shared variable
                if term not in shared:
                    shared[term] = fresh.next()
                    witness_vars.append(shared[term])
                witness_terms.append(shared[term])
        witness: Formula = AtomFormula(Atom(atom.predicate, witness_terms))
        if witness_vars:
            witness = Exists(tuple(witness_vars), witness)
        violation.append(Not(witness))

    body = conjunction(violation)
    if quantified:
        return Not(Exists(tuple(quantified), body))
    return Not(body)
