"""The tractable fragment of first-order CQA rewriting.

Consistent query answering by repair enumeration is exponential in the
number of violations; for a large class of ``(constraints, query)`` pairs
the consistent answers are nevertheless computable by rewriting the query
into a first-order query evaluated **once** on the inconsistent database
(Arenas–Bertossi–Chomicki-style residues; ConQuer-style key rewriting).
This module delimits the fragment for which the rewriting of
:mod:`repro.rewriting.rewriter` is *sound and complete* w.r.t. the paper's
null-based repair semantics, and raises :class:`RewritingUnsupportedError`
for anything outside it so that the planner can fall back to enumeration.

Supported constraint shapes
---------------------------
* **Key/functional dependencies** — two-atom single-predicate universal
  constraints with one equality consequent (the shape produced by
  :func:`repro.constraints.factories.functional_dependency`).  All FDs on
  one predicate must share a determinant (primary-key style).  Repairs
  resolve FD conflicts by deletions that keep, per conflicting group, a
  maximal conflict-free subset — so at least one group member survives in
  every repair, which is what the rewriting of unpinned atoms exploits.
* **Referential constraints (RICs, form (3))** — repaired by deleting the
  dangling antecedent fact or inserting the consequent atom with nulls in
  the existential positions.  Because inserted witnesses are never in
  *every* repair, a fact of the referencing relation is certain iff it
  satisfies the RIC in ``D`` itself.
* **NOT-NULL constraints** and **single-atom denial/check constraints** —
  a violating fact is deleted in every repair (no insertion can fix them),
  so certainty is a per-fact condition.
* **Multi-atom denial constraints** over predicates mentioned by no other
  constraint — a fact involved in a violation survives in some but not
  all repairs.

Interaction-freedom conditions
------------------------------
The per-atom certainty conditions are local; the conditions below rule
out the cross-constraint cascades that would break locality:

* the constraint set is non-conflicting (Section 4) and RIC-acyclic;
* keyed predicates carry no check constraints and only determinant
  NOT-NULLs, so no key-group member is deleted "for free" by another
  constraint (a forced deletion inside a group would make certainty
  depend on ``≤_D``'s null-coverage clause, not just on the repair
  engine's branching);
* a RIC's consequent predicate carries no denial/check constraint and is
  not itself the antecedent of a RIC (either could delete witnesses);
* if the consequent predicate has FDs, the referenced positions are a
  subset of the determinant (so FD-conflict deletions never remove the
  last witness for a given reference) and the consequent atom repeats no
  existential variable (so every surviving group member still witnesses);
* predicates of multi-atom denials appear in no other constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.constraints.ic import (
    AnyConstraint,
    ConstraintSet,
    IntegrityConstraint,
    NotNullConstraint,
)
from repro.constraints.terms import Variable, is_variable

if TYPE_CHECKING:
    from repro.analysis.diagnostics import Diagnostic


class RewritingUnsupportedError(ValueError):
    """The (constraints, query) pair is outside the first-order rewriting fragment.

    Carries a human-readable ``reason`` plus a structured payload: the
    ``clause`` naming the fragment condition violated (one of
    :data:`FRAGMENT_CLAUSES`), the offending ``constraint`` and/or
    ``predicate`` when one is identifiable, and a lazily built
    :class:`repro.analysis.Diagnostic` (code ``I301``) so the planner and
    ``explain()`` report machine-readable fallback reasons instead of
    matching on prose.
    """

    def __init__(
        self,
        reason: str,
        *,
        clause: Optional[str] = None,
        constraint: Optional[AnyConstraint] = None,
        predicate: Optional[str] = None,
    ):
        super().__init__(reason)
        self.reason = reason
        self.clause = clause
        self.constraint = constraint
        self.predicate = predicate

    @property
    def diagnostic(self) -> "Diagnostic":
        """The structured ``I301 rewriting-fragment-exclusion`` record.

        Built on access (the analysis package imports this module, so a
        module-level import here would cycle).
        """

        from repro.analysis.analyzer import fragment_exclusion

        return fragment_exclusion(
            self.reason,
            clause=self.clause,
            constraint=self.constraint,
            subject=self.predicate,
        )

    def copy(self) -> "RewritingUnsupportedError":
        """A fresh instance with the same payload (for cached re-raising)."""

        return RewritingUnsupportedError(
            self.reason,
            clause=self.clause,
            constraint=self.constraint,
            predicate=self.predicate,
        )


#: Every ``clause`` value a :class:`RewritingUnsupportedError` may carry —
#: the constraint-shape and interaction-freedom conditions of this module
#: plus the query-side conditions of :mod:`repro.rewriting.rewriter`.
FRAGMENT_CLAUSES: Tuple[str, ...] = (
    # constraint shapes (analyze_constraints)
    "non-referential-consequent",
    "mixed-fd-determinants",
    # interaction freedom (_check_interactions)
    "check-on-keyed-predicate",
    "nnc-outside-determinant",
    "conflicting-set",
    "ric-cyclic",
    "witness-deleting-constraint",
    "witness-cascade",
    "non-determinant-reference",
    "repeated-existential",
    "denial-interaction",
    # query side (rewrite_query / _rewrite_atom)
    "non-conjunctive-query",
    "negated-query-atom",
    "non-answer-variable-in-denial",
    "joined-non-determinant",
    "mixed-pinned-unpinned",
    "unpinned-key-with-ric",
)


@dataclass(frozen=True)
class FDInfo:
    """One functional dependency in normalised form."""

    constraint: IntegrityConstraint
    predicate: str
    determinant: Tuple[int, ...]
    dependent: int


@dataclass
class KeyInfo:
    """All functional dependencies of one predicate (shared determinant)."""

    predicate: str
    determinant: Tuple[int, ...]
    fds: List[FDInfo] = field(default_factory=list)


@dataclass
class FragmentAnalysis:
    """The constraint set split into the shapes the rewriting understands."""

    constraints: ConstraintSet
    keys: Dict[str, KeyInfo] = field(default_factory=dict)
    checks: Dict[str, List[IntegrityConstraint]] = field(default_factory=dict)
    multi_denials: List[IntegrityConstraint] = field(default_factory=list)
    rics: List[IntegrityConstraint] = field(default_factory=list)
    not_nulls: Dict[str, List[NotNullConstraint]] = field(default_factory=dict)

    def rics_with_antecedent(self, predicate: str) -> List[IntegrityConstraint]:
        """The RICs whose referencing (child) predicate is *predicate*."""

        return [ric for ric in self.rics if ric.body[0].predicate == predicate]

    def denials_mentioning(self, predicate: str) -> List[IntegrityConstraint]:
        """Multi-atom denial constraints with *predicate* in the antecedent."""

        return [d for d in self.multi_denials if predicate in d.body_predicates()]


def _as_constraint_set(
    constraints: Union[ConstraintSet, Iterable[AnyConstraint]]
) -> ConstraintSet:
    if isinstance(constraints, ConstraintSet):
        return constraints
    return ConstraintSet(list(constraints))


def fd_shape(ic: IntegrityConstraint) -> Optional[FDInfo]:
    """Recognise a functional dependency; None if *ic* has another shape.

    The normal form is ``R(x̄), R(ȳ) → x_j = y_j`` where the shared
    variables sit at identical positions in both atoms (the determinant)
    and each comparison variable occurs exactly once, at position ``j`` of
    its atom.  Positions holding neither a shared nor a comparison
    variable must hold pairwise-distinct single-occurrence variables.
    """

    if ic.head_atoms or len(ic.head_comparisons) != 1 or len(ic.body) != 2:
        return None
    left_atom, right_atom = ic.body
    if left_atom.predicate != right_atom.predicate or left_atom.arity != right_atom.arity:
        return None
    comparison = ic.head_comparisons[0]
    if comparison.op != "=":
        return None
    if not (is_variable(comparison.left) and is_variable(comparison.right)):
        return None
    if any(not is_variable(t) for t in left_atom.terms + right_atom.terms):
        return None

    occurrences: Dict[Variable, List[Tuple[int, int]]] = {}
    for atom_index, atom in enumerate((left_atom, right_atom)):
        for position, term in enumerate(atom.terms):
            occurrences.setdefault(term, []).append((atom_index, position))

    left_occ = occurrences.get(comparison.left, [])
    right_occ = occurrences.get(comparison.right, [])
    if len(left_occ) != 1 or len(right_occ) != 1:
        return None
    (left_atom_index, left_pos) = left_occ[0]
    (right_atom_index, right_pos) = right_occ[0]
    if {left_atom_index, right_atom_index} != {0, 1} or left_pos != right_pos:
        return None
    dependent = left_pos

    determinant: Set[int] = set()
    for variable, places in occurrences.items():
        if variable in (comparison.left, comparison.right):
            continue
        atom_indexes = {a for a, _ in places}
        positions = {p for _, p in places}
        if atom_indexes == {0, 1}:
            # Shared variable: must sit at the same single position in both atoms.
            if len(places) != 2 or len(positions) != 1:
                return None
            determinant.add(places[0][1])
        elif len(places) != 1:
            return None  # repeated within one atom: a self-join, not an FD
    if not determinant or dependent in determinant:
        return None
    return FDInfo(
        constraint=ic,
        predicate=left_atom.predicate,
        determinant=tuple(sorted(determinant)),
        dependent=dependent,
    )


def analyze_constraints(
    constraints: Union[ConstraintSet, Iterable[AnyConstraint]]
) -> FragmentAnalysis:
    """Split *constraints* into the tractable shapes, or raise.

    Raises :class:`RewritingUnsupportedError` when some constraint has an
    unsupported shape or the interaction-freedom conditions fail.
    """

    constraint_set = _as_constraint_set(constraints)
    analysis = FragmentAnalysis(constraints=constraint_set)

    for constraint in constraint_set:
        if isinstance(constraint, NotNullConstraint):
            analysis.not_nulls.setdefault(constraint.predicate, []).append(constraint)
            continue
        if constraint.head_atoms:
            if constraint.is_referential:
                analysis.rics.append(constraint)
                continue
            raise RewritingUnsupportedError(
                f"constraint {constraint!r} has consequent atoms but is not a "
                "referential constraint of form (3); repairs may insert "
                "fully-determined tuples, which the rewriting does not model",
                clause="non-referential-consequent",
                constraint=constraint,
            )
        fd = fd_shape(constraint)
        if fd is not None:
            key = analysis.keys.get(fd.predicate)
            if key is None:
                analysis.keys[fd.predicate] = KeyInfo(fd.predicate, fd.determinant, [fd])
            elif key.determinant != fd.determinant:
                raise RewritingUnsupportedError(
                    f"predicate {fd.predicate} has functional dependencies with "
                    f"different determinants {key.determinant} and {fd.determinant}; "
                    "only primary-key-style FD families are supported",
                    clause="mixed-fd-determinants",
                    constraint=fd.constraint,
                    predicate=fd.predicate,
                )
            else:
                key.fds.append(fd)
        elif len(constraint.body) == 1:
            analysis.checks.setdefault(constraint.body[0].predicate, []).append(constraint)
        else:
            analysis.multi_denials.append(constraint)

    _check_interactions(analysis)
    return analysis


def _check_interactions(analysis: FragmentAnalysis) -> None:
    constraint_set = analysis.constraints

    # A key-conflict partner that is itself deleted in every repair (by a
    # check or NOT-NULL violation) would seem ignorable — but ``≤_D``
    # (Definition 6) does not prune the extra deletion of the surviving
    # tuple whenever the symmetric difference contains an uncovered
    # null-atom, so certainty would depend on a global coverage analysis.
    # Keeping checks off keyed predicates (and NNCs inside the
    # determinant, where a violating tuple cannot be in a key group)
    # makes every certainty argument a statement about the repair
    # engine's branching alone, independent of the minimality order.
    for predicate, key in analysis.keys.items():
        if predicate in analysis.checks:
            raise RewritingUnsupportedError(
                f"predicate {predicate} carries both a key and a check/denial "
                "constraint; a check-deleted tuple inside a key group makes "
                "certainty depend on ≤_D null-coverage, which the rewriting "
                "does not model",
                clause="check-on-keyed-predicate",
                predicate=predicate,
            )
        for nnc in analysis.not_nulls.get(predicate, []):
            if nnc.position not in set(key.determinant):
                raise RewritingUnsupportedError(
                    f"NOT NULL on the non-determinant position "
                    f"{predicate}[{nnc.position + 1}] of a keyed predicate; a "
                    "forced deletion inside a key group makes certainty depend "
                    "on ≤_D null-coverage, which the rewriting does not model",
                    clause="nnc-outside-determinant",
                    constraint=nnc,
                    predicate=predicate,
                )

    if not constraint_set.is_non_conflicting():
        conflicting = constraint_set.conflicting_not_nulls()
        raise RewritingUnsupportedError(
            "the constraint set is conflicting (a NOT NULL protects an "
            "existentially quantified attribute); repairs need not exist",
            clause="conflicting-set",
            constraint=conflicting[0] if conflicting else None,
        )
    if analysis.rics and not constraint_set.is_ric_acyclic():
        raise RewritingUnsupportedError(
            "the referential constraints are RIC-cyclic; insertion cascades "
            "make certainty non-local",
            clause="ric-cyclic",
        )

    child_predicates = {ric.body[0].predicate for ric in analysis.rics}
    for ric in analysis.rics:
        parent = ric.head_atoms[0].predicate
        if parent in analysis.checks or analysis.denials_mentioning(parent):
            raise RewritingUnsupportedError(
                f"predicate {parent} is referenced by {ric!r} but also carries a "
                "denial/check constraint that may delete witnesses",
                clause="witness-deleting-constraint",
                constraint=ric,
                predicate=parent,
            )
        if parent in child_predicates:
            raise RewritingUnsupportedError(
                f"predicate {parent} is referenced by {ric!r} but is itself the "
                "antecedent of a referential constraint; witness deletions could cascade",
                clause="witness-cascade",
                constraint=ric,
                predicate=parent,
            )
        key = analysis.keys.get(parent)
        if key is not None:
            _, head_positions = ric.referenced_positions()
            if not set(head_positions) <= set(key.determinant):
                raise RewritingUnsupportedError(
                    f"{ric!r} references non-determinant positions of {parent}; a "
                    "key-conflict deletion could remove the last witness",
                    clause="non-determinant-reference",
                    constraint=ric,
                    predicate=parent,
                )
            head_atom = ric.head_atoms[0]
            existential = ric.existential_variables()
            seen: Set[Variable] = set()
            for term in head_atom.terms:
                if is_variable(term) and term in existential:
                    if term in seen:
                        raise RewritingUnsupportedError(
                            f"{ric!r} repeats an existential variable while {parent} "
                            "has functional dependencies; surviving group members "
                            "need not preserve the repeated-null witness pattern",
                            clause="repeated-existential",
                            constraint=ric,
                            predicate=parent,
                        )
                    seen.add(term)

    # Other multi-atom denials over the same predicates are fine: their
    # deletions are the per-fact choices the participation residue models.
    for denial in analysis.multi_denials:
        for predicate in denial.body_predicates():
            others = (
                predicate in analysis.keys
                or predicate in analysis.checks
                or predicate in analysis.not_nulls
                or predicate in child_predicates
                or any(
                    ric.head_atoms[0].predicate == predicate for ric in analysis.rics
                )
            )
            if others:
                raise RewritingUnsupportedError(
                    f"predicate {predicate} appears in the multi-atom denial "
                    f"{denial!r} and in another constraint; interacting deletions "
                    "make certainty non-local",
                    clause="denial-interaction",
                    constraint=denial,
                    predicate=predicate,
                )
