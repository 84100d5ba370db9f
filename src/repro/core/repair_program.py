"""Repair logic programs Π(D, IC) (Definition 9) and their stable models.

The program uses annotation constants in an extra, last argument of each
database predicate:

========  =====================  =========================================
constant  atom                   meaning
========  =====================  =========================================
``ta``    ``P(ā, ta)``           advised to be made true
``fa``    ``P(ā, fa)``           advised to be made false
``t*``    ``P(ā, t*)``           true in ``D`` or becomes true
``t**``   ``P(ā, t**)``          true in the repair
========  =====================  =========================================

The database associated with a stable model ``M`` (Definition 10) keeps the
atoms annotated ``t**``.  For RIC-acyclic constraint sets Theorem 4 states
that those databases are exactly the repairs; see DESIGN.md for the
corner case in which the literal program has an extra, non-minimal stable
model (a RIC already satisfied only through a null witness) — by default
:func:`program_repairs` filters the stable-model databases through the
paper's own ``≤_D`` minimality check, which restores the exact repair set
and is a no-op whenever the correspondence already holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.relational.domain import Constant, NULL
from repro.relational.instance import DatabaseInstance, Fact
from repro.constraints.atoms import Atom, Comparison
from repro.constraints.ic import (
    AnyConstraint,
    ConstraintSet,
    IntegrityConstraint,
    NotNullConstraint,
)
from repro.constraints.terms import Variable, is_variable
from repro.core.relevant import relevant_body_variables
from repro.core.repairs import minimal_flags_for_deltas
from repro.asp.grounding import ground_program
from repro.asp.shift import is_head_cycle_free, shift_program
from repro.asp.stable import stable_models
from repro.asp.syntax import Program, Rule


#: Annotation constants (kept short so that printed models stay readable).
TRUE_ADVISED = "ta"
FALSE_ADVISED = "fa"
TRUE_STAR = "t*"
TRUE_DOUBLE_STAR = "t**"

_ANNOTATIONS = {TRUE_ADVISED, FALSE_ADVISED, TRUE_STAR, TRUE_DOUBLE_STAR}


class RepairProgramError(ValueError):
    """Raised when a constraint cannot be compiled to repair-program rules."""


def _predicate_arities(
    instance: DatabaseInstance, constraints: ConstraintSet
) -> Dict[str, int]:
    arities: Dict[str, int] = {}
    for predicate in instance.predicates:
        arities[predicate] = instance.schema.arity(predicate)
    for constraint in constraints:
        if isinstance(constraint, NotNullConstraint):
            if constraint.arity is not None:
                arities.setdefault(constraint.predicate, constraint.arity)
            continue
        for atom in constraint.body + constraint.head_atoms:
            existing = arities.get(atom.predicate)
            if existing is not None and existing != atom.arity:
                raise RepairProgramError(
                    f"predicate {atom.predicate!r} used with arities {existing} and {atom.arity}"
                )
            arities.setdefault(atom.predicate, atom.arity)
    return arities


def _annotated(atom: Atom, annotation: str) -> Atom:
    """The annotated version of *atom* (one extra, last argument)."""

    return Atom(atom.predicate, atom.terms + (annotation,))


def _generic_atom(predicate: str, arity: int, annotation: Optional[str] = None) -> Atom:
    variables = tuple(Variable(f"X{i + 1}") for i in range(arity))
    terms = variables + ((annotation,) if annotation is not None else ())
    return Atom(predicate, terms)


def _not_null_comparisons(variables: Iterable[Variable]) -> List[Comparison]:
    return [
        Comparison("!=", variable, NULL)
        for variable in sorted(set(variables), key=lambda v: v.name)
    ]


def build_repair_program(
    instance: DatabaseInstance,
    constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
) -> Program:
    """Compile ``Π(D, IC)`` per Definition 9.

    Only UICs, RICs and NNCs are supported — the constraint classes the
    paper's Definition 9 covers; a general constraint of form (1) with
    existential variables and several antecedent atoms raises
    :class:`RepairProgramError`.
    """

    constraint_set = (
        constraints if isinstance(constraints, ConstraintSet) else ConstraintSet(list(constraints))
    )
    arities = _predicate_arities(instance, constraint_set)
    program = Program()

    # 1. Facts.
    for fact in instance.facts():
        program.add_fact(Atom(fact.predicate, fact.values))

    # 2.-4. Constraint-specific rules.
    ric_index = 0
    for constraint in constraint_set:
        if isinstance(constraint, NotNullConstraint):
            _add_nnc_rules(program, constraint, arities)
        elif constraint.is_universal:
            _add_uic_rules(program, constraint)
        elif constraint.is_referential:
            ric_index += 1
            _add_ric_rules(program, constraint, ric_index)
        else:
            raise RepairProgramError(
                f"constraint {constraint!r} is neither a UIC, a RIC nor an NNC; "
                "Definition 9 does not cover it"
            )

    # 5.-7. Annotation, interpretation and denial rules per predicate.
    for predicate, arity in sorted(arities.items()):
        base = _generic_atom(predicate, arity)
        program.add_rule(
            Rule(head=(_annotated(base, TRUE_STAR),), positive=(base,))
        )
        program.add_rule(
            Rule(
                head=(_annotated(base, TRUE_STAR),),
                positive=(_annotated(base, TRUE_ADVISED),),
            )
        )
        program.add_rule(
            Rule(
                head=(_annotated(base, TRUE_DOUBLE_STAR),),
                positive=(_annotated(base, TRUE_STAR),),
                negative=(_annotated(base, FALSE_ADVISED),),
            )
        )
        program.add_rule(
            Rule(
                head=(),
                positive=(
                    _annotated(base, TRUE_ADVISED),
                    _annotated(base, FALSE_ADVISED),
                ),
            )
        )
    return program


def _add_uic_rules(program: Program, constraint: IntegrityConstraint) -> None:
    """Definition 9, item 2: one rule per split (Q', Q'') of the consequent atoms."""

    head_atoms = list(constraint.head_atoms)
    relevant_vars = relevant_body_variables(constraint)
    negated_builtins = tuple(c.negated() for c in constraint.head_comparisons)

    head = tuple(_annotated(atom, FALSE_ADVISED) for atom in constraint.body) + tuple(
        _annotated(atom, TRUE_ADVISED) for atom in head_atoms
    )
    base_positive = tuple(_annotated(atom, TRUE_STAR) for atom in constraint.body)
    comparisons = tuple(_not_null_comparisons(relevant_vars)) + negated_builtins

    for split in itertools.product((True, False), repeat=len(head_atoms)):
        # split[j] True  → Q_j ∈ Q'  (its fa-annotated atom is in the positive body)
        # split[j] False → Q_j ∈ Q'' (its base atom appears under default negation)
        positive = base_positive + tuple(
            _annotated(atom, FALSE_ADVISED)
            for atom, in_q_prime in zip(head_atoms, split)
            if in_q_prime
        )
        negative = tuple(
            atom for atom, in_q_prime in zip(head_atoms, split) if not in_q_prime
        )
        program.add_rule(
            Rule(head=head, positive=positive, negative=negative, comparisons=comparisons)
        )


def _add_ric_rules(
    program: Program, constraint: IntegrityConstraint, ric_index: int
) -> None:
    """Definition 9, item 3: the disjunctive repair rule and the aux rules."""

    body_atom = constraint.body[0]
    head_atom = constraint.head_atoms[0]
    shared_vars = sorted(
        relevant_body_variables(constraint), key=lambda v: v.name
    )
    existential_vars = sorted(constraint.existential_variables(), key=lambda v: v.name)
    aux_predicate = f"aux_{ric_index}"
    aux_atom = Atom(aux_predicate, tuple(shared_vars))

    null_head_terms = tuple(
        NULL if (is_variable(term) and term in set(existential_vars)) else term
        for term in head_atom.terms
    )
    null_head_atom = Atom(head_atom.predicate, null_head_terms)

    program.add_rule(
        Rule(
            head=(
                _annotated(body_atom, FALSE_ADVISED),
                _annotated(null_head_atom, TRUE_ADVISED),
            ),
            positive=(_annotated(body_atom, TRUE_STAR),),
            negative=(aux_atom,),
            comparisons=tuple(_not_null_comparisons(shared_vars)),
        )
    )
    for existential in existential_vars:
        program.add_rule(
            Rule(
                head=(aux_atom,),
                positive=(_annotated(head_atom, TRUE_STAR),),
                negative=(_annotated(head_atom, FALSE_ADVISED),),
                comparisons=tuple(
                    _not_null_comparisons(shared_vars)
                )
                + (Comparison("!=", existential, NULL),),
            )
        )
    if not existential_vars:  # defensive: a RIC always has existential variables
        program.add_rule(
            Rule(
                head=(aux_atom,),
                positive=(_annotated(head_atom, TRUE_STAR),),
                negative=(_annotated(head_atom, FALSE_ADVISED),),
                comparisons=tuple(_not_null_comparisons(shared_vars)),
            )
        )


def _add_nnc_rules(
    program: Program, constraint: NotNullConstraint, arities: Mapping[str, int]
) -> None:
    """Definition 9, item 4: delete tuples with null in the protected position."""

    arity = arities.get(constraint.predicate, constraint.arity)
    if arity is None:
        raise RepairProgramError(
            f"cannot determine the arity of {constraint.predicate!r} for the NNC"
        )
    base = _generic_atom(constraint.predicate, arity)
    protected = base.terms[constraint.position]
    program.add_rule(
        Rule(
            head=(_annotated(base, FALSE_ADVISED),),
            positive=(_annotated(base, TRUE_STAR),),
            comparisons=(Comparison("=", protected, NULL),),
        )
    )


# --------------------------------------------------------------------------- models → databases
def database_from_model(
    model: FrozenSet[Atom],
    schema_instance: Optional[DatabaseInstance] = None,
) -> DatabaseInstance:
    """Definition 10: keep the atoms annotated ``t**`` and strip the annotation."""

    schema = schema_instance.schema.copy() if schema_instance is not None else None
    result = DatabaseInstance(schema=schema)
    for atom in model:
        if atom.predicate.startswith("aux_"):
            continue
        if not atom.terms or atom.terms[-1] != TRUE_DOUBLE_STAR:
            continue
        result.add_tuple(atom.predicate, atom.terms[:-1])
    return result


@dataclass
class ProgramRepairResult:
    """Stable models of Π(D, IC) together with their associated databases."""

    program: Program
    models: List[FrozenSet[Atom]]
    databases: List[DatabaseInstance]
    repairs: List[DatabaseInstance]
    used_shift: bool


def program_repairs(
    instance: DatabaseInstance,
    constraints: Union[ConstraintSet, Iterable[AnyConstraint]],
    minimal_only: bool = True,
    use_shift: Optional[bool] = None,
    max_models: Optional[int] = None,
) -> ProgramRepairResult:
    """Compute the repairs of *instance* through the repair program.

    Parameters
    ----------
    minimal_only:
        Filter the stable-model databases through ``≤_D``-minimality
        (Definition 7).  This is the default because it makes the function
        agree with the direct repair engine on every input, including the
        Theorem 4 corner case documented in DESIGN.md.
    use_shift:
        Solve the shifted (normal) program instead of the disjunctive one.
        ``None`` (default) shifts automatically when the ground program is
        head-cycle-free; ``True`` forces shifting (the caller asserts HCF);
        ``False`` always solves the disjunctive program.
    """

    constraint_set = (
        constraints if isinstance(constraints, ConstraintSet) else ConstraintSet(list(constraints))
    )
    program = build_repair_program(instance, constraint_set)
    ground = ground_program(program)

    shifted = False
    solvable = ground
    if use_shift is True or (use_shift is None and is_head_cycle_free(ground)):
        if use_shift is None and not is_head_cycle_free(ground):
            pass
        else:
            solvable = shift_program(ground)
            shifted = True

    models = stable_models(solvable, max_models=max_models)
    databases: List[DatabaseInstance] = []
    seen: Set[FrozenSet[Fact]] = set()
    for model in models:
        database = database_from_model(model, schema_instance=instance)
        key = database.fact_set()
        if key not in seen:
            seen.add(key)
            databases.append(database)

    repairs = list(databases)
    if minimal_only:
        flags, _ = minimal_flags_for_deltas(
            [instance.symmetric_difference(database) for database in databases]
        )
        repairs = [database for database, keep in zip(databases, flags) if keep]
    return ProgramRepairResult(
        program=program,
        models=models,
        databases=databases,
        repairs=repairs,
        used_shift=shifted,
    )
