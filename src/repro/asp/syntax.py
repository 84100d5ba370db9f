"""Syntax of disjunctive logic programs.

A rule has the shape::

    h_1 ∨ … ∨ h_k ← p_1, …, p_m, not n_1, …, not n_j, c_1, …, c_l

where the ``h``, ``p`` and ``n`` are (possibly non-ground) database atoms
and the ``c`` are built-in comparisons.  An empty head denotes a program
denial (integrity constraint of the program); an empty body with a single
ground head atom is a fact.  Rules must be *safe*: every variable occurring
in the head, in a negative literal or in a comparison must also occur in a
positive body atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.constraints.atoms import Atom, Comparison
from repro.constraints.terms import Variable


class SafetyError(ValueError):
    """Raised for unsafe rules."""


@dataclass(frozen=True)
class Rule:
    """A (possibly non-ground) disjunctive rule."""

    head: Tuple[Atom, ...] = ()
    positive: Tuple[Atom, ...] = ()
    negative: Tuple[Atom, ...] = ()
    comparisons: Tuple[Comparison, ...] = ()

    def __init__(
        self,
        head: Sequence[Atom] = (),
        positive: Sequence[Atom] = (),
        negative: Sequence[Atom] = (),
        comparisons: Sequence[Comparison] = (),
    ):
        object.__setattr__(self, "head", tuple(head))
        object.__setattr__(self, "positive", tuple(positive))
        object.__setattr__(self, "negative", tuple(negative))
        object.__setattr__(self, "comparisons", tuple(comparisons))
        self._check_safety()

    # ------------------------------------------------------------------ checks
    def _check_safety(self) -> None:
        positive_vars: Set[Variable] = set()
        for atom in self.positive:
            positive_vars |= atom.variables()
        unsafe: Set[Variable] = set()
        for atom in self.head + self.negative:
            unsafe |= atom.variables() - positive_vars
        for comparison in self.comparisons:
            unsafe |= comparison.variables() - positive_vars
        if unsafe:
            raise SafetyError(
                f"unsafe rule {self!r}: variables "
                f"{sorted(v.name for v in unsafe)} do not occur in a positive body atom"
            )

    # ------------------------------------------------------------------ queries
    @property
    def is_fact(self) -> bool:
        """A ground single-headed rule with an empty body."""

        return (
            len(self.head) == 1
            and not self.positive
            and not self.negative
            and not self.comparisons
            and self.head[0].is_ground()
        )

    @property
    def is_denial(self) -> bool:
        """A rule with an empty head (program integrity constraint)."""

        return not self.head

    @property
    def is_normal(self) -> bool:
        """At most one head atom (non-disjunctive)."""

        return len(self.head) <= 1

    @property
    def is_disjunctive(self) -> bool:
        """Two or more head atoms."""

        return len(self.head) >= 2

    def variables(self) -> FrozenSet[Variable]:
        """All variables of the rule."""

        result: Set[Variable] = set()
        for atom in self.head + self.positive + self.negative:
            result |= atom.variables()
        for comparison in self.comparisons:
            result |= comparison.variables()
        return frozenset(result)

    def predicates(self) -> FrozenSet[str]:
        """All predicate names used by the rule."""

        return frozenset(
            atom.predicate for atom in self.head + self.positive + self.negative
        )

    def __repr__(self) -> str:
        head = " | ".join(repr(a) for a in self.head) if self.head else ""
        body_parts = [repr(a) for a in self.positive]
        body_parts += [f"not {a!r}" for a in self.negative]
        body_parts += [repr(c) for c in self.comparisons]
        body = ", ".join(body_parts)
        if not body:
            return f"{head}."
        if not head:
            return f":- {body}."
        return f"{head} :- {body}."


class Program:
    """A disjunctive logic program: facts plus rules."""

    def __init__(self, rules: Iterable[Rule] = (), facts: Iterable[Atom] = ()):  # noqa: D401
        self._rules: List[Rule] = []
        self._facts: List[Atom] = []
        for fact in facts:
            self.add_fact(fact)
        for rule in rules:
            self.add_rule(rule)

    # ------------------------------------------------------------------ build
    def add_rule(self, rule: Rule) -> None:
        """Append a rule (facts given as rules are stored as facts)."""

        if rule.is_fact:
            self.add_fact(rule.head[0])
        else:
            self._rules.append(rule)

    def add_fact(self, atom: Atom) -> None:
        """Append a ground fact."""

        if not atom.is_ground():
            raise SafetyError(f"facts must be ground, got {atom!r}")
        self._facts.append(atom)

    def extend(self, other: "Program") -> None:
        """Append the facts and rules of another program."""

        for fact in other.facts:
            self.add_fact(fact)
        for rule in other.rules:
            self.add_rule(rule)

    # ------------------------------------------------------------------ access
    @property
    def rules(self) -> List[Rule]:
        """The non-fact rules."""

        return list(self._rules)

    @property
    def facts(self) -> List[Atom]:
        """The ground facts."""

        return list(self._facts)

    def predicates(self) -> FrozenSet[str]:
        """All predicate names in the program."""

        result: Set[str] = set(atom.predicate for atom in self._facts)
        for rule in self._rules:
            result |= rule.predicates()
        return frozenset(result)

    @property
    def is_normal(self) -> bool:
        """True iff no rule is disjunctive."""

        return all(rule.is_normal for rule in self._rules)

    def __len__(self) -> int:
        return len(self._rules) + len(self._facts)

    def __iter__(self) -> Iterator[Rule]:
        for fact in self._facts:
            yield Rule(head=(fact,))
        yield from self._rules

    def __repr__(self) -> str:
        lines = [f"{atom!r}." for atom in self._facts]
        lines += [repr(rule) for rule in self._rules]
        return "\n".join(lines)
