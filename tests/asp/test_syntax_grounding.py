"""Tests for the ASP syntax layer and the grounder."""

import pytest

from repro.constraints.atoms import Atom, Comparison
from repro.constraints.terms import Variable
from repro.relational.domain import NULL
from repro.asp.grounding import GroundRule, ground_program, possible_atoms
from repro.asp.syntax import Program, Rule, SafetyError

x, y, z = Variable("x"), Variable("y"), Variable("z")


class TestRuleSyntax:
    def test_rule_classification(self):
        fact_rule = Rule(head=(Atom("P", ("a",)),))
        assert fact_rule.is_fact and fact_rule.is_normal
        denial = Rule(head=(), positive=(Atom("P", (x,)),))
        assert denial.is_denial
        disjunctive = Rule(head=(Atom("P", (x,)), Atom("Q", (x,))), positive=(Atom("R", (x,)),))
        assert disjunctive.is_disjunctive and not disjunctive.is_normal

    def test_safety_enforced(self):
        with pytest.raises(SafetyError):
            Rule(head=(Atom("P", (x,)),))  # head variable not bound
        with pytest.raises(SafetyError):
            Rule(head=(), positive=(Atom("P", (x,)),), negative=(Atom("Q", (y,)),))
        with pytest.raises(SafetyError):
            Rule(head=(), positive=(Atom("P", (x,)),), comparisons=(Comparison(">", y, 1),))

    def test_rule_accessors(self):
        rule = Rule(
            head=(Atom("P", (x,)),),
            positive=(Atom("Q", (x, y)),),
            negative=(Atom("R", (y,)),),
            comparisons=(Comparison("!=", x, NULL),),
        )
        assert rule.variables() == frozenset({x, y})
        assert rule.predicates() == frozenset({"P", "Q", "R"})
        assert ":-" in repr(rule)

    def test_program_facts_and_rules(self):
        program = Program()
        program.add_fact(Atom("P", ("a",)))
        program.add_rule(Rule(head=(Atom("Q", ("b",)),)))  # a fact disguised as a rule
        program.add_rule(Rule(head=(Atom("R", (x,)),), positive=(Atom("P", (x,)),)))
        assert len(program.facts) == 2
        assert len(program.rules) == 1
        assert program.predicates() == frozenset({"P", "Q", "R"})
        assert program.is_normal

    def test_non_ground_fact_rejected(self):
        program = Program()
        with pytest.raises(SafetyError):
            program.add_fact(Atom("P", (x,)))


class TestGrounding:
    def test_possible_atoms_fixpoint(self):
        program = Program(facts=[Atom("P", ("a",)), Atom("P", ("b",))])
        program.add_rule(Rule(head=(Atom("Q", (x,)),), positive=(Atom("P", (x,)),)))
        program.add_rule(Rule(head=(Atom("R", (x,)),), positive=(Atom("Q", (x,)),)))
        atoms = possible_atoms(program)
        assert Atom("R", ("a",)) in atoms
        assert Atom("R", ("b",)) in atoms
        assert len(atoms) == 6

    def test_comparisons_restrict_grounding(self):
        program = Program(facts=[Atom("P", ("a", NULL)), Atom("P", ("b", "c"))])
        program.add_rule(
            Rule(
                head=(Atom("Q", (x,)),),
                positive=(Atom("P", (x, y)),),
                comparisons=(Comparison("!=", y, NULL),),
            )
        )
        ground = ground_program(program)
        heads = {rule.head[0] for rule in ground.rules if rule.head}
        assert Atom("Q", ("b",)) in heads
        assert Atom("Q", ("a",)) not in heads

    def test_negative_literals_over_impossible_atoms_are_dropped(self):
        program = Program(facts=[Atom("P", ("a",))])
        program.add_rule(
            Rule(
                head=(Atom("Q", (x,)),),
                positive=(Atom("P", (x,)),),
                negative=(Atom("Missing", (x,)),),
            )
        )
        ground = ground_program(program)
        (rule,) = ground.rules
        assert rule.negative == ()

    def test_disjunctive_heads_all_become_possible(self):
        program = Program(facts=[Atom("P", ("a",))])
        program.add_rule(
            Rule(head=(Atom("Q", (x,)), Atom("R", (x,))), positive=(Atom("P", (x,)),))
        )
        atoms = possible_atoms(program)
        assert Atom("Q", ("a",)) in atoms and Atom("R", ("a",)) in atoms

    def test_join_in_body(self):
        program = Program(
            facts=[Atom("E", ("a", "b")), Atom("E", ("b", "c")), Atom("E", ("c", "d"))]
        )
        program.add_rule(
            Rule(
                head=(Atom("Path", (x, z)),),
                positive=(Atom("E", (x, y)), Atom("E", (y, z))),
            )
        )
        ground = ground_program(program)
        heads = {rule.head[0] for rule in ground.rules}
        assert heads == {Atom("Path", ("a", "c")), Atom("Path", ("b", "d"))}

    def test_duplicate_ground_rules_removed(self):
        program = Program(facts=[Atom("P", ("a",))])
        program.add_rule(Rule(head=(Atom("Q", ("a",)),), positive=(Atom("P", (x,)),)))
        ground = ground_program(program)
        assert len(ground.rules) == 1

    def test_ground_program_atoms(self):
        program = Program(facts=[Atom("P", ("a",))])
        program.add_rule(Rule(head=(Atom("Q", (x,)),), positive=(Atom("P", (x,)),)))
        ground = ground_program(program)
        assert Atom("P", ("a",)) in ground.atoms()
        assert Atom("Q", ("a",)) in ground.atoms()


class TestCompiledGroundingEquivalence:
    """Kernel-joined grounding == the nested-loop reference grounder."""

    def _programs(self):
        a, b = Variable("a"), Variable("b")
        chain = Program(
            facts=(Atom("E", ("n1", "n2")), Atom("E", ("n2", "n3")), Atom("E", ("n3", "n1"))),
            rules=(
                Rule(head=(Atom("R", (a, b)),), positive=(Atom("E", (a, b)),)),
                Rule(
                    head=(Atom("R", (a, z)),),
                    positive=(Atom("R", (a, b)), Atom("E", (b, z))),
                ),
                Rule(head=(), positive=(Atom("R", (a, a)),), negative=(Atom("Ok", (a,)),)),
            ),
        )
        disjunctive = Program(
            facts=(Atom("P", ("v", 1)), Atom("P", ("w", NULL))),
            rules=(
                Rule(
                    head=(Atom("T", (a,)), Atom("F", (a,))),
                    positive=(Atom("P", (a, b)),),
                    comparisons=(Comparison("!=", b, NULL),),
                ),
            ),
        )
        return [chain, disjunctive]

    def test_possible_atoms_and_rules_match(self):
        for program in self._programs():
            assert possible_atoms(program) == possible_atoms(program, naive=True)
            compiled = ground_program(program)
            reference = ground_program(program, naive=True)
            assert compiled.facts == reference.facts
            assert compiled.possible_atoms == reference.possible_atoms
            assert set(compiled.rules) == set(reference.rules)
            assert len(compiled.rules) == len(reference.rules)
