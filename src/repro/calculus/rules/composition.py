"""The composition rules C1--C6 (Figure 10 of the paper).

The composition rules compose complex facts from simpler ones, directed by
the goals; this amounts to a bottom-up evaluation of the view concept ``D``
over the facts ``F``.  The subsumption test of Theorem 4.7 succeeds exactly
when this evaluation manages to compose the fact ``o : D``.

The primary premise of each rule is the goal that directs the composition;
the engine re-examines a goal when new facts arrive that could complete one
of its instances (conjunct memberships for C1, path facts for C3/C4, edges
and continuations for C5/C6).
"""

from __future__ import annotations

from typing import Optional

from ...concepts.syntax import And, ExistsPath, PathAgreement, Top
from ..constraints import Constraint, MembershipConstraint, Pair, PathConstraint
from .base import Rule, RuleApplication, goal_path

__all__ = ["RuleC1", "RuleC2", "RuleC3", "RuleC4", "RuleC5", "RuleC6", "COMPOSITION_RULES"]


class RuleC1(Rule):
    """C1: if ``s : C`` and ``s : D`` are facts and ``s : C ⊓ D`` is a goal, add the fact ``s : C ⊓ D``."""

    name = "C1"
    category = "composition"
    source = "goals"
    retrigger_membership_at_subject = True

    def matches(self, constraint: Constraint) -> bool:
        return isinstance(constraint, MembershipConstraint) and isinstance(
            constraint.concept, And
        )

    def apply_to(self, candidate, pair: Pair, schema) -> Optional[RuleApplication]:
        concept = candidate.concept
        if (
            MembershipConstraint(candidate.subject, concept.left) in pair.facts
            and MembershipConstraint(candidate.subject, concept.right) in pair.facts
        ):
            added = pair.add_facts([MembershipConstraint(candidate.subject, concept)])
            if added:
                return RuleApplication(self.name, self.category, added_facts=added)
        return None


class RuleC2(Rule):
    """C2: if ``s : ⊤`` is a goal, add the fact ``s : ⊤``."""

    name = "C2"
    category = "composition"
    source = "goals"

    def matches(self, constraint: Constraint) -> bool:
        return isinstance(constraint, MembershipConstraint) and isinstance(
            constraint.concept, Top
        )

    def apply_to(self, candidate, pair: Pair, schema) -> Optional[RuleApplication]:
        added = pair.add_facts([MembershipConstraint(candidate.subject, candidate.concept)])
        if added:
            return RuleApplication(self.name, self.category, added_facts=added)
        return None


class RuleC3(Rule):
    """C3: if ``s : ∃p`` is a goal and ``p = ε`` or some ``s p t`` is a fact, add the fact ``s : ∃p``."""

    name = "C3"
    category = "composition"
    source = "goals"
    retrigger_path_at_subject = True

    def matches(self, constraint: Constraint) -> bool:
        return isinstance(constraint, MembershipConstraint) and isinstance(
            constraint.concept, ExistsPath
        )

    def apply_to(self, candidate, pair: Pair, schema) -> Optional[RuleApplication]:
        concept = candidate.concept
        witnessed = concept.path.is_empty or pair.has_path_fact(
            candidate.subject, concept.path
        )
        if not witnessed:
            return None
        added = pair.add_facts([MembershipConstraint(candidate.subject, concept)])
        if added:
            return RuleApplication(self.name, self.category, added_facts=added)
        return None


class RuleC4(Rule):
    """C4: if ``s : ∃p ≐ ε`` is a goal and ``p = ε`` or ``s p s`` is a fact, add the fact ``s : ∃p ≐ ε``."""

    name = "C4"
    category = "composition"
    source = "goals"
    retrigger_path_at_subject = True

    def matches(self, constraint: Constraint) -> bool:
        return (
            isinstance(constraint, MembershipConstraint)
            and isinstance(constraint.concept, PathAgreement)
            and constraint.concept.right.is_empty
        )

    def apply_to(self, candidate, pair: Pair, schema) -> Optional[RuleApplication]:
        concept = candidate.concept
        witnessed = concept.left.is_empty or (
            PathConstraint(candidate.subject, concept.left, candidate.subject) in pair.facts
        )
        if not witnessed:
            return None
        added = pair.add_facts([MembershipConstraint(candidate.subject, concept)])
        if added:
            return RuleApplication(self.name, self.category, added_facts=added)
        return None


class RuleC5(Rule):
    """C5: compose a multi-step path fact.

    If a goal ``s : ∃(R:C)p`` (or ``≐ ε``) exists and there are ``t'``, ``t``
    with ``s R t'``, ``t' : C`` and ``t' p t`` in the facts, add the fact
    ``s (R:C)p t``.
    """

    name = "C5"
    category = "composition"
    source = "goals"
    retrigger_edge_at_subject = True
    retrigger_membership_at_successor = True
    retrigger_path_at_successor = True

    def matches(self, constraint: Constraint) -> bool:
        if not isinstance(constraint, MembershipConstraint):
            return False
        path = goal_path(constraint.concept)
        return path is not None and len(path) >= 2

    def apply_to(self, candidate, pair: Pair, schema) -> Optional[RuleApplication]:
        subject = candidate.subject
        path = goal_path(candidate.concept)
        head, tail = path.head, path.tail
        for intermediate in sorted(
            pair.attribute_fillers(subject, head.attribute),
            key=lambda individual: individual.sort_key(),
        ):
            if MembershipConstraint(intermediate, head.concept) not in pair.facts:
                continue
            for fact in pair.path_facts_with(intermediate, tail):
                added = pair.add_facts([PathConstraint(subject, path, fact.filler)])
                if added:
                    return RuleApplication(self.name, self.category, added_facts=added)
        return None


class RuleC6(Rule):
    """C6: compose a single-step path fact.

    If a goal ``s : ∃(R:C)`` (or ``≐ ε``) exists and ``s R t`` and ``t : C``
    are facts, add the fact ``s (R:C) t``.
    """

    name = "C6"
    category = "composition"
    source = "goals"
    retrigger_edge_at_subject = True
    retrigger_membership_at_successor = True

    def matches(self, constraint: Constraint) -> bool:
        if not isinstance(constraint, MembershipConstraint):
            return False
        path = goal_path(constraint.concept)
        return path is not None and len(path) == 1

    def apply_to(self, candidate, pair: Pair, schema) -> Optional[RuleApplication]:
        subject = candidate.subject
        path = goal_path(candidate.concept)
        step = path.head
        for filler in sorted(
            pair.attribute_fillers(subject, step.attribute),
            key=lambda individual: individual.sort_key(),
        ):
            if MembershipConstraint(filler, step.concept) not in pair.facts:
                continue
            added = pair.add_facts([PathConstraint(subject, path, filler)])
            if added:
                return RuleApplication(self.name, self.category, added_facts=added)
        return None


COMPOSITION_RULES = (RuleC1(), RuleC2(), RuleC3(), RuleC4(), RuleC5(), RuleC6())
