"""The goal rules G1--G3 (Figure 9 of the paper).

The goal rules work on the goals.  They guide the evaluation of the view
concept ``D`` by deriving subgoals from the original goal ``x : D``; rules
G2 and G3 relate goals to facts: a path goal at ``s`` is only propagated to
individuals ``t`` that are explicitly recorded as ``R``-fillers of ``s`` in
the facts.

The primary premise of each rule is the goal; G2 and G3 must additionally be
re-examined when a new attribute fact arrives at the goal's subject, which
the engine's trigger routing takes care of.
"""

from __future__ import annotations

from typing import Optional

from ...concepts.syntax import And, ExistsPath
from ..constraints import Constraint, MembershipConstraint, Pair
from .base import Rule, RuleApplication, goal_path

__all__ = ["RuleG1", "RuleG2", "RuleG3", "GOAL_RULES"]


class RuleG1(Rule):
    """G1: from the goal ``s : C ⊓ D`` add the goals ``s : C`` and ``s : D``."""

    name = "G1"
    category = "goal"
    source = "goals"

    def matches(self, constraint: Constraint) -> bool:
        return isinstance(constraint, MembershipConstraint) and isinstance(
            constraint.concept, And
        )

    def apply_to(self, candidate, pair: Pair, schema) -> Optional[RuleApplication]:
        concept = candidate.concept
        added = pair.add_goals(
            [
                MembershipConstraint(candidate.subject, concept.left),
                MembershipConstraint(candidate.subject, concept.right),
            ]
        )
        if added:
            return RuleApplication(self.name, self.category, added_goals=added)
        return None


class RuleG2(Rule):
    """G2: from goal ``s : ∃(R:C)`` (or ``≐ ε``) and fact ``s R t`` add goal ``t : C``."""

    name = "G2"
    category = "goal"
    source = "goals"
    retrigger_edge_at_subject = True

    def matches(self, constraint: Constraint) -> bool:
        if not isinstance(constraint, MembershipConstraint):
            return False
        path = goal_path(constraint.concept)
        return path is not None and len(path) == 1

    def apply_to(self, candidate, pair: Pair, schema) -> Optional[RuleApplication]:
        step = goal_path(candidate.concept).head
        for filler in sorted(
            pair.attribute_fillers(candidate.subject, step.attribute),
            key=lambda individual: individual.sort_key(),
        ):
            added = pair.add_goals([MembershipConstraint(filler, step.concept)])
            if added:
                return RuleApplication(self.name, self.category, added_goals=added)
        return None


class RuleG3(Rule):
    """G3: from goal ``s : ∃(R:C)p`` (or ``≐ ε``, ``p ≠ ε``) and fact ``s R t`` add goals ``t : C`` and ``t : ∃p``."""

    name = "G3"
    category = "goal"
    source = "goals"
    retrigger_edge_at_subject = True

    def matches(self, constraint: Constraint) -> bool:
        if not isinstance(constraint, MembershipConstraint):
            return False
        path = goal_path(constraint.concept)
        return path is not None and len(path) >= 2

    def apply_to(self, candidate, pair: Pair, schema) -> Optional[RuleApplication]:
        path = goal_path(candidate.concept)
        step = path.head
        tail = path.tail
        for filler in sorted(
            pair.attribute_fillers(candidate.subject, step.attribute),
            key=lambda individual: individual.sort_key(),
        ):
            added = pair.add_goals(
                [
                    MembershipConstraint(filler, step.concept),
                    MembershipConstraint(filler, ExistsPath(tail)),
                ]
            )
            if added:
                return RuleApplication(self.name, self.category, added_goals=added)
        return None


GOAL_RULES = (RuleG1(), RuleG2(), RuleG3())
