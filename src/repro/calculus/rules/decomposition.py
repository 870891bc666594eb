"""The decomposition rules D1--D7 (Figure 7 of the paper).

The decomposition rules work on the facts.  They break the initial fact
``x : C`` up into constraints involving only primitive concepts, primitive
attributes and singletons; rules D4 and D6 introduce fresh variables to
represent the objects along paths.

Each rule's primary premise is the fact it decomposes, so the incremental
engine re-examines a rule only when a new fact of the matching shape
appears (or after a substitution rewrites the pair).
"""

from __future__ import annotations

from typing import Optional

from ...concepts.syntax import And, ExistsPath, PathAgreement, Singleton
from ..constraints import (
    AttributeConstraint,
    Constant,
    Constraint,
    MembershipConstraint,
    Pair,
    PathConstraint,
)
from .base import Rule, RuleApplication

__all__ = [
    "RuleD1",
    "RuleD2",
    "RuleD3",
    "RuleD4",
    "RuleD5",
    "RuleD6",
    "RuleD7",
    "DECOMPOSITION_RULES",
]


class RuleD1(Rule):
    """D1: from ``s : C ⊓ D`` add ``s : C`` and ``s : D``."""

    name = "D1"
    category = "decomposition"
    source = "facts"

    def matches(self, constraint: Constraint) -> bool:
        return isinstance(constraint, MembershipConstraint) and isinstance(
            constraint.concept, And
        )

    def apply_to(self, candidate, pair: Pair, schema) -> Optional[RuleApplication]:
        concept = candidate.concept
        additions = [
            MembershipConstraint(candidate.subject, concept.left),
            MembershipConstraint(candidate.subject, concept.right),
        ]
        added = pair.add_facts(additions)
        if added:
            return RuleApplication(self.name, self.category, added_facts=added)
        return None


class RuleD2(Rule):
    """D2: from ``t R^-1 s`` add ``s R t`` (make converse edges explicit)."""

    name = "D2"
    category = "decomposition"
    source = "facts"

    def matches(self, constraint: Constraint) -> bool:
        return isinstance(constraint, AttributeConstraint)

    def apply_to(self, candidate, pair: Pair, schema) -> Optional[RuleApplication]:
        converse = AttributeConstraint(
            candidate.filler, candidate.attribute.inverse(), candidate.subject
        )
        added = pair.add_facts([converse])
        if added:
            return RuleApplication(self.name, self.category, added_facts=added)
        return None


class RuleD3(Rule):
    """D3: from ``y : {a}`` (``y`` a variable) identify ``y`` with the constant ``a``."""

    name = "D3"
    category = "decomposition"
    source = "facts"

    def matches(self, constraint: Constraint) -> bool:
        return (
            isinstance(constraint, MembershipConstraint)
            and isinstance(constraint.concept, Singleton)
            and constraint.subject.is_variable
        )

    def apply_to(self, candidate, pair: Pair, schema) -> Optional[RuleApplication]:
        subject = candidate.subject
        constant = Constant(candidate.concept.constant)
        if pair.apply_substitution(subject, constant):
            return RuleApplication(self.name, self.category, substitution=(subject, constant))
        return None


class RuleD4(Rule):
    """D4: from ``s : ∃p`` with no ``s p t`` in the facts, add ``s p y`` (``y`` fresh)."""

    name = "D4"
    category = "decomposition"
    source = "facts"

    def matches(self, constraint: Constraint) -> bool:
        return (
            isinstance(constraint, MembershipConstraint)
            and isinstance(constraint.concept, ExistsPath)
            and not constraint.concept.path.is_empty
        )

    def apply_to(self, candidate, pair: Pair, schema) -> Optional[RuleApplication]:
        subject = candidate.subject
        if pair.has_path_fact(subject, candidate.concept.path):
            return None
        fresh = pair.fresh_variable()
        added = pair.add_facts([PathConstraint(subject, candidate.concept.path, fresh)])
        if added:
            return RuleApplication(self.name, self.category, added_facts=added)
        return None


class RuleD5(Rule):
    """D5: from ``s : ∃p ≐ ε`` add the loop constraint ``s p s``."""

    name = "D5"
    category = "decomposition"
    source = "facts"

    def matches(self, constraint: Constraint) -> bool:
        return (
            isinstance(constraint, MembershipConstraint)
            and isinstance(constraint.concept, PathAgreement)
            and constraint.concept.right.is_empty
            and not constraint.concept.left.is_empty
        )

    def apply_to(self, candidate, pair: Pair, schema) -> Optional[RuleApplication]:
        added = pair.add_facts(
            [PathConstraint(candidate.subject, candidate.concept.left, candidate.subject)]
        )
        if added:
            return RuleApplication(self.name, self.category, added_facts=added)
        return None


class RuleD6(Rule):
    """D6: decompose the first step of a path constraint of length ≥ 2.

    From ``s (R:C) p t`` (``p ≠ ε``), unless some ``t'`` already has
    ``s R t'``, ``t' : C`` and ``t' p t`` in the facts, add
    ``s R y``, ``y : C`` and ``y p t`` for a fresh variable ``y``.
    """

    name = "D6"
    category = "decomposition"
    source = "facts"

    def matches(self, constraint: Constraint) -> bool:
        return isinstance(constraint, PathConstraint) and len(constraint.path) >= 2

    def apply_to(self, candidate, pair: Pair, schema) -> Optional[RuleApplication]:
        head = candidate.path.head
        tail = candidate.path.tail
        subject, target = candidate.subject, candidate.filler
        witnesses = pair.attribute_fillers(subject, head.attribute)
        satisfied = any(
            MembershipConstraint(witness, head.concept) in pair.facts
            and PathConstraint(witness, tail, target) in pair.facts
            for witness in witnesses
        )
        if satisfied:
            return None
        fresh = pair.fresh_variable()
        added = pair.add_facts(
            [
                AttributeConstraint(subject, head.attribute, fresh),
                MembershipConstraint(fresh, head.concept),
                PathConstraint(fresh, tail, target),
            ]
        )
        if added:
            return RuleApplication(self.name, self.category, added_facts=added)
        return None


class RuleD7(Rule):
    """D7: from ``s (R:C) t`` (a single-step path) add ``s R t`` and ``t : C``."""

    name = "D7"
    category = "decomposition"
    source = "facts"

    def matches(self, constraint: Constraint) -> bool:
        return isinstance(constraint, PathConstraint) and len(constraint.path) == 1

    def apply_to(self, candidate, pair: Pair, schema) -> Optional[RuleApplication]:
        step = candidate.path.head
        additions = [
            AttributeConstraint(candidate.subject, step.attribute, candidate.filler),
            MembershipConstraint(candidate.filler, step.concept),
        ]
        added = pair.add_facts(additions)
        if added:
            return RuleApplication(self.name, self.category, added_facts=added)
        return None


DECOMPOSITION_RULES = (
    RuleD1(),
    RuleD2(),
    RuleD3(),
    RuleD4(),
    RuleD5(),
    RuleD6(),
    RuleD7(),
)
