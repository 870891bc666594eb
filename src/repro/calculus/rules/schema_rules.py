"""The schema rules S1--S5 (Figure 8) plus the domain-propagation repair S6.

The schema rules add information derivable from the schema ``Σ`` and the
current facts:

* S1 propagates declared superclasses (``A1 ⊑ A2``),
* S2 propagates attribute typings of classes (``A1 ⊑ ∀P.A2``),
* S3 propagates attribute domain/range declarations (``P ⊑ A1 × A2``),
* S4 identifies fillers of functional attributes (``A ⊑ (≤1 P)``),
* S5 creates a filler for a *necessary* attribute (``A ⊑ ∃P``) -- but only
  when a goal asks for a path starting with ``P``, which is the control that
  keeps the procedure polynomial (Section 4.1).

**S6 (reproduction addition).** The paper's canonical-interpretation
construction gives every individual ``s`` with ``s : A ∈ F`` and
``A ⊑ ∃P ∈ Σ`` an implicit ``P``-filler ``u``; for the typing axiom
``P ⊑ A1 × A2`` to hold in that structure, ``s`` must also be an instance of
``A1``.  The rules of the paper never derive ``s : A1`` in this situation
(the proof of Proposition 4.5 dismisses the case), so without a repair the
calculus misses entailments such as ``{A ⊑ ∃P, P ⊑ A1×A2} ⊨ A ⊑ A1``.
Rule S6 adds exactly this propagation; it preserves soundness (the inference
is semantically valid) and polynomiality (at most one new membership
constraint per fact/axiom combination).  It can be disabled to study the
paper's literal rule set (see :class:`repro.calculus.engine.CompletionEngine`).

The primary premise of S1/S2/S4/S6 is a primitive membership fact, of S3 an
attribute fact and of S5 a path goal; the engine additionally re-examines S2
and S4 when a new edge arrives at the subject, and S5 when a new primitive
membership arrives at the goal's subject.
"""

from __future__ import annotations

from typing import Optional

from ...concepts.schema import Schema
from ...concepts.syntax import Attribute, Primitive
from ..constraints import (
    AttributeConstraint,
    Constraint,
    MembershipConstraint,
    Pair,
    constraint_sort_key,
)
from .base import Rule, RuleApplication, goal_path

__all__ = [
    "RuleS1",
    "RuleS2",
    "RuleS3",
    "RuleS4",
    "RuleS5",
    "RuleS6",
    "SCHEMA_RULES",
    "PAPER_SCHEMA_RULES",
]


def _is_primitive_membership(constraint: Constraint) -> bool:
    return isinstance(constraint, MembershipConstraint) and isinstance(
        constraint.concept, Primitive
    )


class RuleS1(Rule):
    """S1: from ``s : A1`` and ``A1 ⊑ A2 ∈ Σ`` add ``s : A2``."""

    name = "S1"
    category = "schema"
    source = "facts"

    def matches(self, constraint: Constraint) -> bool:
        return _is_primitive_membership(constraint)

    def apply_to(self, candidate, pair: Pair, schema: Schema) -> Optional[RuleApplication]:
        for superclass in sorted(schema.primitive_superclasses(candidate.concept.name)):
            added = pair.add_facts(
                [MembershipConstraint(candidate.subject, Primitive(superclass))]
            )
            if added:
                return RuleApplication(self.name, self.category, added_facts=added)
        return None


class RuleS2(Rule):
    """S2: from ``s : A1``, ``s P t`` and ``A1 ⊑ ∀P.A2 ∈ Σ`` add ``t : A2``."""

    name = "S2"
    category = "schema"
    source = "facts"
    retrigger_edge_at_subject = True

    def matches(self, constraint: Constraint) -> bool:
        return _is_primitive_membership(constraint)

    def apply_to(self, candidate, pair: Pair, schema: Schema) -> Optional[RuleApplication]:
        restrictions = schema.value_restrictions(candidate.concept.name)
        if not restrictions:
            return None
        for attribute, filler_class in sorted(restrictions):
            edges = sorted(
                pair.fact_edge_constraints(candidate.subject, Attribute(attribute)),
                key=constraint_sort_key,
            )
            for fact in edges:
                added = pair.add_facts(
                    [MembershipConstraint(fact.filler, Primitive(filler_class))]
                )
                if added:
                    return RuleApplication(self.name, self.category, added_facts=added)
        return None


class RuleS3(Rule):
    """S3: from ``s P t`` and ``P ⊑ A1 × A2 ∈ Σ`` add ``s : A1`` and ``t : A2``."""

    name = "S3"
    category = "schema"
    source = "facts"

    def matches(self, constraint: Constraint) -> bool:
        return isinstance(constraint, AttributeConstraint) and not constraint.attribute.inverted

    def apply_to(self, candidate, pair: Pair, schema: Schema) -> Optional[RuleApplication]:
        typing = schema.attribute_typing(candidate.attribute.name)
        if typing is None:
            return None
        domain, range_ = typing
        added = pair.add_facts(
            [
                MembershipConstraint(candidate.subject, Primitive(domain)),
                MembershipConstraint(candidate.filler, Primitive(range_)),
            ]
        )
        if added:
            return RuleApplication(self.name, self.category, added_facts=added)
        return None


class RuleS4(Rule):
    """S4: identify fillers of a functional attribute.

    From ``s : A``, ``s P y``, ``s P t`` with ``A ⊑ (≤1 P) ∈ Σ`` and ``y`` a
    variable distinct from ``t``, replace ``y`` by ``t`` throughout the pair.
    """

    name = "S4"
    category = "schema"
    source = "facts"
    retrigger_edge_at_subject = True

    def matches(self, constraint: Constraint) -> bool:
        return _is_primitive_membership(constraint)

    def apply_to(self, candidate, pair: Pair, schema: Schema) -> Optional[RuleApplication]:
        functional = schema.functional_attributes(candidate.concept.name)
        if not functional:
            return None
        for attribute_name in sorted(functional):
            fillers = sorted(
                pair.attribute_fillers(candidate.subject, Attribute(attribute_name)),
                key=lambda individual: individual.sort_key(),
            )
            if len(fillers) < 2:
                continue
            # Prefer keeping a constant: merge the first variable into the
            # first other filler (constants sort before variables).
            variables = [filler for filler in fillers if filler.is_variable]
            if not variables:
                continue
            keep_candidates = [f for f in fillers if f != variables[-1]]
            old, new = variables[-1], keep_candidates[0]
            if pair.apply_substitution(old, new):
                return RuleApplication(self.name, self.category, substitution=(old, new))
        return None


class RuleS5(Rule):
    """S5: create a filler for a necessary attribute demanded by a goal.

    From a goal ``s : ∃(P:C)p`` or ``s : ∃(P:C)p ≐ ε``, if no ``s P t`` is in
    the facts and there is an ``A`` with ``s : A`` in the facts and
    ``A ⊑ ∃P ∈ Σ``, add ``s P y`` for a fresh variable ``y``.
    """

    name = "S5"
    category = "schema"
    source = "goals"
    retrigger_membership_at_subject = True

    def matches(self, constraint: Constraint) -> bool:
        return (
            isinstance(constraint, MembershipConstraint)
            and goal_path(constraint.concept) is not None
        )

    def apply_to(self, candidate, pair: Pair, schema: Schema) -> Optional[RuleApplication]:
        subject = candidate.subject
        head = goal_path(candidate.concept).head
        attribute = head.attribute
        if attribute.inverted:
            return None
        if pair.attribute_fillers(subject, attribute):
            return None
        has_necessity = any(
            isinstance(fact.concept, Primitive)
            and schema.is_necessary_for(fact.concept.name, attribute.name)
            for fact in pair.fact_memberships_at(subject)
        )
        if not has_necessity:
            return None
        fresh = pair.fresh_variable()
        added = pair.add_facts([AttributeConstraint(subject, attribute, fresh)])
        if added:
            return RuleApplication(self.name, self.category, added_facts=added)
        return None


class RuleS6(Rule):
    """S6 (repair): from ``s : A``, ``A ⊑ ∃P ∈ Σ`` and ``P ⊑ A1 × A2 ∈ Σ`` add ``s : A1``.

    See the module docstring for why this semantically valid propagation is
    needed to make the canonical interpretation a Σ-model in the presence of
    implicit (``u``) fillers.
    """

    name = "S6"
    category = "schema"
    source = "facts"

    def matches(self, constraint: Constraint) -> bool:
        return _is_primitive_membership(constraint)

    def apply_to(self, candidate, pair: Pair, schema: Schema) -> Optional[RuleApplication]:
        for attribute in sorted(schema.necessary_attributes(candidate.concept.name)):
            typing = schema.attribute_typing(attribute)
            if typing is None:
                continue
            domain, _range = typing
            added = pair.add_facts(
                [MembershipConstraint(candidate.subject, Primitive(domain))]
            )
            if added:
                return RuleApplication(self.name, self.category, added_facts=added)
        return None


#: The paper's literal rule set (Figure 8).
PAPER_SCHEMA_RULES = (RuleS1(), RuleS2(), RuleS3(), RuleS4(), RuleS5())

#: The default rule set of the reproduction: Figure 8 plus the S6 repair.
SCHEMA_RULES = PAPER_SCHEMA_RULES + (RuleS6(),)
