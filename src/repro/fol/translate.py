"""The transformational semantics of ``SL`` and ``QL`` (Table 1, column 2).

Every concept ``C`` translates into a formula ``F_C(α)`` with one free
variable, every attribute / attribute restriction / path into a formula with
two free variables, and every schema axiom into a closed formula.  The
module follows Table 1 of the paper construct by construct.

The property tests in ``tests/fol/test_table1_agreement.py`` check that for
random concepts and interpretations, ``d ∈ C^I`` (set semantics) holds
exactly when ``F_C(d)`` evaluates to true (transformational semantics) --
i.e. that columns 2 and 3 of Table 1 agree, as the paper asserts.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Tuple

from ..concepts.schema import AttributeTyping, InclusionAxiom, Schema, SchemaAxiom
from ..concepts.syntax import (
    And,
    AtMostOne,
    Attribute,
    AttributeRestriction,
    Concept,
    ExistsAttribute,
    ExistsPath,
    Path,
    PathAgreement,
    Primitive,
    Singleton,
    SLConcept,
    SLPrimitive,
    Top,
    ValueRestriction,
)
from .syntax import (
    AndF,
    BinaryAtom,
    Const,
    Equals,
    Exists,
    Forall,
    Formula,
    Implies,
    TrueFormula,
    UnaryAtom,
    Var,
)

__all__ = [
    "concept_to_formula",
    "path_to_formula",
    "sl_concept_to_formula",
    "axiom_to_formula",
    "schema_to_formulas",
]


def _fresh_names(prefix: str = "z") -> Iterator[Var]:
    for index in itertools.count(1):
        yield Var(f"{prefix}{index}")


def _attribute_to_formula(attribute: Attribute, first: Var, second: Var) -> Formula:
    """``F_R(α, β)``: ``P(α, β)`` for a primitive attribute, ``P(β, α)`` for its inverse."""
    if attribute.inverted:
        return BinaryAtom(attribute.primitive_name, second, first)
    return BinaryAtom(attribute.primitive_name, first, second)


def _restriction_to_formula(
    restriction: AttributeRestriction, first: Var, second: Var, fresh: Iterator[Var]
) -> Formula:
    """``F_(R:C)(α, β) = F_R(α, β) ∧ F_C(β)``."""
    return AndF(
        _attribute_to_formula(restriction.attribute, first, second),
        _concept_formula(restriction.concept, second, fresh),
    )


def path_to_formula(path: Path, first: Var, second: Var, fresh: Iterator[Var] = None) -> Formula:
    """``F_p(α, β)``; the empty path translates to ``α = β``."""
    fresh = fresh if fresh is not None else _fresh_names()
    if path.is_empty:
        return Equals(first, second)
    if len(path) == 1:
        return _restriction_to_formula(path.head, first, second, fresh)
    middle = next(fresh)
    return Exists(
        middle,
        AndF(
            _restriction_to_formula(path.head, first, middle, fresh),
            path_to_formula(path.tail, middle, second, fresh),
        ),
    )


def _concept_formula(concept: Concept, variable: Var, fresh: Iterator[Var]) -> Formula:
    if isinstance(concept, Primitive):
        return UnaryAtom(concept.name, variable)
    if isinstance(concept, Top):
        return TrueFormula()
    if isinstance(concept, Singleton):
        return Equals(variable, Const(concept.constant))
    if isinstance(concept, And):
        return AndF(
            _concept_formula(concept.left, variable, fresh),
            _concept_formula(concept.right, variable, fresh),
        )
    if isinstance(concept, ExistsPath):
        target = next(fresh)
        return Exists(target, path_to_formula(concept.path, variable, target, fresh))
    if isinstance(concept, PathAgreement):
        target = next(fresh)
        return Exists(
            target,
            AndF(
                path_to_formula(concept.left, variable, target, fresh),
                path_to_formula(concept.right, variable, target, fresh),
            ),
        )
    raise TypeError(f"not a QL concept: {concept!r}")


def concept_to_formula(concept: Concept, variable: Var = Var("x")) -> Formula:
    """``F_C(α)`` -- the first-order translation of a ``QL`` concept."""
    return _concept_formula(concept, variable, _fresh_names())


def sl_concept_to_formula(concept: SLConcept, variable: Var = Var("x")) -> Formula:
    """``F_D(α)`` for an ``SL`` concept (axiom right-hand side)."""
    fresh = _fresh_names()
    if isinstance(concept, SLPrimitive):
        return UnaryAtom(concept.name, variable)
    if isinstance(concept, ValueRestriction):
        other = next(fresh)
        return Forall(
            other,
            Implies(
                BinaryAtom(concept.attribute, variable, other),
                UnaryAtom(concept.concept, other),
            ),
        )
    if isinstance(concept, ExistsAttribute):
        other = next(fresh)
        return Exists(other, BinaryAtom(concept.attribute, variable, other))
    if isinstance(concept, AtMostOne):
        first, second = next(fresh), next(fresh)
        return Forall(
            first,
            Forall(
                second,
                Implies(
                    AndF(
                        BinaryAtom(concept.attribute, variable, first),
                        BinaryAtom(concept.attribute, variable, second),
                    ),
                    Equals(first, second),
                ),
            ),
        )
    raise TypeError(f"not an SL concept: {concept!r}")


def axiom_to_formula(axiom: SchemaAxiom) -> Formula:
    """The closed formula expressing a single schema axiom (Figure 2 style)."""
    subject = Var("x")
    if isinstance(axiom, InclusionAxiom):
        return Forall(
            subject,
            Implies(UnaryAtom(axiom.left, subject), sl_concept_to_formula(axiom.right, subject)),
        )
    if isinstance(axiom, AttributeTyping):
        other = Var("y")
        return Forall(
            subject,
            Forall(
                other,
                Implies(
                    BinaryAtom(axiom.attribute, subject, other),
                    AndF(UnaryAtom(axiom.domain, subject), UnaryAtom(axiom.range, other)),
                ),
            ),
        )
    raise TypeError(f"not a schema axiom: {axiom!r}")


def schema_to_formulas(schema: Schema) -> Tuple[Formula, ...]:
    """The first-order theory of a schema (one closed formula per axiom)."""
    return tuple(axiom_to_formula(axiom) for axiom in schema.axioms())
