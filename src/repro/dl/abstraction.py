"""Abstraction of ``DL`` declarations into ``SL`` schemas and ``QL`` concepts.

Section 3.2 of the paper ("The Concrete versus the Abstract"):

* the *structural part* of the class and attribute declarations of a ``DL``
  schema is represented by a set of ``SL`` schema axioms (Figure 6),
* the *structural part* of a query class is represented by a ``QL`` concept
  (the concepts ``C_Q`` and ``D_V`` of the worked example),
* non-structural parts (the ``constraint`` clauses) are dropped -- this is
  what makes the method sound but incomplete (Proposition 3.1).

Attribute synonyms declared with ``inverse:`` are resolved to inverse
attributes (``specialist`` becomes ``skilled_in⁻¹``), exactly as the paper
does when building ``C_Q``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..concepts import builders as b
from ..concepts.schema import Schema
from ..concepts.syntax import (
    Attribute,
    AttributeRestriction,
    Concept,
    Path,
    PathAgreement,
    Primitive,
    Singleton,
    TOP,
    ExistsPath,
)
from ..core.errors import UnsupportedQueryError
from .ast import DLSchema, LabeledPath, PathStep, QueryClassDecl

__all__ = [
    "UNIVERSAL_CLASS",
    "schema_to_sl",
    "path_step_to_restriction",
    "query_class_to_concept",
    "query_classes_to_concepts",
]

#: The most general class of the data model ("there is a most general class
#: Object containing any object of the database", Section 2.1).
UNIVERSAL_CLASS = "Object"


def schema_to_sl(schema: DLSchema) -> Schema:
    """Translate the structural part of a ``DL`` schema into ``SL`` axioms.

    Per class declaration:

    * each ``isA`` superclass yields an inclusion between primitive concepts,
    * each attribute line ``a: C`` yields ``Class ⊑ ∀a.C``,
    * the ``necessary`` flag yields ``Class ⊑ ∃a``,
    * the ``single`` flag yields ``Class ⊑ (≤1 a)``.

    Per attribute declaration, ``domain``/``range`` yield ``P ⊑ A1 × A2``.
    Constraint clauses are ignored (they are the non-structural part).
    """
    axioms = []
    for class_decl in schema.classes.values():
        for superclass in class_decl.superclasses:
            axioms.append(b.isa(class_decl.name, superclass))
        for spec in class_decl.attributes:
            if spec.range_class != UNIVERSAL_CLASS:
                axioms.append(b.typed(class_decl.name, spec.name, spec.range_class))
            if spec.necessary:
                axioms.append(b.necessary(class_decl.name, spec.name))
            if spec.single:
                axioms.append(b.functional(class_decl.name, spec.name))
    for attribute_decl in schema.attributes.values():
        axioms.append(
            b.attribute_typing(attribute_decl.name, attribute_decl.domain, attribute_decl.range)
        )
    return Schema(axioms)


def _resolve_attribute(name: str, synonyms: Dict[str, str]) -> Attribute:
    """Resolve an attribute name, replacing inverse synonyms by ``P⁻¹``."""
    if name in synonyms:
        return Attribute(synonyms[name], inverted=True)
    return Attribute(name, inverted=False)


def path_step_to_restriction(step: PathStep, synonyms: Dict[str, str]) -> AttributeRestriction:
    """Translate one path step ``(a: C)`` / ``(a: {i})`` / ``a`` into ``(R : C)``."""
    attribute = _resolve_attribute(step.attribute, synonyms)
    if step.filler_constant is not None:
        filler: Concept = Singleton(step.filler_constant)
    elif step.filler_class is None or step.filler_class == UNIVERSAL_CLASS:
        filler = TOP
    else:
        filler = Primitive(step.filler_class)
    return AttributeRestriction(attribute, filler)


def _labeled_path_to_path(labeled: LabeledPath, synonyms: Dict[str, str]) -> Path:
    """Translate the steps of a ``derived`` entry into a ``QL`` path."""
    return Path(tuple(path_step_to_restriction(step, synonyms) for step in labeled.steps))


def query_class_to_concept(
    query: QueryClassDecl,
    schema: Optional[DLSchema] = None,
    *,
    synonyms: Optional[Dict[str, str]] = None,
) -> Concept:
    """Translate the structural part of a query class into a ``QL`` concept.

    The concept is the conjunction of

    * one primitive concept per superclass,
    * one path agreement ``∃p_j ≐ p_k`` per ``where`` equality ``l_j = l_k``,
    * one existential ``∃p`` per derived path whose label does not occur in
      the ``where`` clause (or that has no label at all).

    The ``constraint`` clause is intentionally ignored (the abstraction keeps
    only the structural part); callers that must *not* lose information --
    e.g. when registering a view -- should check
    :attr:`~repro.dl.ast.QueryClassDecl.is_structural` first.
    """
    synonyms = dict(synonyms or {})
    if schema is not None:
        synonyms.update(schema.inverse_synonyms())

    paths_by_label: Dict[str, Path] = {}
    unlabeled: List[Path] = []
    for labeled in query.derived:
        path = _labeled_path_to_path(labeled, synonyms)
        if labeled.label is None:
            unlabeled.append(path)
        else:
            if labeled.label in paths_by_label:
                raise UnsupportedQueryError(
                    f"label {labeled.label!r} is declared twice in query {query.name!r}"
                )
            paths_by_label[labeled.label] = path

    conjuncts: List[Concept] = [Primitive(name) for name in query.superclasses]

    used_labels = set()
    for equality in query.where:
        for label in (equality.left, equality.right):
            if label not in paths_by_label:
                raise UnsupportedQueryError(
                    f"label {label!r} used in the where clause of {query.name!r} "
                    "is not declared in the derived clause"
                )
        used_labels.update((equality.left, equality.right))
        conjuncts.append(
            PathAgreement(paths_by_label[equality.left], paths_by_label[equality.right])
        )

    for label, path in paths_by_label.items():
        if label not in used_labels:
            conjuncts.append(ExistsPath(path))
    for path in unlabeled:
        conjuncts.append(ExistsPath(path))

    if not conjuncts:
        return TOP
    return b.conjoin(conjuncts)


def query_classes_to_concepts(schema: DLSchema) -> Dict[str, Concept]:
    """Translate every query class of a parsed schema into its ``QL`` concept."""
    synonyms = schema.inverse_synonyms()
    return {
        name: query_class_to_concept(decl, schema, synonyms=synonyms)
        for name, decl in schema.query_classes.items()
    }
