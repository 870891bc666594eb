"""Size measures for concepts, paths and schemas.

The complexity statements of the paper (Proposition 4.8 and Theorem 4.9) are
phrased in terms of the *size* of the query concept ``C``, the view concept
``D`` and the schema ``Σ``.  We use the standard notion: the number of
symbols of the expression, counting one for each primitive concept,
``⊤``, singleton, connective, attribute occurrence and axiom arrow.

These measures are used by

* the complexity-bound experiment E3 (the ``M·N`` bound on individuals),
* the workload generators, which scale inputs by target size,
* the benchmark reports, which tabulate runtime against size,
* the completion engine's safety budget, which probes them on every
  :meth:`~repro.calculus.engine.CompletionEngine.complete` call.

The engine and the benchmarks ask for the same sizes over and over, and the
recursive recomputation used to show up in profiles of the completion hot
path, so the measures are memoized: :func:`concept_size` in a bounded LRU
cache (long-running services don't pin every concept ever measured), and
:func:`schema_size` once per schema, kept on the schema itself -- hashing a
schema for an LRU lookup would build the frozenset of all its axioms.
"""

from __future__ import annotations

from functools import lru_cache

from .schema import AttributeTyping, InclusionAxiom, Schema
from .syntax import (
    And,
    AtMostOne,
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

__all__ = ["concept_size", "path_size", "sl_concept_size", "schema_size"]


def path_size(path: Path) -> int:
    """Size of a path: one per attribute occurrence plus its filler's size."""
    return sum(1 + concept_size(step.concept) for step in path)


@lru_cache(maxsize=65536)
def concept_size(concept: Concept) -> int:
    """Size of a ``QL`` concept (number of symbols); memoized (bounded LRU)."""
    if isinstance(concept, (Primitive, Top, Singleton)):
        return 1
    if isinstance(concept, And):
        return 1 + concept_size(concept.left) + concept_size(concept.right)
    if isinstance(concept, ExistsPath):
        return 1 + path_size(concept.path)
    if isinstance(concept, PathAgreement):
        return 1 + path_size(concept.left) + path_size(concept.right)
    raise TypeError(f"not a QL concept: {concept!r}")


def sl_concept_size(concept: SLConcept) -> int:
    """Size of an ``SL`` concept (axiom right-hand side)."""
    if isinstance(concept, SLPrimitive):
        return 1
    if isinstance(concept, (ExistsAttribute, AtMostOne)):
        return 2
    if isinstance(concept, ValueRestriction):
        return 3
    raise TypeError(f"not an SL concept: {concept!r}")


def schema_size(schema: Schema) -> int:
    """Size of a schema: the sum of the sizes of its axioms; computed once per schema."""
    if schema._size is not None:
        return schema._size
    total = 0
    for axiom in schema.axioms():
        if isinstance(axiom, InclusionAxiom):
            total += 2 + sl_concept_size(axiom.right)
        elif isinstance(axiom, AttributeTyping):
            total += 4
        else:  # pragma: no cover - Schema only stores the two axiom kinds
            raise TypeError(f"not a schema axiom: {axiom!r}")
    schema._size = total
    return total
