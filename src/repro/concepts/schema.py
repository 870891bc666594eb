"""``SL`` schemas: sets of schema axioms with convenient query indexes.

Section 3.1 of the paper introduces two axiom forms::

    A ⊑ D            (concept inclusion; D an SL concept)
    P ⊑ A1 × A2      (attribute typing: domain A1, range A2)

A schema ``Σ`` is a finite set of such axioms.  The schema rules S1--S5 and
the canonical-interpretation construction of Section 4 need fast access to
"all axioms with left-hand side ``A``" and "is ``P`` necessary / functional
for ``A``", which :class:`Schema` provides through precomputed indexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Union

from .syntax import (
    AtMostOne,
    ExistsAttribute,
    SLConcept,
    SLPrimitive,
    ValueRestriction,
)

__all__ = [
    "InclusionAxiom",
    "AttributeTyping",
    "SchemaAxiom",
    "Schema",
    "SchemaError",
]


class SchemaError(ValueError):
    """Raised when a schema is malformed (e.g. duplicate attribute typings)."""


@dataclass(frozen=True, order=True)
class InclusionAxiom:
    """A concept inclusion axiom ``A ⊑ D``.

    ``A`` must be a primitive concept name; ``D`` is an arbitrary ``SL``
    concept.  The axiom states a *necessary* condition for membership in
    ``A``: every instance of ``A`` is an instance of ``D``.
    """

    left: str
    right: SLConcept

    def __str__(self) -> str:
        return f"{self.left} <= {self.right}"


@dataclass(frozen=True, order=True)
class AttributeTyping:
    """An attribute typing axiom ``P ⊑ A1 × A2`` (domain ``A1``, range ``A2``)."""

    attribute: str
    domain: str
    range: str

    def __str__(self) -> str:
        return f"{self.attribute} <= {self.domain} x {self.range}"


SchemaAxiom = Union[InclusionAxiom, AttributeTyping]


class Schema:
    """An ``SL`` schema ``Σ``: a set of inclusion and attribute-typing axioms.

    The class is immutable after construction.  Besides iteration over the
    raw axioms it exposes the index views used by the calculus:

    * :meth:`primitive_superclasses` -- the ``A2`` with ``A1 ⊑ A2`` (rule S1),
    * :meth:`value_restrictions` -- the ``(P, A2)`` with ``A1 ⊑ ∀P.A2`` (rule S2),
    * :meth:`attribute_typing` -- the ``(A1, A2)`` with ``P ⊑ A1 × A2`` (rule S3),
    * :meth:`is_functional_for` -- ``A ⊑ (≤1 P)`` (rule S4 and clash detection),
    * :meth:`is_necessary_for` / :meth:`necessary_attributes` -- ``A ⊑ ∃P``
      (rule S5 and the canonical interpretation).
    """

    #: :func:`~repro.concepts.size.schema_size`, set on its first call.
    _size: Optional[int] = None

    def __init__(self, axioms: Iterable[SchemaAxiom] = ()) -> None:
        self._inclusions: List[InclusionAxiom] = []
        self._typings: Dict[str, AttributeTyping] = {}
        # Indexes keyed by the left-hand-side primitive concept name.
        self._supers: Dict[str, Set[str]] = {}
        self._value_restrictions: Dict[str, Set[Tuple[str, str]]] = {}
        self._necessary: Dict[str, Set[str]] = {}
        self._functional: Dict[str, Set[str]] = {}

        for axiom in axioms:
            self._add(axiom)

    # -- construction -------------------------------------------------------

    def _add(self, axiom: SchemaAxiom) -> None:
        if isinstance(axiom, AttributeTyping):
            existing = self._typings.get(axiom.attribute)
            if existing is not None and existing != axiom:
                raise SchemaError(
                    f"conflicting typings for attribute {axiom.attribute!r}: "
                    f"{existing} vs {axiom}"
                )
            self._typings[axiom.attribute] = axiom
            return

        if not isinstance(axiom, InclusionAxiom):
            raise SchemaError(f"not a schema axiom: {axiom!r}")

        self._inclusions.append(axiom)
        left, right = axiom.left, axiom.right
        if isinstance(right, SLPrimitive):
            self._supers.setdefault(left, set()).add(right.name)
        elif isinstance(right, ValueRestriction):
            self._value_restrictions.setdefault(left, set()).add(
                (right.attribute, right.concept)
            )
        elif isinstance(right, ExistsAttribute):
            self._necessary.setdefault(left, set()).add(right.attribute)
        elif isinstance(right, AtMostOne):
            self._functional.setdefault(left, set()).add(right.attribute)
        else:
            raise SchemaError(
                f"right-hand side of {axiom} is not an SL concept: {right!r}"
            )

    # -- iteration / size ---------------------------------------------------

    @property
    def inclusion_axioms(self) -> Tuple[InclusionAxiom, ...]:
        """All concept inclusion axioms ``A ⊑ D`` in the schema."""
        return tuple(self._inclusions)

    @property
    def attribute_typings(self) -> Tuple[AttributeTyping, ...]:
        """All attribute typing axioms ``P ⊑ A1 × A2`` in the schema."""
        return tuple(sorted(self._typings.values()))

    def axioms(self) -> Iterator[SchemaAxiom]:
        """Iterate over every axiom of the schema."""
        yield from self._inclusions
        yield from sorted(self._typings.values())

    def __iter__(self) -> Iterator[SchemaAxiom]:
        return self.axioms()

    def __len__(self) -> int:
        return len(self._inclusions) + len(self._typings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return set(self.axioms()) == set(other.axioms())

    def __hash__(self) -> int:
        return hash(frozenset(self.axioms()))

    def __repr__(self) -> str:
        return f"Schema({len(self)} axioms)"

    # -- vocabulary ---------------------------------------------------------

    def concept_names(self) -> FrozenSet[str]:
        """Every primitive concept name mentioned anywhere in the schema."""
        names: Set[str] = set()
        for axiom in self._inclusions:
            names.add(axiom.left)
            right = axiom.right
            if isinstance(right, SLPrimitive):
                names.add(right.name)
            elif isinstance(right, ValueRestriction):
                names.add(right.concept)
        for typing in self._typings.values():
            names.add(typing.domain)
            names.add(typing.range)
        return frozenset(names)

    def attribute_names(self) -> FrozenSet[str]:
        """Every primitive attribute name mentioned anywhere in the schema."""
        names: Set[str] = set(self._typings)
        for axiom in self._inclusions:
            right = axiom.right
            if isinstance(right, (ValueRestriction, ExistsAttribute, AtMostOne)):
                names.add(right.attribute)
        return frozenset(names)

    # -- indexes used by the calculus ----------------------------------------

    def primitive_superclasses(self, concept: str) -> FrozenSet[str]:
        """The ``A2`` such that ``concept ⊑ A2`` is an axiom (rule S1)."""
        return frozenset(self._supers.get(concept, ()))

    def all_superclasses(self, concept: str) -> FrozenSet[str]:
        """The reflexive-transitive closure of :meth:`primitive_superclasses`."""
        seen: Set[str] = {concept}
        frontier = [concept]
        while frontier:
            current = frontier.pop()
            for parent in self._supers.get(current, ()):
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return frozenset(seen)

    def value_restrictions(self, concept: str) -> FrozenSet[Tuple[str, str]]:
        """The ``(P, A2)`` such that ``concept ⊑ ∀P.A2`` is an axiom (rule S2)."""
        return frozenset(self._value_restrictions.get(concept, ()))

    def attribute_typing(self, attribute: str) -> Optional[Tuple[str, str]]:
        """The ``(A1, A2)`` such that ``attribute ⊑ A1 × A2``, if declared (rule S3)."""
        typing = self._typings.get(attribute)
        if typing is None:
            return None
        return typing.domain, typing.range

    def necessary_attributes(self, concept: str) -> FrozenSet[str]:
        """The ``P`` such that ``concept ⊑ ∃P`` is an axiom (rule S5)."""
        return frozenset(self._necessary.get(concept, ()))

    def functional_attributes(self, concept: str) -> FrozenSet[str]:
        """The ``P`` such that ``concept ⊑ (≤1 P)`` is an axiom (rule S4)."""
        return frozenset(self._functional.get(concept, ()))

    def is_necessary_for(self, concept: str, attribute: str) -> bool:
        """``True`` iff ``concept ⊑ ∃attribute`` is an axiom of the schema."""
        return attribute in self._necessary.get(concept, ())

    def is_functional_for(self, concept: str, attribute: str) -> bool:
        """``True`` iff ``concept ⊑ (≤1 attribute)`` is an axiom of the schema."""
        return attribute in self._functional.get(concept, ())

    # -- manipulation --------------------------------------------------------

    def extended(self, axioms: Iterable[SchemaAxiom]) -> "Schema":
        """Return a new schema containing this schema's axioms plus ``axioms``."""
        return Schema(list(self.axioms()) + list(axioms))

    @staticmethod
    def empty() -> "Schema":
        """The empty schema (subsumption w.r.t. it is plain concept subsumption)."""
        return Schema(())
