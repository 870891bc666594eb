"""Finite interpretations for the set semantics of ``SL`` and ``QL``.

An interpretation ``I = (Δ^I, ·^I)`` (Section 3.1, Table 1 of the paper)
consists of a domain and an extension function mapping

* every primitive concept to a subset of the domain,
* every constant to an element of the domain (Unique Name Assumption:
  distinct constants denote distinct elements),
* every primitive attribute to a binary relation over the domain.

:class:`Interpretation` is a finite, explicit representation of such a
structure.  It is used by

* the model-theoretic evaluator (:mod:`repro.semantics.evaluate`),
* the Σ-model checker (:mod:`repro.semantics.sigma`),
* the canonical-interpretation construction of the calculus
  (:mod:`repro.semantics.canonical`),
* the brute-force subsumption oracle (:mod:`repro.baselines.bruteforce`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

__all__ = ["Interpretation", "InterpretationError"]


class InterpretationError(ValueError):
    """Raised when an interpretation is built from inconsistent data."""


class Interpretation:
    """A finite first-order structure over unary and binary predicates.

    Parameters
    ----------
    domain:
        The non-empty set of domain elements (any hashable values; strings
        in practice).
    concepts:
        Mapping from primitive concept names to their extensions (subsets of
        the domain).
    attributes:
        Mapping from primitive attribute names to sets of pairs of domain
        elements.
    constants:
        Mapping from constant names to domain elements.  Distinct constants
        must map to distinct elements (Unique Name Assumption).
    """

    def __init__(
        self,
        domain: Iterable,
        concepts: Optional[Mapping[str, Iterable]] = None,
        attributes: Optional[Mapping[str, Iterable[Tuple]]] = None,
        constants: Optional[Mapping[str, object]] = None,
    ) -> None:
        self._domain: FrozenSet = frozenset(domain)
        if not self._domain:
            raise InterpretationError("the domain of an interpretation must be non-empty")

        self._concepts: Dict[str, FrozenSet] = {}
        for name, extension in (concepts or {}).items():
            extension = frozenset(extension)
            unknown = extension - self._domain
            if unknown:
                raise InterpretationError(
                    f"extension of concept {name!r} contains non-domain elements {sorted(map(repr, unknown))}"
                )
            self._concepts[name] = extension

        self._attributes: Dict[str, FrozenSet[Tuple]] = {}
        for name, pairs in (attributes or {}).items():
            pairs = frozenset(tuple(pair) for pair in pairs)
            for first, second in pairs:
                if first not in self._domain or second not in self._domain:
                    raise InterpretationError(
                        f"extension of attribute {name!r} contains non-domain pair ({first!r}, {second!r})"
                    )
            self._attributes[name] = pairs

        self._constants: Dict[str, object] = dict(constants or {})
        seen: Dict[object, str] = {}
        for constant, element in self._constants.items():
            if element not in self._domain:
                raise InterpretationError(
                    f"constant {constant!r} is mapped outside the domain: {element!r}"
                )
            if element in seen and seen[element] != constant:
                raise InterpretationError(
                    "Unique Name Assumption violated: constants "
                    f"{seen[element]!r} and {constant!r} denote the same element {element!r}"
                )
            seen[element] = constant

    @classmethod
    def trusted(
        cls,
        domain: FrozenSet,
        concepts: Mapping[str, FrozenSet],
        attributes: Mapping[str, FrozenSet[Tuple]],
        constants: Mapping[str, object],
    ) -> "Interpretation":
        """Build an interpretation from pre-validated, already-frozen data.

        The regular constructor re-freezes and cross-checks every extension
        against the domain, which is O(total data) -- prohibitive for callers
        that re-export a large structure after a small change.  This fast
        path trusts the caller to pass frozensets that satisfy the
        constructor's invariants (extensions within the domain, Unique Name
        Assumption); :meth:`StateSnapshot.to_interpretation`, the database
        state's one export, maintains them by construction and is
        property-tested against the validating path.
        """
        self = cls.__new__(cls)
        self._domain = domain
        self._concepts = dict(concepts)
        self._attributes = dict(attributes)
        self._constants = dict(constants)
        return self

    # -- accessors ----------------------------------------------------------

    @property
    def domain(self) -> FrozenSet:
        """The domain ``Δ^I``."""
        return self._domain

    def concept_extension(self, name: str) -> FrozenSet:
        """The extension ``A^I`` of a primitive concept (empty if undeclared)."""
        return self._concepts.get(name, frozenset())

    def attribute_extension(self, name: str) -> FrozenSet[Tuple]:
        """The extension ``P^I`` of a primitive attribute (empty if undeclared)."""
        return self._attributes.get(name, frozenset())

    def constant_value(self, name: str) -> object:
        """The element ``a^I`` denoted by the constant ``a``.

        Under the Unique Name Assumption every constant must denote; if the
        interpretation was built without a mapping for ``name`` an
        :class:`InterpretationError` is raised rather than silently inventing
        an element.
        """
        try:
            return self._constants[name]
        except KeyError as exc:
            raise InterpretationError(f"constant {name!r} has no denotation") from exc

    def has_constant(self, name: str) -> bool:
        """``True`` iff the interpretation assigns a denotation to ``name``."""
        return name in self._constants

    @property
    def concept_names(self) -> FrozenSet[str]:
        """Names of the primitive concepts with a declared extension."""
        return frozenset(self._concepts)

    @property
    def attribute_names(self) -> FrozenSet[str]:
        """Names of the primitive attributes with a declared extension."""
        return frozenset(self._attributes)

    @property
    def constant_names(self) -> FrozenSet[str]:
        """Names of the constants with a declared denotation."""
        return frozenset(self._constants)

    # -- derived views -------------------------------------------------------

    def successors(self, attribute: str, element: object) -> FrozenSet:
        """The set ``{d2 | (element, d2) ∈ P^I}``."""
        return frozenset(
            second for first, second in self.attribute_extension(attribute) if first == element
        )

    def predecessors(self, attribute: str, element: object) -> FrozenSet:
        """The set ``{d1 | (d1, element) ∈ P^I}``."""
        return frozenset(
            first for first, second in self.attribute_extension(attribute) if second == element
        )

    # -- modification (functional style) --------------------------------------

    def with_concept(self, name: str, extension: Iterable) -> "Interpretation":
        """A copy of this interpretation with the extension of ``name`` replaced."""
        concepts = {key: set(value) for key, value in self._concepts.items()}
        concepts[name] = set(extension)
        return Interpretation(self._domain, concepts, self._attributes, self._constants)

    def with_attribute(self, name: str, pairs: Iterable[Tuple]) -> "Interpretation":
        """A copy of this interpretation with the extension of attribute ``name`` replaced."""
        attributes = {key: set(value) for key, value in self._attributes.items()}
        attributes[name] = set(pairs)
        return Interpretation(self._domain, self._concepts, attributes, self._constants)

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interpretation):
            return NotImplemented
        return (
            self._domain == other._domain
            and self._nonempty_concepts() == other._nonempty_concepts()
            and self._nonempty_attributes() == other._nonempty_attributes()
            and self._constants == other._constants
        )

    def _nonempty_concepts(self) -> Dict[str, FrozenSet]:
        return {name: ext for name, ext in self._concepts.items() if ext}

    def _nonempty_attributes(self) -> Dict[str, FrozenSet[Tuple]]:
        return {name: ext for name, ext in self._attributes.items() if ext}

    def __repr__(self) -> str:
        return (
            f"Interpretation(|domain|={len(self._domain)}, "
            f"concepts={sorted(self._concepts)}, attributes={sorted(self._attributes)})"
        )
