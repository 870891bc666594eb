"""Abstract syntax of the concept languages ``SL`` and ``QL``.

This module implements the languages of Section 3.1 of the paper.  The
elementary building blocks are *primitive concepts* (letter ``A`` in the
paper), *primitive attributes* (``P``) and *constants* (``a``, ``b``, ``c``).

``QL`` concepts are formed by the grammar::

    C, D, E  -->  A            (primitive concept)
               |  TOP          (universal concept)
               |  {a}          (singleton set)
               |  C and D      (intersection)
               |  exists p     (existential quantification over a path)
               |  exists p = q (existential agreement of paths)

where paths ``p, q`` are chains of *attribute restrictions* ``(R:C)`` and
``R`` is either a primitive attribute ``P`` or its inverse ``P^-1``.

``SL`` concepts (used only on the right-hand side of schema axioms) are::

    D  -->  A  |  all P. A  |  exists P  |  (<= 1 P)

All nodes are immutable (frozen dataclasses) with structural equality and
hashing, so they can be freely used as members of sets and keys of
dictionaries -- which is exactly what the constraint systems of the
subsumption calculus (:mod:`repro.calculus`) require.  The concept nodes
and paths compute their structural hash once per instance and keep it
(:func:`_memoized_hash`), so a set operation on a constraint no longer
re-walks the concept tree inside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple, Union

__all__ = [
    "Attribute",
    "AttributeRestriction",
    "Path",
    "EMPTY_PATH",
    "Concept",
    "Primitive",
    "Top",
    "Singleton",
    "And",
    "ExistsPath",
    "PathAgreement",
    "SLConcept",
    "SLPrimitive",
    "ValueRestriction",
    "ExistsAttribute",
    "AtMostOne",
    "TOP",
]


# ---------------------------------------------------------------------------
# Attributes and paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Attribute:
    """An attribute ``R``: a primitive attribute ``P`` or its inverse ``P^-1``.

    The paper ranges over attributes with the letter ``R`` in ``QL`` and
    restricts the schema language ``SL`` to primitive attributes only.
    """

    name: str
    inverted: bool = False

    def inverse(self) -> "Attribute":
        """Return ``R^-1`` (the paper's notation for the converse relation)."""
        return Attribute(self.name, not self.inverted)

    @property
    def primitive_name(self) -> str:
        """The underlying primitive attribute name (``P`` for both ``P`` and ``P^-1``)."""
        return self.name

    def __str__(self) -> str:
        return f"{self.name}^-1" if self.inverted else self.name


@dataclass(frozen=True, order=True)
class AttributeRestriction:
    """An attribute restriction ``(R : C)``.

    Relates all objects ``x, y`` such that ``(x, y)`` is in the extension of
    ``R`` and ``y`` is an instance of ``C``.
    """

    attribute: Attribute
    concept: "Concept"

    def __str__(self) -> str:
        return f"({self.attribute}: {self.concept})"


#: Name of the canonical-instance stamp set by :mod:`repro.concepts.intern`
#: (kept in sync by a test there).  Pickling and copying must not carry the
#: stamp along: ids are process-local, so a deserialized instance claiming a
#: foreign id could alias a *different* structure in the receiving process's
#: id-keyed caches.  ``_StampFreeState`` therefore strips it, which makes
#: concept/path round-trips id-stable: the copy re-interns to the canonical
#: instance (and id) of its structure wherever it lands.
_INTERN_STAMP = "_repro_intern_id"


#: Name of the structural-hash memo set by :func:`_memoized_hash`.  It is
#: dropped on pickling and copying too: ``str`` hashes differ between
#: processes under hash randomization, so a carried-over memo would make an
#: unpickled concept miss every set and dict lookup in the receiver.
_HASH_MEMO = "_repro_hash"


class _StampFreeState:
    """Pickle/copy protocol mixin dropping the stamp and the hash memo (see above)."""

    __slots__ = ()

    #: Class-level default of the hash memo (``_HASH_MEMO``): "not computed
    #: yet", so reading the memo needs no ``try``/``except``.
    _repro_hash = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop(_INTERN_STAMP, None)
        state.pop(_HASH_MEMO, None)
        return state

    def __setstate__(self, state):
        for key, value in state.items():
            object.__setattr__(self, key, value)


def _memoized_hash(cls):
    """Class decorator: compute ``cls``'s structural hash once per instance.

    Applied on top of ``@dataclass``, it wraps whatever ``__hash__`` the
    class ends up with (the generated field-tuple hash, or the class body's
    own) and stores the value on the instance the way the interning stamp
    is stored, so equal instances still hash equal wherever they were built.
    Two threads hashing a new instance at once store the same int.
    """
    structural = cls.__hash__

    def __hash__(self) -> int:
        memo = self._repro_hash
        if memo is None:
            memo = structural(self)
            object.__setattr__(self, _HASH_MEMO, memo)
        return memo

    cls.__hash__ = __hash__
    return cls


@_memoized_hash
@dataclass(frozen=True)
class Path(_StampFreeState):
    """A path ``p = (R1:C1)(R2:C2)...(Rn:Cn)``; the empty path is ``epsilon``.

    A path denotes the composition of its restricted attributes; the empty
    path denotes the identity relation (Table 1 of the paper).
    """

    steps: Tuple[AttributeRestriction, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.steps, tuple):
            object.__setattr__(self, "steps", tuple(self.steps))

    # -- structural helpers -------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """``True`` iff this is the empty path ``epsilon``."""
        return not self.steps

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[AttributeRestriction]:
        return iter(self.steps)

    def __getitem__(self, index):
        return self.steps[index]

    @property
    def head(self) -> AttributeRestriction:
        """The first restriction ``(R1:C1)`` of a non-empty path."""
        if self.is_empty:
            raise ValueError("the empty path has no head")
        return self.steps[0]

    @property
    def tail(self) -> "Path":
        """The path with the first restriction removed (``epsilon`` if length 1)."""
        if self.is_empty:
            raise ValueError("the empty path has no tail")
        return Path(self.steps[1:])

    def prepend(self, step: AttributeRestriction) -> "Path":
        """Return the path ``(R:C) . p``."""
        return Path((step,) + self.steps)

    def append(self, step: AttributeRestriction) -> "Path":
        """Return the path ``p . (R:C)``."""
        return Path(self.steps + (step,))

    def concat(self, other: "Path") -> "Path":
        """Return the concatenation ``p . q``."""
        return Path(self.steps + other.steps)

    def __hash__(self) -> int:
        return hash(("Path", self.steps))

    def __str__(self) -> str:
        if self.is_empty:
            return "eps"
        return "".join(str(step) for step in self.steps)


EMPTY_PATH = Path(())


# ---------------------------------------------------------------------------
# QL concepts
# ---------------------------------------------------------------------------


class Concept(_StampFreeState):
    """Base class of all ``QL`` concept expressions.

    Concepts denote sets of objects; see Table 1 of the paper for the set
    semantics and :mod:`repro.semantics.evaluate` for its implementation.
    """

    __slots__ = ()

    def __and__(self, other: "Concept") -> "And":
        """``C & D`` builds the intersection ``C ⊓ D``."""
        if not isinstance(other, Concept):
            return NotImplemented
        return And(self, other)


@_memoized_hash
@dataclass(frozen=True, order=True)
class Primitive(Concept):
    """A primitive concept ``A`` (an OODB class name after abstraction)."""

    name: str

    def __str__(self) -> str:
        return self.name


@_memoized_hash
@dataclass(frozen=True)
class Top(Concept):
    """The universal concept ``⊤`` (the class ``Object`` of the OODB)."""

    def __str__(self) -> str:
        return "TOP"


TOP = Top()


@_memoized_hash
@dataclass(frozen=True, order=True)
class Singleton(Concept):
    """A singleton concept ``{a}`` for a constant ``a``.

    Constants obey the Unique Name Assumption: distinct constants denote
    distinct objects.
    """

    constant: str

    def __str__(self) -> str:
        return "{" + self.constant + "}"


@_memoized_hash
@dataclass(frozen=True)
class And(Concept):
    """The intersection ``C ⊓ D`` of two concepts.

    The paper's grammar (and its rules D1, G1, C1) treat conjunction as a
    binary connective, so the AST keeps it binary; the helper
    :func:`repro.concepts.builders.conjoin` folds an iterable of conjuncts.
    """

    left: Concept
    right: Concept

    def __str__(self) -> str:
        return f"({self.left} AND {self.right})"


@_memoized_hash
@dataclass(frozen=True)
class ExistsPath(Concept):
    """Existential quantification over a path: ``∃p``.

    Denotes the objects from which *some* object can be reached along ``p``.
    ``∃ε`` is equivalent to ``⊤``.
    """

    path: Path

    def __str__(self) -> str:
        return f"EXISTS {self.path}"


@_memoized_hash
@dataclass(frozen=True)
class PathAgreement(Concept):
    """Existential agreement of two paths: ``∃p ≐ q``.

    Denotes the objects that have a *common filler* for the two paths.  The
    calculus of Section 4 assumes the normalized form ``∃p ≐ ε``; the
    function :func:`repro.concepts.normalize.normalize_concept` produces it.
    """

    left: Path
    right: Path = EMPTY_PATH

    def __str__(self) -> str:
        return f"EXISTS {self.left} == {self.right}"


# ---------------------------------------------------------------------------
# SL concepts (right-hand sides of schema axioms)
# ---------------------------------------------------------------------------


class SLConcept:
    """Base class of ``SL`` concept expressions (axiom right-hand sides)."""

    __slots__ = ()


@dataclass(frozen=True, order=True)
class SLPrimitive(SLConcept):
    """A primitive concept ``A`` used as an ``SL`` right-hand side."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class ValueRestriction(SLConcept):
    """Typing of an attribute: ``∀P. A`` ("all fillers of ``P`` are in ``A``")."""

    attribute: str
    concept: str

    def __str__(self) -> str:
        return f"ALL {self.attribute}. {self.concept}"


@dataclass(frozen=True, order=True)
class ExistsAttribute(SLConcept):
    """Necessary attribute: ``∃P`` ("there is at least one ``P`` filler")."""

    attribute: str

    def __str__(self) -> str:
        return f"EXISTS {self.attribute}"


@dataclass(frozen=True, order=True)
class AtMostOne(SLConcept):
    """Single-valued (functional) attribute: ``(≤ 1 P)``."""

    attribute: str

    def __str__(self) -> str:
        return f"(<= 1 {self.attribute})"


ConceptLike = Union[Concept, SLConcept]
