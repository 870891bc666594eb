"""Clash detection for constraint systems (Section 4.2).

A *clash* is an obviously Σ-unsatisfiable constraint system of one of the
forms

* ``{a : {b}}`` where ``a`` and ``b`` are distinct constants (Unique Name
  Assumption), or
* ``{s P a, s P b, s : A}`` where ``A ⊑ (≤1 P) ∈ Σ`` and ``a ≠ b`` are
  constants (a functional attribute would need two distinct values).

If the completion of ``{x:C} : {x:D}`` contains a clash, the concept ``C``
is Σ-unsatisfiable and hence trivially Σ-subsumed by every concept
(Theorem 4.7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple, Union

from ..concepts.schema import Schema
from ..concepts.syntax import Attribute, Primitive, Singleton
from .constraints import Constraint, Pair, constraint_sort_key

__all__ = ["Clash", "find_clashes"]


@dataclass(frozen=True)
class Clash:
    """A witness that a constraint system is Σ-unsatisfiable."""

    kind: str
    constraints: Tuple[Constraint, ...]
    description: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.description}"


def find_clashes(
    facts: Union[Pair, Iterable[Constraint]], schema: Schema
) -> List[Clash]:
    """All clashes contained in the facts with respect to ``schema``.

    Accepts either a :class:`Pair` -- in which case the pair's constructor
    and ``(subject, attribute)`` indexes are probed directly, so the cost is
    proportional to the singleton/functional candidates rather than to the
    whole system -- or a plain iterable of fact constraints, which is
    indexed on the fly (the same O(n) the old list scans paid).
    """
    if not isinstance(facts, Pair):
        # Raw constraint sets index just as cheaply as the old list scans did.
        facts = Pair(facts=facts)
    return _find_clashes_indexed(facts, schema)


def _find_clashes_indexed(pair: Pair, schema: Schema) -> List[Clash]:
    """Clash detection driven by the pair's indexes (same clashes, less scanning)."""
    clashes: List[Clash] = []

    # Clash kind 1: a constant asserted to be a different constant.
    for constraint in sorted(
        pair.fact_memberships_with_ctor(Singleton), key=constraint_sort_key
    ):
        subject = constraint.subject
        if subject.is_variable:
            continue
        if subject.name != constraint.concept.constant:
            clashes.append(
                Clash(
                    kind="singleton-clash",
                    constraints=(constraint,),
                    description=(
                        f"constant {subject.name} asserted to equal distinct constant "
                        f"{constraint.concept.constant}"
                    ),
                )
            )

    # Clash kind 2: two distinct constant fillers of a functional attribute.
    for membership in sorted(
        pair.fact_memberships_with_ctor(Primitive), key=constraint_sort_key
    ):
        functional = schema.functional_attributes(membership.concept.name)
        if not functional:
            continue
        for attribute_name in sorted(functional):
            constant_fillers = [
                constraint
                for constraint in pair.fact_edge_constraints(
                    membership.subject, Attribute(attribute_name)
                )
                if not constraint.filler.is_variable
            ]
            names = {constraint.filler.name for constraint in constant_fillers}
            if len(names) >= 2:
                clashes.append(
                    Clash(
                        kind="functional-clash",
                        constraints=tuple(
                            sorted(constant_fillers, key=constraint_sort_key)
                        )
                        + (membership,),
                        description=(
                            f"{membership.subject} has distinct constant fillers "
                            f"{sorted(names)} for functional attribute {attribute_name}"
                        ),
                    )
                )
    return clashes
