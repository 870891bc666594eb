"""Common infrastructure for the rules of the subsumption calculus.

Every rule of Figures 7--10 of the paper is implemented as a subclass of
:class:`Rule`.  A rule examines the current pair ``F : G`` (and the schema
``Σ`` for the schema rules) and, if an instance of the rule is applicable
*and would alter the pair*, applies it and reports a
:class:`RuleApplication` record.  The engine uses these records to build the
derivation trace (the reproduction of Figure 11) and the complexity
statistics of experiment E3.

Rules are written in *trigger style*: every rule names the constraint form
of its **primary premise** (:attr:`Rule.source` says whether it lives in the
facts or the goals, :meth:`Rule.matches` recognizes it) and implements
:meth:`Rule.apply_to`, which tries the rule with one given primary premise.
The naive full-scan :meth:`Rule.apply` simply probes every matching
constraint in the deterministic sorted order; the agenda-driven engine
(:mod:`repro.calculus.engine`) instead calls :meth:`Rule.apply_to` only on
constraints whose applicability may have changed since they were last
examined, which is what makes completion incremental.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ...concepts.schema import Schema
from ...concepts.syntax import Concept, ExistsPath, Path, PathAgreement
from ..constraints import Constraint, Individual, Pair

__all__ = ["RuleApplication", "Rule", "goal_path"]


def goal_path(concept: Concept) -> Optional[Path]:
    """The non-empty path demanded by a goal ``∃p`` or ``∃p ≐ ε`` (else ``None``).

    Both goal forms demand the existence of a ``p``-chain, which is what the
    goal rules G2/G3, the composition rules C5/C6 and the schema rule S5 act
    on; they only differ in the fact the composition rules eventually build.
    """
    if isinstance(concept, ExistsPath) and not concept.path.is_empty:
        return concept.path
    if (
        isinstance(concept, PathAgreement)
        and concept.right.is_empty
        and not concept.left.is_empty
    ):
        return concept.left
    return None


@dataclass(frozen=True)
class RuleApplication:
    """The record of one rule firing.

    Attributes
    ----------
    rule:
        The paper's name of the rule (``"D1"`` ... ``"C6"``).
    category:
        One of ``"decomposition"``, ``"schema"``, ``"goal"``, ``"composition"``.
    added_facts / added_goals:
        The constraints that were newly added to the facts / goals.
    substitution:
        For the identification rules D3 and S4: the pair ``(old, new)`` of the
        replacement performed on the whole pair, else ``None``.

    Every firing adds a constraint or performs a substitution, so these
    fields alone render it.
    """

    rule: str
    category: str
    added_facts: Tuple[Constraint, ...] = ()
    added_goals: Tuple[Constraint, ...] = ()
    substitution: Optional[Tuple[Individual, Individual]] = None

    def __str__(self) -> str:
        parts = []
        if self.added_facts:
            parts.append("F += {" + ", ".join(str(c) for c in self.added_facts) + "}")
        if self.added_goals:
            parts.append("G += {" + ", ".join(str(c) for c in self.added_goals) + "}")
        if self.substitution is not None:
            old, new = self.substitution
            parts.append(f"[{old} := {new}]")
        return f"{self.rule}: {'; '.join(parts)}"


class Rule:
    """Base class of all calculus rules.

    Subclasses set :attr:`name`, :attr:`category` and :attr:`source`, and
    implement :meth:`matches` (does a constraint qualify as the rule's
    primary premise?) and :meth:`apply_to` (try the rule with one primary
    premise; mutate the pair and report the firing, or return ``None`` when
    the paper's side condition "the pair is altered when transformed
    according to the rule" fails for every instance with that premise).

    :meth:`apply` -- the naive whole-pair scan used by the ``naive=True``
    engine and the unit tests -- probes the primaries in the deterministic
    sorted order and fires the first applicable instance, which reproduces
    the seed implementation's behaviour exactly.
    """

    name: str = "?"
    category: str = "?"
    #: Whether the primary premise is a fact or a goal ("facts" / "goals").
    source: str = "facts"

    # -- retrigger channels -------------------------------------------------
    # A primary premise that was examined and found non-applicable is dropped
    # from the agenda; these flags declare which *deltas* can make such a
    # premise applicable again, so the engine knows when to requeue it.  A
    # premise with subject ``u`` is requeued when ...
    #: ... a new attribute fact ``u R t`` arrives.
    retrigger_edge_at_subject: bool = False
    #: ... a new membership fact ``u : C`` arrives.
    retrigger_membership_at_subject: bool = False
    #: ... a new path fact ``u p t`` arrives.
    retrigger_path_at_subject: bool = False
    #: ... a new membership fact ``t : C`` arrives at a successor ``t`` (some
    #: attribute fact ``u R t`` exists).
    retrigger_membership_at_successor: bool = False
    #: ... a new path fact ``t p' t'`` arrives at a successor ``t``.
    retrigger_path_at_successor: bool = False

    def matches(self, constraint: Constraint) -> bool:
        """``True`` iff ``constraint`` has the shape of this rule's primary premise."""
        raise NotImplementedError

    def apply_to(
        self, candidate: Constraint, pair: Pair, schema: Schema
    ) -> Optional[RuleApplication]:
        """Try the rule with ``candidate`` as primary premise."""
        raise NotImplementedError

    def candidates(self, pair: Pair) -> List[Constraint]:
        """All primary premises currently in the pair, in deterministic order."""
        pool = pair.sorted_facts() if self.source == "facts" else pair.sorted_goals()
        return [constraint for constraint in pool if self.matches(constraint)]

    def apply(self, pair: Pair, schema: Schema) -> Optional[RuleApplication]:
        """Fire the first applicable instance found by a full deterministic scan."""
        for candidate in self.candidates(pair):
            application = self.apply_to(candidate, pair, schema)
            if application is not None:
                return application
        return None

    def __repr__(self) -> str:
        return f"<Rule {self.name}>"
