"""Deciding Σ-subsumption of ``QL`` concepts (Theorem 4.7).

The decision procedure:

1. normalize ``C`` and ``D`` so that every path agreement has the form
   ``∃p ≐ ε`` (Section 4, preliminaries);
2. start from the pair ``{x : C} : {x : D}`` and compute its completion with
   the rules of Figures 7--10 under the paper's control strategy -- or, given
   a ``seed`` (the completed facts-only pair of ``C``), start from a copy of
   the seed's facts plus the goal ``o : D`` and complete from the goal (the
   fact-premise rules never read a goal, so their part of the completion is
   the same for every ``D``; see :mod:`repro.calculus.engine`);
3. report ``C ⊑_Σ D`` iff the completed facts contain ``o : D`` (where ``o``
   is the individual carrying the original goal, possibly renamed by the
   identification rules) or the facts contain a clash (in which case ``C``
   is Σ-unsatisfiable and subsumed by everything).

:class:`SubsumptionResult` additionally exposes the derivation trace, the
clash witnesses, the completion statistics and -- when subsumption fails --
the canonical countermodel of Section 4.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..concepts.normalize import normalize_concept
from ..concepts.schema import Schema
from ..concepts.syntax import Concept
from ..semantics.canonical import canonical_interpretation
from ..semantics.interpretation import Interpretation
from .clash import Clash, find_clashes
from .constraints import Individual, MembershipConstraint, Pair
from .engine import CompletionEngine, CompletionResult
from .rules import RuleApplication

__all__ = ["SubsumptionResult", "decide_subsumption", "subsumes"]


@dataclass
class SubsumptionResult:
    """The full outcome of one subsumption test ``C ⊑_Σ D``.

    Attributes
    ----------
    subsumed:
        The decision of Theorem 4.7.
    query / view:
        The normalized concepts actually fed to the calculus.
    completion:
        The completed pair, trace and statistics.
    root_goal_subject:
        The individual ``o`` whose membership in ``D`` was tested.
    clashes:
        The clash witnesses, if any (non-empty implies ``subsumed``).
    goal_established:
        ``True`` iff ``o : D`` was composed in the facts (the non-degenerate
        way of establishing subsumption).
    """

    subsumed: bool
    query: Concept
    view: Concept
    schema: Schema
    completion: CompletionResult
    root_goal_subject: Individual
    clashes: Tuple[Clash, ...]
    goal_established: bool

    @property
    def trace(self) -> Tuple[RuleApplication, ...]:
        """The sequence of rule applications of the completion (Figure 11)."""
        return self.completion.trace

    @property
    def statistics(self):
        """Counters of the completion run (rule firings, individuals, ...)."""
        return self.completion.statistics

    def countermodel(self) -> Optional[Interpretation]:
        """The canonical Σ-countermodel when subsumption does not hold.

        Proposition 4.5/4.6: if the completed facts are clash-free and
        ``o : D`` is not among them, the canonical interpretation of the
        facts is a Σ-model in which the root object belongs to ``C`` but not
        to ``D``.  Returns ``None`` when subsumption holds.
        """
        if self.subsumed:
            return None
        from ..concepts.visitors import constants as concept_constants
        from ..concepts.visitors import primitive_attributes, primitive_concepts

        extra_concepts = primitive_concepts(self.query) | primitive_concepts(self.view)
        extra_attributes = primitive_attributes(self.query) | primitive_attributes(self.view)
        extra_constants = concept_constants(self.query) | concept_constants(self.view)
        return canonical_interpretation(
            self.completion.facts,
            self.schema,
            extra_constants=extra_constants,
            extra_concepts=extra_concepts,
            extra_attributes=extra_attributes,
        )


def decide_subsumption(
    query: Concept,
    view: Concept,
    schema: Optional[Schema] = None,
    *,
    use_repair_rule: bool = True,
    keep_trace: bool = True,
    naive: bool = False,
    seed: Optional[Pair] = None,
) -> SubsumptionResult:
    """Decide ``query ⊑_Σ view`` and return the full :class:`SubsumptionResult`.

    ``naive=True`` runs the completion with the full-scan engine of the seed
    implementation instead of the indexed agenda; both produce the same
    result (see :class:`repro.calculus.engine.CompletionEngine`).

    ``seed`` warm-starts the decision.  It must be the completed pair of a
    facts-only run of the *same* query under the *same* schema and rule set
    (``use_repair_rule``) -- in practice ``decide_subsumption(query, P,
    schema).completion.pair`` for a fresh primitive ``P``, whose goal fires
    no rule.  The seed is never mutated: the completion runs on a
    :meth:`~repro.calculus.constraints.Pair.fork` of it, so one seed serves
    any number of views.  The trace and statistics of a warm decision cover
    the goal-driven firings only.  Without a seed the decision runs cold
    from ``{x : C} : {x : D}``, which is the specification of the warm path.
    """
    schema = schema if schema is not None else Schema.empty()
    normalized_query = normalize_concept(query)
    normalized_view = normalize_concept(view)

    engine = CompletionEngine(
        use_repair_rule=use_repair_rule, keep_trace=keep_trace, naive=naive
    )
    if seed is None:
        pair = Pair.initial(normalized_query, normalized_view)
    else:
        if MembershipConstraint(seed.root_fact_subject, normalized_query) not in seed.facts:
            raise ValueError("seed is not a facts-only completion of this query")
        # D3/S4 may have renamed the root during the seed's run.
        pair = seed.fork()
        pair.add_goals([MembershipConstraint(seed.root_goal_subject, normalized_view)])
    completion = engine.complete(pair, schema, facts_closed=seed is not None)

    root = pair.root_goal_subject
    goal_constraint = MembershipConstraint(root, normalized_view)
    goal_established = goal_constraint in pair.facts
    clashes = tuple(find_clashes(pair, schema))

    return SubsumptionResult(
        subsumed=goal_established or bool(clashes),
        query=normalized_query,
        view=normalized_view,
        schema=schema,
        completion=completion,
        root_goal_subject=root,
        clashes=clashes,
        goal_established=goal_established,
    )


def subsumes(
    query: Concept,
    view: Concept,
    schema: Optional[Schema] = None,
    *,
    use_repair_rule: bool = True,
    naive: bool = False,
) -> bool:
    """``True`` iff ``query ⊑_Σ view`` (every instance of the query is in the view)."""
    return decide_subsumption(
        query, view, schema, use_repair_rule=use_repair_rule, keep_trace=False, naive=naive
    ).subsumed
