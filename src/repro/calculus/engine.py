"""The completion engine: driving the rules of the calculus to a fixpoint.

Section 4.1 of the paper prescribes the control strategy:

* a rule is applicable only if it *alters* the pair (this is built into the
  individual rules: they report ``None`` when nothing new can be added);
* "A schema rule can be applied only if no decomposition rule is
  applicable" -- decomposition rules receive priority because the
  individuals they introduce carry more specific information than the
  variables created by schema rules;
* rule S5 fires only when a goal demands a path step, which bounds the
  number of fresh variables (Proposition 4.8).

The engine applies rules in the priority order *decomposition > goal >
composition > schema* until no rule is applicable, which respects the
paper's constraint and is deterministic (each rule scans constraints in a
fixed order).  Because all rules either add constraints built from
sub-expressions of ``C``, ``D`` and ``Σ`` or eliminate a variable, the loop
terminates; a generous safety bound guards against implementation bugs.

Two execution strategies implement that contract:

``naive=True``
    The seed implementation's restart-from-top fixpoint: after every firing,
    every rule re-scans the whole pair in sorted order.  Kept as the
    executable specification for cross-checking.

``naive=False`` (default)
    An **agenda-driven (semi-naive) fixpoint**.  The agenda holds, per rule,
    the primary premises whose applicability may have changed; after each
    firing only the delta (the newly added constraints, routed through the
    rules' retrigger channels and the pair's indexes) is used to extend the
    agenda, and premises examined without effect are dropped until a delta
    can re-enable them.  Substitutions (rules D3/S4) rewrite the whole pair,
    so they re-seed the agenda wholesale -- they happen at most once per
    eliminated variable, preserving the polynomial bound.  The agenda is
    *stratified* in the paper's priority order, and within a rule premises
    are examined in the same deterministic sorted order as the naive scan.
    Because the agenda always over-approximates the set of applicable
    premises, both strategies fire the **identical sequence** of rule
    applications (same traces, statistics and decisions); the property test
    ``tests/calculus/test_engine_equivalence.py`` and the E8 benchmark check
    exactly this.

**Warm starts.**  The fact-premise rules (D1--D7, S1--S4, S6) never read a
goal, so the facts-only completion of ``{x : C}`` is the same for every
view ``D``.  :func:`repro.calculus.subsume.decide_subsumption` can start
from a copy of that completion plus the goal ``o : D``
(``complete(..., facts_closed=True)``); the agenda then queues only the
goal-premise rules (G1--G3, C1--C6, S5), and facts the goal side adds reach
the fact rules through the usual delta routing.  This is still a derivation
under the paper's control strategy: the copied facts were derived with
decomposition ahead of the schema rules, each schema rule fired only while
no decomposition rule applied, and S5 -- the one schema rule that needs a
goal -- fires only for a goal in the warm run as well.  The decision ("``o
: D`` is among the facts, or the facts clash") is the cold decision; the
warm/cold oracle in ``tests/calculus/test_warm_start.py`` checks it.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..concepts.schema import Schema
from ..concepts.size import concept_size, schema_size
from ..concepts.syntax import Concept
from .constraints import (
    AttributeConstraint,
    Constraint,
    MembershipConstraint,
    Pair,
    PathConstraint,
)
from .rules import (
    COMPOSITION_RULES,
    DECOMPOSITION_RULES,
    GOAL_RULES,
    PAPER_SCHEMA_RULES,
    SCHEMA_RULES,
    Rule,
    RuleApplication,
)

__all__ = ["CompletionStatistics", "CompletionResult", "CompletionEngine", "CompletionError"]


class CompletionError(RuntimeError):
    """Raised if the completion loop exceeds its safety bound (implementation bug)."""


@dataclass
class CompletionStatistics:
    """Counters describing one completion run (used by experiment E3)."""

    rule_applications: Dict[str, int] = field(default_factory=dict)
    total_applications: int = 0
    individuals: int = 0
    fact_count: int = 0
    goal_count: int = 0
    fresh_variables: int = 0
    substitutions: int = 0

    def record(self, application: RuleApplication) -> None:
        self.rule_applications[application.rule] = (
            self.rule_applications.get(application.rule, 0) + 1
        )
        self.total_applications += 1
        if application.substitution is not None:
            self.substitutions += 1

    def by_category(self, rules_by_name: Dict[str, str]) -> Dict[str, int]:
        """Aggregate rule applications by category given a name->category map."""
        result: Dict[str, int] = {}
        for name, count in self.rule_applications.items():
            category = rules_by_name.get(name, "other")
            result[category] = result.get(category, 0) + count
        return result


@dataclass
class CompletionResult:
    """The outcome of completing an initial pair ``{x:C} : {x:D}``."""

    pair: Pair
    trace: Tuple[RuleApplication, ...]
    statistics: CompletionStatistics

    @property
    def facts(self):
        return self.pair.facts

    @property
    def goals(self):
        return self.pair.goals


class _Agenda:
    """Per-rule pending premises, stratified by the paper's rule priorities.

    The invariant maintained through :meth:`notify_fact` / :meth:`notify_goal`
    / :meth:`reseed` is that the pending set of a rule is a *superset* of the
    primary premises on which the rule is currently applicable.  Selecting
    the first applicable premise of the first rule (in group > rule >
    sorted-premise order) therefore coincides with the naive engine's
    full-scan choice.

    Each rule's pending premises are kept in an insertion-sorted entry list
    (``(sort_key, tie, constraint)``, mirroring the pair's own sorted index)
    with a membership set for O(1) dedup/lazy deletion and a cursor marking
    the examined prefix -- so draining a large pending set costs one probe
    per premise instead of a re-sort per firing.
    """

    def __init__(self, rule_groups: Tuple[Sequence[Rule], ...]) -> None:
        self._groups = rule_groups
        rules = [rule for group in rule_groups for rule in group]
        self._fact_rules = [rule for rule in rules if rule.source == "facts"]
        self._goal_rules = [rule for rule in rules if rule.source == "goals"]
        #: Authoritative pending membership per rule.
        self._members: Dict[Rule, set] = {rule: set() for rule in rules}
        #: Sorted ``(sort_key, tie, constraint)`` entries; may contain stale
        #: entries for discarded premises (skipped via the membership set).
        self._entries: Dict[Rule, List[Tuple[Tuple, int, Constraint]]] = {
            rule: [] for rule in rules
        }
        #: Index of the first possibly-live entry per rule.
        self._cursor: Dict[Rule, int] = {rule: 0 for rule in rules}
        #: Tie-breaker for entries; sort keys embed full string forms, so two
        #: distinct constraints never share one and the tie order is moot.
        self._tick = itertools.count()
        self._edge_retriggered = [rule for rule in rules if rule.retrigger_edge_at_subject]
        self._membership_retriggered = [
            rule for rule in rules if rule.retrigger_membership_at_subject
        ]
        self._path_retriggered = [rule for rule in rules if rule.retrigger_path_at_subject]
        self._successor_membership = [
            rule for rule in rules if rule.retrigger_membership_at_successor
        ]
        self._successor_path = [rule for rule in rules if rule.retrigger_path_at_successor]

    # -- seeding and delta routing -------------------------------------------

    def _add(self, rule: Rule, constraint: Constraint) -> None:
        members = self._members[rule]
        if constraint in members:
            return
        members.add(constraint)
        entry = (constraint.sort_key(), next(self._tick), constraint)
        entries = self._entries[rule]
        position = bisect_left(entries, entry)
        entries.insert(position, entry)
        if position < self._cursor[rule]:
            self._cursor[rule] = position

    def reseed(self, pair: Pair, *, goals_only: bool = False) -> None:
        """Re-enter every constraint (used at start and after substitutions).

        ``goals_only`` enters the goals alone.  It is only correct for a pair
        whose facts are closed under the fact-premise rules: no such rule is
        applicable there, so their empty pending sets still over-approximate.
        """
        pools = [(self._goal_rules, pair.goals)]
        if not goals_only:
            pools.insert(0, (self._fact_rules, pair.facts))
        for rules, pool in pools:
            for rule in rules:
                matching = [c for c in pool if rule.matches(c)]
                self._members[rule] = set(matching)
                self._entries[rule] = sorted(
                    (c.sort_key(), next(self._tick), c) for c in matching
                )
                self._cursor[rule] = 0

    def _requeue_at(self, rule: Rule, pair: Pair, subject) -> None:
        """Re-enter the membership premises of ``rule`` whose subject is ``subject``."""
        bucket = (
            pair.fact_memberships_at(subject)
            if rule.source == "facts"
            else pair.goal_memberships_at(subject)
        )
        for constraint in bucket:
            if rule.matches(constraint):
                self._add(rule, constraint)

    def notify_fact(self, constraint: Constraint, pair: Pair) -> None:
        """Route a newly added fact to every rule it may have enabled."""
        for rule in self._fact_rules:
            if rule.matches(constraint):
                self._add(rule, constraint)
        if isinstance(constraint, AttributeConstraint):
            for rule in self._edge_retriggered:
                self._requeue_at(rule, pair, constraint.subject)
        elif isinstance(constraint, MembershipConstraint):
            subject = constraint.subject
            for rule in self._membership_retriggered:
                self._requeue_at(rule, pair, subject)
            if self._successor_membership:
                for edge in pair.fact_edges_into(subject):
                    for rule in self._successor_membership:
                        self._requeue_at(rule, pair, edge.subject)
        elif isinstance(constraint, PathConstraint):
            subject = constraint.subject
            for rule in self._path_retriggered:
                self._requeue_at(rule, pair, subject)
            if self._successor_path:
                for edge in pair.fact_edges_into(subject):
                    for rule in self._successor_path:
                        self._requeue_at(rule, pair, edge.subject)

    def notify_goal(self, constraint: Constraint, pair: Pair) -> None:
        """Route a newly added goal (goals only ever enable goal-premise rules)."""
        for rule in self._goal_rules:
            if rule.matches(constraint):
                self._add(rule, constraint)

    # -- selection -------------------------------------------------------------

    def next_application(self, pair: Pair, schema: Schema) -> Optional[RuleApplication]:
        """Fire the highest-priority applicable rule, exactly as the naive scan would."""
        for group in self._groups:
            for rule in group:
                members = self._members[rule]
                if not members:
                    continue
                source_set = pair.facts if rule.source == "facts" else pair.goals
                entries = self._entries[rule]
                index = self._cursor[rule]
                while index < len(entries):
                    candidate = entries[index][2]
                    if candidate not in members:
                        index += 1
                        continue
                    if candidate not in source_set:
                        members.discard(candidate)
                        index += 1
                        continue
                    application = rule.apply_to(candidate, pair, schema)
                    if application is not None:
                        # The premise stays pending: several rules fire more
                        # than once per premise (S1 per superclass, G2 per
                        # filler, ...); it is dropped on its next idle probe.
                        self._cursor[rule] = index
                        return application
                    members.discard(candidate)
                    index += 1
                if members:
                    self._cursor[rule] = index
                else:
                    entries.clear()
                    self._cursor[rule] = 0
        return None


class CompletionEngine:
    """Runs the rules of the calculus on a pair until no rule is applicable.

    Parameters
    ----------
    use_repair_rule:
        When ``True`` (default) the schema rule set includes the S6
        domain-propagation repair (see
        :mod:`repro.calculus.rules.schema_rules`); when ``False`` the
        paper's literal Figure 8 rules are used.
    keep_trace:
        When ``True`` (default) every rule application is recorded so the
        derivation can be printed (Figure 11); disable for benchmark runs
        that only need the decision and the statistics.
    max_steps:
        Optional hard upper bound on rule applications.  By default a
        generous polynomial bound derived from the input sizes is used.
    naive:
        When ``True``, use the restart-from-top full-scan fixpoint of the
        seed implementation instead of the indexed agenda; both strategies
        fire the identical sequence of rule applications (the naive path is
        kept as the executable specification for cross-checking).
    """

    def __init__(
        self,
        use_repair_rule: bool = True,
        keep_trace: bool = True,
        max_steps: Optional[int] = None,
        naive: bool = False,
    ) -> None:
        schema_rules = SCHEMA_RULES if use_repair_rule else PAPER_SCHEMA_RULES
        self._rule_groups: Tuple[Sequence[Rule], ...] = (
            DECOMPOSITION_RULES,
            GOAL_RULES,
            COMPOSITION_RULES,
            schema_rules,
        )
        self.keep_trace = keep_trace
        self.max_steps = max_steps
        self.naive = naive

    # -- public API -----------------------------------------------------------

    def complete(
        self, pair: Pair, schema: Schema, *, facts_closed: bool = False
    ) -> CompletionResult:
        """Apply rules to ``pair`` (mutating it) until it is complete.

        ``facts_closed=True`` promises that no fact-premise rule is
        applicable to ``pair`` as given -- its facts are a completed
        facts-only run under the same schema and rule set, and only goals
        were added since.  The agenda then starts from the goals alone (the
        naive scan does not need the promise and ignores it).
        """
        statistics = CompletionStatistics()
        trace: List[RuleApplication] = []
        budget = self.max_steps or self._default_budget(pair, schema)

        agenda: Optional[_Agenda] = None
        if not self.naive:
            agenda = _Agenda(self._rule_groups)
            agenda.reseed(pair, goals_only=facts_closed)

        steps = 0
        while True:
            if agenda is None:
                application = self._apply_one(pair, schema)
            else:
                application = agenda.next_application(pair, schema)
            if application is None:
                break
            statistics.record(application)
            if self.keep_trace:
                trace.append(application)
            if agenda is not None:
                if application.substitution is not None:
                    agenda.reseed(pair)
                else:
                    for constraint in application.added_facts:
                        agenda.notify_fact(constraint, pair)
                    for constraint in application.added_goals:
                        agenda.notify_goal(constraint, pair)
            steps += 1
            if steps > budget:
                raise CompletionError(
                    f"completion exceeded the safety bound of {budget} rule applications; "
                    "this indicates a non-terminating rule interaction"
                )

        individuals = pair.fact_individuals()
        statistics.individuals = len(individuals)
        statistics.fact_count = len(pair.facts)
        statistics.goal_count = len(pair.goals)
        statistics.fresh_variables = sum(
            1 for individual in individuals if individual.is_variable
        )
        return CompletionResult(pair=pair, trace=tuple(trace), statistics=statistics)

    def complete_concepts(
        self, query: Concept, view: Concept, schema: Schema
    ) -> CompletionResult:
        """Complete the initial pair ``{x : query} : {x : view}``."""
        return self.complete(Pair.initial(query, view), schema)

    # -- internals --------------------------------------------------------------

    def _apply_one(self, pair: Pair, schema: Schema) -> Optional[RuleApplication]:
        """Apply the highest-priority applicable rule, if any (naive full scan)."""
        for group in self._rule_groups:
            for rule in group:
                application = rule.apply(pair, schema)
                if application is not None:
                    return application
        return None

    @staticmethod
    def _default_budget(pair: Pair, schema: Schema) -> int:
        """A generous polynomial budget on rule applications.

        The completion adds constraints built from sub-expressions of the
        input over at most ``M·N + |constants|`` individuals
        (Proposition 4.8); the budget below over-approximates that count
        comfortably without permitting runaway loops.  It is computed once
        per :meth:`complete` call, and the size measures it relies on are
        memoized (:mod:`repro.concepts.size`).
        """
        concept_total = sum(
            concept_size(constraint.concept)
            for constraint in pair.constraints()
            if isinstance(constraint, MembershipConstraint)
        )
        base = (concept_total + schema_size(schema) + 10) ** 3
        return max(base, 10_000)

    def rule_categories(self) -> Dict[str, str]:
        """Map from rule name to category for every rule the engine may fire."""
        return {
            rule.name: rule.category for group in self._rule_groups for rule in group
        }
