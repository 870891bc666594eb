"""The public facade: :class:`SubsumptionChecker`.

The checker bundles a schema with the completion engine configuration and
offers the operations a query optimizer needs:

* :meth:`SubsumptionChecker.subsumes` -- the boolean test ``C ⊑_Σ D``,
* :meth:`SubsumptionChecker.explain` -- the full result with trace and
  countermodel,
* :meth:`SubsumptionChecker.is_satisfiable` -- Σ-satisfiability of a concept
  (``C`` is unsatisfiable iff its completion contains a clash),
* :meth:`SubsumptionChecker.equivalent` -- mutual subsumption,
* :meth:`SubsumptionChecker.classify` -- insert a set of named concepts into
  their subsumption hierarchy (the "virtual class integration" of related
  OODB view mechanisms discussed in Section 5).

Four layers of memoization keep repeated checks cheap when the optimizer
probes the same query against many views that share sub-expressions:

* normalized concepts are interned and cached process-wide
  (:mod:`repro.concepts.intern` / :func:`repro.concepts.normalize.normalize_concept`),
* decisions are cached per normalized ``(query, view)`` pair -- both in a
  per-checker table and in a process-wide cache shared by every checker over
  a structurally equal schema (``shared_cache=False`` opts out),
* per-concept *signatures* (primitive concept / attribute / constant sets)
  and *profiles* (:class:`ConceptProfile`: the Σ-satisfiability verdict,
  root primitives and root step heads of one facts-only completion) are
  cached per normalized concept,
* the completed pair behind the most recently computed profile is kept in
  a one-entry *seed slot*: the full decisions of that query start from a
  copy of it plus the goal ``o : D`` instead of from ``{x : C} : {x : D}``
  (``decide_subsumption(..., seed=)``; see :mod:`repro.calculus.engine`
  for why the fact side is the same for every view).  A seed is only ever
  the facts-only completion of the same query under this checker's schema
  and rule set; the slot holds one pair, not one per profile, so memory
  does not grow with the number of distinct queries.  Warm starts run only
  with ``shortcuts=True`` and the indexed engine; ``explain()``,
  :meth:`SubsumptionChecker.is_satisfiable`, ``naive=True`` and
  ``shortcuts=False`` checkers complete cold.

A fifth, optional layer sits *behind* all of these: the **remote tier**
(``remote=``, a :class:`~repro.database.cacheserver.RemoteDecisionCache`
shared by a fleet of processes).  :meth:`SubsumptionChecker.subsumes`
asks it only after the memos and every shortcut below missed, just before
a completion; a hit is memoized like any other decision, and a miss
completes locally and publishes the result write-behind.  Only
completions are published.  ``explain()`` and ``is_satisfiable()`` never
consult it, and :meth:`SubsumptionChecker.clear_cache` keeps it attached.
This checker is the only place a decision is resolved: the batch layer's
``BatchCheckerView`` is a worker's decision overlay over it, and the view
lattice's told seeds (:meth:`SubsumptionChecker.seed`) land in its memo.

All of these tables are keyed on interned concept ids, so a cache hit costs
an attribute read and a small-int hash rather than a structural traversal of
the AST.

The signature supports a sound **necessary-condition filter**: in ``QL``
every occurrence of a symbol is positive and required (there is no negation
or value restriction in the query language), so whenever the view ``D``
mentions a primitive concept or attribute that occurs neither in the query
``C`` nor in the schema ``Σ`` -- or a constant that does not occur in ``C``
(``SL`` schemas cannot mention constants) -- the canonical model of a
satisfiable ``C`` interprets that symbol by the empty set (resp. a fresh
isolated object), so ``C ⊑_Σ D`` can only hold if ``C`` is Σ-unsatisfiable.
:meth:`subsumes` therefore answers such checks from ``C``'s memoized
profile (its satisfiability verdict) instead of a full completion per view.

Two further **decision shortcuts**, born in the batch layer
(:mod:`repro.optimizer.parallel`) and promoted here after the adversarial
fuzz in ``tests/optimizer/test_batch_filters.py`` proved them sound on
every corner (empty schema, deep ``isA`` chains, necessity-gated inverse
vocabularies), now run inside :meth:`subsumes` itself:

1. **Told subsumption.**  Normalized concepts are canonical sorted
   conjunctions, so ``conjunct_ids(D) ⊆ conjunct_ids(C)`` (compared as
   interned ids) proves ``C ⊑_Σ D`` for *every* schema: ``QL`` has no
   negation, hence dropping conjuncts only generalizes.
2. **Root-membership rejection.**  One facts-only completion per query
   (the memoized :class:`ConceptProfile`) decides all primitive subsumers
   at once: ``C ⊑_Σ A`` with primitive ``A`` holds iff ``A`` was
   established at the root of ``C``'s completion, and ``C ⊑ ∃(R:...)p``
   (or an agreement headed by ``R``) needs an ``R``-step at the root,
   which only an existing edge or rule S5 (gated on a schema necessity
   axiom for ``R``) can provide.  A satisfiable query failing either
   necessary condition is rejected without a completion.

Both shortcuts replace completion runs by cheaper reasoning without ever
changing an answer; ``shortcuts=False`` opts out (the fuzz suite pins the
two modes decision-equal).
"""

from __future__ import annotations

import itertools
import weakref
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from dataclasses import dataclass

from ..calculus.constraints import (
    AttributeConstraint,
    MembershipConstraint,
    Pair,
    PathConstraint,
)
from ..calculus.subsume import SubsumptionResult, decide_subsumption
from ..concepts import intern
from ..concepts.intern import concept_id
from ..concepts.normalize import normalize_concept
from ..concepts.schema import Schema
from ..concepts.syntax import Concept, ExistsPath, Path, PathAgreement, Primitive
from ..concepts.visitors import (
    conjuncts,
    constants,
    primitive_attributes,
    primitive_concepts,
)

__all__ = [
    "ConceptProfile",
    "SubsumptionChecker",
    "clear_shared_decision_cache",
    "concept_signature",
    "conjunct_ids",
    "necessary_attribute_names",
    "profile_concept",
    "profile_rejects",
]

#: (primitive concept names, primitive attribute names, constants) of a concept.
Signature = Tuple[FrozenSet[str], FrozenSet[str], FrozenSet[str]]

#: Interned schema identities: structurally equal schemas share one token, so
#: the shared decision cache below can key on a small int instead of hashing
#: the axiom set on every lookup.  The mapping is weak -- a schema no checker
#: holds anymore is released -- and tokens are drawn from a monotonic counter
#: that is never reused, so cache entries keyed on a dead token can only
#: become unreachable, never alias a new schema.
_SCHEMA_TOKENS: "weakref.WeakKeyDictionary[Schema, int]" = weakref.WeakKeyDictionary()
_schema_token_counter = itertools.count(1)

#: Cross-checker decision cache keyed on
#: ``(schema token, use_repair_rule, query id, view id)``.  Because interned
#: concept ids are process-unique and never reused, entries stay valid for the
#: lifetime of the process; every checker instance with ``shared_cache=True``
#: both consults and feeds it, so e.g. a view lattice rebuilt by a second
#: optimizer over the same schema re-derives no decision.
_SHARED_DECISIONS: Dict[Tuple[int, bool, int, int], bool] = {}


def _schema_token(schema: Schema) -> int:
    token = _SCHEMA_TOKENS.get(schema)
    if token is None:
        token = next(_schema_token_counter)
        _SCHEMA_TOKENS[schema] = token
    return token


def clear_shared_decision_cache() -> None:
    """Drop the process-wide decision cache (benchmarks use this to measure cold runs)."""
    _SHARED_DECISIONS.clear()


def concept_signature(concept: Concept) -> Signature:
    """The symbol signature of a concept (used by the necessary-condition filter)."""
    return (
        primitive_concepts(concept),
        primitive_attributes(concept),
        constants(concept),
    )


# ---------------------------------------------------------------------------
# Decision shortcuts (promoted from the batch layer, see the module docstring)
# ---------------------------------------------------------------------------

#: Fresh primitive used for the facts-only profiling completion.  A goal
#: ``x : P`` with primitive ``P`` fires no goal or schema rule, so the
#: completed facts equal the completion of the query alone.
_PROBE = Primitive("__repro_batch_profile_probe__")


#: Process-wide memo for :func:`conjunct_ids`, keyed by interned concept id
#: (ids are never reused, so entries can never alias).  Cleared together
#: with the intern tables, mirroring the normalize memo.
_CONJUNCT_IDS: Dict[int, FrozenSet[int]] = {}


def conjunct_ids(concept: Concept) -> FrozenSet[int]:
    """The interned ids of the top-level conjuncts of the normalized concept.

    ``conjunct_ids(D) <= conjunct_ids(C)`` is the *told subsumption* test:
    it proves ``C ⊑_Σ D`` for every schema Σ (see the module docstring).
    Memoized process-wide on the interned id, so repeated seeding passes
    over the same catalog cost dictionary lookups, not AST walks.
    """
    normalized = normalize_concept(concept)
    key = concept_id(normalized)
    cached = _CONJUNCT_IDS.get(key)
    if cached is None:
        cached = frozenset(concept_id(part) for part in conjuncts(normalized))
        _CONJUNCT_IDS[key] = cached
    return cached


intern.register_dependent_cache(_CONJUNCT_IDS.clear)


@dataclass(frozen=True)
class ConceptProfile:
    """What one facts-only completion reveals about a query concept.

    ``root_primitives`` are the primitive concepts established at the root
    (equivalently: the set of *all* primitive subsumers of the concept);
    ``root_heads`` are the ``(attribute name, inverted)`` heads of steps
    available at the root -- outgoing edges, incoming edges (seen as
    inverted heads) and heads of path memberships recorded at the root.
    An unsatisfiable concept is subsumed by everything; its profile never
    rejects.
    """

    satisfiable: bool
    root_primitives: FrozenSet[str]
    root_heads: FrozenSet[Tuple[str, bool]]


def _membership_heads(concept: Concept) -> List[Tuple[str, bool]]:
    heads: List[Tuple[str, bool]] = []
    for part in conjuncts(concept):
        path: Optional[Path] = None
        if isinstance(part, ExistsPath):
            path = part.path
        elif isinstance(part, PathAgreement):
            path = part.left
        if path is not None and not path.is_empty:
            attribute = path.steps[0].attribute
            heads.append((attribute.name, attribute.inverted))
    return heads


def profile_concept(concept: Concept, checker) -> ConceptProfile:
    """Profile ``concept`` with one completion under ``checker``'s regime.

    ``checker`` only needs ``schema`` / ``use_repair_rule`` / ``naive``
    attributes.  Not memoized: :meth:`SubsumptionChecker.profile` is the
    memo every decision path reads.
    """
    return _profile_of(_complete_facts(normalize_concept(concept), checker))


def _complete_facts(normalized: Concept, checker) -> SubsumptionResult:
    """The facts-only completion of ``normalized`` (the probe goal fires no rule)."""
    return decide_subsumption(
        normalized,
        _PROBE,
        checker.schema,
        use_repair_rule=checker.use_repair_rule,
        keep_trace=False,
        naive=checker.naive,
    )


def _profile_of(result: SubsumptionResult) -> ConceptProfile:
    root = result.root_goal_subject
    primitives = set()
    heads = set()
    for fact in result.completion.facts:
        if isinstance(fact, MembershipConstraint):
            if fact.subject == root:
                if isinstance(fact.concept, Primitive):
                    primitives.add(fact.concept.name)
                else:
                    heads.update(_membership_heads(fact.concept))
        elif isinstance(fact, AttributeConstraint):
            if fact.subject == root:
                heads.add((fact.attribute.name, fact.attribute.inverted))
            if fact.filler == root:
                heads.add((fact.attribute.name, not fact.attribute.inverted))
        elif isinstance(fact, PathConstraint):
            if fact.subject == root and len(fact.path) >= 1:
                attribute = fact.path[0].attribute
                heads.add((attribute.name, attribute.inverted))
    return ConceptProfile(
        satisfiable=not result.clashes,
        root_primitives=frozenset(primitives),
        root_heads=frozenset(heads),
    )


def necessary_attribute_names(schema: Schema) -> FrozenSet[str]:
    """Attributes armed by a necessity axiom somewhere in ``Σ`` (the S5 gate)."""
    return frozenset(
        attribute
        for class_name in schema.concept_names()
        for attribute in schema.necessary_attributes(class_name)
    )


def _head_blocked(
    profile: ConceptProfile, path: Path, necessary_names: FrozenSet[str]
) -> bool:
    if path.is_empty:
        return False
    attribute = path.steps[0].attribute
    if (attribute.name, attribute.inverted) in profile.root_heads:
        return False
    # Rule S5 can still materialize a step for an attribute with a
    # necessity axiom in Σ; stay conservative for those.
    if attribute.name in necessary_names:
        return False
    return True


def profile_rejects(
    profile: ConceptProfile, view: Concept, necessary_names: FrozenSet[str]
) -> bool:
    """``True`` only if ``profile`` *proves* the query is not subsumed by ``view``.

    ``view`` must be normalized; ``necessary_names`` is
    :func:`necessary_attribute_names` of the schema the profile was
    computed under.  Sound by the necessary-condition argument in the
    module docstring; never fires for unsatisfiable queries (subsumed by
    everything).
    """
    if not profile.satisfiable:
        return False
    for part in conjuncts(view):
        if isinstance(part, Primitive):
            if part.name not in profile.root_primitives:
                return True
        elif isinstance(part, ExistsPath):
            if _head_blocked(profile, part.path, necessary_names):
                return True
        elif isinstance(part, PathAgreement):
            if _head_blocked(profile, part.left, necessary_names):
                return True
    return False


class SubsumptionChecker:
    """Decides Σ-subsumption between ``QL`` concepts for a fixed schema ``Σ``."""

    def __init__(
        self,
        schema: Optional[Schema] = None,
        *,
        use_repair_rule: bool = True,
        naive: bool = False,
        shared_cache: bool = True,
        shortcuts: bool = True,
        remote=None,
    ) -> None:
        self.schema = schema if schema is not None else Schema.empty()
        self.use_repair_rule = use_repair_rule
        self.naive = naive
        self._shared_cache_enabled = shared_cache
        self._shortcuts_enabled = shortcuts
        self._schema_token = _schema_token(self.schema)
        # All memo dictionaries are keyed on interned concept ids
        # (:mod:`repro.concepts.intern`): one attribute read plus a small-int
        # hash per lookup, and a hit compares no structures.
        self._cache: Dict[Tuple[int, int], bool] = {}
        self._signatures: Dict[int, Signature] = {}
        self._profiles: Dict[int, ConceptProfile] = {}
        #: ``(query id, completed facts-only pair)`` of the most recently
        #: profiled query: the seed of that query's full decisions.  One
        #: slot, not one pair per profile, so memory does not grow with the
        #: number of distinct queries; it is replaced as a whole (workers
        #: sharing the checker read it once) and the pair is never mutated.
        self._seed: Optional[Tuple[int, Pair]] = None
        self._warm_start = shortcuts and not naive
        #: The shared decision-cache client asked just before a completion
        #: (``None``: every decision stays local).  Assignable, so a
        #: replica can attach it after classifying its catalog.
        self.remote = remote
        self._schema_concepts = self.schema.concept_names()
        self._schema_attributes = self.schema.attribute_names()
        self._necessary_names = necessary_attribute_names(self.schema)
        self._checks = 0
        self._cache_hits = 0
        self._shared_cache_hits = 0
        self._signature_rejections = 0
        self._told_shortcuts = 0
        self._profile_rejections = 0
        self._profiles_computed = 0
        self._remote_hits = 0
        self._remote_misses = 0

    # -- memoized building blocks ----------------------------------------------

    def normalized(self, concept: Concept) -> Concept:
        """The canonical normalized form of a concept (interned + memoized)."""
        return normalize_concept(concept)

    def signature(self, concept: Concept) -> Signature:
        """The signature of the normalized concept (memoized)."""
        normalized = normalize_concept(concept)
        key = concept_id(normalized)
        cached = self._signatures.get(key)
        if cached is None:
            cached = concept_signature(normalized)
            self._signatures[key] = cached
        return cached

    def signature_excludes(self, query: Concept, view: Concept) -> bool:
        """``True`` iff the signatures alone prove ``query ⊑_Σ view`` needs query unsat.

        The necessary condition (see the module docstring): a subsumption
        with a satisfiable query requires every primitive concept and
        attribute of the view to occur in the query or the schema, and every
        constant of the view to occur in the query.
        """
        query_concepts, query_attributes, query_constants = self.signature(query)
        view_concepts, view_attributes, view_constants = self.signature(view)
        return not (
            view_concepts <= query_concepts | self._schema_concepts
            and view_attributes <= query_attributes | self._schema_attributes
            and view_constants <= query_constants
        )

    def quick_reject(self, query: Concept, view: Concept) -> bool:
        """``True`` iff non-subsumption is provable without running a completion.

        Callers (e.g. :class:`repro.optimizer.optimizer.SemanticQueryOptimizer`)
        use this to skip whole subsumption calls; a satisfiable query whose
        view fails the signature condition cannot be subsumed.  The
        satisfiability verdict is read from the query's memoized profile (one
        completion per query), so scanning a catalog of ``n`` views costs at
        most one completion instead of ``n``.
        """
        return self.signature_excludes(query, view) and self._query_satisfiable(query)

    def _query_satisfiable(self, concept: Concept) -> bool:
        # The profile's facts-only completion is the satisfiability probe:
        # a primitive probe goal fires no rule, so both complete the same facts.
        return self.profile(concept).satisfiable

    def profile(self, concept: Concept) -> ConceptProfile:
        """The memoized :class:`ConceptProfile` of the normalized concept.

        One facts-only completion per distinct query concept, amortized
        over every view that query is checked against.  Computing a profile
        also stores its completed pair in the seed slot, from which the
        query's full decisions start (see :meth:`subsumes`).
        """
        normalized = normalize_concept(concept)
        key = concept_id(normalized)
        cached = self._profiles.get(key)
        if cached is None:
            result = _complete_facts(normalized, self)
            cached = _profile_of(result)
            self._seed = (key, result.completion.pair)
            self._profiles[key] = cached
            self._profiles_computed += 1
        return cached

    def cached_profile(self, concept: Concept) -> Optional[ConceptProfile]:
        """The memoized profile of the normalized concept, if any (never completes)."""
        return self._profiles.get(concept_id(normalize_concept(concept)))

    def _seed_for(self, query_id: int) -> Optional[Pair]:
        """The slot's completed pair if it belongs to ``query_id`` (else cold)."""
        slot = self._seed
        if self._warm_start and slot is not None and slot[0] == query_id:
            return slot[1]
        return None

    # -- decision-cache plumbing (used by the batch/parallel layer) -------------

    def cached_decision(self, query_id: int, view_id: int) -> Optional[bool]:
        """The memoized decision for a pair of interned concept ids, if any.

        Consults the per-checker table first, then the process-wide shared
        cache; returns ``None`` when the pair has never been decided.  Purely
        a read -- no completion is ever run.
        """
        decision = self._cache.get((query_id, view_id))
        if decision is not None:
            return decision
        if self._shared_cache_enabled:
            return _SHARED_DECISIONS.get(
                (self._schema_token, self.use_repair_rule, query_id, view_id)
            )
        return None

    def record_decision(self, query_id: int, view_id: int, decision: bool) -> None:
        """Record an externally derived decision for a pair of interned ids.

        Callers (the batched classifier and the sharded matcher) must only
        record decisions that this checker would itself return -- either
        replayed worker results or decisions entailed by soundness arguments
        (told subsumption, the batch rejection filters).  Entries feed both
        the per-checker table and, when enabled, the shared process-wide
        cache, exactly like a decision computed by :meth:`subsumes`.
        """
        self._cache[(query_id, view_id)] = decision
        if self._shared_cache_enabled:
            _SHARED_DECISIONS[
                (self._schema_token, self.use_repair_rule, query_id, view_id)
            ] = decision

    def absorb_decisions(self, decisions: Mapping[Tuple[int, int], bool]) -> None:
        """Merge a worker's decision-cache delta (see :meth:`record_decision`)."""
        for (query_id, view_id), decision in decisions.items():
            self.record_decision(query_id, view_id, decision)

    def seed(self, query_id: int, view_id: int, decision: bool) -> None:
        """Record a told seed of the view lattice unless the pair is already decided.

        Told seeding is a shortcut, so ``shortcuts=False`` checkers ignore
        it; the lattice walk then asks them every pair as before.
        """
        if self._shortcuts_enabled and self.cached_decision(query_id, view_id) is None:
            self.record_decision(query_id, view_id, decision)

    # -- basic decisions -------------------------------------------------------

    def subsumes(self, query: Concept, view: Concept) -> bool:
        """``True`` iff every instance of ``query`` is an instance of ``view`` in every Σ-state."""
        normalized_query = normalize_concept(query)
        normalized_view = normalize_concept(view)
        key = (concept_id(normalized_query), concept_id(normalized_view))
        self._checks += 1
        if key in self._cache:
            self._cache_hits += 1
            return self._cache[key]
        shared_key = (self._schema_token, self.use_repair_rule) + key
        if self._shared_cache_enabled and shared_key in _SHARED_DECISIONS:
            self._shared_cache_hits += 1
            decision = self._cache[key] = _SHARED_DECISIONS[shared_key]
            return decision
        if self._shortcuts_enabled and conjunct_ids(normalized_view) <= conjunct_ids(
            normalized_query
        ):
            # Told subsumption: dropping conjuncts only generalizes in QL.
            self._told_shortcuts += 1
            decision = True
        elif self.signature_excludes(normalized_query, normalized_view):
            # Only an unsatisfiable query can be subsumed by a view whose
            # signature exceeds query + schema; one memoized probe decides.
            self._signature_rejections += 1
            decision = not self._query_satisfiable(normalized_query)
        elif self._shortcuts_enabled and profile_rejects(
            self.profile(normalized_query), normalized_view, self._necessary_names
        ):
            # A satisfiable query missing a root primitive / head the view
            # requires cannot be subsumed by it (one memoized profile).
            self._profile_rejections += 1
            decision = False
        else:
            decision = self._complete(normalized_query, normalized_view, key)
        self._cache[key] = decision
        if self._shared_cache_enabled:
            _SHARED_DECISIONS[shared_key] = decision
        return decision

    def _complete(self, query: Concept, view: Concept, key: Tuple[int, int]) -> bool:
        """The remote tier, then a (warm-started) completion published to it."""
        remote = self.remote
        if remote is not None:
            decision = remote.get(*key)
            if decision is not None:
                self._remote_hits += 1
                return decision
            self._remote_misses += 1
        decision = decide_subsumption(
            query,
            view,
            self.schema,
            use_repair_rule=self.use_repair_rule,
            keep_trace=False,
            naive=self.naive,
            seed=self._seed_for(key[0]),
        ).subsumed
        if remote is not None:
            remote.set(key[0], key[1], decision)
        return decision

    def explain(self, query: Concept, view: Concept) -> SubsumptionResult:
        """The full :class:`SubsumptionResult` (trace, statistics, countermodel)."""
        return decide_subsumption(
            query,
            view,
            self.schema,
            use_repair_rule=self.use_repair_rule,
            keep_trace=True,
            naive=self.naive,
        )

    def is_satisfiable(self, concept: Concept) -> bool:
        """Σ-satisfiability: ``False`` iff the completion of ``concept`` contains a clash.

        In ``QL`` with ``SL`` schemas the only sources of unsatisfiability are
        the Unique Name Assumption clashes of Section 4.2, so a concept is
        unsatisfiable exactly when it is subsumed by an arbitrary fresh
        primitive concept via a clash.
        """
        probe = Primitive("__repro_unsatisfiability_probe__")
        result = decide_subsumption(
            concept,
            probe,
            self.schema,
            use_repair_rule=self.use_repair_rule,
            keep_trace=False,
            naive=self.naive,
        )
        return not result.clashes

    def equivalent(self, left: Concept, right: Concept) -> bool:
        """Mutual Σ-subsumption."""
        return self.subsumes(left, right) and self.subsumes(right, left)

    # -- classification ---------------------------------------------------------

    def classify(self, concepts: Mapping[str, Concept]) -> Dict[str, List[str]]:
        """Compute the subsumption hierarchy among named concepts.

        Returns, for every name, the list of *direct* subsumers (most specific
        named concepts that strictly subsume it).  This mirrors how OODB view
        mechanisms integrate virtual classes into the class hierarchy
        (Section 5 of the paper).
        """
        names = sorted(concepts)
        subsumers: Dict[str, set] = {name: set() for name in names}
        for name in names:
            for other in names:
                if name == other:
                    continue
                if self.subsumes(concepts[name], concepts[other]):
                    subsumers[name].add(other)
        direct: Dict[str, List[str]] = {}
        for name in names:
            candidates = subsumers[name]
            redundant = set()
            for candidate in candidates:
                # candidate is redundant if some other subsumer is below it.
                for other in candidates:
                    if other != candidate and candidate in subsumers[other]:
                        # other ⊑ candidate, so candidate is not a *direct* parent
                        # unless they are mutually subsuming (equivalent).
                        if other not in subsumers.get(candidate, set()):
                            redundant.add(candidate)
            direct[name] = sorted(candidates - redundant)
        return direct

    # -- statistics ----------------------------------------------------------------

    @property
    def statistics(self) -> Dict[str, int]:
        """Counters: checks asked, cache hits, short-circuits, remote-tier traffic."""
        return {
            "checks": self._checks,
            "cache_hits": self._cache_hits,
            "shared_cache_hits": self._shared_cache_hits,
            "cache_size": len(self._cache),
            "signature_rejections": self._signature_rejections,
            "told_shortcuts": self._told_shortcuts,
            "profile_rejections": self._profile_rejections,
            "profiles_computed": self._profiles_computed,
            "remote_hits": self._remote_hits,
            "remote_misses": self._remote_misses,
        }

    def clear_cache(self) -> None:
        """Drop this checker's memoized decisions (e.g. after changing the schema).

        The process-wide shared decision cache is left intact (its entries
        are keyed on schema identity and stay valid); use
        :func:`clear_shared_decision_cache` to drop that one too.  The
        remote tier stays attached.
        """
        self._cache.clear()
        self._signatures.clear()
        self._profiles.clear()
        self._seed = None
        self._schema_token = _schema_token(self.schema)
        self._schema_concepts = self.schema.concept_names()
        self._schema_attributes = self.schema.attribute_names()
        self._necessary_names = necessary_attribute_names(self.schema)
