"""The subsumption-based semantic query optimizer (Sections 1, 3.2, 6).

For every incoming query the optimizer

1. translates the structural part of the query into a ``QL`` concept,
2. tests, with the polynomial subsumption checker, whether one of the
   materialized views in the catalog subsumes the query,
3. if so, produces a :class:`~repro.optimizer.plans.ViewFilterPlan` that
   evaluates the query only over the stored extension of the (smallest)
   subsuming view; otherwise it falls back to a conventional
   :class:`~repro.optimizer.plans.FullScanPlan`.

Executing either plan yields exactly the same answer set -- the view filter
only restricts the candidate pool to a provably sufficient superset of the
answers (Proposition 3.1).  The optimizer keeps the statistics that the
paper's "hit rate" discussion asks about; the E7 benchmark reports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..concepts.normalize import normalize_concept
from ..concepts.schema import Schema
from ..concepts.syntax import Concept
from ..core.checker import SubsumptionChecker
from ..database.lattice import LatticeMatchStats
from ..database.query_eval import EvaluationStatistics, QueryEvaluator
from ..database.store import DatabaseState
from ..database.views import MaterializedView, ViewCatalog
from ..dl.abstraction import query_class_to_concept, schema_to_sl
from ..dl.ast import DLSchema, QueryClassDecl
from .plans import FullScanPlan, QueryPlan, ViewFilterPlan

__all__ = ["OptimizerStatistics", "OptimizationOutcome", "SemanticQueryOptimizer"]


@dataclass
class OptimizerStatistics:
    """Aggregate counters over the lifetime of one optimizer instance."""

    queries_optimized: int = 0
    view_hits: int = 0
    view_misses: int = 0
    subsumption_checks: int = 0
    #: Views dismissed by the signature necessary-condition filter without
    #: running (or even consulting the cache of) a full subsumption check.
    signature_skips: int = 0
    #: Views never examined at all because a lattice ancestor already failed
    #: to subsume the query (the whole descendant subtree is pruned).
    lattice_pruned: int = 0
    candidates_with_view: int = 0
    candidates_without_view: int = 0
    #: Counters of the batch/parallel layer (``plan_batch`` / ``answer_batch``
    #: and ``register_views_batch``): decisions seeded from told subsumption,
    #: completions avoided by the profile rejection filters, and facts-only
    #: profiling completions run.  The spec paths never touch these.
    batch_told_seeded: int = 0
    batch_filter_rejections: int = 0
    batch_profiles_computed: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of optimized queries for which a subsuming view was found."""
        if not self.queries_optimized:
            return 0.0
        return self.view_hits / self.queries_optimized

    @property
    def candidate_reduction(self) -> float:
        """Fraction of candidate examinations avoided thanks to view filtering."""
        if not self.candidates_without_view:
            return 0.0
        saved = self.candidates_without_view - self.candidates_with_view
        return saved / self.candidates_without_view


@dataclass
class OptimizationOutcome:
    """The result of optimizing and executing one query."""

    plan: QueryPlan
    answers: FrozenSet[str]
    candidates_examined: int
    baseline_candidates: int
    subsuming_views: Tuple[str, ...]

    @property
    def used_view(self) -> Optional[str]:
        if isinstance(self.plan, ViewFilterPlan):
            return self.plan.view.name
        return None


class SemanticQueryOptimizer:
    """Optimizes query classes against a catalog of materialized views.

    Parameters
    ----------
    schema:
        Either an abstract ``SL`` :class:`~repro.concepts.schema.Schema` or a
        parsed concrete :class:`~repro.dl.ast.DLSchema` (in which case the
        structural abstraction is computed automatically and inverse
        synonyms are resolved in queries).
    catalog:
        The view catalog to consult; a fresh empty catalog is created when
        omitted.
    lattice:
        ``True``/``False`` forces classified-lattice resp. flat-scan view
        matching (also on a supplied catalog); ``None`` (default) means
        "lattice for a fresh catalog, keep a supplied catalog's mode".
    """

    def __init__(
        self,
        schema,
        catalog: Optional[ViewCatalog] = None,
        *,
        use_repair_rule: bool = True,
        lattice: Optional[bool] = None,
    ) -> None:
        if isinstance(schema, DLSchema):
            self.dl_schema: Optional[DLSchema] = schema
            self.sl_schema: Schema = schema_to_sl(schema)
        elif isinstance(schema, Schema):
            self.dl_schema = None
            self.sl_schema = schema
        else:
            raise TypeError(f"schema must be a Schema or DLSchema, got {type(schema)!r}")
        self.checker = SubsumptionChecker(self.sl_schema, use_repair_rule=use_repair_rule)
        if catalog is None:
            catalog = ViewCatalog(
                self.dl_schema, checker=self.checker, lattice=lattice is not False
            )
        else:
            # Classification and query matching must agree on Σ (and on the
            # repair rule), so the catalog reclassifies with this optimizer's
            # checker if needed; an explicit ``lattice=`` overrides the
            # supplied catalog's matching mode.
            catalog.adopt_checker(self.checker)
            if lattice is not None:
                catalog.set_lattice_enabled(lattice)
        self.catalog = catalog
        self.evaluator = QueryEvaluator(self.dl_schema)
        self.statistics = OptimizerStatistics()
        self._query_concepts: Dict[QueryClassDecl, Concept] = {}
        self._anchor_classes: Dict[QueryClassDecl, Optional[str]] = {}

    # -- view management ----------------------------------------------------------

    def register_view(
        self, definition: QueryClassDecl, state: Optional[DatabaseState] = None
    ) -> MaterializedView:
        """Register a (structural) query class as a materialized view."""
        return self.catalog.register(definition, state)

    def register_view_concept(self, name: str, concept: Concept) -> MaterializedView:
        """Register a view given directly as a ``QL`` concept."""
        return self.catalog.register_concept(name, concept)

    def register_views_batch(
        self,
        items,
        state: Optional[DatabaseState] = None,
        *,
        backend: str = "thread",
        shards: Optional[int] = None,
    ) -> List[MaterializedView]:
        """Register a batch of views via :meth:`ViewCatalog.register_batch`.

        Accepts :class:`~repro.dl.ast.QueryClassDecl` definitions and
        ``(name, concept)`` pairs; produces a catalog identical to
        registering the items one at a time, while classifying them
        concurrently against the frozen lattice.  Batch-layer counters land
        in :attr:`statistics`.
        """
        from .parallel import BatchStatistics

        batch_stats = BatchStatistics()
        views = self.catalog.register_batch(
            items,
            state,
            backend=backend,
            shards=shards,
            statistics=batch_stats,
        )
        self._absorb_batch_statistics(batch_stats)
        return views

    def _absorb_batch_statistics(self, batch_stats) -> None:
        self.statistics.batch_told_seeded += batch_stats.told_seeded
        self.statistics.batch_filter_rejections += batch_stats.filter_rejections
        self.statistics.batch_profiles_computed += batch_stats.profiles_computed

    # -- planning --------------------------------------------------------------------

    def query_concept(self, query: QueryClassDecl) -> Concept:
        """The structural ``QL`` abstraction of a query class (memoized per declaration)."""
        cached = self._query_concepts.get(query)
        if cached is None:
            cached = normalize_concept(query_class_to_concept(query, self.dl_schema))
            self._query_concepts[query] = cached
        return cached

    def subsuming_views(self, query: QueryClassDecl) -> List[MaterializedView]:
        """All registered views that subsume the query, smallest extent first.

        With a classified catalog (the default) this is a top-down lattice
        traversal: a non-subsuming view prunes its entire descendant subtree
        (sound because ``Q ⊑ V'`` and ``V' ⊑ V`` would force ``Q ⊑ V``), so
        the number of checks follows the answer frontier rather than the
        catalog size (``statistics.lattice_pruned`` counts the never-examined
        views).  With ``lattice=False`` the original flat scan runs instead;
        both return identical view sets (property-tested).

        Either way, views whose signature mentions symbols the (satisfiable)
        query cannot derive are skipped without a full subsumption check
        (``statistics.signature_skips``).
        """
        return self.subsuming_views_for_concept(self.query_concept(query))

    def subsuming_views_for_concept(self, concept: Concept) -> List[MaterializedView]:
        """All registered views subsuming an already-abstracted ``QL`` concept.

        The matching hot path behind :meth:`subsuming_views` and every
        replica's served query; exposed separately so benchmarks and
        concept-level callers can drive it without a
        :class:`~repro.dl.ast.QueryClassDecl` shell.
        """
        walk = LatticeMatchStats()
        matches = self.catalog.subsumers(concept, self.checker, walk)
        self.statistics.subsumption_checks += walk.checks
        self.statistics.signature_skips += walk.signature_skips
        self.statistics.lattice_pruned += walk.pruned_views
        matches.sort(key=lambda view: (view.size, view.name))
        return matches

    def plan(self, query: QueryClassDecl) -> QueryPlan:
        """Produce the evaluation plan for a query (without executing it)."""
        self.statistics.queries_optimized += 1
        subsumers = self.subsuming_views(query)
        if subsumers:
            self.statistics.view_hits += 1
            best = subsumers[0]
            return ViewFilterPlan(
                query=query,
                view=best,
                alternatives=tuple(view.name for view in subsumers[1:]),
            )
        self.statistics.view_misses += 1
        anchor = self._anchor_class(query)
        return FullScanPlan(query=query, anchor_class=anchor)

    def plan_batch(
        self,
        queries,
        *,
        shards: Optional[int] = None,
        backend: str = "thread",
    ) -> List[QueryPlan]:
        """Plan a batch of queries with the sharded matcher.

        Matching fans out over ``shards`` workers against the read-only
        catalog (:class:`~repro.optimizer.parallel.ShardedMatcher`); plans
        are then assembled in input order and are **byte-identical** to
        calling :meth:`plan` once per query (property-tested), because the
        workers run the very same traversals over the very same decisions.
        The traversal counters merged into :attr:`statistics` also match
        the sequential loop; only the batch-layer counters
        (``batch_told_seeded`` etc.) reveal that completions were saved.
        """
        from .parallel import ShardedMatcher

        queries = list(queries)
        matcher = ShardedMatcher(self.checker, self.catalog, shards=shards, backend=backend)
        matched = matcher.match_batch([self.query_concept(query) for query in queries])
        self.statistics.subsumption_checks += matcher.match_statistics.checks
        self.statistics.signature_skips += matcher.match_statistics.signature_skips
        self.statistics.lattice_pruned += matcher.match_statistics.pruned_views
        self._absorb_batch_statistics(matcher.statistics)
        plans: List[QueryPlan] = []
        for query, subsumers in zip(queries, matched):
            self.statistics.queries_optimized += 1
            if subsumers:
                self.statistics.view_hits += 1
                best = subsumers[0]
                plans.append(
                    ViewFilterPlan(
                        query=query,
                        view=best,
                        alternatives=tuple(view.name for view in subsumers[1:]),
                    )
                )
            else:
                self.statistics.view_misses += 1
                plans.append(FullScanPlan(query=query, anchor_class=self._anchor_class(query)))
        return plans

    def answer_batch(
        self,
        queries,
        state: DatabaseState,
        *,
        shards: Optional[int] = None,
        backend: str = "thread",
    ) -> List[OptimizationOutcome]:
        """Plan a batch with :meth:`plan_batch` and execute every plan.

        Execution stays sequential (it is set algebra over stored extents,
        cheap next to matching) and returns outcomes in input order; the
        answers equal the sequential loop's because the plans do.
        """
        plans = self.plan_batch(queries, shards=shards, backend=backend)
        return [self.execute(plan, state) for plan in plans]

    def _anchor_class(self, query: QueryClassDecl) -> Optional[str]:
        """The declared superclass a conventional compiler would scan (memoized)."""
        if query in self._anchor_classes:
            return self._anchor_classes[query]
        anchor = self._compute_anchor_class(query)
        self._anchor_classes[query] = anchor
        return anchor

    def _compute_anchor_class(self, query: QueryClassDecl) -> Optional[str]:
        if not query.superclasses:
            return None
        # Prefer the most specific superclass: one not above any other listed.
        # Each candidate's superclass closure is computed once, not once per
        # candidate pair.
        candidates = list(query.superclasses)
        closures = {c: self.sl_schema.all_superclasses(c) for c in candidates}
        for candidate in candidates:
            if not any(
                candidate in closures[other] for other in candidates if other != candidate
            ):
                return candidate
        return candidates[0]

    # -- execution ---------------------------------------------------------------------

    def execute(self, plan: QueryPlan, state: DatabaseState) -> OptimizationOutcome:
        """Execute a plan over a database state.

        The baseline candidate count (what a full scan over the anchor class
        would have examined) is always computed so that the saving can be
        reported even for view-filter plans.
        """
        query = plan.query
        if isinstance(plan, ViewFilterPlan):
            candidates = plan.view.extent
            # The view's stored extension and the declared superclass extent
            # are both provably supersets of the answer set, so their
            # intersection is a sound (and never larger) candidate pool.
            anchor = self._anchor_class(query)
            if anchor is not None:
                candidates = candidates & state.extent(anchor)
        elif isinstance(plan, FullScanPlan) and plan.anchor_class is not None:
            candidates = state.extent(plan.anchor_class)
        else:
            candidates = state.objects

        baseline_anchor = self._anchor_class(query)
        baseline_candidates = (
            state.extent(baseline_anchor) if baseline_anchor is not None else state.objects
        )

        statistics = EvaluationStatistics()
        answers = self.evaluator.answers(query, state, candidates=candidates, statistics=statistics)

        self.statistics.candidates_with_view += len(candidates)
        self.statistics.candidates_without_view += len(baseline_candidates)

        subsumers = (
            (plan.view.name,) + plan.alternatives if isinstance(plan, ViewFilterPlan) else ()
        )
        return OptimizationOutcome(
            plan=plan,
            answers=answers,
            candidates_examined=len(candidates),
            baseline_candidates=len(baseline_candidates),
            subsuming_views=subsumers,
        )

    def optimize_and_execute(
        self, query: QueryClassDecl, state: DatabaseState
    ) -> OptimizationOutcome:
        """Plan and execute in one call (the common case in the examples)."""
        return self.execute(self.plan(query), state)

    def evaluate_unoptimized(
        self, query: QueryClassDecl, state: DatabaseState
    ) -> FrozenSet[str]:
        """The conventional evaluation (no views), used as the correctness baseline."""
        anchor = self._anchor_class(query)
        candidates = state.extent(anchor) if anchor is not None else state.objects
        return self.evaluator.answers(query, state, candidates=candidates)
