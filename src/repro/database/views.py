"""Materialized views over database states (Sections 1 and 2.2).

A *view* is a query class without a constraint clause (purely structural);
*materialization* means that membership of objects in the view, although
derivable by the view definition, is stored explicitly so that access to the
view is as fast as to any other class.  The optimizer then uses a subsuming
view's stored extension to restrict the search space of new queries.

:class:`MaterializedView` holds one view together with its stored extent;
:class:`ViewCatalog` is the registry the optimizer scans.  Registration
enforces the paper's soundness requirement: queries with a non-structural
part are rejected as views (:class:`~repro.core.errors.NonStructuralViewError`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..concepts.normalize import normalize_concept
from ..concepts.syntax import Concept
from ..core.errors import NonStructuralViewError
from ..dl.abstraction import query_class_to_concept, schema_to_sl
from ..dl.ast import DLSchema, QueryClassDecl
from .lattice import LatticeMatchStats, ViewLattice
from .query_eval import QueryEvaluator
from .store import DatabaseState

__all__ = ["MaterializedView", "ViewCatalog"]


class MaterializedView:
    """One materialized view: definition, abstract concept, stored extent."""

    def __init__(
        self,
        name: str,
        definition: QueryClassDecl,
        concept: Concept,
    ) -> None:
        if not definition.is_structural:
            raise NonStructuralViewError(
                f"query class {definition.name!r} has a constraint clause and "
                "cannot be materialized as a view (its structural part would "
                "not capture it completely)"
            )
        self.name = name
        self.definition = definition
        self.concept = normalize_concept(concept)
        self._extent: FrozenSet[str] = frozenset()
        #: Generation of the state the stored extent was computed against
        #: (``None`` until first stamped).  The async maintenance tier
        #: stamps every install, so readers can tell *which* consistent
        #: database generation an extent answers for.
        self.extent_generation: Optional[int] = None

    # -- maintenance -----------------------------------------------------------

    def refresh(self, state: DatabaseState, evaluator: QueryEvaluator) -> FrozenSet[str]:
        """Recompute and store the view extension over the given state.

        Views are structural, so their answer set equals the extension of
        their ``QL`` concept restricted to the stored objects.
        """
        self._extent = evaluator.concept_answers(self.concept, state)
        self.extent_generation = getattr(state, "generation", None)
        return self._extent

    def on_object_added(
        self, object_id: str, state: DatabaseState, evaluator: QueryEvaluator
    ) -> None:
        """Incremental maintenance: re-evaluate only the changed object."""
        matches = evaluator.concept_answers(self.concept, state, candidates=[object_id])
        if matches:
            self._extent = self._extent | matches
        else:
            self._extent = self._extent - {object_id}

    def on_object_removed(self, object_id: str) -> None:
        """Incremental maintenance: drop a deleted object from the extent."""
        self._extent = self._extent - {object_id}

    def adopt_extent(
        self, extent: FrozenSet[str], generation: Optional[int] = None
    ) -> FrozenSet[str]:
        """Install an externally computed extent.

        The maintenance engine evaluates each lattice node's concept once
        and hands the answer set to every view of the node.
        ``generation`` stamps the state generation the extent was computed
        against.
        """
        self._extent = frozenset(extent)
        if generation is not None:
            self.extent_generation = generation
        return self._extent

    def discard_objects(self, objects, generation: Optional[int] = None) -> None:
        """Drop objects from the stored extent without re-evaluating.

        Sound whenever the objects provably left the view: deleted objects,
        or touched objects that no longer belong to a subsuming ancestor
        (the lattice-pruned maintenance case).
        """
        self._extent = self._extent - frozenset(objects)
        if generation is not None:
            self.extent_generation = generation

    # -- access ------------------------------------------------------------------

    @property
    def extent(self) -> FrozenSet[str]:
        """The stored answer set of the view (as of the last refresh)."""
        return self._extent

    @property
    def stored_extent(self) -> FrozenSet[str]:
        """The stored answer set; the same set as :attr:`extent`."""
        return self._extent

    @property
    def size(self) -> int:
        """Number of stored objects."""
        return len(self._extent)

    def __repr__(self) -> str:
        return f"MaterializedView({self.name!r}, |extent|={len(self._extent)})"


class ViewCatalog:
    """The registry of materialized views the optimizer consults.

    Besides the name → view mapping the catalog maintains a **classified
    view lattice** (:class:`~repro.database.lattice.ViewLattice`): the
    transitive reduction of the Σ-subsumption order over the registered
    views, kept incrementally up to date on every ``register``/``unregister``.
    :meth:`lattice_subsumers` answers "which views subsume this query?" by a
    top-down traversal that prunes every descendant of a non-subsuming view,
    so matching cost follows the answer frontier instead of the catalog size.
    ``lattice=False`` disables classification entirely; the optimizer then
    falls back to the flat scan (the executable specification).

    Iteration order is **registration order** (and therefore deterministic);
    re-registering an existing name replaces the old view and moves the name
    to the end of the order.
    """

    def __init__(
        self,
        dl_schema: Optional[DLSchema] = None,
        *,
        checker=None,
        lattice: bool = True,
    ) -> None:
        self.dl_schema = dl_schema
        self.use_lattice = lattice
        self._views: Dict[str, MaterializedView] = {}
        self._evaluator = QueryEvaluator(dl_schema)
        self._checker = checker
        self._lattice = ViewLattice()
        self._maintenance_listeners: List[object] = []

    # -- maintenance listeners --------------------------------------------------

    def add_maintenance_listener(self, listener) -> None:
        """Attach a registration listener (``on_view_registered/_unregistered``).

        The maintenance engine (:mod:`repro.database.maintenance`) uses this
        to keep its relevance index aligned with the catalog.
        """
        if listener not in self._maintenance_listeners:
            self._maintenance_listeners.append(listener)

    def remove_maintenance_listener(self, listener) -> None:
        """Detach a previously attached registration listener (no-op if absent)."""
        if listener in self._maintenance_listeners:
            self._maintenance_listeners.remove(listener)

    def _view_admitted(self, view: MaterializedView) -> None:
        for listener in list(self._maintenance_listeners):
            listener.on_view_registered(view)

    def _view_dropped(self, name: str) -> None:
        for listener in list(self._maintenance_listeners):
            listener.on_view_unregistered(name)

    # -- the classifying checker -------------------------------------------------

    @property
    def checker(self):
        """The subsumption checker that classifies this catalog's lattice.

        Created lazily from the ``DL`` schema's ``SL`` abstraction (or the
        empty schema) when none was supplied; the optimizer installs its own
        checker via :meth:`adopt_checker` so catalog and query matching agree
        on Σ and share memo tables.
        """
        if self._checker is None:
            from ..core.checker import SubsumptionChecker

            schema = schema_to_sl(self.dl_schema) if self.dl_schema is not None else None
            self._checker = SubsumptionChecker(schema)
        return self._checker

    def adopt_checker(self, checker) -> None:
        """Classify with ``checker`` from now on, reclassifying if needed.

        A no-op (bar the swap) only when the new checker decides the *same
        subsumption relation* -- same schema and same ``use_repair_rule``
        (the naive/indexed engine choice provably decides identically) --
        since only then are the existing lattice edges still correct.
        """
        if self._checker is checker:
            return
        same_relation = (
            self._checker is not None
            and self._checker.schema == checker.schema
            and self._checker.use_repair_rule == checker.use_repair_rule
        )
        rebuild = self.use_lattice and bool(self._views) and not same_relation
        self._checker = checker
        if rebuild:
            self._rebuild_lattice()

    def _rebuild_lattice(self) -> None:
        self._lattice = ViewLattice()
        if self.use_lattice:
            for view in self._views.values():
                self._lattice.insert(view, self.checker)

    def set_lattice_enabled(self, enabled: bool) -> None:
        """Switch between classified and flat matching, (re)classifying as needed."""
        if enabled == self.use_lattice:
            return
        self.use_lattice = enabled
        self._rebuild_lattice()

    # -- registration -----------------------------------------------------------

    def _admit(self, view: MaterializedView) -> MaterializedView:
        """Insert a constructed view: dedupe its name, then classify it."""
        if view.name in self._views:
            self.unregister(view.name)
        self._views[view.name] = view
        if self.use_lattice:
            self._lattice.insert(view, self.checker)
        self._view_admitted(view)
        return view

    def register(
        self,
        definition: QueryClassDecl,
        state: Optional[DatabaseState] = None,
        name: Optional[str] = None,
    ) -> MaterializedView:
        """Register (and optionally immediately materialize) a view.

        Raises :class:`~repro.core.errors.NonStructuralViewError` if the
        query class has a constraint clause.
        """
        concept = query_class_to_concept(definition, self.dl_schema)
        view = self._admit(MaterializedView(name or definition.name, definition, concept))
        if state is not None:
            view.refresh(state, self._evaluator)
        return view

    def register_concept(
        self,
        name: str,
        concept: Concept,
        definition: Optional[QueryClassDecl] = None,
    ) -> MaterializedView:
        """Register a view given directly as a ``QL`` concept (no DL source).

        Used by the synthetic workloads, which generate abstract concepts;
        a trivial structural :class:`~repro.dl.ast.QueryClassDecl` shell is
        created when none is supplied.
        """
        definition = definition or QueryClassDecl(name=name)
        return self._admit(MaterializedView(name, definition, concept))

    def unregister(self, name: str) -> None:
        """Drop a view from the catalog, repairing the lattice around it."""
        if self._views.pop(name, None) is not None:
            self._lattice.remove(name)
            self._view_dropped(name)

    # -- batched registration -----------------------------------------------

    def register_batch(
        self,
        items,
        state: Optional[DatabaseState] = None,
        *,
        backend: str = "thread",
        shards: Optional[int] = None,
        statistics=None,
    ) -> List[MaterializedView]:
        """Register a batch of views, classifying them in parallel.

        ``items`` may mix :class:`~repro.dl.ast.QueryClassDecl` definitions
        and ``(name, concept)`` pairs.  The result is *identical* to calling
        :meth:`register` once per item in order (property-tested): phase A
        merely warms the decision caches by running every item's
        classification probes concurrently against the frozen lattice
        (:func:`repro.optimizer.parallel.classify_batch`), and the
        sequential merge then replays the spec insertions in input order,
        additionally exploiting the sound told-subsumption seeds and
        profile rejection filters of the batch layer.  A name that appears
        twice keeps only its last occurrence, exactly like sequential
        re-registration; the returned list mirrors the surviving items in
        input order.

        ``backend`` is ``"thread"`` (default), ``"process"`` (fork
        platforms) or ``"serial"``; ``shards`` bounds the pool (one
        worker per shard).  ``statistics`` may be a
        :class:`~repro.optimizer.parallel.BatchStatistics` to accumulate
        counters across calls.  The catalog must not be queried or mutated
        concurrently with a running batch.
        """
        from ..optimizer.parallel import BatchCheckerView, BatchStatistics, classify_batch

        # Last occurrence of a duplicated name wins and takes that
        # occurrence's position, exactly like sequential re-registration.
        prepared: Dict[str, MaterializedView] = {}
        for item in items:
            if isinstance(item, QueryClassDecl):
                concept = query_class_to_concept(item, self.dl_schema)
                view = MaterializedView(item.name, item, concept)
            else:
                name, concept = item
                view = MaterializedView(name, QueryClassDecl(name=name), concept)
            prepared.pop(view.name, None)
            prepared[view.name] = view
        batch = list(prepared.values())

        if statistics is None:
            statistics = BatchStatistics()
        if self.use_lattice and batch:
            classify_batch(self, batch, backend=backend, shards=shards, statistics=statistics)
            merge_checker = BatchCheckerView(self.checker, statistics=statistics, direct=True)
            for view in batch:
                if view.name in self._views:
                    self.unregister(view.name)
                # The lattice's own posting index keeps up with the merge's
                # insertions and splice-outs, so each seeding pass follows
                # the posting lists the concept hits, not the catalog size.
                self._lattice.seed_told(view.concept, merge_checker)
                self._views[view.name] = view
                self._lattice.insert(view, merge_checker)
                self._view_admitted(view)
        else:
            for view in batch:
                self._admit(view)
        if state is not None:
            for view in batch:
                view.refresh(state, self._evaluator)
        return batch

    # -- matching ---------------------------------------------------------------

    def subsumers(
        self, concept: Concept, checker, statistics: Optional[LatticeMatchStats] = None
    ) -> List[MaterializedView]:
        """All views whose concept subsumes ``concept``, decided by ``checker``.

        The one match walk behind the optimizer and the sharded matcher:
        the seeded lattice traversal, or for ``lattice=False`` catalogs the
        flat scan in registration order (the executable specification,
        which seeds nothing -- without a lattice a told seed is exactly a
        pair the checker's own told shortcut answers).  ``checker`` is a
        :class:`~repro.core.checker.SubsumptionChecker` or a batch worker's
        overlay over one; ``statistics`` accumulates the walk's counters.
        """
        statistics = statistics if statistics is not None else LatticeMatchStats()
        concept = normalize_concept(concept)
        if self.use_lattice:
            return self._lattice.subsumers(concept, checker, statistics)
        matches = []
        for view in self._views.values():
            if checker.quick_reject(concept, view.concept):
                statistics.signature_skips += 1
                continue
            statistics.checks += 1
            if checker.subsumes(concept, view.concept):
                matches.append(view)
        return matches

    def lattice_subsumers(
        self, concept: Concept, statistics: Optional[LatticeMatchStats] = None
    ) -> List[MaterializedView]:
        """All views whose concept subsumes ``concept``, via the lattice.

        Returns the same set as the flat scan (property-tested in
        ``tests/optimizer/test_lattice_equivalence.py``) in unspecified
        order; callers sort by their preference (the optimizer: extent size).
        Raises :class:`RuntimeError` when the catalog was built with
        ``lattice=False`` (the lattice is empty then, and silently answering
        "no subsumers" would be wrong).
        """
        if not self.use_lattice:
            raise RuntimeError(
                "this catalog was built with lattice=False; use the flat scan "
                "(SemanticQueryOptimizer.subsuming_views) or set_lattice_enabled(True)"
            )
        return self.subsumers(concept, self.checker, statistics)

    @property
    def lattice(self) -> ViewLattice:
        """The underlying classified DAG (read access for tests/diagnostics)."""
        return self._lattice

    # -- access ---------------------------------------------------------------------

    def __iter__(self) -> Iterator[MaterializedView]:
        """Iterate in registration order (insertion-ordered, deterministic)."""
        return iter(self._views.values())

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, name: str) -> bool:
        """``True`` iff a view of that name is currently registered."""
        return name in self._views

    def get(self, name: str) -> Optional[MaterializedView]:
        """The registered view of that name, or ``None``."""
        return self._views.get(name)

    def names(self) -> Tuple[str, ...]:
        """View names in registration order."""
        return tuple(self._views)

    # -- maintenance --------------------------------------------------------------------

    def refresh_all(self, state: DatabaseState) -> None:
        """Re-materialize every registered view over the given state."""
        for view in self._views.values():
            view.refresh(state, self._evaluator)

    def regenerate_extents(self, source) -> None:
        """Re-derive every extent from ``source`` (a state or snapshot).

        The crash-recovery path: each *distinct* concept is evaluated once
        (views sharing a concept share the answer set) and every view
        adopts the result stamped with the source's generation, so a
        recovered catalog serves a single consistent cut.  Unlike
        :meth:`refresh_all`, this accepts a pinned
        :class:`~repro.database.store.StateSnapshot` as well as a live
        state.
        """
        from ..concepts.intern import concept_id

        generation = getattr(source, "generation", None)
        memo: Dict[int, FrozenSet[str]] = {}
        for view in self._views.values():
            key = concept_id(view.concept)
            if key not in memo:
                memo[key] = self._evaluator.concept_answers(view.concept, source)
            view.adopt_extent(memo[key], generation)

    def notify_object_added(self, object_id: str, state: DatabaseState) -> None:
        """Propagate an insertion to every view (incremental maintenance)."""
        for view in self._views.values():
            view.on_object_added(object_id, state, self._evaluator)

    def notify_object_removed(self, object_id: str) -> None:
        """Propagate a deletion to every view."""
        for view in self._views.values():
            view.on_object_removed(object_id)
