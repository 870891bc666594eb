"""Delta-driven incremental maintenance of materialized views.

The paper's premise is that materialized views answer queries fast *because
their extents are stored and current* -- which makes the maintenance path a
first-class scaling concern.  The original path was the naive one: every
``notify_object_added`` re-evaluated every registered view, so a stream of
updates cost O(catalog) concept evaluations per mutation.  This module is
the delta-driven replacement, after Decker 1994 (see PAPERS.md): each check
is specialised to the updated facts instead of re-checking the database.

* the store's **mutation log** seals each committed epoch (``with
  state.batch(): ...``) into one :class:`~repro.database.store.EpochRecord`
  of typed :class:`~repro.database.store.Delta` records; a
  :class:`MaintenanceQueue` receives it on commit, coalesces its deltas
  into :class:`EpochChanges` -- the created and removed objects, the
  objects whose class memberships changed, the changed attribute edges and
  the epoch's *relevance keys* -- and flushes once;
* a **relevance index** maps the class / attribute / constant names a
  view's concept mentions to the views mentioning them, so a delta batch
  only ever considers views whose definition could possibly react to it
  (``QL`` is negation-free, so a view whose vocabulary is disjoint from the
  delta's provably keeps its extent);
* each relevant view gets an **affected set** (:func:`affected_objects`):
  the created objects, plus every object from which the view's own paths
  lead, over the new state, to a changed edge or a changed membership.
  The walk starts at the changed facts and follows each path backwards,
  one inverse step at a time, recursing into path fillers.  It is sound:
  a membership that differs between the old and the new state has a
  witness -- in whichever of the two states it holds -- that uses a
  changed fact, and on the witness's route from the object to its first
  changed fact every edge and membership is unchanged, so the route also
  exists in the new state, where the backward walk retraces it.  Objects
  outside the affected set keep their membership, deleted objects aside:
  every extent drops those by a set discard;
* a re-evaluated view is **patched** as ``(current − affected) ∪
  members(view, affected)``: :func:`members` evaluates the concept on the
  affected objects only, walking paths out of them through the store's
  no-copy adjacency read
  (:meth:`~repro.database.store.DatabaseState.neighbours`);
* flushing walks the PR 2 **view lattice** top-down and prunes: an
  affected object that does not belong to a view cannot belong to any of
  its subsumees (extents of subsumees are contained in extents of
  subsumers), so a view whose affected objects all miss a subsuming
  parent drops them from its stored extent *without* an evaluation.

A schema swap has no object-level delta to start a walk from, so it still
re-materializes every view over the whole domain.

The module has **three tiers** over the same flush engine:

* :class:`MaintenanceQueue` is the synchronous tier: one flush per commit,
  on the committing thread;
* :class:`AsyncMaintainer` (PR 5) is the asynchronous tier: every commit
  enqueues the epoch record together with a generation-pinned
  :class:`~repro.database.store.StateSnapshot` to a background worker that
  coalesces up to ``window`` epochs per flush, evaluates against the
  *pinned* snapshot (never the racing live state) and publishes the
  resulting extents atomically, generation-stamped.  Readers therefore
  always observe the extents of the last fully-flushed generation: a
  consistent prefix of the commit history, never a torn mix.
  ``sync()``/``drain()`` are flush barriers, and ``max_pending`` bounds
  the epoch queue (commits block -- backpressure -- instead of growing it
  without bound).  The queue lives in memory only: once ``kill()`` or a
  crash stops the worker, commits raise instead of queuing;
* :class:`DurableMaintainer` is the durable tier: the async tier plus a
  write-ahead log (:mod:`repro.database.wal`).  Every committed epoch is
  appended -- CRC-framed, fsync-batched per ``sync_every`` -- to the WAL
  *before* it is enqueued for flushing, periodic checkpoints pickle the
  state snapshot plus catalog identity, and
  :meth:`DurableMaintainer.open` recovers across **process restarts**:
  newest valid checkpoint, replay of the epoch tail (stopping at the
  first torn frame, reporting what was dropped), full extent
  regeneration.  That is the only crash recovery, and the only way a
  primary comes up: a failover restores through it too, from the
  promoted replica's live state.  An in-process rebuild is a new
  maintainer constructed with ``bootstrap=True``.

The flat per-view notification loop
(:meth:`~repro.database.views.ViewCatalog.notify_object_added`) and the
whole-domain :meth:`~repro.database.views.ViewCatalog.refresh_all` stay
untouched as the executable specification, exactly like ``naive=True`` and
``lattice=False`` before them; the property tests in
``tests/database/test_maintenance.py`` and
``tests/database/test_affected_sets.py`` and the concurrency oracle in
``tests/database/test_async_maintenance.py`` check that any interleaving of
mutations, windows, barriers and reads yields only extents identical to
re-materializing from scratch at some prefix generation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..concepts.intern import concept_id, intern_concept
from ..concepts.syntax import (
    And,
    Concept,
    ExistsPath,
    Path,
    PathAgreement,
    Primitive,
    Singleton,
    Top,
)
from ..concepts.visitors import (
    constants as concept_constants,
    primitive_attributes,
    primitive_concepts,
)
from .query_eval import QueryEvaluator
from .store import (
    AttributeRemoved,
    AttributeSet,
    DatabaseState,
    Delta,
    EpochRecord,
    MembershipAsserted,
    MembershipRetracted,
    ObjectAdded,
    ObjectRemoved,
    StateSnapshot,
)
from .views import MaterializedView, ViewCatalog
from .commit import CommitScheduler, FaultPolicy
from .wal import (
    CheckpointPayload,
    WalError,
    WriteAheadLog,
    catalog_identity,
    require_catalog_identity,
)

__all__ = [
    "MaintenanceStatistics",
    "RelevanceIndex",
    "EpochChanges",
    "MaintenanceQueue",
    "AsyncMaintainer",
    "DurableMaintainer",
    "RecoveryReport",
    "relevance_keys",
    "members",
    "affected_objects",
]

#: Relevance key of views whose extent tracks the whole domain (``⊤``):
#: only object creation/deletion can change them.
DOMAIN_KEY: Tuple[str, str] = ("domain", "")


def relevance_keys(concept: Concept) -> FrozenSet[Tuple[str, str]]:
    """The relevance keys of a (normalized) view concept.

    A key names one part of the interpretation the concept's denotation
    reads: ``("class", A)`` for a primitive concept, ``("attr", P)`` for a
    primitive attribute (inverted uses share the primitive name),
    ``("const", c)`` for a singleton constant, and :data:`DOMAIN_KEY` when
    the concept is ``⊤`` (whose extension is the domain itself).  A delta
    that shares no key with a concept provably leaves its extension
    unchanged -- ``QL`` has no negation or value restriction, so every
    denotation is a monotone function of exactly these pieces.
    """
    keys: Set[Tuple[str, str]] = set()
    if isinstance(concept, Top):
        keys.add(DOMAIN_KEY)
    keys.update(("class", name) for name in primitive_concepts(concept))
    keys.update(("attr", name) for name in primitive_attributes(concept))
    keys.update(("const", name) for name in concept_constants(concept))
    return frozenset(keys)


@dataclass
class MaintenanceStatistics:
    """Counters over the lifetime of one maintenance engine."""

    #: Deltas received from the store's mutation log.
    deltas_seen: int = 0
    #: Deltas that added nothing new to the pending epoch (coalesced away).
    deltas_coalesced: int = 0
    #: Flushes that actually had pending work.
    flushes: int = 0
    #: Affected objects across flushes: per flush, the size of the union of
    #: the relevant views' affected sets (see :func:`affected_objects`).
    objects_touched: int = 0
    #: Views selected by the relevance index across flushes.
    views_relevant: int = 0
    #: Views whose concept was actually evaluated (on its affected objects,
    #: or over the whole domain after a schema swap).
    views_evaluated: int = 0
    #: Relevant views updated by set algebra only, because the lattice walk
    #: proved no affected object can enter them.
    views_lattice_pruned: int = 0
    #: Views never examined because the relevance index excluded them.
    views_skipped_irrelevant: int = 0
    #: Deleted objects dropped from stored extents by cheap set discards.
    objects_discarded: int = 0
    #: Epochs enqueued to the async worker (async tier only).
    epochs_enqueued: int = 0
    #: Epochs merged into a later epoch's flush by the coalescing window.
    epochs_coalesced: int = 0
    #: Commits that blocked because the bounded epoch queue was full.
    backpressure_waits: int = 0


class RelevanceIndex:
    """Inverted index from relevance keys to the views mentioning them."""

    def __init__(self) -> None:
        self._keys_of: Dict[str, FrozenSet[Tuple[str, str]]] = {}
        self._views_by_key: Dict[Tuple[str, str], Set[str]] = {}

    def __len__(self) -> int:
        return len(self._keys_of)

    def add(self, view: MaterializedView) -> None:
        """(Re-)index one view by the vocabulary of its concept."""
        self.discard(view.name)
        keys = relevance_keys(view.concept)
        self._keys_of[view.name] = keys
        for key in keys:
            self._views_by_key.setdefault(key, set()).add(view.name)

    def discard(self, name: str) -> None:
        """Drop a view from the index (no-op if absent)."""
        keys = self._keys_of.pop(name, None)
        if keys is None:
            return
        for key in keys:
            bucket = self._views_by_key.get(key)
            if bucket is not None:
                bucket.discard(name)
                if not bucket:
                    del self._views_by_key[key]

    def keys_of(self, name: str) -> FrozenSet[Tuple[str, str]]:
        """The indexed keys of one view (empty if not indexed)."""
        return self._keys_of.get(name, frozenset())

    def views_for(self, keys: Iterable[Tuple[str, str]]) -> Set[str]:
        """Names of every view mentioning at least one of the keys."""
        found: Set[str] = set()
        for key in keys:
            found.update(self._views_by_key.get(key, ()))
        return found


def _note(index: Dict[str, Set[str]], key: str, item: str) -> bool:
    """Add ``item`` to ``index[key]``; ``True`` when it was not there yet."""
    bucket = index.get(key)
    if bucket is None:
        index[key] = {item}
        return True
    if item in bucket:
        return False
    bucket.add(item)
    return True


class EpochChanges:
    """The changed facts of one committed epoch (or of several, coalesced).

    Deltas are recorded, not netted: an edge set and removed again within
    the epoch stays a changed edge.  Recording more than the net change
    only widens affected sets, which keeps them sound.
    """

    __slots__ = (
        "created",
        "removed",
        "members",
        "edge_subjects",
        "edge_values",
        "keys",
        "full_refresh",
    )

    def __init__(self) -> None:
        #: Objects added during the epoch.
        self.created: Set[str] = set()
        #: Objects deleted during the epoch.
        self.removed: Set[str] = set()
        #: Class name -> objects whose membership in it may have changed.
        self.members: Dict[str, Set[str]] = {}
        #: Attribute name -> subjects / values of its changed pairs.
        self.edge_subjects: Dict[str, Set[str]] = {}
        self.edge_values: Dict[str, Set[str]] = {}
        #: Relevance keys the epoch's deltas mention.
        self.keys: Set[Tuple[str, str]] = set()
        #: The schema was swapped: every view needs a whole-domain refresh.
        self.full_refresh = False

    @property
    def empty(self) -> bool:
        """``True`` when nothing is pending (no deltas, no schema swap)."""
        # Every delta kind but ObjectRemoved adds a relevance key.
        return not (self.keys or self.removed or self.full_refresh)

    def record(self, delta: Delta, superclasses: Callable[[str], Iterable[str]]) -> bool:
        """Absorb one mutation-log record; ``False`` when it adds nothing new.

        ``superclasses`` maps a class name to its reflexive ``isA`` closure
        under the schema the flush evaluates with: a membership delta may
        change the object's membership in every class of that closure.
        """
        sizes = (len(self.created), len(self.removed), len(self.keys))
        grew = False
        if isinstance(delta, ObjectAdded):
            self.created.add(delta.object_id)
            self.keys.add(DOMAIN_KEY)
            self.keys.add(("const", delta.object_id))
        elif isinstance(delta, ObjectRemoved):
            self.removed.add(delta.object_id)
        elif isinstance(delta, (MembershipAsserted, MembershipRetracted)):
            for name in superclasses(delta.class_name):
                grew |= _note(self.members, name, delta.object_id)
                self.keys.add(("class", name))
        elif isinstance(delta, (AttributeSet, AttributeRemoved)):
            grew |= _note(self.edge_subjects, delta.attribute, delta.subject)
            grew |= _note(self.edge_values, delta.attribute, delta.value)
            self.keys.add(("attr", delta.attribute))
        else:  # pragma: no cover - future delta kinds must be handled
            raise TypeError(f"unknown delta {delta!r}")
        return grew or sizes != (len(self.created), len(self.removed), len(self.keys))


class _CandidateEvaluator:
    """Candidate-scoped evaluation of ``QL`` concepts over one state.

    Walks paths *out of* the candidates through the source's adjacency
    read, so the cost follows the candidates' neighbourhoods, not the
    domain.  Verdicts of path concepts are memoized per object, so views
    that share fillers within one flush share the work.
    """

    __slots__ = ("_source", "_verdicts")

    def __init__(self, source) -> None:
        self._source = source
        self._verdicts: Dict[int, Dict[str, bool]] = {}

    def members(self, concept: Concept, candidates: Iterable[str]) -> FrozenSet[str]:
        """The candidates that are objects and belong to ``concept``."""
        objects = self._source.objects
        pool = {candidate for candidate in candidates if candidate in objects}
        if not pool:
            return frozenset()
        return frozenset(self._filter(intern_concept(concept), pool))

    def _filter(self, concept: Concept, objects: Set[str]) -> Set[str]:
        """The objects (of the domain) that belong to ``concept``."""
        if isinstance(concept, Primitive):
            extent = self._source.extent(concept.name)
            return {obj for obj in objects if obj in extent}
        if isinstance(concept, Top):
            return objects
        if isinstance(concept, Singleton):
            return {concept.constant} if concept.constant in objects else set()
        if isinstance(concept, And):
            kept = self._filter(concept.left, objects)
            return self._filter(concept.right, kept) if kept else kept
        verdicts = self._verdicts.setdefault(concept_id(concept), {})
        kept = set()
        for obj in objects:
            verdict = verdicts.get(obj)
            if verdict is None:
                verdict = verdicts[obj] = self._holds(concept, obj)
            if verdict:
                kept.add(obj)
        return kept

    def _holds(self, concept: Concept, obj: str) -> bool:
        if isinstance(concept, ExistsPath):
            return bool(self._ends(concept.path, obj))
        if isinstance(concept, PathAgreement):
            left = self._ends(concept.left, obj)
            return bool(left) and not left.isdisjoint(self._ends(concept.right, obj))
        raise TypeError(f"not a QL concept: {concept!r}")

    def _ends(self, path: Path, obj: str) -> Set[str]:
        """The objects reachable from ``obj`` along ``path``."""
        neighbours = self._source.neighbours
        frontier = {obj}
        for step in path.steps:
            name, inverted = step.attribute.name, step.attribute.inverted
            reached: Set[str] = set()
            for node in frontier:
                reached.update(neighbours(node, name, inverted))
            frontier = self._filter(step.concept, reached) if reached else reached
            if not frontier:
                break
        return frontier


class _AffectedWalk:
    """Backward walks from one epoch's changed facts over the new state."""

    __slots__ = ("_source", "_changes", "_created", "_reached_memo")

    def __init__(self, source, changes: EpochChanges) -> None:
        self._source = source
        self._changes = changes
        self._created = frozenset(changes.created)
        self._reached_memo: Dict[int, FrozenSet[str]] = {}

    def affected(self, concept: Concept) -> FrozenSet[str]:
        """The created objects plus those with a route to a changed fact."""
        return self._created | self._reached(intern_concept(concept))

    def _reached(self, concept: Concept) -> FrozenSet[str]:
        """Objects with a route, along ``concept``, to a changed fact."""
        key = concept_id(concept)
        found = self._reached_memo.get(key)
        if found is not None:
            return found
        if isinstance(concept, Primitive):
            found = frozenset(self._changes.members.get(concept.name, ()))
        elif isinstance(concept, (Top, Singleton)):
            # Both read only the domain, which changes only at created or
            # removed objects -- and an edge into such an object changed.
            found = frozenset()
        elif isinstance(concept, And):
            found = self._reached(concept.left) | self._reached(concept.right)
        elif isinstance(concept, ExistsPath):
            found = frozenset(self._back(concept.path))
        elif isinstance(concept, PathAgreement):
            found = frozenset(self._back(concept.left) | self._back(concept.right))
        else:
            raise TypeError(f"not a QL concept: {concept!r}")
        self._reached_memo[key] = found
        return found

    def _back(self, path: Path) -> Set[str]:
        """Start objects of ``path`` with a route to a changed fact.

        Walks the steps last to first: the objects at a step's end that
        reach a changed fact (through the rest of the path or the step's
        filler) lead back, one inverse step, to the objects at its start,
        which also reach one when their own edge for the step changed.
        """
        changes = self._changes
        neighbours = self._source.neighbours
        reached: Set[str] = set()
        for step in reversed(path.steps):
            reached |= self._reached(step.concept)
            name, inverted = step.attribute.name, step.attribute.inverted
            changed = changes.edge_values if inverted else changes.edge_subjects
            previous = set(changed.get(name, ()))
            for node in reached:
                previous.update(neighbours(node, name, not inverted))
            reached = previous
        return reached


def members(concept: Concept, source, candidates: Iterable[str]) -> FrozenSet[str]:
    """The candidates that are objects of ``source`` and belong to ``concept``.

    Equals ``candidates ∩ source.objects ∩ concept_extension(concept,
    source.to_interpretation())``, but evaluates the concept on the
    candidates only: paths are walked out of each candidate through
    ``source.neighbours`` (a :class:`~repro.database.store.DatabaseState`
    or a :class:`~repro.database.store.StateSnapshot`).
    """
    return _CandidateEvaluator(source).members(concept, candidates)


def affected_objects(concept: Concept, source, changes: EpochChanges) -> FrozenSet[str]:
    """Every object whose membership in ``concept`` the ``changes`` can reach.

    ``source`` is the state *after* the changes.  The result contains the
    created objects and every object with a route, along the concept's
    paths and over ``source``'s edges, to a changed edge or a changed
    membership: a superset of the objects of ``source`` whose membership
    differs between the state before the changes and ``source`` (the
    module docstring gives the argument).  Objects the changes deleted
    are not included -- the flush discards them from every extent -- but
    the result may name some of them.
    """
    return _AffectedWalk(source, changes).affected(concept)


class _DirectSink:
    """Apply flush results to the views immediately (synchronous tier)."""

    __slots__ = ("generation",)

    def __init__(self, generation: Optional[int]) -> None:
        self.generation = generation

    def current(self, view: MaterializedView) -> FrozenSet[str]:
        """The extent deltas build on -- here the live stored one."""
        return view.stored_extent

    def adopt(self, view: MaterializedView, extent: FrozenSet[str]) -> None:
        """Publish a re-evaluated extent to the view immediately."""
        view.adopt_extent(extent, self.generation)

    def discard(self, view: MaterializedView, objects: FrozenSet[str]) -> None:
        """Remove objects from the view's live extent immediately."""
        view.discard_objects(objects, self.generation)


class _StagedSink:
    """Stage flush results, installing them atomically afterwards.

    The async worker computes every new extent against a pinned snapshot
    while readers keep serving the previous generation; :meth:`install`
    (called under the maintainer's publish lock) then swaps all staged
    extents in with one assignment per view, so a reader never observes a
    half-flushed generation.
    """

    __slots__ = ("generation", "_staged")

    def __init__(self, generation: int) -> None:
        self.generation = generation
        # Insertion-ordered: install() publishes in first-staged order.
        self._staged: Dict[str, Tuple[MaterializedView, FrozenSet[str]]] = {}

    def current(self, view: MaterializedView) -> FrozenSet[str]:
        """The staged extent when one exists, else the live stored one."""
        staged = self._staged.get(view.name)
        return staged[1] if staged is not None else view.stored_extent

    def adopt(self, view: MaterializedView, extent: FrozenSet[str]) -> None:
        """Stage a re-evaluated extent for :meth:`install`."""
        self._staged[view.name] = (view, frozenset(extent))

    def discard(self, view: MaterializedView, objects: FrozenSet[str]) -> None:
        """Stage a set-algebra removal for :meth:`install`."""
        self._staged[view.name] = (view, self.current(view) - frozenset(objects))

    def install(self) -> None:
        """Swap every staged extent in (caller holds the publish lock)."""
        for view, extent in self._staged.values():
            view.adopt_extent(extent, self.generation)


class _MaintenanceEngine:
    """The shared flush machinery of the synchronous and async tiers.

    Holds the relevance index, the evaluator, the pruning memos and the
    flush walk; *how* pending epochs reach :meth:`_flush_pending` -- on the
    committing thread (:class:`MaintenanceQueue`) or on a background
    worker (:class:`AsyncMaintainer`) -- is the subclasses' policy.  Every
    flush method evaluates against an explicit ``source`` (the live state
    or a pinned :class:`~repro.database.store.StateSnapshot`) and writes
    through an explicit sink, so the same walk serves both tiers.
    """

    def __init__(
        self,
        catalog: ViewCatalog,
        *,
        statistics: Optional[MaintenanceStatistics] = None,
    ) -> None:
        self.catalog = catalog
        self.statistics = statistics if statistics is not None else MaintenanceStatistics()
        self._evaluator = QueryEvaluator(catalog.dl_schema)
        self._edge_memo: Dict[Tuple[int, int], bool] = {}
        self._supers_schema = None
        self._supers_memo: Dict[str, FrozenSet[str]] = {}
        self._index = RelevanceIndex()
        for view in catalog:
            self._index.add(view)

    # -- epoch absorption ------------------------------------------------------

    def _absorb(self, pending: EpochChanges, record: EpochRecord, schema) -> None:
        """Absorb one committed epoch into a pending flush.

        Membership changes expand against ``schema`` -- the one the flush
        evaluates under; a schema swap forces a full refresh anyway.
        """
        if schema is not self._supers_schema:
            # A different hierarchy changes every upward closure.
            self._supers_schema, self._supers_memo = schema, {}
        if record.schema_changed:
            pending.full_refresh = True
        stats = self.statistics
        for delta in record.deltas:
            stats.deltas_seen += 1
            if not pending.record(delta, self._superclasses):
                stats.deltas_coalesced += 1

    def _superclasses(self, class_name: str) -> FrozenSet[str]:
        """The memoized reflexive ``isA`` closure under the absorbing schema."""
        found = self._supers_memo.get(class_name)
        if found is None:
            found = self._supers_schema.all_superclasses(class_name)
            self._supers_memo[class_name] = found
        return found

    # -- catalog listener -----------------------------------------------------

    def on_view_registered(self, view: MaterializedView) -> None:
        """Catalog listener: index a newly registered view for relevance."""
        self._index.add(view)

    def on_view_unregistered(self, name: str) -> None:
        """Catalog listener: forget an unregistered view."""
        self._index.discard(name)

    # -- flushing -------------------------------------------------------------

    def _flush_pending(self, pending: EpochChanges, source, sink) -> None:
        """Propagate one pending epoch through the catalog via ``sink``."""
        stats = self.statistics
        stats.flushes += 1
        catalog = self.catalog
        if len(catalog) == 0:
            return
        if pending.full_refresh:
            names = set(catalog.names())
            stats.views_relevant += len(names)
            self._refresh(names, source, sink)
            return

        # Deleted objects leave every extent; a set discard per view is all
        # the spec's notify_object_removed ever did, and it needs no
        # evaluation, so it is not routed through relevance at all.
        if pending.removed:
            dropped = frozenset(pending.removed)
            for view in catalog:
                sink.discard(view, dropped)
            stats.objects_discarded += len(dropped)

        relevant = self._index.views_for(pending.keys)
        stats.views_relevant += len(relevant)
        stats.views_skipped_irrelevant += len(catalog) - len(relevant)
        if not relevant:
            return
        flush = _Flush(_AffectedWalk(source, pending), _CandidateEvaluator(source), sink)
        if catalog.use_lattice:
            self._flush_lattice(relevant, flush)
        else:
            self._flush_flat(relevant, flush)
        stats.objects_touched += len(flush.touched)

    def _refresh(self, names: Set[str], source, sink) -> None:
        """Re-materialize views over the whole domain (after a schema swap)."""
        memo: Dict[int, FrozenSet[str]] = {}
        for name in sorted(names):
            view = self.catalog.get(name)
            if view is None:
                continue
            key = concept_id(view.concept)
            extent = memo.get(key)
            if extent is None:
                extent = memo[key] = self._evaluator.concept_answers(view.concept, source)
                self.statistics.views_evaluated += 1
            sink.adopt(view, extent)

    def _patch(self, view: MaterializedView, affected: FrozenSet[str], flush: "_Flush") -> None:
        """``(current − affected) ∪ members(view, affected)`` through the sink."""
        key = concept_id(view.concept)
        found = flush.evaluated.get(key)
        if found is None:
            # Views of one concept share its affected set, hence its result.
            found = flush.evaluated[key] = flush.evaluator.members(view.concept, affected)
            self.statistics.views_evaluated += 1
        sink = flush.sink
        sink.adopt(view, (sink.current(view) - affected) | found)

    def _edge_holds_everywhere(self, child_id: int, child: Concept, parent: Concept) -> bool:
        """``True`` when ``child ⊑ parent`` provably holds over *every* interpretation.

        The lattice's edges are Σ-subsumptions, which only guarantee extent
        containment over states that are models of Σ -- and a live update
        stream routinely passes through schema-violating states.  Pruning
        therefore restricts itself to containments that hold without Σ,
        proved by the free told-containment test (``conjuncts(parent) ⊆
        conjuncts(child)``): specialization by added conjuncts, the
        dominant catalog-growth pattern.  Other edges are not pruned with:
        an empty-schema completion per unseen pair costs more than
        evaluating the view on its few affected objects.
        """
        key = (child_id, concept_id(parent))
        cached = self._edge_memo.get(key)
        if cached is None:
            from ..optimizer.parallel import conjunct_ids

            cached = self._edge_memo[key] = conjunct_ids(parent) <= conjunct_ids(child)
        return cached

    def _flush_lattice(self, relevant: Set[str], flush: "_Flush") -> None:
        """Topological walk of the affected sub-DAG with subsumption pruning.

        Parents are settled before their children.  A relevant view with an
        empty affected set keeps its extent.  Otherwise it is *evaluated*
        only when no parent rules its affected objects out: if none of them
        is in the (already updated) extent of a parent view that contains
        the view's concept over every interpretation, none of them can be
        in the view either, and its stored extent is patched by dropping
        them.
        """
        lattice = self.catalog.lattice
        relevant_nodes: Dict[int, object] = {}
        unclassified: Set[str] = set()
        for name in relevant:
            node = lattice.node_of(name)
            if node is not None:
                relevant_nodes[id(node)] = node
            else:
                unclassified.add(name)
        if unclassified:
            # Views registered but (transiently) missing from the DAG fall
            # back to the relevance-restricted flat flush.
            self._flush_flat(unclassified, flush)
        needed = lattice.ancestor_closure(relevant_nodes.values())
        indegree = {nid: len(node.parents) for nid, node in needed.items()}
        queue = [node for nid, node in needed.items() if not indegree[nid]]
        stats = self.statistics
        sink = flush.sink
        while queue:
            node = queue.pop()
            if id(node) in relevant_nodes:
                for view in node.views:
                    affected = flush.walk.affected(view.concept)
                    if not affected:
                        continue
                    flush.touched |= affected
                    view_id = concept_id(view.concept)
                    pruned = any(
                        affected.isdisjoint(sink.current(other))
                        and self._edge_holds_everywhere(view_id, view.concept, other.concept)
                        for parent in node.parents
                        for other in parent.views
                    )
                    if pruned:
                        sink.discard(view, affected)
                        stats.views_lattice_pruned += 1
                    else:
                        self._patch(view, affected, flush)
            for child in node.children:
                cid = id(child)
                if cid in indegree:
                    indegree[cid] -= 1
                    if not indegree[cid]:
                        queue.append(child)

    def _flush_flat(self, relevant: Set[str], flush: "_Flush") -> None:
        """Relevance-restricted flush without pruning (``lattice=False``)."""
        for name in sorted(relevant):
            view = self.catalog.get(name)
            if view is None:
                continue
            affected = flush.walk.affected(view.concept)
            if affected:
                flush.touched |= affected
                self._patch(view, affected, flush)


class _Flush:
    """The working state of one flush: walks, memos and the sink."""

    __slots__ = ("walk", "evaluator", "sink", "evaluated", "touched")

    def __init__(self, walk: _AffectedWalk, evaluator: _CandidateEvaluator, sink) -> None:
        self.walk = walk
        self.evaluator = evaluator
        self.sink = sink
        #: concept id -> members(concept, affected) of this flush.
        self.evaluated: Dict[int, FrozenSet[str]] = {}
        #: Union of the affected sets of the views examined.
        self.touched: Set[str] = set()


class MaintenanceQueue(_MaintenanceEngine):
    """Flushes each committed epoch's deltas through the catalog.

    Attaching the queue subscribes it to the state's mutation log and the
    catalog's registration events; from then on every committed epoch
    (single mutations auto-commit, ``with state.batch():`` groups many)
    triggers exactly one :meth:`flush`, synchronously, on the committing
    thread.  Detach with :meth:`close`.

    Parameters
    ----------
    state, catalog:
        The store to watch and the views to maintain.  Views must be
        materialized (refreshed) against the state at attach time -- the
        engine keeps correct extents correct, it does not bootstrap them.
    """

    def __init__(
        self,
        state: DatabaseState,
        catalog: ViewCatalog,
        *,
        statistics: Optional[MaintenanceStatistics] = None,
    ) -> None:
        super().__init__(catalog, statistics=statistics)
        self.state = state
        state.subscribe(self)
        catalog.add_maintenance_listener(self)

    def close(self) -> None:
        """Detach from the store and the catalog."""
        self.state.unsubscribe(self)
        self.catalog.remove_maintenance_listener(self)

    def on_commit(self, record: EpochRecord) -> None:
        """Store listener: flush the committed epoch."""
        self.flush(record)

    def flush(self, record: EpochRecord) -> None:
        """Propagate one committed epoch to every affected view extent.

        A schema swap re-materializes every view outright -- no
        object-level delta describes an ``isA`` change, so relevance cannot
        narrow it (the hierarchy memo invalidates by schema identity).
        """
        pending = EpochChanges()
        self._absorb(pending, record, self.state.schema)
        if not pending.empty:
            self._flush_pending(pending, self.state, _DirectSink(self.state.generation))


class AsyncMaintainer(_MaintenanceEngine):
    """Asynchronous maintenance: commit fast, flush in the background.

    Every committed epoch record is queued, together with a snapshot
    pinned at commit, for a worker thread; the committing thread returns
    immediately (unless the bounded queue exerts backpressure).  The
    worker merges up to ``window`` queued epochs per flush -- cross-epoch
    coalescing: deltas that cancel or duplicate across epochs are paid for
    once -- evaluates against the *last* merged epoch's pinned snapshot,
    and publishes all resulting extents atomically under the publish lock,
    stamped with that epoch's generation.

    **Consistency model.**  Readers see *consistent-generation serving*:
    at any instant, every stored extent equals the from-scratch refresh of
    the last fully-flushed generation -- a prefix of the commit history.
    Newer epochs are invisible until their flush publishes (bounded
    staleness, never inconsistency).  :meth:`read_extents` returns a
    cross-view consistent cut together with its generation;
    :meth:`serving_state` exposes the pinned snapshot the cut answers for,
    so queries can be evaluated *against the generation being served*.

    **Barriers.**  :meth:`sync` blocks until everything committed before
    the call is flushed; :meth:`drain` is ``sync`` returning the published
    generation; :meth:`close` drains, stops the worker and detaches.

    **Crashes.**  The queue lives in memory and dies with the worker:
    after :meth:`kill` (a simulated crash) or a worker failure, a commit
    raises instead of queuing, and the stored extents stay at the last
    published generation.  Crash recovery is the durable tier's
    :meth:`DurableMaintainer.open`; an in-process rebuild is a new
    maintainer constructed with ``bootstrap=True``.

    **Concurrency contract.**  State mutations may come from one mutator
    thread and reads from any number of reader threads.  *Catalog*
    registration is the exception: :class:`ViewCatalog` mutates its view
    map and lattice before notifying listeners, so registering or
    unregistering views must not race an active flush -- :meth:`sync` (or
    :meth:`pause`) first, register, refresh the new view, then continue.
    The ``_flush_lock`` held by the registration listeners only keeps the
    relevance index consistent with in-flight flushes; it cannot retrofit
    thread safety onto the catalog itself.
    """

    def __init__(
        self,
        state: DatabaseState,
        catalog: ViewCatalog,
        *,
        window: int = 4,
        max_pending: int = 256,
        statistics: Optional[MaintenanceStatistics] = None,
        bootstrap: bool = False,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1 epoch")
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1 epoch")
        super().__init__(catalog, statistics=statistics)
        self.state = state
        self.window = window
        self.max_pending = max_pending
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._done = threading.Condition(self._lock)
        self._publish = threading.Lock()
        self._flush_lock = threading.Lock()
        self._log: List[Tuple[EpochRecord, StateSnapshot]] = []
        # The numbering continues the state's: a checkpoint taken right
        # after attaching covers the commits the state already holds.
        self._sequence = self._flushed_sequence = state.commit_sequence
        self._stopped = False
        self._paused = False
        self._failure: Optional[BaseException] = None
        snapshot = state.snapshot()
        if bootstrap:
            catalog.regenerate_extents(snapshot)
        self._serving = snapshot
        state.subscribe(self)
        catalog.add_maintenance_listener(self)
        self._worker = threading.Thread(
            target=self._run, name="repro-async-maintenance", daemon=True
        )
        self._worker.start()

    # -- store listener (mutator thread) --------------------------------------

    def on_commit(self, record: EpochRecord) -> None:
        """Enqueue a committed epoch (blocking on backpressure).

        Unlike :meth:`sync`, a full queue does **not** raise while paused:
        the state mutation has already happened, so dropping the epoch
        would desynchronize the catalog forever, and overrunning the bound
        would defeat it.  The commit blocks -- backpressure by design --
        until another thread calls :meth:`resume` (or :meth:`kill`).  A
        stopped or crashed worker can never flush, so the commit raises
        without queuing -- and without pinning a snapshot it would only
        discard; the sequence still advances, so a later durable checkpoint
        covers the commit.
        """
        with self._lock:
            self._refuse_if_dead(record)
        snapshot = self.state.snapshot()
        with self._lock:
            if (
                len(self._log) >= self.max_pending
                and not self._stopped
                and self._failure is None
            ):
                # Count blocked *commits*, not wakeups: one commit may spin
                # through several notify/re-check rounds before space opens.
                self.statistics.backpressure_waits += 1
            while (
                len(self._log) >= self.max_pending
                and not self._stopped
                and self._failure is None
            ):
                self._done.wait()
            # The sequence is store-assigned (bumped before listeners run,
            # under the store's write lock), so concurrent writers cannot
            # race the numbering and the durable tier persists the same
            # number it enqueues.
            self._sequence = record.sequence
            self._refuse_if_dead(record)
            self._log.append((record, snapshot))
            self.statistics.epochs_enqueued += 1
            self._wake.notify_all()

    # -- catalog listener ------------------------------------------------------

    def on_view_registered(self, view: MaterializedView) -> None:
        """Catalog listener: index a new view (serialized against flushes)."""
        with self._flush_lock:
            self._index.add(view)

    def on_view_unregistered(self, name: str) -> None:
        """Catalog listener: forget a view (serialized against flushes)."""
        with self._flush_lock:
            self._index.discard(name)

    # -- the worker -------------------------------------------------------------

    def _run(self) -> None:
        try:
            while True:
                with self._lock:
                    while not self._stopped and (self._paused or not self._log):
                        self._wake.wait()
                    if self._stopped:
                        return
                    batch = list(self._log[: self.window])
                self._flush_batch(batch)
                with self._lock:
                    del self._log[: len(batch)]
                    self._flushed_sequence = batch[-1][0].sequence
                    self._done.notify_all()
        except BaseException as error:  # pragma: no cover - surfaced to callers
            with self._lock:
                self._failure = error
                self._done.notify_all()

    def _flush_batch(self, batch: Sequence[Tuple[EpochRecord, StateSnapshot]]) -> None:
        """Merge one window of epochs and flush against the last snapshot."""
        _, target = batch[-1]
        pending = EpochChanges()
        for record, _ in batch:
            self._absorb(pending, record, target.schema)
        self.statistics.epochs_coalesced += len(batch) - 1
        with self._flush_lock:
            sink = _StagedSink(target.generation)
            self._flush_pending(pending, target, sink)
            with self._publish:
                sink.install()
                self._serving = target

    # -- serving ----------------------------------------------------------------

    @property
    def published_generation(self) -> int:
        """Generation of the last fully-flushed (served) epoch."""
        with self._publish:
            return self._serving.generation

    def serving_state(self) -> StateSnapshot:
        """The pinned snapshot whose generation the stored extents answer for."""
        with self._publish:
            return self._serving

    def serving_cut(
        self, names: Optional[Iterable[str]] = None
    ) -> Tuple[StateSnapshot, Dict[str, FrozenSet[str]]]:
        """The pinned snapshot *and* its extents under one lock acquisition.

        ``serving_state()`` followed by ``read_extents()`` can straddle a
        publish (the worker may install a newer generation between the two
        calls); queries that evaluate against the served snapshot and
        filter through the served extents need both from the same instant.
        """
        with self._publish:
            snapshot = self._serving
            if names is None:
                extents = {view.name: view.stored_extent for view in self.catalog}
            else:
                extents = {}
                for name in names:
                    view = self.catalog.get(name)
                    if view is not None:
                        extents[name] = view.stored_extent
        return snapshot, extents

    def read_extents(
        self, names: Optional[Iterable[str]] = None
    ) -> Tuple[int, Dict[str, FrozenSet[str]]]:
        """A cross-view consistent cut: ``(generation, name -> extent)``.

        Taken under the publish lock, so the returned extents all answer
        for the same fully-flushed generation even while the worker is
        mid-publish.  Lock-free single-view reads (``view.stored_extent``)
        remain prefix-consistent per view; this method additionally
        guarantees consistency *across* views.
        """
        snapshot, extents = self.serving_cut(names)
        return snapshot.generation, extents

    # -- barriers & lifecycle ----------------------------------------------------

    def _raise_if_failed(self) -> None:
        if self._failure is not None:
            raise RuntimeError("async maintenance worker crashed") from self._failure

    def _refuse_if_dead(self, record: EpochRecord) -> None:
        """Raise, advancing the sequence, if no worker will ever flush ``record``.

        Called with ``_lock`` held.
        """
        if self._stopped or self._failure is not None:
            self._sequence = record.sequence
            self._raise_if_failed()
            raise RuntimeError("AsyncMaintainer is stopped; the epoch was not queued")

    @property
    def pending_epochs(self) -> int:
        """Number of committed epochs not yet flushed."""
        with self._lock:
            return len(self._log)

    def pause(self) -> None:
        """Suspend flushing after the in-flight batch (windowing/tests)."""
        with self._lock:
            self._paused = True
            # Wake sync() waiters so they observe the pause and raise
            # instead of sleeping through a barrier that can never clear.
            self._done.notify_all()

    def resume(self) -> None:
        """Resume flushing."""
        with self._lock:
            self._paused = False
            self._wake.notify_all()

    def sync(self, timeout: Optional[float] = None) -> bool:
        """Block until every epoch committed before the call is flushed.

        Returns ``True`` on success, ``False`` on timeout.  Raises
        :class:`RuntimeError` when the barrier can never be reached: the
        worker is paused, stopped, or crashed.
        """
        with self._lock:
            self._raise_if_failed()
            target = self._sequence
            if self._flushed_sequence >= target:
                return True
            if self._paused:
                raise RuntimeError("sync() cannot complete while paused; resume() first")
            deadline = None if timeout is None else time.monotonic() + timeout
            while self._flushed_sequence < target:
                self._raise_if_failed()
                if self._paused:
                    # A pause() issued while we were already waiting: the
                    # worker will never clear the barrier.
                    raise RuntimeError(
                        "sync() cannot complete while paused; resume() first"
                    )
                if self._stopped:
                    raise RuntimeError("worker stopped with unflushed epochs")
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._done.wait(remaining)
        return True

    def drain(self, timeout: Optional[float] = None) -> int:
        """Barrier over everything committed so far; returns the served generation."""
        if not self.sync(timeout):
            raise TimeoutError("drain() timed out awaiting the maintenance worker")
        return self.published_generation

    def close(self) -> None:
        """Drain pending epochs, stop the worker, detach (idempotent).

        Detaching must happen even when the drain barrier fails (a worker
        crash mid-close): a dead maintainer left subscribed would keep
        absorbing -- and erroring on -- every later commit.
        """
        try:
            if self._worker.is_alive() and self._failure is None:
                self.resume()
                with self._lock:
                    stopped = self._stopped
                if not stopped:
                    self.sync()
        finally:
            self.kill()

    def kill(self) -> None:
        """Stop the worker *without* flushing (crash simulation) and detach.

        Queued epochs are never flushed, so they (and the snapshots pinned
        with them) are dropped; the stored extents stay at the last
        published generation.  The state and catalog are unsubscribed so
        the dead maintainer no longer observes mutations.
        """
        with self._lock:
            self._stopped = True
            self._log.clear()
            self._wake.notify_all()
            self._done.notify_all()
        if self._worker.is_alive() and threading.current_thread() is not self._worker:
            self._worker.join()
        self.state.unsubscribe(self)
        self.catalog.remove_maintenance_listener(self)


# ---------------------------------------------------------------------------
# The durable tier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`DurableMaintainer.open` restored, after a restart or a failover.

    ``base`` names the state the tail was replayed onto: ``"live"`` (a
    promoted replica's state as it stood), ``"checkpoint"`` or
    ``"genesis"``.  ``checkpoint_sequence`` is the epoch the newest valid
    checkpoint covered (``0``: none), ``replayed_epochs`` how many logged
    epochs were replayed past the base, and ``recovered_sequence`` the
    resulting epoch sequence -- the state equals the from-scratch build of
    exactly that prefix of commits.  ``dropped_bytes`` /
    ``dropped_records`` / ``corrupt_checkpoints`` surface what torn tails
    and bad frames cost (recovery never crashes on them; it stops at the
    first bad frame and reports).  ``generation`` is the restored state's
    process-local generation.
    """

    base: str
    checkpoint_sequence: int
    replayed_epochs: int
    recovered_sequence: int
    dropped_bytes: int
    dropped_records: int
    corrupt_checkpoints: Tuple[str, ...]
    generation: int


class DurableMaintainer(AsyncMaintainer):
    """The durable tier: :class:`AsyncMaintainer` over a write-ahead log.

    **Commit path.**  Every committed epoch record is appended to the WAL
    -- CRC-framed, fsync-batched per ``sync_every`` -- *before* the epoch
    is enqueued for asynchronous flushing: once
    :attr:`WriteAheadLog.durable_sequence` covers a commit, no crash can
    lose it.  Every ``checkpoint_every`` commits a checkpoint pickles the
    full state snapshot plus the catalog identity and compacts the log
    segments it subsumes.

    **Recovery.**  :meth:`open` is the one way a primary comes up from
    its log, after a crash and after a failover alike: newest valid
    checkpoint (or a promoted replica's live state), replay of the epoch
    tail through :meth:`~repro.database.store.DatabaseState.replay`
    (stopping at the first torn frame -- see
    :meth:`WriteAheadLog.recover`), full extent regeneration, and a
    :attr:`recovery_report` saying exactly what was restored and what was
    dropped.  Recovery is idempotent: opening the same directory twice
    (without new commits) yields identical states.

    **Sequencing contract.**  Epoch sequences are **store-assigned**:
    ``DatabaseState.batch()`` serializes writer threads on the store's
    write lock and bumps :attr:`~repro.database.store.DatabaseState.commit_sequence`
    once per effective commit, before listeners run.  The store's epoch
    record -- appended here and enqueued by the base class -- carries that
    number, so concurrent writers can never race the numbering.

    **Failure semantics.**  WAL I/O runs through a
    :class:`~repro.database.commit.CommitScheduler` under a bounded-retry
    :class:`~repro.database.commit.FaultPolicy`: transient ``OSError``\\ s
    are retried with backoff (torn frames are truncated before the
    re-append), and a persistent fault flips the store to **read-only
    degraded mode** -- the failed commit still enqueues in memory (the
    state mutation already happened, dropping it would desynchronize the
    catalog) and then raises a typed
    :class:`~repro.database.commit.DurabilityError` carrying the last
    ACKed sequence; later write batches are rejected at the store
    boundary while readers keep serving the last published generation,
    and :meth:`heal` re-probes the log and resumes.  Each commit's
    fsync-ACK handle is its :class:`~repro.database.commit.CommitTicket`
    (``state.last_commit_ticket``); with ``sync_every > 1`` tickets
    resolve by group commit -- N writers share one fsync.  A dead flush
    worker does not stop WAL appends or checkpoints: its commits raise,
    but they are in the log, so durability outlives the serving tier.
    """

    def __init__(
        self,
        state: DatabaseState,
        catalog: ViewCatalog,
        *,
        path: Optional[str] = None,
        wal: Optional[WriteAheadLog] = None,
        sync_every: Optional[int] = 1,
        checkpoint_every: Optional[int] = 32,
        segment_bytes: int = 1 << 20,
        fs=None,
        fault_policy: Optional[FaultPolicy] = None,
        **async_kwargs,
    ) -> None:
        if wal is None:
            if path is None:
                raise ValueError(
                    "DurableMaintainer needs a log directory path= or an "
                    "already-open wal="
                )
            wal = WriteAheadLog(
                path, sync_every=sync_every, segment_bytes=segment_bytes, fs=fs
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1 commit (or None)")
        # Durable attributes must exist before super().__init__: it
        # subscribes to the state and starts the worker, after which
        # on_commit may run.
        self.wal = wal
        self.scheduler = CommitScheduler(wal, policy=fault_policy)
        self.checkpoint_every = checkpoint_every
        self.recovery_report: Optional[RecoveryReport] = None
        self._commits_since_checkpoint = 0
        super().__init__(state, catalog, **async_kwargs)
        state.attach_commit_scheduler(self.scheduler)

    # -- commit path (writer threads, serialized by the store) -----------------

    def on_commit(self, record: EpochRecord) -> None:
        """WAL-first commit: schedule the epoch frame, then enqueue it."""
        # The scheduler retries transient faults, degrades on persistent
        # ones and never raises OSError itself; a failed commit surfaces
        # through the ticket after the bookkeeping below.  Simulated
        # crashes from the fault harness are BaseException subclasses and
        # propagate immediately.
        ticket = self.scheduler.append(record)
        enqueue_error: Optional[BaseException] = None
        try:
            super().on_commit(record)
        except RuntimeError as error:
            # A stopped/crashed worker: the epoch is not queued, but it is
            # in the WAL, and checkpointing below keeps the log bounded.
            enqueue_error = error
        self._commits_since_checkpoint += 1
        if (
            ticket.error is None
            and self.checkpoint_every
            and self._commits_since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()
        if ticket.error is not None:
            raise ticket.error
        if enqueue_error is not None:
            raise enqueue_error

    def heal(self) -> bool:
        """Probe the log and leave read-only degraded mode on success."""
        return self.scheduler.heal()

    def checkpoint(self) -> CheckpointPayload:
        """Durably checkpoint the current state.

        Runs on a writer thread (never mid-batch: commits fire after the
        outermost batch exits), so the snapshot is a consistent cut
        covering every epoch up to ``_sequence``.  The WAL is flushed
        first through the scheduler's retry policy (a checkpoint never
        claims coverage beyond the durable log) and the whole write runs
        under the scheduler's WAL fence, so concurrent group-commit
        flushes cannot interleave.  A failed checkpoint *write* raises
        :class:`WalError` but does not degrade the store: the commits it
        covered stay durable in the log, and the previous checkpoint (the
        atomic-rename discipline never replaces it with a torn one)
        remains the recovery basis.
        """
        snapshot = self.state.snapshot()
        with self._lock:
            sequence = self._sequence
        payload = CheckpointPayload(
            sequence=sequence,
            snapshot=snapshot,
            catalog=catalog_identity(self.catalog),
        )
        self.scheduler.flush()
        try:
            with self.scheduler.exclusive():
                self.wal.write_checkpoint(payload)
        except OSError as error:
            raise WalError(
                "checkpoint write failed; the previous checkpoint (if any) "
                "remains the recovery basis and the log itself is intact"
            ) from error
        self._commits_since_checkpoint = 0
        return payload

    # -- lifecycle --------------------------------------------------------------

    def kill(self) -> None:
        """Stop the worker and release WAL file handles (no implicit fsync)."""
        super().kill()
        self.state.detach_commit_scheduler(self.scheduler)
        try:
            with self.scheduler.exclusive():
                self.wal.close()
        except OSError:  # pragma: no cover - handle-close race on fault fs
            pass

    # -- recovery ----------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str,
        schema=None,
        catalog: Optional[ViewCatalog] = None,
        *,
        sync_every: Optional[int] = 1,
        checkpoint_every: Optional[int] = 32,
        segment_bytes: int = 1 << 20,
        fs=None,
        strict_catalog: bool = True,
        fault_policy: Optional[FaultPolicy] = None,
        base: Optional[DatabaseState] = None,
        **async_kwargs,
    ) -> "DurableMaintainer":
        """Bring a primary up from the log at ``path``: state, extents, writer.

        The one restore path, for restarts and failovers alike
        (:meth:`~repro.database.failover.FailoverCoordinator.promote` passes
        the promoted replica's live state as ``base``; nothing else does):

        * **Base.**  ``base`` at or past the newest valid checkpoint is
          taken as it stands, at its ``commit_sequence``; otherwise the
          checkpoint is rebuilt via :meth:`DatabaseState.from_snapshot`
          (corrupt ones are skipped -- recovery degrades, never crashes);
          with neither, recovery starts from genesis.
        * **Catalog.**  ``strict_catalog`` requires ``catalog``'s identity
          (names + normalized concepts) to match the checkpoint's.
        * **Schema.**  The restored state serves under ``schema``
          (default: the base's own).  The log does not carry a swap's new
          schema, so a ``schema_changed`` epoch past the base without
          ``schema`` raises :class:`ValueError`.
        * **Tail.**  Each logged epoch past the base is replayed through
          :meth:`DatabaseState.replay`, before the maintainer attaches.
        * **Writer.**  Every extent is regenerated against the restored
          state, the torn WAL tail is truncated, and the returned
          maintainer continues the restored commit numbering.  A base past
          the log's last epoch holds epochs the log lacks, so a checkpoint
          covers them before this returns -- they are recoverable before
          the first new write is acknowledged.  A plain restart writes no
          checkpoint.

        The :attr:`recovery_report` says what was restored and dropped.
        """
        if catalog is None:
            raise ValueError("open() needs the ViewCatalog to regenerate extents")
        wal = WriteAheadLog(
            path, sync_every=sync_every, segment_bytes=segment_bytes, fs=fs
        )
        found = wal.recover()
        checkpoint = found.checkpoint
        if checkpoint is not None and strict_catalog:
            require_catalog_identity(checkpoint.catalog, catalog)
        if base is not None and (
            checkpoint is None or base.commit_sequence >= checkpoint.sequence
        ):
            origin, state = "live", base
        elif checkpoint is not None:
            origin = "checkpoint"
            state = DatabaseState.from_snapshot(checkpoint.snapshot, schema)
            state.reset_commit_sequence(checkpoint.sequence)
        else:
            origin, state = "genesis", DatabaseState(schema)
        base_sequence = state.commit_sequence
        tail = [record for record in found.epochs if record.sequence > base_sequence]
        if schema is None:
            if any(record.schema_changed for record in tail):
                raise ValueError(
                    "the log swaps the schema past the restore base and does "
                    "not carry the new one; pass the post-swap schema="
                )
        elif state.schema != schema:
            state.schema = schema
            state.reset_commit_sequence(base_sequence)
        for record in tail:
            state.replay(record)
        snapshot = state.snapshot()
        catalog.regenerate_extents(snapshot)
        wal.reset_to(found)
        maintainer = cls(
            state,
            catalog,
            wal=wal,
            checkpoint_every=checkpoint_every,
            fault_policy=fault_policy,
            **async_kwargs,
        )
        if state.commit_sequence > found.last_sequence:
            try:
                maintainer.checkpoint()
            except BaseException:
                maintainer.kill()
                raise
        maintainer.recovery_report = RecoveryReport(
            base=origin,
            checkpoint_sequence=checkpoint.sequence if checkpoint is not None else 0,
            replayed_epochs=len(tail),
            recovered_sequence=state.commit_sequence,
            dropped_bytes=found.dropped_bytes,
            dropped_records=found.dropped_records,
            corrupt_checkpoints=found.corrupt_checkpoints,
            generation=snapshot.generation,
        )
        return maintainer
