"""Batched classification and sharded matching over the view lattice.

PR 2 made view matching sublinear through the classified lattice; this
module is the follow-through concurrency layer.  Both lattice insertion and
lattice matching decompose into *independent, read-only* subsumption
probes against a frozen DAG, so a batch of views (or queries) can fan out
over a worker pool and merge deterministically:

* :func:`classify_batch` powers ``ViewCatalog.register_batch``: phase A
  runs every new view's most-specific-subsumer / most-general-subsumee
  traversals concurrently against the frozen lattice
  (:meth:`~repro.database.lattice.ViewLattice.classification_probe`), each
  worker writing into a private decision-cache overlay; the overlays are
  merged on join and phase B replays the plain *sequential* insertions in
  input order, finding every frozen-DAG decision already answered.  The
  result is therefore identical to one-at-a-time registration by
  construction (property-tested in ``tests/optimizer``).
* :class:`ShardedMatcher` powers ``SemanticQueryOptimizer.plan_batch`` /
  ``answer_batch``: a batch of queries is split across shards, each worker
  running the catalog's own match walk (``ViewCatalog.subsumers``) through
  its own :class:`BatchCheckerView`; per-shard matches, statistics and
  cache deltas are merged in input order, so plans are byte-identical to
  the sequential loop.

Every decision is resolved by the one
:class:`~repro.core.checker.SubsumptionChecker` chain: memos, told and
signature shortcuts, the profile rejection filter, the remote tier, a
completion.  A :class:`BatchCheckerView` is only a worker's *overlay* over
that checker: the decisions a worker derives land in its private delta
and merge on join.  Before each walk the lattice seeds the told
subsumptions from its own conjunct-id index
(:meth:`~repro.database.lattice.ViewLattice.seed_told`) into the overlay,
and the overlay evaluates the checker's profile rejection predicate itself
so that it can count the full checks it avoided.  The shortcut machinery
(``conjunct_ids``, :class:`ConceptProfile`, :func:`profile_concept`) lives
in :mod:`repro.core.checker`; this module re-exports it.

Locking & sharing invariants (hold them when touching this module):

* **Catalogs are frozen for the duration of a batch.**  Workers traverse
  the lattice and read its told-seed index without taking any lock;
  nothing may mutate the catalog (register/unregister/refresh) while a
  parallel phase runs.  The serialization point is the caller, not this
  module.
* **Decisions land in the overlay; the checker's memos take the rest.**
  Thread workers share the process-wide intern tables (interning is
  locked) and read the base checker's decision memos.  Decisions a worker
  derives land in its private overlay, merged deterministically on join
  via ``checker.absorb_decisions``.  Worker threads do write the base
  checker's *profile memo and seed slot* (through ``checker.profile``)
  and, when a full check falls through to ``checker.subsumes``, its
  decision memos.  Each of those writes is a single CPython dict store or
  attribute assignment -- idempotent (profiles and decisions are
  deterministic; a seed is used only for the query id it is stored with)
  and GIL-atomic today, but a port to free-threaded Python would need a
  lock there.
* **Interned ids cross fork boundaries, never process boundaries.**
  Process workers (``backend="process"``, fork platforms only) inherit
  the frozen catalog and the pre-interned batch via copy-on-write; their
  overlay deltas are keyed by interned ids, which are fork-stable, so
  the parent absorbs them without translation.  Their profile-memo writes
  stay in the child.  ``backend="serial"`` runs the same code path in the
  calling thread (the control used by the equivalence tests).
* **The remote tier serializes on its own client.**  A
  :class:`~repro.database.cacheserver.RemoteDecisionCache` attached to the
  checker is shared by all shard threads (it hands each round trip its
  own pooled connection) and is consulted only after every cheap local
  layer missed; a remote fault degrades it to a no-op, so the decision
  protocol -- and the merged results -- never depend on the cache tier
  being alive.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..concepts.intern import concept_id
from ..concepts.normalize import normalize_concept
from ..concepts.syntax import Concept
from ..core.checker import (
    ConceptProfile,
    conjunct_ids,
    necessary_attribute_names,
    profile_concept,
    profile_rejects,
)
from ..database.lattice import LatticeMatchStats

__all__ = [
    "BatchStatistics",
    "BatchCheckerView",
    "ConceptProfile",
    "ShardedMatcher",
    "available_backends",
    "classify_batch",
    "conjunct_ids",
    "profile_concept",
    "resolve_shards",
    "run_shards",
]

# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


@dataclass
class BatchStatistics:
    """Counters of one batched registration or sharded matching run."""

    backend: str = ""
    shards: int = 0
    #: Facts-only profiling completions run on a worker's behalf (the
    #: checker memoizes each profile once, for every worker).
    profiles_computed: int = 0
    #: Decisions seeded from told subsumption + lattice ancestor closure.
    told_seeded: int = 0
    #: Full checks avoided by the profile rejection filters.
    filter_rejections: int = 0
    #: Decisions that did run a completion (or hit the base checker's memo).
    full_checks: int = 0
    #: Overlay entries merged back into the base checker on join.
    cache_delta_entries: int = 0

    def merge(self, other: "BatchStatistics") -> None:
        self.profiles_computed += other.profiles_computed
        self.told_seeded += other.told_seeded
        self.filter_rejections += other.filter_rejections
        self.full_checks += other.full_checks
        self.cache_delta_entries += other.cache_delta_entries


# ---------------------------------------------------------------------------
# The per-worker checker view
# ---------------------------------------------------------------------------


class BatchCheckerView:
    """A worker's private decision overlay over a shared :class:`SubsumptionChecker`.

    Workers must not write shared decision memos concurrently, and process
    workers cannot write them at all -- so every decision a worker derives
    (seeded, filtered or fully checked) lands in a private ``delta`` dict
    keyed by interned concept-id pairs.  Reads fall through to the base
    checker's per-instance and shared caches, so a worker never re-derives
    what the parent already knows.  On join the parent calls
    ``checker.absorb_decisions(view.delta)``; because interned ids are
    process-unique (and fork-stable), deltas merge without translation.

    With ``direct=True`` (the sequential merge phase of ``register_batch``)
    decisions are additionally recorded into the base checker immediately.

    The overlay resolves nothing itself: profiles come from the checker's
    one memo, and a pair that neither the overlay, the checker's memos nor
    the profile rejection filter answers goes to ``checker.subsumes`` --
    whose last layer before a completion is the checker's remote tier.
    Evaluating the filter here (rather than leaving it to the checker)
    only serves the counters: ``filter_rejections`` vs. ``full_checks``.
    """

    def __init__(
        self,
        checker,
        *,
        statistics: Optional[BatchStatistics] = None,
        direct: bool = False,
    ) -> None:
        self._checker = checker
        self._direct = direct
        self.statistics = statistics if statistics is not None else BatchStatistics()
        self.delta: Dict[Tuple[int, int], bool] = {}
        self._necessary_names = necessary_attribute_names(checker.schema)

    def profile(self, concept: Concept) -> ConceptProfile:
        """The checker's memoized profile, counting the ones computed here."""
        cached = self._checker.cached_profile(concept)
        if cached is None:
            cached = self._checker.profile(concept)
            self.statistics.profiles_computed += 1
        return cached

    def seed(self, query_id: int, view_id: int, decision: bool) -> None:
        """Record an entailed decision (told subsumption / transitivity)."""
        key = (query_id, view_id)
        if key in self.delta or self._checker.cached_decision(*key) is not None:
            return
        self.delta[key] = decision
        self.statistics.told_seeded += 1
        if self._direct:
            self._checker.record_decision(query_id, view_id, decision)

    # -- the decision interface the lattice and the flat scan consume ------

    def quick_reject(self, query: Concept, view: Concept) -> bool:
        """The checker's ``quick_reject``, with the profile read through :meth:`profile`."""
        return self._checker.signature_excludes(query, view) and self.profile(query).satisfiable

    def subsumes(self, query: Concept, view: Concept) -> bool:
        normalized_query = normalize_concept(query)
        normalized_view = normalize_concept(view)
        key = (concept_id(normalized_query), concept_id(normalized_view))
        cached = self.delta.get(key)
        if cached is not None:
            return cached
        cached = self._checker.cached_decision(*key)
        if cached is not None:
            return cached
        if self._rejects(normalized_query, normalized_view):
            self.statistics.filter_rejections += 1
            decision = False
            if self._direct:
                self._checker.record_decision(key[0], key[1], decision)
        else:
            self.statistics.full_checks += 1
            decision = self._checker.subsumes(normalized_query, normalized_view)
        self.delta[key] = decision
        return decision

    def _rejects(self, query: Concept, view: Concept) -> bool:
        """``True`` only if the query's profile *proves* ``query ⋢ view``.

        The promoted :func:`repro.core.checker.profile_rejects` predicate,
        the same one the checker applies inside ``subsumes``.
        """
        return profile_rejects(self.profile(query), view, self._necessary_names)


# ---------------------------------------------------------------------------
# Worker pools
# ---------------------------------------------------------------------------

#: Fork-inherited slot for the process backend: the worker closure is
#: installed here *before* the pool forks, so children reach it through
#: copy-on-write memory instead of pickling (the closure captures the
#: catalog, the lattice and the checker, none of which need to travel).
#: ``_FORK_LOCK`` serializes process-backend runs -- without it two
#: threads launching pools concurrently would overwrite each other's slot.
_FORK_WORKER: Optional[Callable[[int], object]] = None
_FORK_LOCK = threading.Lock()


def _fork_call(index: int):
    worker = _FORK_WORKER
    assert worker is not None, "process worker invoked outside run_shards"
    return worker(index)


def available_backends() -> Tuple[str, ...]:
    """The pool backends usable on this platform."""
    backends = ["serial", "thread"]
    if hasattr(os, "fork"):
        backends.append("process")
    return tuple(backends)


def resolve_shards(requested: Optional[int], item_count: int) -> int:
    """Clamp a shard request to ``[1, item_count]``; default to the CPU count."""
    if item_count <= 0:
        return 0
    if requested is None:
        requested = os.cpu_count() or 1
    return max(1, min(int(requested), item_count))


def run_shards(
    worker: Callable[[int], object],
    count: int,
    backend: str = "thread",
) -> List[object]:
    """Run ``worker(0..count-1)`` on the chosen backend, results in order.

    The pool has one worker per shard.

    ``worker`` results must be picklable for the process backend (the shard
    protocols in this module return plain lists/dicts/dataclasses).  The
    process backend requires ``os.fork`` (the worker is inherited, not
    pickled) and falls back with an error elsewhere.
    """
    if backend not in available_backends() and backend != "process":
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {available_backends()}"
        )
    if backend == "process" and not hasattr(os, "fork"):
        raise RuntimeError(
            "backend='process' needs a fork platform; use 'thread' instead"
        )
    if count <= 0:
        return []
    if backend == "serial" or count == 1:
        return [worker(index) for index in range(count)]
    if backend == "thread":
        with ThreadPoolExecutor(max_workers=count) as pool:
            return list(pool.map(worker, range(count)))
    if backend == "process":
        import multiprocessing

        global _FORK_WORKER
        # Serialize pool launches: the worker slot is module-global (it is
        # how forked children find the closure), so concurrent launches
        # would clobber each other's worker.
        with _FORK_LOCK:
            if _FORK_WORKER is not None:
                raise RuntimeError("nested process-backend runs are not supported")
            context = multiprocessing.get_context("fork")
            _FORK_WORKER = worker
            try:
                with context.Pool(processes=count) as pool:
                    return pool.map(_fork_call, range(count))
            finally:
                _FORK_WORKER = None
    raise AssertionError(f"unhandled backend {backend!r}")


# ---------------------------------------------------------------------------
# Batched classification (phase A of ViewCatalog.register_batch)
# ---------------------------------------------------------------------------


def classify_batch(
    catalog,
    views: Sequence,
    *,
    backend: str = "thread",
    shards: Optional[int] = None,
    statistics: Optional[BatchStatistics] = None,
) -> BatchStatistics:
    """Phase A: warm every frozen-DAG decision the batch insertions need.

    Fans the batch's classification probes (subsumer search, equivalence
    probes, subsumee search -- exactly what :meth:`ViewLattice.insert` will
    ask) over the worker pool against the *frozen* lattice, then merges the
    per-worker decision deltas into the catalog's checker in input order.
    Mutates nothing but caches; the caller performs the sequential merge.
    """
    statistics = statistics if statistics is not None else BatchStatistics()
    shard_count = resolve_shards(shards, len(views))
    statistics.backend = backend
    statistics.shards = shard_count
    if shard_count == 0:
        return statistics
    checker = catalog.checker
    lattice = catalog.lattice

    def worker(shard: int):
        worker_stats = BatchStatistics()
        view_checker = BatchCheckerView(checker, statistics=worker_stats)
        for index in range(shard, len(views), shard_count):
            concept = views[index].concept
            lattice.seed_told(concept, view_checker)
            lattice.classification_probe(concept, view_checker)
        worker_stats.cache_delta_entries = len(view_checker.delta)
        return worker_stats, view_checker.delta

    for worker_stats, delta in run_shards(worker, shard_count, backend):
        statistics.merge(worker_stats)
        checker.absorb_decisions(delta)
    return statistics


# ---------------------------------------------------------------------------
# Sharded matching
# ---------------------------------------------------------------------------


class ShardedMatcher:
    """Fan a batch of queries across shards over the read-only catalog.

    Each worker owns a :class:`BatchCheckerView` and runs the catalog's own
    match walk (``ViewCatalog.subsumers``: the seeded lattice traversal, or
    the flat scan for ``lattice=False`` catalogs), so the merged per-query
    match lists -- and the merged :class:`LatticeMatchStats` -- equal the
    sequential loop's.  After :meth:`match_batch` the run's counters are
    available as ``statistics`` (batch layer) and ``match_statistics``
    (traversal layer).

    ``remote`` attaches a shared decision cache to ``checker`` (its
    ``remote`` attribute) for good.  Only the benchmark's cache warm-up
    (``perfbench/workloads.py``) passes it; everything else attaches the
    cache with ``SubsumptionChecker(remote=...)``.
    """

    def __init__(
        self,
        checker,
        catalog,
        *,
        shards: Optional[int] = None,
        backend: str = "thread",
        remote=None,
    ) -> None:
        self.checker = checker
        self.catalog = catalog
        self.shards = shards
        self.backend = backend
        if remote is not None:
            checker.remote = remote
        self.statistics = BatchStatistics()
        self.match_statistics = LatticeMatchStats()

    def match_names(self, concepts: Sequence[Concept]) -> List[List[str]]:
        """Per-query lists of subsuming view names (catalog order within shards)."""
        normalized = [normalize_concept(concept) for concept in concepts]
        shard_count = resolve_shards(self.shards, len(normalized))
        self.statistics = BatchStatistics()
        self.statistics.backend = self.backend
        self.statistics.shards = shard_count
        self.match_statistics = LatticeMatchStats()
        if shard_count == 0:
            return []
        catalog = self.catalog
        checker = self.checker

        def worker(shard: int):
            worker_stats = BatchStatistics()
            match_stats = LatticeMatchStats()
            view_checker = BatchCheckerView(checker, statistics=worker_stats)
            results: List[Tuple[int, List[str]]] = []
            for index in range(shard, len(normalized), shard_count):
                matches = catalog.subsumers(normalized[index], view_checker, match_stats)
                results.append((index, [view.name for view in matches]))
            worker_stats.cache_delta_entries = len(view_checker.delta)
            return results, worker_stats, match_stats, view_checker.delta

        merged: List[Optional[List[str]]] = [None] * len(normalized)
        shard_results = run_shards(worker, shard_count, self.backend)
        for results, worker_stats, match_stats, delta in shard_results:
            for index, names in results:
                merged[index] = names
            self.statistics.merge(worker_stats)
            self.match_statistics.checks += match_stats.checks
            self.match_statistics.signature_skips += match_stats.signature_skips
            self.match_statistics.nodes_visited += match_stats.nodes_visited
            self.match_statistics.pruned_views += match_stats.pruned_views
            self.checker.absorb_decisions(delta)
        return [names if names is not None else [] for names in merged]

    def match_batch(self, concepts: Sequence[Concept]) -> List[List[object]]:
        """Per-query lists of subsuming views, smallest extent first.

        The per-query ordering matches
        ``SemanticQueryOptimizer.subsuming_views`` exactly (sort by
        ``(extent size, name)``), so plans built from these lists are
        byte-identical to the sequential ones.
        """
        matched = self.match_names(concepts)
        resolved: List[List[object]] = []
        for names in matched:
            views = [self.catalog.get(name) for name in names]
            views.sort(key=lambda view: (view.size, view.name))
            resolved.append(views)
        return resolved
