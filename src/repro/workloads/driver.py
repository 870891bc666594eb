"""Batch workload driver: exercise the parallel optimizer end to end.

The first concurrency layer (``ViewCatalog.register_batch`` + the sharded
matcher behind ``SemanticQueryOptimizer.plan_batch`` / ``answer_batch``) is
property-tested against the sequential spec paths; this driver runs it at
*workload* scale on the university and trading catalogs -- a realistic
register-then-serve loop -- and cross-checks every result against the
sequential loop as it goes:

1. the generated view catalog is registered twice, one view at a time and
   as one batch, and the two lattices are compared;
2. the generated query stream is matched twice, by the sequential loop and
   by the sharded matcher, and the per-query subsumer lists are compared;
3. for the DL workloads the declared query classes are planned via
   ``plan`` and ``plan_batch`` and executed over a generated database
   state, comparing plans and checking answers against the unoptimized
   evaluation.

The E10 benchmark and ``tests/workloads/test_driver.py`` both go through
:func:`run_batch_workload`; it can also be run directly::

    python -m repro.workloads.driver --workload trading --views 64 --shards 4

Every scenario is declared once, in :data:`SCENARIOS`: its runner, the
command-line options :func:`main` forwards to it, and the verdicts that must
all hold for it to exit 0 (the benchmarks and tests read them from there).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

from ..core.checker import clear_shared_decision_cache
from ..database.maintenance import AsyncMaintainer, DurableMaintainer, MaintenanceQueue
from ..database.store import DatabaseState
from ..dl.abstraction import schema_to_sl
from ..dl.ast import DLSchema
from ..optimizer import SemanticQueryOptimizer, ShardedMatcher, ViewFilterPlan
from .synthetic import (
    SchemaProfile,
    generate_hierarchical_catalog,
    generate_matching_queries,
    random_schema,
    random_state,
)
from .trading import generate_trading_state, trading_concepts, trading_dl_schema
from .university import (
    generate_university_state,
    university_concepts,
    university_dl_schema,
)

__all__ = [
    "batch_workload_setup",
    "run_batch_workload",
    "generate_update_stream",
    "apply_update",
    "run_maintenance_workload",
    "run_async_maintenance_workload",
    "run_durable_maintenance_workload",
    "run_commit_fleet_workload",
    "run_serve_fleet_workload",
    "run_serve_chaos_workload",
    "SCENARIOS",
    "main",
]


def batch_workload_setup(workload: str, views: int, queries: int, seed: int = 0):
    """(optimizer schema, state, view catalog, query stream) for a workload.

    ``university`` and ``trading`` grow their hand-written query-class
    concepts into a ``views``-sized catalog by hierarchical specialization
    (how real catalogs grow: drill-down variants of existing reports) and
    return their parsed DL schema, so query classes can be planned too;
    ``synthetic`` starts from random roots over a random ``SL`` schema.
    The query stream mixes specializations of catalog views (hits) with
    fresh concepts (misses).
    """
    if workload == "university":
        optimizer_schema = university_dl_schema()
        generator_schema = schema_to_sl(optimizer_schema)
        bases = tuple(university_concepts().values())
        state = generate_university_state(seed=seed + 7)
    elif workload == "trading":
        optimizer_schema = trading_dl_schema()
        generator_schema = schema_to_sl(optimizer_schema)
        bases = tuple(trading_concepts().values())
        state = generate_trading_state(seed=seed + 13)
    elif workload == "synthetic":
        optimizer_schema = generator_schema = random_schema(SchemaProfile(), seed=seed + 9)
        bases = ()
        state = random_state(generator_schema, objects=300, seed=seed + 3)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    catalog = generate_hierarchical_catalog(
        generator_schema, views, seed=seed + views * 31, base_concepts=bases
    )
    stream = generate_matching_queries(generator_schema, catalog, queries, seed=seed + views * 17)
    return optimizer_schema, state, catalog, stream


# ---------------------------------------------------------------------------
# Shared scenario helpers: setup, the epoch loop, oracles and report fields
# ---------------------------------------------------------------------------


def _workload_copies(workload: str, views: int, queries: int, seed: int, copies: int):
    """(schema, generator schema, catalog items, stream, ``copies`` identical states).

    Each state comes from its own :func:`batch_workload_setup` call, so the
    sides a scenario compares start equal but share no store.  The
    generator schema is the ``SL`` schema update streams are drawn over.
    """
    schema, state, catalog, stream = batch_workload_setup(workload, views, queries, seed)
    states = [state]
    for _ in range(copies - 1):
        states.append(batch_workload_setup(workload, views, queries, seed)[1])
    generator_schema = schema_to_sl(schema) if isinstance(schema, DLSchema) else schema
    return schema, generator_schema, list(catalog.items()), stream, states


def _register(schema, items, state: Optional[DatabaseState] = None, batched: bool = False):
    """An optimizer with the catalog registered, materialized over ``state`` if given."""
    optimizer = SemanticQueryOptimizer(schema, lattice=True)
    if batched:
        optimizer.register_views_batch(items)
    else:
        for name, concept in items:
            optimizer.register_view_concept(name, concept)
    if state is not None:
        optimizer.catalog.refresh_all(state)
    return optimizer


def _commit_epochs(state: DatabaseState, epochs, serve=None, after=None):
    """Commit each epoch as one ``state.batch()``; ``(latencies, serving sound)``.

    A latency sample spans the commit -- including any maintenance it pays
    inline -- and ``serve(index)``, the read the epoch's turnaround waits
    for, which returns whether that read was sound.  ``after()`` runs once
    per epoch outside the sample (bookkeeping the timing must not cover).
    """
    latencies: List[float] = []
    sound = True
    for index, epoch in enumerate(epochs):
        t0 = time.perf_counter()
        with state.batch():
            for op in epoch:
                apply_update(state, op)
        if serve is not None:
            sound &= serve(index)
        latencies.append(time.perf_counter() - t0)
        if after is not None:
            after()
    return latencies, sound


def _from_scratch(optimizer, source) -> Dict[str, frozenset]:
    """The oracle: every view re-materialized from scratch over ``source``."""
    return {
        view.name: optimizer.evaluator.concept_answers(view.concept, source)
        for view in optimizer.catalog
    }


def _stored(optimizer) -> Dict[str, frozenset]:
    return {view.name: view.stored_extent for view in optimizer.catalog}


def _states_equal(live: DatabaseState, other) -> bool:
    return live.objects == other.objects and all(
        live.extent(name) == other.extent(name) for name in live.classes()
    )


def _ratio(numerator, denominator) -> Optional[float]:
    return numerator / denominator if denominator else None


def _p50_ms(samples: List[float]) -> Optional[float]:
    return 1e3 * median(samples) if samples else None


def _percentile_ms(samples: List[float], fraction: float) -> Optional[float]:
    """The nearest-rank ``fraction`` percentile of ``samples`` (seconds) in milliseconds."""
    if not samples:
        return None
    ordered = sorted(samples)
    return 1e3 * ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _plan_fingerprint(plan) -> Tuple:
    """A structural fingerprint of a plan (used for the equality verdicts)."""
    if isinstance(plan, ViewFilterPlan):
        return ("view", plan.query.name, plan.view.name, plan.alternatives)
    return ("scan", plan.query.name, plan.anchor_class)


def run_batch_workload(
    workload: str = "university",
    *,
    views: int = 32,
    queries: int = 16,
    shards: Optional[int] = 2,
    backend: str = "thread",
    seed: int = 0,
    cold: bool = True,
) -> Dict[str, object]:
    """Register a catalog batched vs. sequentially, then serve a query batch.

    Runs both modes over identical inputs, cross-checks that the batched
    catalog, the sharded subsumer lists and (for the DL workloads) the
    batch plans equal the sequential ones, and returns timings plus the
    batch-layer counters.  ``cold=True`` (default) clears the process-wide
    decision caches between modes so neither inherits the other's work.
    """
    schema, state, catalog, stream = batch_workload_setup(workload, views, queries, seed)
    items = list(catalog.items())

    if cold:
        clear_shared_decision_cache()
    sequential = SemanticQueryOptimizer(schema, lattice=True)
    start = time.perf_counter()
    for name, concept in items:
        sequential.register_view_concept(name, concept)
    sequential_register_seconds = time.perf_counter() - start

    if cold:
        clear_shared_decision_cache()
    batched = SemanticQueryOptimizer(schema, lattice=True)
    start = time.perf_counter()
    batched.register_views_batch(items, backend=backend, shards=shards)
    batch_register_seconds = time.perf_counter() - start

    catalog_equal = batched.catalog.names() == sequential.catalog.names() and all(
        batched.catalog.lattice.parents_of(name) == sequential.catalog.lattice.parents_of(name)
        for name in batched.catalog.names()
    )

    # Serve the generated stream: sequential matching loop vs. the sharded
    # matcher over the read-only lattice.
    if cold:
        sequential.checker.clear_cache()
        clear_shared_decision_cache()
    start = time.perf_counter()
    sequential_matches = [
        [view.name for view in sequential.subsuming_views_for_concept(concept)]
        for concept in stream
    ]
    sequential_match_seconds = time.perf_counter() - start

    if cold:
        batched.checker.clear_cache()
        clear_shared_decision_cache()
    matcher = ShardedMatcher(batched.checker, batched.catalog, shards=shards, backend=backend)
    start = time.perf_counter()
    batch_matches = [[view.name for view in views_] for views_ in matcher.match_batch(stream)]
    batch_match_seconds = time.perf_counter() - start
    matches_equal = batch_matches == sequential_matches

    # Plan + execute the declared query classes (DL workloads only): the
    # full answer_batch serving path, checked against plan() and against
    # the unoptimized evaluation.
    plans_equal = True
    answers_sound = True
    declared_queries: List = []
    dl_schema = getattr(batched, "dl_schema", None)
    if dl_schema is not None:
        declared_queries = [
            query for query in dl_schema.query_classes.values() if query.is_structural
        ]
    if declared_queries:
        # Materialize both catalogs first: the planner prefers the smallest
        # subsuming view, so plan equality needs equal extents too.
        sequential.catalog.refresh_all(state)
        batched.catalog.refresh_all(state)
        sequential_plans = [sequential.plan(query) for query in declared_queries]
        outcomes = batched.answer_batch(declared_queries, state, shards=shards, backend=backend)
        plans_equal = all(
            _plan_fingerprint(outcome.plan) == _plan_fingerprint(plan)
            for outcome, plan in zip(outcomes, sequential_plans)
        )
        answers_sound = all(
            outcome.answers == batched.evaluate_unoptimized(query, state)
            for outcome, query in zip(outcomes, declared_queries)
        )

    return {
        "workload": workload,
        "views": len(items),
        "queries": len(stream),
        "declared_queries": len(declared_queries),
        "shards": shards,
        "backend": backend,
        "sequential_register_seconds": sequential_register_seconds,
        "batch_register_seconds": batch_register_seconds,
        "register_speedup": _ratio(sequential_register_seconds, batch_register_seconds),
        "sequential_match_seconds": sequential_match_seconds,
        "batch_match_seconds": batch_match_seconds,
        "match_speedup": _ratio(sequential_match_seconds, batch_match_seconds),
        "catalog_equal": catalog_equal,
        "matches_equal": matches_equal,
        "plans_equal": plans_equal,
        "answers_sound": answers_sound,
        "batch_told_seeded": batched.statistics.batch_told_seeded,
        "batch_filter_rejections": batched.statistics.batch_filter_rejections,
        "batch_profiles_computed": batched.statistics.batch_profiles_computed,
    }


# ---------------------------------------------------------------------------
# Update-heavy maintenance workload (serve while mutating)
# ---------------------------------------------------------------------------


def generate_update_stream(schema, state: DatabaseState, updates: int, seed: int = 0):
    """A reproducible update-heavy mutation stream against one state.

    Mixes object creation (with memberships), membership asserts/retracts,
    attribute sets/removals and occasional object deletions over the
    schema's vocabulary; the stream is generated statelessly (it tracks the
    ids it created itself), so the same stream can be applied to two
    identical copies of the state.
    """
    rng = random.Random(seed)
    classes = sorted(schema.concept_names()) or ["K0"]
    attributes = sorted(schema.attribute_names()) or ["p0"]
    alive = sorted(state.objects) or ["seed_obj"]
    pairs: List[Tuple[str, str, str]] = []
    ops: List[Tuple] = []
    counter = 0
    for _ in range(updates):
        roll = rng.random()
        if roll < 0.18:
            counter += 1
            object_id = f"upd_{counter}"
            sample = rng.sample(classes, k=min(len(classes), rng.randint(1, 2)))
            ops.append(("add", object_id, tuple(sample)))
            alive.append(object_id)
        elif roll < 0.40:
            ops.append(("assert", rng.choice(alive), rng.choice(classes)))
        elif roll < 0.52:
            ops.append(("retract", rng.choice(alive), rng.choice(classes)))
        elif roll < 0.80 or (roll < 0.90 and not pairs):
            subject, value = rng.choice(alive), rng.choice(alive)
            attribute = rng.choice(attributes)
            ops.append(("set", subject, attribute, value))
            pairs.append((subject, attribute, value))
        elif roll < 0.90:
            subject, attribute, value = pairs.pop(rng.randrange(len(pairs)))
            ops.append(("unset", subject, attribute, value))
        elif len(alive) > 4:
            victim = alive.pop(rng.randrange(len(alive)))
            ops.append(("remove", victim))
        else:
            ops.append(("assert", rng.choice(alive), rng.choice(classes)))
    return ops


def apply_update(state: DatabaseState, op: Tuple) -> Tuple[str, List[str]]:
    """Apply one stream op; returns ``(kind, directly touched object ids)``."""
    kind = op[0]
    if kind == "add":
        _, object_id, classes = op
        state.add_object(object_id, *classes)
        return kind, [object_id]
    if kind == "assert":
        _, object_id, class_name = op
        state.assert_membership(object_id, class_name)
        return kind, [object_id]
    if kind == "retract":
        _, object_id, class_name = op
        state.retract_membership(object_id, class_name)
        return kind, [object_id]
    if kind == "set":
        _, subject, attribute, value = op
        state.set_attribute(subject, attribute, value)
        return kind, [subject, value]
    if kind == "unset":
        _, subject, attribute, value = op
        state.remove_attribute(subject, attribute, value)
        return kind, [subject, value]
    if kind == "remove":
        _, object_id = op
        state.remove_object(object_id)
        return kind, [object_id]
    raise ValueError(f"unknown update op {op!r}")


def _serve_round(optimizer, concept, source, extents=None) -> bool:
    """One live query against the (possibly mutating) catalog.

    Matches the concept, then checks that filtering through the best
    subsuming view's extent loses no answers over ``source`` -- exactly the
    soundness the paper's optimizer relies on, which only holds while
    extents are maintained correctly.  ``extents`` overrides where the
    candidate set comes from: the async tier passes the published cut (and
    the pinned snapshot it answers for as ``source``), so both tiers run
    the *same* check against their respective serving model.
    """
    matches = optimizer.subsuming_views_for_concept(concept)
    full = optimizer.evaluator.concept_answers(concept, source)
    if not matches:
        return True
    best = matches[0]
    candidates = best.stored_extent if extents is None else extents.get(best.name, frozenset())
    filtered = optimizer.evaluator.concept_answers(concept, source, candidates=candidates)
    return filtered == full


def _stream_reader(optimizer, stream, source):
    """``serve(index)`` for :func:`_commit_epochs`: the cycled stream query over ``source``."""
    return lambda index: _serve_round(optimizer, stream[index % len(stream)], source)


def run_maintenance_workload(
    workload: str = "university",
    *,
    views: int = 32,
    updates: int = 48,
    batch_size: int = 8,
    queries: int = 8,
    seed: int = 0,
    serve: bool = True,
    batched_registration: bool = False,
) -> Dict[str, object]:
    """Apply an update-heavy stream under naive vs. delta-driven maintenance.

    Two identical state/catalog pairs process the same mutation stream in
    epochs of ``batch_size``:

    * the **naive** side re-evaluates every registered view for every
      directly touched object after every single mutation (the historic
      ``notify_object_added`` loop -- the executable specification's cost
      model);
    * the **engine** side routes the epoch through ``with state.batch():``
      and one :class:`~repro.database.maintenance.MaintenanceQueue` flush
      (relevance-indexed, affected-set scoped, lattice-pruned).

    After every epoch both sides serve a query from the stream against the
    live catalog (``serve=False`` skips it for pure-maintenance timing).
    The verdicts cross-check the engine against re-materializing every view
    from scratch (the oracle) and record whether view-filtered serving
    stayed sound on each side; the naive side is *expected* to go stale on
    streams whose membership changes affect objects only reachable through
    attribute chains.
    """
    schema, generator_schema, items, stream, states = _workload_copies(
        workload, views, max(queries, 1), seed, 2
    )
    naive_state, engine_state = states
    ops = generate_update_stream(generator_schema, naive_state, updates, seed=seed + 101)
    epochs = [ops[i : i + batch_size] for i in range(0, len(ops), batch_size)]

    # Registration is setup, not what this scenario measures: clear the
    # process-wide caches once, then let the second catalog classify
    # cache-hot (optionally through the batch registration path for large
    # catalogs).
    clear_shared_decision_cache()
    naive = _register(schema, items, naive_state, batched_registration)
    engine = _register(schema, items, engine_state, batched_registration)
    queue = MaintenanceQueue(engine_state, engine.catalog)
    serving = serve and bool(stream)

    naive_serving_sound = True
    start = time.perf_counter()
    for index, epoch in enumerate(epochs):
        for op in epoch:
            kind, touched = apply_update(naive_state, op)
            if kind == "remove":
                naive.catalog.notify_object_removed(touched[0])
            else:
                for object_id in touched:
                    naive.catalog.notify_object_added(object_id, naive_state)
        if serving:
            naive_serving_sound &= _serve_round(naive, stream[index % len(stream)], naive_state)
    naive_seconds = time.perf_counter() - start

    start = time.perf_counter()
    _, engine_serving_sound = _commit_epochs(
        engine_state, epochs, _stream_reader(engine, stream, engine_state) if serving else None
    )
    engine_seconds = time.perf_counter() - start

    stats = queue.statistics
    return {
        "workload": workload,
        "views": len(items),
        "updates": len(ops),
        "batch_size": batch_size,
        "epochs": len(epochs),
        "naive_seconds": naive_seconds,
        "engine_seconds": engine_seconds,
        "speedup": _ratio(naive_seconds, engine_seconds),
        "naive_updates_per_second": _ratio(len(ops), naive_seconds),
        "engine_updates_per_second": _ratio(len(ops), engine_seconds),
        # Oracle: every engine-maintained extent must equal a from-scratch
        # re-materialization over the final state.
        "extents_equal": _stored(engine) == _from_scratch(engine, engine_state),
        "naive_extents_equal": _stored(naive) == _from_scratch(naive, naive_state),
        "states_equal": _states_equal(naive_state, engine_state),
        "engine_serving_sound": engine_serving_sound,
        "naive_serving_sound": naive_serving_sound,
        "deltas_seen": stats.deltas_seen,
        "deltas_coalesced": stats.deltas_coalesced,
        "flushes": stats.flushes,
        "objects_touched": stats.objects_touched,
        "views_relevant": stats.views_relevant,
        "views_evaluated": stats.views_evaluated,
        "views_lattice_pruned": stats.views_lattice_pruned,
        "views_skipped_irrelevant": stats.views_skipped_irrelevant,
    }


# ---------------------------------------------------------------------------
# Async maintenance workload (serve-from-generation while flushing behind)
# ---------------------------------------------------------------------------


def run_async_maintenance_workload(
    workload: str = "university",
    *,
    views: int = 32,
    updates: int = 48,
    batch_size: int = 8,
    window: int = 4,
    queries: int = 8,
    seed: int = 0,
    batched_registration: bool = False,
) -> Dict[str, object]:
    """Serve reads under a sustained update stream: sync vs. async flushing.

    Two identical state/catalog pairs process the same mutation stream in
    epochs of ``batch_size``; after every epoch each side answers one query
    from the stream, and the *epoch turnaround* -- time from submitting the
    epoch's mutations to the read being answered -- is sampled:

    * the **sync** side attaches a :class:`MaintenanceQueue`, so the commit
      itself pays the flush before the read can run (the synchronous
      serving model: always fresh, read waits for maintenance);
    * the **async** side attaches an :class:`AsyncMaintainer` with a
      ``window``-epoch coalescing window, so the commit merely enqueues and
      the read is served immediately from the last *published* generation's
      extents, evaluated against that generation's pinned snapshot (bounded
      staleness, never inconsistency).

    The verdicts make the trade executable:

    * ``async_serving_sound`` / ``sync_serving_sound`` -- filtering a query
      through the smallest subsuming view's served extent loses no answers
      *with respect to the generation being served* (the paper's
      view-filter soundness, restated per generation);
    * ``prefix_consistent`` -- every cut :meth:`~AsyncMaintainer.read_extents`
      returned during the run equals the from-scratch refresh of its
      generation (checked post-hoc against per-epoch pinned snapshots);
    * ``drained_equal_sync`` -- after the final ``drain()`` barrier the
      async side's stored extents are byte-identical to the sync side's;
    * ``extents_equal`` / ``states_equal`` -- both equal the from-scratch
      oracle over the final state.
    """
    schema, generator_schema, items, stream, states = _workload_copies(
        workload, views, max(queries, 1), seed, 2
    )
    sync_state, async_state = states
    ops = generate_update_stream(generator_schema, sync_state, updates, seed=seed + 101)
    epochs = [ops[i : i + batch_size] for i in range(0, len(ops), batch_size)]

    clear_shared_decision_cache()
    sync_side = _register(schema, items, sync_state, batched_registration)
    async_side = _register(schema, items, async_state, batched_registration)
    sync_queue = MaintenanceQueue(sync_state, sync_side.catalog)
    maintainer = AsyncMaintainer(async_state, async_side.catalog, window=window)

    # Pre-warm view matching for both sides before any timing: matching
    # shares process-wide decision caches, so whichever timed loop ran
    # first would otherwise pay the cold matches alone and bias the
    # guarded latency ratio toward the side measured second.
    for concept in stream:
        sync_side.subsuming_views_for_concept(concept)
        async_side.subsuming_views_for_concept(concept)

    # -- sync side: the read pays the inline flush -------------------------
    start = time.perf_counter()
    sync_latencies, sync_serving_sound = _commit_epochs(
        sync_state, epochs, _stream_reader(sync_side, stream, sync_state) if stream else None
    )
    sync_seconds = time.perf_counter() - start

    # -- async side: the read is served from the published generation ------
    observed_cuts: List[Tuple[int, Dict[str, frozenset]]] = []
    snapshots = {async_state.generation: async_state.snapshot()}

    def serve_published(index: int) -> bool:
        concept = stream[index % len(stream)]
        # One lock acquisition: the snapshot and the extents must
        # describe the same published generation or the soundness
        # check below would compare across a racing publish.
        serving, extents = maintainer.serving_cut()
        observed_cuts.append((serving.generation, extents))
        return _serve_round(async_side, concept, serving, extents)

    def pin_generation() -> None:
        # setdefault would construct the snapshot eagerly even on a hit.
        if async_state.generation not in snapshots:
            snapshots[async_state.generation] = async_state.snapshot()

    start = time.perf_counter()
    async_latencies, async_serving_sound = _commit_epochs(
        async_state, epochs, serve_published if stream else None, pin_generation
    )
    published_generation = maintainer.drain()
    async_seconds = time.perf_counter() - start
    stats = maintainer.statistics
    maintainer.close()
    sync_queue.close()

    # -- verdicts ----------------------------------------------------------
    oracle_cache: Dict[int, Dict[str, frozenset]] = {}
    prefix_consistent = True
    for generation, extents in observed_cuts:
        if generation not in snapshots:
            prefix_consistent = False
            break
        if generation not in oracle_cache:
            oracle_cache[generation] = _from_scratch(async_side, snapshots[generation])
        prefix_consistent &= extents == oracle_cache[generation]

    return {
        "workload": workload,
        "views": len(items),
        "updates": len(ops),
        "batch_size": batch_size,
        "window": window,
        "epochs": len(epochs),
        "sync_seconds": sync_seconds,
        "async_seconds": async_seconds,
        "sync_p50_latency_ms": _p50_ms(sync_latencies),
        "async_p50_latency_ms": _p50_ms(async_latencies),
        "latency_speedup": _ratio(_p50_ms(sync_latencies), _p50_ms(async_latencies)),
        "published_generation": published_generation,
        "sync_serving_sound": sync_serving_sound,
        "async_serving_sound": async_serving_sound,
        "prefix_consistent": prefix_consistent,
        "drained_equal_sync": _stored(async_side) == _stored(sync_side),
        "extents_equal": _from_scratch(async_side, async_state) == _stored(async_side),
        "states_equal": _states_equal(sync_state, async_state),
        "epochs_enqueued": stats.epochs_enqueued,
        "epochs_coalesced": stats.epochs_coalesced,
        "flushes": stats.flushes,
        "backpressure_waits": stats.backpressure_waits,
        "deltas_seen": stats.deltas_seen,
        "deltas_coalesced": stats.deltas_coalesced,
        "views_evaluated": stats.views_evaluated,
        "views_lattice_pruned": stats.views_lattice_pruned,
        "views_skipped_irrelevant": stats.views_skipped_irrelevant,
    }


def run_durable_maintenance_workload(
    workload: str = "university",
    *,
    views: int = 32,
    updates: int = 48,
    batch_size: int = 8,
    window: int = 4,
    seed: int = 0,
    sync_every: int = 1,
    checkpoint_every: int = 8,
    log_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Durability end to end: fsync cost on commit, recovery cost on restart.

    Three identical state/catalog sides process the same epoch stream:

    * **volatile** -- a plain :class:`AsyncMaintainer` (the volatile async
      tier), the baseline commit cost;
    * **durable** -- a :class:`DurableMaintainer` appending every epoch to
      a write-ahead log (fsync-batched per ``sync_every``) and
      checkpointing every ``checkpoint_every`` commits;
    * **replay-only** -- a second durable side that never checkpoints, so
      its recovery must replay the whole log from genesis.

    After the stream, both WAL directories are recovered into fresh
    catalogs via :meth:`DurableMaintainer.open`, timing each.  The
    verdicts make the robustness claims executable:

    * ``durable_equal_volatile`` -- the WAL never changes what is served:
      after the final drain the durable side's extents are byte-identical
      to the volatile side's;
    * ``recovered_equal_live`` / ``replay_recovered_equal_live`` -- each
      recovered state+extents equal the live side they were logged from
      (cross-process recovery loses nothing that was acknowledged);
    * ``recovery_idempotent`` -- opening the same directory twice lands on
      identical extents;
    * ``durable_sequence_complete`` -- every committed epoch was
      acknowledged durable by the time the stream drained.

    The two headline metrics: ``commit_overhead`` (durable p50 epoch
    latency / volatile p50 -- what fsync-per-``sync_every`` costs) and
    ``recovery_speedup`` (from-genesis replay seconds / checkpoint-based
    seconds -- what checkpoints buy at restart).
    """
    schema, generator_schema, items, _, states = _workload_copies(workload, views, 1, seed, 3)
    volatile_state, durable_state, replay_state = states
    ops = generate_update_stream(generator_schema, volatile_state, updates, seed=seed + 211)
    epochs = [ops[i : i + batch_size] for i in range(0, len(ops), batch_size)]

    clear_shared_decision_cache()
    volatile_side, durable_side, replay_side = [_register(schema, items, side) for side in states]

    root = log_dir or tempfile.mkdtemp(prefix="repro-wal-")
    cleanup = log_dir is None
    checkpoint_dir = os.path.join(root, "checkpointed")
    replay_dir = os.path.join(root, "replay-only")
    volatile = AsyncMaintainer(volatile_state, volatile_side.catalog, window=window)
    durable = DurableMaintainer(
        durable_state,
        durable_side.catalog,
        path=checkpoint_dir,
        sync_every=sync_every,
        checkpoint_every=checkpoint_every,
        window=window,
    )
    replay_writer = DurableMaintainer(
        replay_state,
        replay_side.catalog,
        path=replay_dir,
        sync_every=sync_every,
        checkpoint_every=None,
        window=window,
    )
    # The workload's seeded objects predate the log: a genesis checkpoint
    # makes them recoverable.  The replay-only side keeps exactly this one
    # checkpoint, so its recovery still replays every epoch of the stream.
    durable.checkpoint()
    replay_writer.checkpoint()

    try:
        volatile_latencies, _ = _commit_epochs(volatile_state, epochs)
        durable_latencies, _ = _commit_epochs(durable_state, epochs)
        replay_latencies, _ = _commit_epochs(replay_state, epochs)
        volatile.drain()
        durable.drain()
        replay_writer.drain()

        committed = durable.wal.appended_sequence
        durable.wal.sync()  # flush the last sync_every-batched tail
        durable_sequence_complete = durable.wal.durable_sequence == committed
        durable_equal_volatile = _stored(durable_side) == _stored(volatile_side)
        checkpoints_written = committed // checkpoint_every if checkpoint_every else 0
    finally:
        volatile.close()
        durable.close()
        replay_writer.close()

    def timed_recovery(path: str):
        optimizer = _register(schema, items)
        t0 = time.perf_counter()
        recovered = DurableMaintainer.open(path, generator_schema, optimizer.catalog, window=window)
        seconds = time.perf_counter() - t0
        return recovered, optimizer, seconds

    try:
        recovered, recovered_opt, checkpoint_recovery_seconds = timed_recovery(checkpoint_dir)
        recovered_report = recovered.recovery_report
        recovered_equal_live = _states_equal(durable_state, recovered.state) and (
            _stored(recovered_opt) == _stored(durable_side)
        )
        recovered.kill()

        again, again_opt, _ = timed_recovery(checkpoint_dir)
        recovery_idempotent = _stored(again_opt) == _stored(recovered_opt)
        again.kill()

        replayed, replayed_opt, replay_recovery_seconds = timed_recovery(replay_dir)
        replay_report = replayed.recovery_report
        replay_recovered_equal_live = _states_equal(replay_state, replayed.state) and (
            _stored(replayed_opt) == _stored(replay_side)
        )
        replayed.kill()
    finally:
        if cleanup:
            shutil.rmtree(root, ignore_errors=True)

    return {
        "workload": workload,
        "views": len(items),
        "updates": len(ops),
        "batch_size": batch_size,
        "epochs": len(epochs),
        "window": window,
        "sync_every": sync_every,
        "checkpoint_every": checkpoint_every,
        "volatile_p50_latency_ms": _p50_ms(volatile_latencies),
        "durable_p50_latency_ms": _p50_ms(durable_latencies),
        "replay_p50_latency_ms": _p50_ms(replay_latencies),
        "commit_overhead": _ratio(_p50_ms(durable_latencies), _p50_ms(volatile_latencies)),
        "checkpoint_recovery_seconds": checkpoint_recovery_seconds,
        "replay_recovery_seconds": replay_recovery_seconds,
        "recovery_speedup": _ratio(replay_recovery_seconds, checkpoint_recovery_seconds),
        "checkpoints_written": checkpoints_written,
        "recovered_sequence": recovered_report.recovered_sequence,
        "recovered_checkpoint_sequence": recovered_report.checkpoint_sequence,
        "recovered_replayed_epochs": recovered_report.replayed_epochs,
        "replay_replayed_epochs": replay_report.replayed_epochs,
        "durable_sequence_complete": durable_sequence_complete,
        "durable_equal_volatile": durable_equal_volatile,
        "recovered_equal_live": recovered_equal_live,
        "replay_recovered_equal_live": replay_recovered_equal_live,
        "recovery_idempotent": recovery_idempotent,
    }


def run_commit_fleet_workload(
    workload: str = "university",
    *,
    views: int = 16,
    queries: int = 8,
    writers: int = 4,
    readers: int = 2,
    commits: int = 24,
    sync_every: int = 8,
    checkpoint_every: Optional[int] = None,
    window: int = 4,
    seed: int = 0,
    durable: bool = True,
    log_dir: Optional[str] = None,
    fs=None,
) -> Dict[str, object]:
    """K concurrent writers x M concurrent readers over one durable store.

    Every writer thread runs ``commits`` iterations of: open a
    ``state.batch()``, add one thread-unique object, then block on the
    commit's :class:`~repro.database.commit.CommitTicket` until the
    covering fsync acknowledges it durable (group commit: with
    ``sync_every`` > 1 one fsync typically acknowledges a batch of
    commits from several writers at once).  Reader threads concurrently
    take :meth:`~repro.database.maintenance.AsyncMaintainer.serving_cut`
    snapshots, re-checking view-filter soundness against the pinned
    generation and recording the generation sequence they observed.

    ``durable=False`` runs the same fleet over a plain
    :class:`~repro.database.maintenance.AsyncMaintainer` (no WAL, no
    ACKs) -- the volatile commit-throughput ceiling the durable modes are
    compared against in E14.  ``fs`` overrides the WAL filesystem seam
    (E14 passes a wrapper that models a commodity-disk fsync latency,
    which is exactly the regime group commit exists for).

    Verdicts (the loss/latency contract of the commit pipeline):

    * ``acks_complete`` -- every commit the fleet made was fsync-ACKed by
      the time the writers drained (no ticket stranded);
    * ``no_acked_lost`` -- after killing the maintainer and recovering
      the log directory into a fresh catalog, every ACKed object is
      present and the recovered sequence covers every ACKed ticket;
    * ``recovered_equal_live`` -- the recovered state and extents are
      byte-identical to the live side (everything was ACKed, so nothing
      may be missing);
    * ``reader_generations_monotonic`` -- no reader ever observed the
      serving generation move backwards;
    * ``readers_serving_sound`` -- every reader's view-filtered answers
      equaled the full evaluation over its pinned generation;
    * ``extents_equal`` -- after the final drain the live extents equal
      the from-scratch oracle over the final state.

    Metrics: ``commits_per_second`` (total fleet throughput),
    ``ack_p50_ms``/``ack_p99_ms`` (commit-to-durable-ACK latency),
    ``wal_syncs`` and ``group_acks`` (how much batching one fsync bought).
    """
    schema, generator_schema, items, stream, (state,) = _workload_copies(
        workload, views, max(queries, 1), seed, 1
    )
    classes = sorted(generator_schema.concept_names()) or ["K0"]

    clear_shared_decision_cache()
    side = _register(schema, items, state)
    root = log_dir or (tempfile.mkdtemp(prefix="repro-fleet-") if durable else None)
    cleanup = durable and log_dir is None
    if durable:
        maintainer = DurableMaintainer(
            state,
            side.catalog,
            path=root,
            sync_every=sync_every,
            checkpoint_every=checkpoint_every,
            window=window,
            fs=fs,
        )
        # Genesis checkpoint: the workload's seeded objects predate the log.
        maintainer.checkpoint()
    else:
        maintainer = AsyncMaintainer(state, side.catalog, window=window)

    # Pre-warm view matching so reader soundness checks don't serialize on
    # cold decision-cache misses while the writers are being timed.
    for concept in stream:
        side.subsuming_views_for_concept(concept)

    record_lock = threading.Lock()
    acked: Dict[str, int] = {}
    ack_latencies: List[float] = []
    commit_latencies: List[float] = []
    writer_errors: List[str] = []
    done = threading.Event()

    def writer(thread: int) -> None:
        for index in range(commits):
            obj = f"w{thread}_o{index}"
            t0 = time.perf_counter()
            try:
                with state.batch():
                    state.add_object(obj)
                    state.assert_membership(obj, classes[(thread + index) % len(classes)])
            except Exception as error:  # noqa: BLE001 - recorded as a verdict
                with record_lock:
                    writer_errors.append(f"w{thread}: commit {obj}: {error!r}")
                return
            committed_at = time.perf_counter()
            if not durable:
                with record_lock:
                    commit_latencies.append(committed_at - t0)
                continue
            ticket = state.last_commit_ticket
            if ticket is None or not ticket.wait_durable(timeout=30.0):
                with record_lock:
                    writer_errors.append(f"w{thread}: no durable ACK for {obj}")
                return
            if ticket.error is not None:
                with record_lock:
                    writer_errors.append(f"w{thread}: {obj}: {ticket.error!r}")
                return
            now = time.perf_counter()
            with record_lock:
                acked[obj] = ticket.sequence
                ack_latencies.append(now - committed_at)
                commit_latencies.append(now - t0)

    reader_generations: List[List[int]] = [[] for _ in range(readers)]
    reader_sound: List[bool] = [True] * readers

    def reader(slot: int) -> None:
        rounds = 0
        while not done.is_set():
            serving, extents = maintainer.serving_cut()
            reader_generations[slot].append(serving.generation)
            if stream:
                reader_sound[slot] &= _serve_round(
                    side, stream[rounds % len(stream)], serving, extents
                )
            rounds += 1

    writer_threads = [threading.Thread(target=writer, args=(thread,)) for thread in range(writers)]
    reader_threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(readers)]
    start = time.perf_counter()
    for worker in writer_threads + reader_threads:
        worker.start()
    for worker in writer_threads:
        worker.join()
    wall_seconds = time.perf_counter() - start
    done.set()
    for worker in reader_threads:
        worker.join()

    total_commits = writers * commits
    try:
        maintainer.drain()
        committed_sequence = state.commit_sequence
        if durable:
            acks_complete = (
                not writer_errors
                and len(acked) == total_commits
                and maintainer.wal.durable_sequence >= max(acked.values(), default=0)
            )
            wal_syncs = maintainer.wal.sync_count
            group_acks = maintainer.scheduler.group_acks
        else:
            acks_complete = not writer_errors
            wal_syncs = group_acks = 0
        live_extents = _stored(side)
        extents_equal = live_extents == _from_scratch(side, state)
    finally:
        if durable:
            maintainer.kill()  # no graceful close: recovery must not need one
        else:
            maintainer.close()

    # Crash-and-recover the log: the loss verdict is checked against the
    # ACK set the writers actually collected, not against intent.
    no_acked_lost = True
    recovered_equal_live = True
    recovered_sequence = None
    if durable:
        fresh = _register(schema, items)
        recovered = DurableMaintainer.open(
            root, generator_schema, fresh.catalog, window=window, fs=fs
        )
        try:
            recovered_sequence = recovered.recovery_report.recovered_sequence
            no_acked_lost = recovered_sequence >= max(acked.values(), default=0) and all(
                obj in recovered.state.objects for obj in acked
            )
            recovered_equal_live = _states_equal(state, recovered.state) and (
                _stored(fresh) == live_extents
            )
        finally:
            recovered.kill()
        if cleanup:
            shutil.rmtree(root, ignore_errors=True)

    monotonic = all(
        all(later >= earlier for earlier, later in zip(seen, seen[1:]))
        for seen in reader_generations
    )
    return {
        "workload": workload,
        "views": len(items),
        "writers": writers,
        "readers": readers,
        "commits_per_writer": commits,
        "total_commits": total_commits,
        "sync_every": sync_every if durable else None,
        "checkpoint_every": checkpoint_every if durable else None,
        "durable": durable,
        "wall_seconds": wall_seconds,
        "commits_per_second": _ratio(total_commits, wall_seconds),
        "commit_p50_ms": _percentile_ms(commit_latencies, 0.50),
        "ack_p50_ms": _percentile_ms(ack_latencies, 0.50),
        "ack_p99_ms": _percentile_ms(ack_latencies, 0.99),
        "acked_commits": len(acked),
        "committed_sequence": committed_sequence,
        "recovered_sequence": recovered_sequence,
        "wal_syncs": wal_syncs,
        "group_acks": group_acks,
        "reader_cuts": sum(len(seen) for seen in reader_generations),
        "writer_errors": writer_errors,
        "acks_complete": acks_complete,
        "no_acked_lost": no_acked_lost,
        "recovered_equal_live": recovered_equal_live,
        "reader_generations_monotonic": monotonic,
        "readers_serving_sound": all(reader_sound),
        "extents_equal": extents_equal,
    }


# ---------------------------------------------------------------------------
# Multi-process serving fleets: the primary (parent) and the forked children
# ---------------------------------------------------------------------------


def _fork_context(scenario: str):
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        raise RuntimeError(
            f"{scenario} requires the fork start method "
            "(interned concept ids are per fork family)"
        )
    return multiprocessing.get_context("fork")


def _start_servers(state, optimizer, tail_limit: int, shared_cache: bool, wiring=None):
    """``(replica server, cache server or None)`` for the primary, on localhost.

    ``wiring`` -- the addresses a previous pair served on, which the
    children already hold -- restarts the servers on the same ports.
    """
    from ..database.cacheserver import DecisionCacheServer
    from ..database.replica import ReplicaServer

    replica_port = wiring["replica_address"][1] if wiring else 0
    cache_port = wiring["cache_address"][1] if wiring and shared_cache else 0
    cache_server = DecisionCacheServer(port=cache_port).start() if shared_cache else None
    replica_server = ReplicaServer(
        state, optimizer.catalog, port=replica_port, tail_limit=tail_limit
    ).start()
    return replica_server, cache_server


def _close_servers(replica_server, cache_server) -> None:
    replica_server.close()
    if cache_server is not None:
        cache_server.close()


def _warm_shared_cache(optimizer, stream, cache_server):
    """Warm the shared cache with the stream's decisions: ``(namespace, sets)``.

    Without a cache server there is nothing to warm: ``(None, 0)``.
    """
    if cache_server is None:
        return None, 0
    from ..core.checker import SubsumptionChecker
    from ..database.cacheserver import RemoteDecisionCache, cache_namespace

    namespace = cache_namespace(optimizer.sl_schema, optimizer.catalog)
    warm_remote = RemoteDecisionCache(cache_server.address, namespace)
    # Publish the stream's decisions from a cold checker: only full
    # completions are written behind, so a pre-memoized checker would
    # publish nothing for the children to hit.
    clear_shared_decision_cache()
    ShardedMatcher(
        SubsumptionChecker(optimizer.sl_schema, remote=warm_remote),
        optimizer.catalog,
        shards=1,
        backend="serial",
    ).match_batch(stream)
    sets = warm_remote.sets
    warm_remote.close()
    return namespace, sets


def _commit_with_history(state: DatabaseState, ops, history: Dict[int, object]) -> None:
    """Apply ``ops`` one commit at a time, snapshotting every committed generation."""
    for op in ops:
        apply_update(state, op)
        history[state.generation] = state.snapshot()
        time.sleep(0.002)


def _collect(children, results, start: float):
    summaries = [results.get(timeout=120.0) for _ in children]
    wall_seconds = time.perf_counter() - start
    for child in children:
        child.join(timeout=30.0)
    return summaries, wall_seconds


def _judge_serves(summaries, history, stream):
    """``(child errors, wrong answers, every served generation known)``.

    Each child-served answer is compared with the from-scratch evaluation
    of its query over the parent's snapshot of exactly the generation the
    child pinned -- children measure, the parent judges.
    """
    from ..database.query_eval import QueryEvaluator

    child_errors = [error for summary in summaries for error in summary["errors"]]
    evaluator = QueryEvaluator(None)
    answer_cache: Dict[Tuple[int, int], List[str]] = {}
    wrong_answers = 0
    generations_known = True
    for summary in summaries:
        for index, generation, answers in summary["serves"]:
            pinned = history.get(generation)
            if pinned is None:
                generations_known = False
                continue
            key = (index, generation)
            if key not in answer_cache:
                answer_cache[key] = sorted(evaluator.concept_answers(stream[index], pinned))
            wrong_answers += answers != answer_cache[key]
    return child_errors, wrong_answers, generations_known


def _run_child(slot: int, summary, results, wiring, config, serve) -> None:
    """The frame every forked serving child runs in: connect, serve, report.

    Connects a :class:`~repro.database.replica.SnapshotReplica` to the
    addresses ``wiring()`` returns -- plus the shared remote decision
    cache when one is configured -- and runs ``serve(replica, remote)``.
    Whatever happens, the connections are closed and ``summary`` (with any
    error recorded in it) goes back to the parent on ``results``.
    """
    from ..database.cacheserver import RemoteDecisionCache
    from ..database.replica import SnapshotReplica

    remote = None
    replica = None
    try:
        # Fork inherits the parent's warm in-process decision cache; clear
        # it so cross-process traffic actually reaches the remote tier.
        clear_shared_decision_cache()
        addresses = wiring()
        if addresses["cache_address"] is not None:
            remote = RemoteDecisionCache(
                addresses["cache_address"], addresses["namespace"], **config["cache_options"]
            )
        replica = SnapshotReplica(
            addresses["replica_address"],
            staleness_bound=config["staleness_bound"],
            remote=remote,
            **config["replica_options"],
        ).connect()
        serve(replica, remote)
    except Exception as error:  # noqa: BLE001 - shipped back as a verdict
        summary["errors"].append(f"p{slot}: {error!r}")
    finally:
        if replica is not None:
            replica.close()
        if remote is not None:
            remote.close()
        results.put(summary)


def _serve_fleet_child(slot: int, config: Dict[str, object], results) -> None:
    """One forked serving process of the ``serve-fleet`` scenario.

    Connects a :class:`~repro.database.replica.SnapshotReplica` (plus the
    shared remote decision cache when configured), then runs ``rounds``
    rounds of: catch up within the staleness bound, serve every stream
    query across ``clients`` threads, and record per-query latency and
    the generation each answer was pinned to.  The full serve log goes
    back to the parent for verification against its generation history --
    children measure, the parent judges.
    """
    summary: Dict[str, object] = {
        "slot": slot,
        "serves": [],
        "latencies": [],
        "remote_hits": 0,
        "remote_misses": 0,
        "max_lag": 0,
        "snapshot_loads": 0,
        "epochs_applied": 0,
        "errors": [],
    }
    stream = config["stream"]
    clients = config["clients"]
    lock = threading.Lock()

    def serve(replica, remote) -> None:
        def client(indices) -> None:
            for index in indices:
                t0 = time.perf_counter()
                answers, generation = replica.answer_concept(stream[index])
                elapsed = time.perf_counter() - t0
                with lock:
                    summary["latencies"].append(elapsed)
                    summary["serves"].append((index, generation, sorted(answers)))

        for _ in range(config["rounds"]):
            lag = replica.ensure_fresh()
            summary["max_lag"] = max(summary["max_lag"], lag)
            threads = [
                threading.Thread(target=client, args=(range(shard, len(stream), clients),))
                for shard in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        summary["snapshot_loads"] = replica.snapshot_loads
        summary["epochs_applied"] = replica.epochs_applied
        if remote is not None:
            summary["remote_hits"] = remote.hits
            summary["remote_misses"] = remote.misses

    _run_child(slot, summary, results, lambda: config, config, serve)


def run_serve_fleet_workload(
    workload: str = "university",
    *,
    views: int = 16,
    queries: int = 8,
    processes: int = 2,
    clients: int = 4,
    rounds: int = 3,
    updates: int = 24,
    staleness_bound: int = 8,
    tail_limit: int = 64,
    shared_cache: bool = True,
    seed: int = 0,
) -> Dict[str, object]:
    """K serving processes x M concurrent clients over the serving fabric.

    The parent owns the primary: it registers the catalog, starts a
    :class:`~repro.database.replica.ReplicaServer` and (with
    ``shared_cache``) a :class:`~repro.database.cacheserver.DecisionCacheServer`
    whose namespace it warms with the stream's subsumption decisions, then
    forks ``processes`` serving processes (fork is required: interned
    concept ids are only meaningful within one fork family).  While the
    children serve, the parent applies an ``updates``-long mutation stream
    against the primary, snapshotting **every committed generation** into
    a history.  Each child connects a
    :class:`~repro.database.replica.SnapshotReplica` (with the shared
    remote cache behind its checker) and runs ``rounds`` rounds of
    catch-up-then-serve across ``clients`` threads, logging every answer
    with the generation it was pinned to.

    Verdicts:

    * ``answers_match_spec`` -- every child-served answer equals the
      from-scratch evaluation over the parent's snapshot of exactly the
      generation the child reported (prefix consistency across process
      boundaries);
    * ``staleness_bound_honored`` -- every post-catch-up lag was within
      ``staleness_bound`` and every served generation is one the primary
      actually committed;
    * ``cache_hits_observed`` -- with ``shared_cache``, the fleet's
      remote hit count is positive (the processes actually shared
      decisions instead of each completing from scratch);
    * ``no_child_errors``.

    Metrics: ``query_p50_ms``/``query_p99_ms`` (per-answer latency across
    the whole fleet), ``queries_per_second``, ``cache_hit_rate``,
    ``snapshot_loads`` and ``epochs_applied`` (how the replicas kept up).
    """
    context = _fork_context("serve-fleet")
    schema, generator_schema, items, stream, (state,) = _workload_copies(
        workload, views, max(queries, 1), seed, 1
    )
    optimizer = _register(schema, items)

    replica_server, cache_server = _start_servers(state, optimizer, tail_limit, shared_cache)
    try:
        namespace, warm_sets = _warm_shared_cache(optimizer, stream, cache_server)
        results = context.Queue()
        config = {
            "cache_address": cache_server.address if cache_server else None,
            "namespace": namespace,
            "replica_address": replica_server.address,
            "staleness_bound": staleness_bound,
            "cache_options": {},
            "replica_options": {},
            "stream": stream,
            "clients": clients,
            "rounds": rounds,
        }
        children = [
            context.Process(target=_serve_fleet_child, args=(slot, config, results))
            for slot in range(processes)
        ]
        history = {state.generation: state.snapshot()}
        start = time.perf_counter()
        for child in children:
            child.start()

        # The primary mutates while the fleet serves; every committed
        # generation is snapshotted so any answer the children pin can be
        # re-derived from scratch.
        ops = generate_update_stream(generator_schema, state, updates, seed + 21)
        _commit_with_history(state, ops, history)
        summaries, wall_seconds = _collect(children, results, start)
    finally:
        _close_servers(replica_server, cache_server)

    child_errors, wrong_answers, generations_known = _judge_serves(summaries, history, stream)
    latencies = [latency for summary in summaries for latency in summary["latencies"]]
    total_serves = len(latencies)
    remote_hits = sum(summary["remote_hits"] for summary in summaries)
    remote_misses = sum(summary["remote_misses"] for summary in summaries)
    max_lag = max((summary["max_lag"] for summary in summaries), default=0)
    return {
        "workload": workload,
        "views": len(items),
        "queries": len(stream),
        "processes": processes,
        "clients": clients,
        "rounds": rounds,
        "updates": updates,
        "staleness_bound": staleness_bound,
        "tail_limit": tail_limit,
        "shared_cache": shared_cache,
        "wall_seconds": wall_seconds,
        "total_serves": total_serves,
        "queries_per_second": _ratio(total_serves, wall_seconds),
        "query_p50_ms": _percentile_ms(latencies, 0.50),
        "query_p99_ms": _percentile_ms(latencies, 0.99),
        "query_mean_ms": _ratio(1e3 * sum(latencies), total_serves),
        "warm_cache_sets": warm_sets,
        "remote_hits": remote_hits,
        "remote_misses": remote_misses,
        "cache_hit_rate": _ratio(remote_hits, remote_hits + remote_misses),
        "max_post_catchup_lag": max_lag,
        "snapshot_loads": sum(summary["snapshot_loads"] for summary in summaries),
        "epochs_applied": sum(summary["epochs_applied"] for summary in summaries),
        "committed_generations": len(history),
        "child_errors": child_errors,
        "answers_match_spec": generations_known and wrong_answers == 0,
        "staleness_bound_honored": generations_known and max_lag <= staleness_bound,
        "cache_hits_observed": (not shared_cache) or remote_hits > 0,
        "no_child_errors": not child_errors,
    }


def _serve_chaos_child(
    slot: int, config: Dict[str, object], addresses, barrier, stop, results
) -> None:
    """One forked self-healing serving process of the ``serve-chaos`` scenario.

    Connects a :class:`~repro.database.replica.SnapshotReplica` (plus the
    shared remote cache when configured), signals readiness on the
    barrier, then serves rounds **through the parent's induced outages**:
    an unreachable primary flips the replica into degraded serving (pinned
    answers, typed status) instead of erroring, and a dead cache degrades
    to local completion.  After the serve rounds the child re-converges on
    the restarted primary and reports when it first got fully fresh
    again.  Every serve is logged with its pinned generation so the
    parent can re-derive it from scratch -- children measure, the parent
    judges.
    """
    summary: Dict[str, object] = {
        "slot": slot,
        "serves": [],
        "attempted": 0,
        "answered": 0,
        "degraded_serves": 0,
        "degraded_rounds": 0,
        "reconnects": 0,
        "snapshot_loads": 0,
        "recovered_at": None,
        "errors": [],
    }

    def serve(replica, remote) -> None:
        barrier.wait(timeout=30.0)
        stream = config["stream"]
        rounds_done = 0
        # A hard wall-clock ceiling so an orphaned child (parent died,
        # stop never set) cannot serve forever.
        hard_deadline = time.time() + config["lifetime_budget"]
        # Serve at least ``rounds`` rounds AND keep serving until the
        # parent's stop flag -- set only after the restarted servers are
        # back -- so the serving loop is guaranteed to span the outage.
        while (rounds_done < config["rounds"] or not stop.is_set()) and time.time() < hard_deadline:
            rounds_done += 1
            degraded = False
            round_ok = True
            try:
                replica.ensure_fresh()
                degraded = replica.degraded
            except Exception:  # noqa: BLE001 - the round serves pinned anyway
                round_ok = False
                degraded = True
            if degraded:
                summary["degraded_rounds"] += 1
            for index in range(len(stream)):
                summary["attempted"] += 1
                try:
                    answers, generation = replica.answer_concept(stream[index])
                except Exception as error:  # noqa: BLE001 - an availability miss
                    if round_ok:
                        summary["errors"].append(f"p{slot}: serve: {error!r}")
                    continue
                summary["answered"] += 1
                if degraded:
                    summary["degraded_serves"] += 1
                summary["serves"].append((index, generation, sorted(answers)))
            time.sleep(config["round_pause"])
        # Re-converge on the (restarted) primary: the recovery clock stops
        # at the first fully fresh exchange.
        deadline = time.time() + config["recovery_budget"]
        while time.time() < deadline:
            try:
                lag = replica.ensure_fresh(0)
            except Exception:  # noqa: BLE001 - primary still coming back
                time.sleep(0.02)
                continue
            if not replica.degraded and lag == 0:
                summary["recovered_at"] = time.time()
                break
            time.sleep(0.02)
        summary["reconnects"] = replica.reconnects
        summary["snapshot_loads"] = replica.snapshot_loads

    # The parent forks children *before* binding any server socket (an
    # inherited listener fd would keep the port bound through the
    # restart), so the addresses arrive over a queue once the servers are
    # up.
    _run_child(slot, summary, results, lambda: addresses.get(timeout=30.0), config, serve)


def run_serve_chaos_workload(
    workload: str = "university",
    *,
    views: int = 16,
    queries: int = 8,
    processes: int = 2,
    rounds: int = 10,
    updates: int = 24,
    staleness_bound: int = 8,
    tail_limit: int = 64,
    shared_cache: bool = True,
    outage_seconds: float = 0.4,
    seed: int = 0,
) -> Dict[str, object]:
    """The serve-fleet fabric under induced primary and cache outages.

    Same topology as ``serve-fleet`` -- a primary with a
    :class:`~repro.database.replica.ReplicaServer`, an optional shared
    :class:`~repro.database.cacheserver.DecisionCacheServer`, ``processes``
    forked serving children -- but mid-run the parent **kills both
    servers** (every connection drops, the ports go dark), keeps mutating
    the primary, and restarts the servers on the same ports after
    ``outage_seconds``.  The children are expected to self-heal: serve
    their pinned generation while degraded, re-dial through the fault
    policy, and re-converge on the restarted primary.

    Verdicts:

    * ``no_wrong_answers`` -- every answer served, degraded or not,
      equals the from-scratch evaluation of its pinned generation
      (chaos may cost freshness, never correctness);
    * ``available_through_outage`` -- the fleet answered at least 95% of
      attempted serves across the whole run, outage included;
    * ``all_children_recovered`` -- every child reached a fully fresh
      exchange against the restarted primary within its recovery budget;
    * ``no_child_errors``.

    Metrics: ``availability`` (answered/attempted), ``wrong_answers``,
    ``recovery_seconds`` (worst child, from primary restart to its first
    fully fresh exchange), ``degraded_serves``, ``reconnects``.
    """
    context = _fork_context("serve-chaos")
    schema, generator_schema, items, stream, (state,) = _workload_copies(
        workload, views, max(queries, 1), seed, 1
    )
    optimizer = _register(schema, items)

    # Fork the children BEFORE any server socket exists: a forked child
    # inherits every open fd, and an inherited listener would keep the
    # port bound after the parent closes it -- the restart-on-same-port
    # leg would then fail with EADDRINUSE.  The children learn the server
    # addresses over a queue instead.
    results = context.Queue()
    addresses = context.Queue()
    barrier = context.Barrier(processes + 1)
    stop = context.Event()
    config = {
        "staleness_bound": staleness_bound,
        "cache_options": {"timeout": 1.0},
        "replica_options": {"timeout": 2.0},
        "stream": stream,
        "rounds": rounds,
        "round_pause": 0.03,
        "recovery_budget": 20.0,
        "lifetime_budget": 120.0,
    }
    children = [
        context.Process(
            target=_serve_chaos_child,
            args=(slot, config, addresses, barrier, stop, results),
            daemon=True,
        )
        for slot in range(processes)
    ]
    for child in children:
        child.start()

    replica_server, cache_server = _start_servers(state, optimizer, tail_limit, shared_cache)
    wiring = {
        "cache_address": cache_server.address if cache_server else None,
        "namespace": None,
        "replica_address": replica_server.address,
    }
    try:
        wiring["namespace"], _ = _warm_shared_cache(optimizer, stream, cache_server)
        for _ in children:
            addresses.put(wiring)
        history = {state.generation: state.snapshot()}
        barrier.wait(timeout=30.0)  # every child connected before the chaos

        start = time.perf_counter()
        ops = list(generate_update_stream(generator_schema, state, updates, seed + 21))
        half = len(ops) // 2
        _commit_with_history(state, ops[:half], history)

        # The outage: both serving ports go dark, live connections die.
        _close_servers(replica_server, cache_server)
        # The primary itself keeps committing through the outage -- the
        # restarted replica server must ship the children everything they
        # missed.
        _commit_with_history(state, ops[half:], history)
        time.sleep(outage_seconds)

        # Restart on the same ports (the addresses the children hold).
        replica_server, cache_server = _start_servers(
            state, optimizer, tail_limit, shared_cache, wiring
        )
        restart_time = time.time()
        stop.set()  # the chaos window is over; children may wind down
        summaries, wall_seconds = _collect(children, results, start)
    finally:
        stop.set()  # never leave children looping after a parent error
        _close_servers(replica_server, cache_server)

    child_errors, wrong_answers, generations_known = _judge_serves(summaries, history, stream)
    attempted = sum(summary["attempted"] for summary in summaries)
    answered = sum(summary["answered"] for summary in summaries)
    availability = answered / attempted if attempted else 0.0
    recovery_times = [
        max(0.0, summary["recovered_at"] - restart_time)
        for summary in summaries
        if summary["recovered_at"] is not None
    ]
    return {
        "workload": workload,
        "views": len(items),
        "queries": len(stream),
        "processes": processes,
        "rounds": rounds,
        "updates": updates,
        "staleness_bound": staleness_bound,
        "tail_limit": tail_limit,
        "shared_cache": shared_cache,
        "outage_seconds": outage_seconds,
        "wall_seconds": wall_seconds,
        "attempted_serves": attempted,
        "answered_serves": answered,
        "availability": availability,
        "wrong_answers": wrong_answers,
        "degraded_serves": sum(summary["degraded_serves"] for summary in summaries),
        "degraded_rounds": sum(summary["degraded_rounds"] for summary in summaries),
        "reconnects": sum(summary["reconnects"] for summary in summaries),
        "snapshot_loads": sum(summary["snapshot_loads"] for summary in summaries),
        "recovery_seconds": max(recovery_times) if recovery_times else None,
        "committed_generations": len(history),
        "child_errors": child_errors,
        "no_wrong_answers": generations_known and wrong_answers == 0,
        "available_through_outage": availability >= 0.95,
        "all_children_recovered": len(recovery_times) == len(summaries),
        "no_child_errors": not child_errors,
    }


# ---------------------------------------------------------------------------
# The scenario table and the command line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One workload scenario, declared once for the CLI, the benches and the tests."""

    #: The ``run_*_workload`` function; the workload is its one positional argument.
    runner: Callable[..., Dict[str, object]]
    #: The parsed command-line options :func:`main` forwards as keywords.
    options: Tuple[str, ...]
    #: Report keys that must all be true for the scenario to exit 0.
    verdicts: Tuple[str, ...]
    #: The scenario's entry in ``--scenario``'s help text.
    help: str


SCENARIOS: Dict[str, Scenario] = {
    "serve": Scenario(
        run_batch_workload,
        ("views", "queries", "shards", "backend", "seed"),
        ("catalog_equal", "matches_equal", "plans_equal", "answers_sound"),
        "batched register+match",
    ),
    "maintain": Scenario(
        run_maintenance_workload,
        ("views", "updates", "batch_size", "queries", "seed"),
        ("extents_equal", "states_equal", "engine_serving_sound"),
        "update-heavy maintenance",
    ),
    "maintain-async": Scenario(
        run_async_maintenance_workload,
        ("views", "updates", "batch_size", "window", "queries", "seed"),
        (
            "prefix_consistent",
            "drained_equal_sync",
            "extents_equal",
            "states_equal",
            "async_serving_sound",
            "sync_serving_sound",
        ),
        "serve-from-generation async flushes",
    ),
    "maintain-durable": Scenario(
        run_durable_maintenance_workload,
        ("views", "updates", "batch_size", "window", "seed", "sync_every", "checkpoint_every"),
        (
            "durable_sequence_complete",
            "durable_equal_volatile",
            "recovered_equal_live",
            "replay_recovered_equal_live",
            "recovery_idempotent",
        ),
        "write-ahead-logged commits with crash recovery",
    ),
    # --checkpoint-every is not forwarded: the fleet keeps its runner's
    # default (no periodic checkpoints), not the flag's default of 8.
    "commit-fleet": Scenario(
        run_commit_fleet_workload,
        ("views", "queries", "writers", "readers", "commits", "sync_every", "seed"),
        (
            "acks_complete",
            "no_acked_lost",
            "recovered_equal_live",
            "reader_generations_monotonic",
            "readers_serving_sound",
            "extents_equal",
        ),
        "K concurrent writers x M readers with group-commit fsync ACKs and a loss verdict",
    ),
    "serve-fleet": Scenario(
        run_serve_fleet_workload,
        (
            "views",
            "queries",
            "processes",
            "clients",
            "rounds",
            "updates",
            "staleness_bound",
            "shared_cache",
            "seed",
        ),
        ("answers_match_spec", "staleness_bound_honored", "cache_hits_observed", "no_child_errors"),
        "K forked serving processes x M client threads over the shared-cache + "
        "snapshot-replica fabric",
    ),
    "serve-chaos": Scenario(
        run_serve_chaos_workload,
        (
            "views",
            "queries",
            "processes",
            "rounds",
            "updates",
            "staleness_bound",
            "shared_cache",
            "outage_seconds",
            "seed",
        ),
        (
            "no_wrong_answers",
            "available_through_outage",
            "all_children_recovered",
            "no_child_errors",
        ),
        "the serve-fleet fabric under induced server outages, with availability / "
        "wrong-answer / recovery verdicts",
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        default="serve",
        choices=tuple(SCENARIOS),
        help="; ".join(f"{name}: {scenario.help}" for name, scenario in SCENARIOS.items()),
    )
    parser.add_argument(
        "--workload",
        default="university",
        choices=("university", "trading", "synthetic"),
    )
    parser.add_argument("--views", type=int, default=32)
    parser.add_argument("--queries", type=int, default=16)
    parser.add_argument("--updates", type=int, default=48)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--window", type=int, default=4)
    parser.add_argument(
        "--shards", type=int, default=2, help="matcher shards (batch scenario only)"
    )
    parser.add_argument("--backend", default="thread", help="shard backend (batch scenario only)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sync-every", type=int, default=1)
    parser.add_argument("--checkpoint-every", type=int, default=8)
    parser.add_argument("--writers", type=int, default=4)
    parser.add_argument("--readers", type=int, default=2)
    parser.add_argument("--commits", type=int, default=24)
    parser.add_argument("--processes", type=int, default=2)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--staleness-bound", type=int, default=8)
    parser.add_argument("--no-shared-cache", action="store_true")
    parser.add_argument("--outage-seconds", type=float, default=0.4)
    options = vars(parser.parse_args(argv))
    options["shared_cache"] = not options.pop("no_shared_cache")
    scenario = SCENARIOS[options["scenario"]]
    report = scenario.runner(
        options["workload"], **{name: options[name] for name in scenario.options}
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if all(report[verdict] for verdict in scenario.verdicts) else 1


if __name__ == "__main__":
    raise SystemExit(main())
