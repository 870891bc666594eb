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
from statistics import median
from typing import Dict, List, Optional, Tuple

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
    stream = generate_matching_queries(
        generator_schema, catalog, queries, seed=seed + views * 17
    )
    return optimizer_schema, state, catalog, stream


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
        batched.catalog.lattice.parents_of(name)
        == sequential.catalog.lattice.parents_of(name)
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
    matcher = ShardedMatcher(
        batched.checker, batched.catalog, shards=shards, backend=backend
    )
    start = time.perf_counter()
    batch_matches = [
        [view.name for view in views_] for views_ in matcher.match_batch(stream)
    ]
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
        outcomes = batched.answer_batch(
            declared_queries, state, shards=shards, backend=backend
        )
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
        "register_speedup": (
            sequential_register_seconds / batch_register_seconds
            if batch_register_seconds
            else None
        ),
        "sequential_match_seconds": sequential_match_seconds,
        "batch_match_seconds": batch_match_seconds,
        "match_speedup": (
            sequential_match_seconds / batch_match_seconds
            if batch_match_seconds
            else None
        ),
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
    candidates = (
        best.stored_extent if extents is None else extents.get(best.name, frozenset())
    )
    filtered = optimizer.evaluator.concept_answers(concept, source, candidates=candidates)
    return filtered == full


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
    schema, naive_state, catalog_concepts, stream = batch_workload_setup(
        workload, views, max(queries, 1), seed
    )
    _, engine_state, _, _ = batch_workload_setup(workload, views, max(queries, 1), seed)
    items = list(catalog_concepts.items())
    generator_schema = schema_to_sl(schema) if isinstance(schema, DLSchema) else schema
    ops = generate_update_stream(
        generator_schema, naive_state, updates, seed=seed + 101
    )
    epochs = [ops[i : i + batch_size] for i in range(0, len(ops), batch_size)]

    # Registration is setup, not what this scenario measures: clear the
    # process-wide caches once, then let the second catalog classify
    # cache-hot (optionally through the PR 3 batch path for large catalogs).
    clear_shared_decision_cache()

    def build_side(side_state: DatabaseState) -> SemanticQueryOptimizer:
        optimizer = SemanticQueryOptimizer(schema, lattice=True)
        if batched_registration:
            optimizer.register_views_batch(items)
        else:
            for name, concept in items:
                optimizer.register_view_concept(name, concept)
        optimizer.catalog.refresh_all(side_state)
        return optimizer

    naive = build_side(naive_state)
    engine = build_side(engine_state)
    queue = MaintenanceQueue(engine_state, engine.catalog)

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
        if serve and stream:
            naive_serving_sound &= _serve_round(
                naive, stream[index % len(stream)], naive_state
            )
    naive_seconds = time.perf_counter() - start

    engine_serving_sound = True
    start = time.perf_counter()
    for index, epoch in enumerate(epochs):
        with engine_state.batch():
            for op in epoch:
                apply_update(engine_state, op)
        if serve and stream:
            engine_serving_sound &= _serve_round(
                engine, stream[index % len(stream)], engine_state
            )
    engine_seconds = time.perf_counter() - start

    # Oracle: every engine-maintained extent must equal a from-scratch
    # re-materialization over the final state.
    oracle_equal = all(
        view.stored_extent
        == engine.evaluator.concept_answers(view.concept, engine_state)
        for view in engine.catalog
    )
    naive_equal = all(
        view.stored_extent
        == naive.evaluator.concept_answers(view.concept, naive_state)
        for view in naive.catalog
    )
    states_equal = (
        naive_state.objects == engine_state.objects
        and all(
            naive_state.extent(name) == engine_state.extent(name)
            for name in naive_state.classes()
        )
    )
    stats = queue.statistics
    return {
        "workload": workload,
        "views": len(items),
        "updates": len(ops),
        "batch_size": batch_size,
        "epochs": len(epochs),
        "naive_seconds": naive_seconds,
        "engine_seconds": engine_seconds,
        "speedup": (naive_seconds / engine_seconds) if engine_seconds else None,
        "naive_updates_per_second": len(ops) / naive_seconds if naive_seconds else None,
        "engine_updates_per_second": (
            len(ops) / engine_seconds if engine_seconds else None
        ),
        "extents_equal": oracle_equal,
        "naive_extents_equal": naive_equal,
        "states_equal": states_equal,
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
      itself pays the flush before the read can run (the PR 4 serving
      model: always fresh, read waits for maintenance);
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
    schema, sync_state, catalog_concepts, stream = batch_workload_setup(
        workload, views, max(queries, 1), seed
    )
    _, async_state, _, _ = batch_workload_setup(workload, views, max(queries, 1), seed)
    items = list(catalog_concepts.items())
    generator_schema = schema_to_sl(schema) if isinstance(schema, DLSchema) else schema
    ops = generate_update_stream(generator_schema, sync_state, updates, seed=seed + 101)
    epochs = [ops[i : i + batch_size] for i in range(0, len(ops), batch_size)]

    clear_shared_decision_cache()

    def build_side(side_state: DatabaseState) -> SemanticQueryOptimizer:
        optimizer = SemanticQueryOptimizer(schema, lattice=True)
        if batched_registration:
            optimizer.register_views_batch(items)
        else:
            for name, concept in items:
                optimizer.register_view_concept(name, concept)
        optimizer.catalog.refresh_all(side_state)
        return optimizer

    sync_side = build_side(sync_state)
    async_side = build_side(async_state)
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
    sync_latencies: List[float] = []
    sync_serving_sound = True
    start = time.perf_counter()
    for index, epoch in enumerate(epochs):
        t0 = time.perf_counter()
        with sync_state.batch():
            for op in epoch:
                apply_update(sync_state, op)
        if stream:
            sync_serving_sound &= _serve_round(
                sync_side, stream[index % len(stream)], sync_state
            )
        sync_latencies.append(time.perf_counter() - t0)
    sync_seconds = time.perf_counter() - start

    # -- async side: the read is served from the published generation ------
    async_latencies: List[float] = []
    async_serving_sound = True
    observed_cuts: List[Tuple[int, Dict[str, frozenset]]] = []
    snapshots = {async_state.generation: async_state.snapshot()}
    start = time.perf_counter()
    for index, epoch in enumerate(epochs):
        t0 = time.perf_counter()
        with async_state.batch():
            for op in epoch:
                apply_update(async_state, op)
        if stream:
            concept = stream[index % len(stream)]
            # One lock acquisition: the snapshot and the extents must
            # describe the same published generation or the soundness
            # check below would compare across a racing publish.
            serving, extents = maintainer.serving_cut()
            observed_cuts.append((serving.generation, extents))
            async_serving_sound &= _serve_round(
                async_side, concept, serving, extents
            )
        async_latencies.append(time.perf_counter() - t0)
        # setdefault would construct the snapshot eagerly even on a hit.
        if async_state.generation not in snapshots:
            snapshots[async_state.generation] = async_state.snapshot()
    published_generation = maintainer.drain()
    async_seconds = time.perf_counter() - start
    stats = maintainer.statistics
    maintainer.close()
    sync_queue.close()

    # -- verdicts ----------------------------------------------------------
    def from_scratch(optimizer, source):
        return {
            view.name: optimizer.evaluator.concept_answers(view.concept, source)
            for view in optimizer.catalog
        }

    oracle_cache: Dict[int, Dict[str, frozenset]] = {}
    prefix_consistent = True
    for generation, extents in observed_cuts:
        if generation not in snapshots:
            prefix_consistent = False
            break
        if generation not in oracle_cache:
            oracle_cache[generation] = from_scratch(async_side, snapshots[generation])
        prefix_consistent &= extents == oracle_cache[generation]

    drained_equal_sync = all(
        async_side.catalog.get(name).stored_extent
        == sync_side.catalog.get(name).stored_extent
        for name in sync_side.catalog.names()
    )
    extents_equal = (
        from_scratch(async_side, async_state)
        == {view.name: view.stored_extent for view in async_side.catalog}
    )
    states_equal = sync_state.objects == async_state.objects and all(
        sync_state.extent(name) == async_state.extent(name)
        for name in sync_state.classes()
    )

    return {
        "workload": workload,
        "views": len(items),
        "updates": len(ops),
        "batch_size": batch_size,
        "window": window,
        "epochs": len(epochs),
        "sync_seconds": sync_seconds,
        "async_seconds": async_seconds,
        "sync_p50_latency_ms": 1e3 * median(sync_latencies) if sync_latencies else None,
        "async_p50_latency_ms": (
            1e3 * median(async_latencies) if async_latencies else None
        ),
        "latency_speedup": (
            median(sync_latencies) / median(async_latencies)
            if async_latencies and median(async_latencies)
            else None
        ),
        "published_generation": published_generation,
        "sync_serving_sound": sync_serving_sound,
        "async_serving_sound": async_serving_sound,
        "prefix_consistent": prefix_consistent,
        "drained_equal_sync": drained_equal_sync,
        "extents_equal": extents_equal,
        "states_equal": states_equal,
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

    * **volatile** -- a plain :class:`AsyncMaintainer` (the PR 5 tier), the
      baseline commit cost;
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
    schema, volatile_state, catalog_concepts, _ = batch_workload_setup(
        workload, views, 1, seed
    )
    _, durable_state, _, _ = batch_workload_setup(workload, views, 1, seed)
    _, replay_state, _, _ = batch_workload_setup(workload, views, 1, seed)
    items = list(catalog_concepts.items())
    generator_schema = schema_to_sl(schema) if isinstance(schema, DLSchema) else schema
    ops = generate_update_stream(
        generator_schema, volatile_state, updates, seed=seed + 211
    )
    epochs = [ops[i : i + batch_size] for i in range(0, len(ops), batch_size)]

    clear_shared_decision_cache()

    def build_side(side_state: Optional[DatabaseState]) -> SemanticQueryOptimizer:
        optimizer = SemanticQueryOptimizer(schema, lattice=True)
        for name, concept in items:
            optimizer.register_view_concept(name, concept)
        if side_state is not None:
            optimizer.catalog.refresh_all(side_state)
        return optimizer

    volatile_side = build_side(volatile_state)
    durable_side = build_side(durable_state)
    replay_side = build_side(replay_state)

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

    def run_epochs(side_state: DatabaseState) -> List[float]:
        latencies: List[float] = []
        for epoch in epochs:
            t0 = time.perf_counter()
            with side_state.batch():
                for op in epoch:
                    apply_update(side_state, op)
            latencies.append(time.perf_counter() - t0)
        return latencies

    try:
        volatile_latencies = run_epochs(volatile_state)
        durable_latencies = run_epochs(durable_state)
        replay_latencies = run_epochs(replay_state)
        volatile.drain()
        durable.drain()
        replay_writer.drain()

        committed = durable.wal.appended_sequence
        durable.wal.sync()  # flush the last sync_every-batched tail
        durable_sequence_complete = durable.wal.durable_sequence == committed
        durable_equal_volatile = all(
            durable_side.catalog.get(name).stored_extent
            == volatile_side.catalog.get(name).stored_extent
            for name in volatile_side.catalog.names()
        )
        checkpoints_written = committed // checkpoint_every if checkpoint_every else 0
    finally:
        volatile.close()
        durable.close()
        replay_writer.close()

    def states_match(recovered_state: DatabaseState, live: DatabaseState) -> bool:
        return recovered_state.objects == live.objects and all(
            recovered_state.extent(name) == live.extent(name)
            for name in live.classes()
        )

    def timed_recovery(path: str):
        optimizer = build_side(None)
        t0 = time.perf_counter()
        recovered = DurableMaintainer.open(
            path,
            generator_schema,
            optimizer.catalog,
            window=window,
        )
        seconds = time.perf_counter() - t0
        return recovered, optimizer, seconds

    try:
        recovered, recovered_opt, checkpoint_recovery_seconds = timed_recovery(
            checkpoint_dir
        )
        recovered_report = recovered.recovery_report
        recovered_equal_live = states_match(recovered.state, durable_state) and all(
            recovered_opt.catalog.get(name).stored_extent
            == durable_side.catalog.get(name).stored_extent
            for name in durable_side.catalog.names()
        )
        recovered.kill()

        again, again_opt, _ = timed_recovery(checkpoint_dir)
        recovery_idempotent = all(
            again_opt.catalog.get(name).stored_extent
            == recovered_opt.catalog.get(name).stored_extent
            for name in recovered_opt.catalog.names()
        )
        again.kill()

        replayed, replayed_opt, replay_recovery_seconds = timed_recovery(replay_dir)
        replay_report = replayed.recovery_report
        replay_recovered_equal_live = states_match(
            replayed.state, replay_state
        ) and all(
            replayed_opt.catalog.get(name).stored_extent
            == replay_side.catalog.get(name).stored_extent
            for name in replay_side.catalog.names()
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
        "volatile_p50_latency_ms": (
            1e3 * median(volatile_latencies) if volatile_latencies else None
        ),
        "durable_p50_latency_ms": (
            1e3 * median(durable_latencies) if durable_latencies else None
        ),
        "replay_p50_latency_ms": (
            1e3 * median(replay_latencies) if replay_latencies else None
        ),
        "commit_overhead": (
            median(durable_latencies) / median(volatile_latencies)
            if volatile_latencies and median(volatile_latencies)
            else None
        ),
        "checkpoint_recovery_seconds": checkpoint_recovery_seconds,
        "replay_recovery_seconds": replay_recovery_seconds,
        "recovery_speedup": (
            replay_recovery_seconds / checkpoint_recovery_seconds
            if checkpoint_recovery_seconds
            else None
        ),
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
    schema, state, catalog_concepts, stream = batch_workload_setup(
        workload, views, max(queries, 1), seed
    )
    items = list(catalog_concepts.items())
    generator_schema = schema_to_sl(schema) if isinstance(schema, DLSchema) else schema
    classes = sorted(generator_schema.concept_names()) or ["K0"]

    clear_shared_decision_cache()

    def build_side(side_state: Optional[DatabaseState]) -> SemanticQueryOptimizer:
        optimizer = SemanticQueryOptimizer(schema, lattice=True)
        for name, concept in items:
            optimizer.register_view_concept(name, concept)
        if side_state is not None:
            optimizer.catalog.refresh_all(side_state)
        return optimizer

    side = build_side(state)
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
                    state.assert_membership(
                        obj, classes[(thread + index) % len(classes)]
                    )
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

    writer_threads = [
        threading.Thread(target=writer, args=(thread,)) for thread in range(writers)
    ]
    reader_threads = [
        threading.Thread(target=reader, args=(slot,)) for slot in range(readers)
    ]
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
        extents_equal = all(
            view.stored_extent
            == side.evaluator.concept_answers(view.concept, state)
            for view in side.catalog
        )
        live_extents = {view.name: view.stored_extent for view in side.catalog}
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
        fresh = build_side(None)
        recovered = DurableMaintainer.open(
            root, generator_schema, fresh.catalog, window=window, fs=fs
        )
        try:
            recovered_sequence = recovered.recovery_report.recovered_sequence
            no_acked_lost = recovered_sequence >= max(
                acked.values(), default=0
            ) and all(obj in recovered.state.objects for obj in acked)
            recovered_equal_live = (
                recovered.state.objects == state.objects
                and all(
                    recovered.state.extent(name) == state.extent(name)
                    for name in state.classes()
                )
                and {
                    view.name: view.stored_extent for view in fresh.catalog
                } == live_extents
            )
        finally:
            recovered.kill()
        if cleanup:
            shutil.rmtree(root, ignore_errors=True)

    monotonic = all(
        all(later >= earlier for earlier, later in zip(seen, seen[1:]))
        for seen in reader_generations
    )
    ack_sorted = sorted(ack_latencies)

    def percentile(samples: List[float], fraction: float) -> Optional[float]:
        if not samples:
            return None
        return 1e3 * samples[min(len(samples) - 1, int(fraction * len(samples)))]

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
        "commits_per_second": (
            total_commits / wall_seconds if wall_seconds else None
        ),
        "commit_p50_ms": percentile(sorted(commit_latencies), 0.50),
        "ack_p50_ms": percentile(ack_sorted, 0.50),
        "ack_p99_ms": percentile(ack_sorted, 0.99),
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
    from ..core.checker import clear_shared_decision_cache
    from ..database.cacheserver import RemoteDecisionCache
    from ..database.replica import SnapshotReplica

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
    remote = None
    replica = None
    try:
        # Fork inherits the parent's warm in-process decision cache; clear
        # it so cross-process traffic actually reaches the remote tier.
        clear_shared_decision_cache()
        if config["cache_address"] is not None:
            remote = RemoteDecisionCache(
                config["cache_address"], config["namespace"]
            )
        replica = SnapshotReplica(
            config["replica_address"],
            staleness_bound=config["staleness_bound"],
            remote=remote,
        ).connect()
        stream = config["stream"]
        clients = config["clients"]
        lock = threading.Lock()

        def client(indices) -> None:
            for index in indices:
                t0 = time.perf_counter()
                answers, generation = replica.answer_concept(stream[index])
                elapsed = time.perf_counter() - t0
                with lock:
                    summary["latencies"].append(elapsed)
                    summary["serves"].append(
                        (index, generation, sorted(answers))
                    )

        for _ in range(config["rounds"]):
            lag = replica.ensure_fresh()
            summary["max_lag"] = max(summary["max_lag"], lag)
            threads = [
                threading.Thread(
                    target=client, args=(range(shard, len(stream), clients),)
                )
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
    except Exception as error:  # noqa: BLE001 - shipped back as a verdict
        summary["errors"].append(f"p{slot}: {error!r}")
    finally:
        if replica is not None:
            replica.close()
        if remote is not None:
            remote.close()
        results.put(summary)


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
    remote cache plugged into its matcher) and runs ``rounds`` rounds of
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
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        raise RuntimeError(
            "serve-fleet requires the fork start method "
            "(interned concept ids are per fork family)"
        )
    from ..database.cacheserver import (
        DecisionCacheServer,
        RemoteDecisionCache,
        cache_namespace,
    )
    from ..database.query_eval import QueryEvaluator
    from ..database.replica import ReplicaServer
    from ..core.checker import SubsumptionChecker

    schema, state, catalog_concepts, stream = batch_workload_setup(
        workload, views, max(queries, 1), seed
    )
    generator_schema = schema_to_sl(schema) if isinstance(schema, DLSchema) else schema
    optimizer = SemanticQueryOptimizer(schema, lattice=True)
    for name, concept in catalog_concepts.items():
        optimizer.register_view_concept(name, concept)

    cache_server = DecisionCacheServer().start() if shared_cache else None
    replica_server = ReplicaServer(
        state, optimizer.catalog, tail_limit=tail_limit
    ).start()
    namespace = None
    warm_sets = 0
    try:
        if cache_server is not None:
            namespace = cache_namespace(optimizer.sl_schema, optimizer.catalog)
            warm_remote = RemoteDecisionCache(cache_server.address, namespace)
            # Publish the stream's decisions from a cold checker: only full
            # completions are written behind, so a pre-memoized checker
            # would publish nothing for the children to hit.
            clear_shared_decision_cache()
            warm_matcher = ShardedMatcher(
                SubsumptionChecker(optimizer.sl_schema),
                optimizer.catalog,
                shards=1,
                backend="serial",
                remote=warm_remote,
            )
            warm_matcher.match_batch(stream)
            warm_sets = warm_remote.sets
            warm_remote.close()

        context = multiprocessing.get_context("fork")
        results = context.Queue()
        config = {
            "cache_address": cache_server.address if cache_server else None,
            "namespace": namespace,
            "replica_address": replica_server.address,
            "staleness_bound": staleness_bound,
            "stream": stream,
            "clients": clients,
            "rounds": rounds,
        }
        children = [
            context.Process(
                target=_serve_fleet_child, args=(slot, config, results)
            )
            for slot in range(processes)
        ]
        history = {state.generation: state.snapshot()}
        start = time.perf_counter()
        for child in children:
            child.start()

        # The primary mutates while the fleet serves; every committed
        # generation is snapshotted so any answer the children pin can be
        # re-derived from scratch.
        for op in generate_update_stream(generator_schema, state, updates, seed + 21):
            apply_update(state, op)
            history[state.generation] = state.snapshot()
            time.sleep(0.002)

        summaries = [results.get(timeout=120.0) for _ in children]
        wall_seconds = time.perf_counter() - start
        for child in children:
            child.join(timeout=30.0)
    finally:
        replica_server.close()
        if cache_server is not None:
            cache_server.close()

    child_errors = [error for summary in summaries for error in summary["errors"]]
    evaluator = QueryEvaluator(None)
    answer_cache: Dict[Tuple[int, int], List[str]] = {}
    answers_match_spec = True
    generations_known = True
    for summary in summaries:
        for index, generation, answers in summary["serves"]:
            pinned = history.get(generation)
            if pinned is None:
                generations_known = False
                continue
            key = (index, generation)
            if key not in answer_cache:
                answer_cache[key] = sorted(
                    evaluator.concept_answers(stream[index], pinned)
                )
            answers_match_spec &= answers == answer_cache[key]

    latencies = sorted(
        latency for summary in summaries for latency in summary["latencies"]
    )
    total_serves = len(latencies)
    remote_hits = sum(summary["remote_hits"] for summary in summaries)
    remote_misses = sum(summary["remote_misses"] for summary in summaries)
    max_lag = max((summary["max_lag"] for summary in summaries), default=0)

    def percentile(samples: List[float], fraction: float) -> Optional[float]:
        if not samples:
            return None
        return 1e3 * samples[min(len(samples) - 1, int(fraction * len(samples)))]

    return {
        "workload": workload,
        "views": len(catalog_concepts),
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
        "queries_per_second": total_serves / wall_seconds if wall_seconds else None,
        "query_p50_ms": percentile(latencies, 0.50),
        "query_p99_ms": percentile(latencies, 0.99),
        "query_mean_ms": 1e3 * sum(latencies) / total_serves if total_serves else None,
        "warm_cache_sets": warm_sets,
        "remote_hits": remote_hits,
        "remote_misses": remote_misses,
        "cache_hit_rate": (
            remote_hits / (remote_hits + remote_misses)
            if remote_hits + remote_misses
            else None
        ),
        "max_post_catchup_lag": max_lag,
        "snapshot_loads": sum(summary["snapshot_loads"] for summary in summaries),
        "epochs_applied": sum(summary["epochs_applied"] for summary in summaries),
        "committed_generations": len(history),
        "child_errors": child_errors,
        "answers_match_spec": answers_match_spec and generations_known,
        "staleness_bound_honored": generations_known
        and max_lag <= staleness_bound,
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
    from ..core.checker import clear_shared_decision_cache
    from ..database.cacheserver import RemoteDecisionCache
    from ..database.replica import SnapshotReplica

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
    remote = None
    replica = None
    try:
        clear_shared_decision_cache()
        # The parent forks children *before* binding any server socket
        # (an inherited listener fd would keep the port bound through the
        # restart), so the addresses arrive over a queue once the servers
        # are up.
        wiring = addresses.get(timeout=30.0)
        if wiring["cache_address"] is not None:
            remote = RemoteDecisionCache(
                wiring["cache_address"], wiring["namespace"], timeout=1.0
            )
        replica = SnapshotReplica(
            wiring["replica_address"],
            staleness_bound=config["staleness_bound"],
            timeout=2.0,
            remote=remote,
        ).connect()
        barrier.wait(timeout=30.0)
        stream = config["stream"]
        rounds_done = 0
        # A hard wall-clock ceiling so an orphaned child (parent died,
        # stop never set) cannot serve forever.
        hard_deadline = time.time() + config["lifetime_budget"]
        # Serve at least ``rounds`` rounds AND keep serving until the
        # parent's stop flag -- set only after the restarted servers are
        # back -- so the serving loop is guaranteed to span the outage.
        while (
            rounds_done < config["rounds"] or not stop.is_set()
        ) and time.time() < hard_deadline:
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
    except Exception as error:  # noqa: BLE001 - shipped back as a verdict
        summary["errors"].append(f"p{slot}: {error!r}")
    finally:
        if replica is not None:
            replica.close()
        if remote is not None:
            remote.close()
        results.put(summary)


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
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        raise RuntimeError(
            "serve-chaos requires the fork start method "
            "(interned concept ids are per fork family)"
        )
    from ..core.checker import SubsumptionChecker
    from ..database.cacheserver import (
        DecisionCacheServer,
        RemoteDecisionCache,
        cache_namespace,
    )
    from ..database.query_eval import QueryEvaluator
    from ..database.replica import ReplicaServer

    schema, state, catalog_concepts, stream = batch_workload_setup(
        workload, views, max(queries, 1), seed
    )
    generator_schema = schema_to_sl(schema) if isinstance(schema, DLSchema) else schema
    optimizer = SemanticQueryOptimizer(schema, lattice=True)
    for name, concept in catalog_concepts.items():
        optimizer.register_view_concept(name, concept)

    # Fork the children BEFORE any server socket exists: a forked child
    # inherits every open fd, and an inherited listener would keep the
    # port bound after the parent closes it -- the restart-on-same-port
    # leg would then fail with EADDRINUSE.  The children learn the server
    # addresses over a queue instead.
    context = multiprocessing.get_context("fork")
    results = context.Queue()
    addresses = context.Queue()
    barrier = context.Barrier(processes + 1)
    stop = context.Event()
    config = {
        "staleness_bound": staleness_bound,
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

    cache_server = DecisionCacheServer().start() if shared_cache else None
    replica_server = ReplicaServer(
        state, optimizer.catalog, tail_limit=tail_limit
    ).start()
    replica_host, replica_port = replica_server.address
    cache_address = cache_server.address if cache_server else None
    namespace = None
    try:
        if cache_server is not None:
            namespace = cache_namespace(optimizer.sl_schema, optimizer.catalog)
            warm_remote = RemoteDecisionCache(cache_server.address, namespace)
            clear_shared_decision_cache()
            ShardedMatcher(
                SubsumptionChecker(optimizer.sl_schema),
                optimizer.catalog,
                shards=1,
                backend="serial",
                remote=warm_remote,
            ).match_batch(stream)
            warm_remote.close()

        wiring = {
            "cache_address": cache_address,
            "namespace": namespace,
            "replica_address": (replica_host, replica_port),
        }
        for _ in children:
            addresses.put(wiring)
        history = {state.generation: state.snapshot()}
        barrier.wait(timeout=30.0)  # every child connected before the chaos

        start = time.perf_counter()
        ops = list(generate_update_stream(generator_schema, state, updates, seed + 21))
        half = len(ops) // 2
        for op in ops[:half]:
            apply_update(state, op)
            history[state.generation] = state.snapshot()
            time.sleep(0.002)

        # The outage: both serving ports go dark, live connections die.
        replica_server.close()
        if cache_server is not None:
            cache_server.close()
        # The primary itself keeps committing through the outage -- the
        # restarted replica server must ship the children everything they
        # missed.
        for op in ops[half:]:
            apply_update(state, op)
            history[state.generation] = state.snapshot()
            time.sleep(0.002)
        time.sleep(outage_seconds)

        # Restart on the same ports (the addresses the children hold).
        replica_server = ReplicaServer(
            state,
            optimizer.catalog,
            host=replica_host,
            port=replica_port,
            tail_limit=tail_limit,
        ).start()
        if cache_server is not None:
            cache_server = DecisionCacheServer(
                host=cache_address[0], port=cache_address[1]
            ).start()
        restart_time = time.time()
        stop.set()  # the chaos window is over; children may wind down

        summaries = [results.get(timeout=120.0) for _ in children]
        wall_seconds = time.perf_counter() - start
        for child in children:
            child.join(timeout=30.0)
    finally:
        stop.set()  # never leave children looping after a parent error
        replica_server.close()
        if cache_server is not None:
            cache_server.close()

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
                answer_cache[key] = sorted(
                    evaluator.concept_answers(stream[index], pinned)
                )
            if answers != answer_cache[key]:
                wrong_answers += 1

    attempted = sum(summary["attempted"] for summary in summaries)
    answered = sum(summary["answered"] for summary in summaries)
    availability = answered / attempted if attempted else 0.0
    recovery_times = [
        max(0.0, summary["recovered_at"] - restart_time)
        for summary in summaries
        if summary["recovered_at"] is not None
    ]
    all_recovered = len(recovery_times) == len(summaries)

    return {
        "workload": workload,
        "views": len(catalog_concepts),
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
        "degraded_serves": sum(s["degraded_serves"] for s in summaries),
        "degraded_rounds": sum(s["degraded_rounds"] for s in summaries),
        "reconnects": sum(s["reconnects"] for s in summaries),
        "snapshot_loads": sum(s["snapshot_loads"] for s in summaries),
        "recovery_seconds": max(recovery_times) if recovery_times else None,
        "committed_generations": len(history),
        "child_errors": child_errors,
        "no_wrong_answers": generations_known and wrong_answers == 0,
        "available_through_outage": availability >= 0.95,
        "all_children_recovered": all_recovered,
        "no_child_errors": not child_errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        default="serve",
        choices=(
            "serve",
            "maintain",
            "maintain-async",
            "maintain-durable",
            "commit-fleet",
            "serve-fleet",
            "serve-chaos",
        ),
        help=(
            "serve: batched register+match; maintain: update-heavy "
            "maintenance; maintain-async: serve-from-generation async "
            "flushes; maintain-durable: write-ahead-logged commits with "
            "crash recovery; commit-fleet: K concurrent writers x M "
            "readers with group-commit fsync ACKs and a loss verdict; "
            "serve-fleet: K forked serving processes x M client threads "
            "over the shared-cache + snapshot-replica fabric; "
            "serve-chaos: the serve-fleet fabric under induced server "
            "outages, with availability / wrong-answer / recovery verdicts"
        ),
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
    args = parser.parse_args(argv)
    if args.scenario == "serve-chaos":
        report = run_serve_chaos_workload(
            args.workload,
            views=args.views,
            queries=args.queries,
            processes=args.processes,
            rounds=args.rounds,
            updates=args.updates,
            staleness_bound=args.staleness_bound,
            shared_cache=not args.no_shared_cache,
            outage_seconds=args.outage_seconds,
            seed=args.seed,
        )
        print(json.dumps(report, indent=2, sort_keys=True))
        ok = (
            report["no_wrong_answers"]
            and report["available_through_outage"]
            and report["all_children_recovered"]
            and report["no_child_errors"]
        )
        return 0 if ok else 1
    if args.scenario == "serve-fleet":
        report = run_serve_fleet_workload(
            args.workload,
            views=args.views,
            queries=args.queries,
            processes=args.processes,
            clients=args.clients,
            rounds=args.rounds,
            updates=args.updates,
            staleness_bound=args.staleness_bound,
            shared_cache=not args.no_shared_cache,
            seed=args.seed,
        )
        print(json.dumps(report, indent=2, sort_keys=True))
        ok = (
            report["answers_match_spec"]
            and report["staleness_bound_honored"]
            and report["cache_hits_observed"]
            and report["no_child_errors"]
        )
        return 0 if ok else 1
    if args.scenario == "commit-fleet":
        report = run_commit_fleet_workload(
            args.workload,
            views=args.views,
            queries=args.queries,
            writers=args.writers,
            readers=args.readers,
            commits=args.commits,
            sync_every=args.sync_every,
            seed=args.seed,
        )
        print(json.dumps(report, indent=2, sort_keys=True))
        ok = (
            report["acks_complete"]
            and report["no_acked_lost"]
            and report["recovered_equal_live"]
            and report["reader_generations_monotonic"]
            and report["readers_serving_sound"]
            and report["extents_equal"]
        )
        return 0 if ok else 1
    if args.scenario == "maintain-durable":
        report = run_durable_maintenance_workload(
            args.workload,
            views=args.views,
            updates=args.updates,
            batch_size=args.batch_size,
            window=args.window,
            seed=args.seed,
            sync_every=args.sync_every,
            checkpoint_every=args.checkpoint_every,
        )
        print(json.dumps(report, indent=2, sort_keys=True))
        ok = (
            report["durable_sequence_complete"]
            and report["durable_equal_volatile"]
            and report["recovered_equal_live"]
            and report["replay_recovered_equal_live"]
            and report["recovery_idempotent"]
        )
        return 0 if ok else 1
    if args.scenario == "maintain-async":
        report = run_async_maintenance_workload(
            args.workload,
            views=args.views,
            updates=args.updates,
            batch_size=args.batch_size,
            window=args.window,
            queries=args.queries,
            seed=args.seed,
        )
        print(json.dumps(report, indent=2, sort_keys=True))
        ok = (
            report["prefix_consistent"]
            and report["drained_equal_sync"]
            and report["extents_equal"]
            and report["states_equal"]
            and report["async_serving_sound"]
            and report["sync_serving_sound"]
        )
        return 0 if ok else 1
    if args.scenario == "maintain":
        report = run_maintenance_workload(
            args.workload,
            views=args.views,
            updates=args.updates,
            batch_size=args.batch_size,
            queries=args.queries,
            seed=args.seed,
        )
        print(json.dumps(report, indent=2, sort_keys=True))
        ok = (
            report["extents_equal"]
            and report["states_equal"]
            and report["engine_serving_sound"]
        )
        return 0 if ok else 1
    report = run_batch_workload(
        args.workload,
        views=args.views,
        queries=args.queries,
        shards=args.shards,
        backend=args.backend,
        seed=args.seed,
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    ok = (
        report["catalog_equal"]
        and report["matches_equal"]
        and report["plans_equal"]
        and report["answers_sound"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
