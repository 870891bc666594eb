"""The concurrency/linearizability oracle for the async maintenance tier.

:class:`~repro.database.maintenance.AsyncMaintainer` decouples update
commit from view re-materialization, so correctness is no longer a single
"extents equal the oracle at the end" check -- it is a *consistency model*:

* **prefix-generation consistency** -- at any instant, every extent a
  reader observes (and every cross-view cut :meth:`read_extents` returns)
  must equal the from-scratch refresh of *some* fully-committed prefix of
  the mutation history, identified by its generation;
* **monotonicity** -- the served generation never moves backwards;
* **convergence** -- after a :meth:`drain` barrier the stored extents are
  byte-identical to what the synchronous :class:`MaintenanceQueue` produces
  for the same commit sequence (and hence to the from-scratch oracle).

The hypothesis harness fuzzes interleavings of mutation epochs, coalescing
windows, ``sync()`` barriers and genuinely concurrent readers against
these properties; deterministic tests pin the window, backpressure,
pause/resume, kill, schema-swap and snapshot-pinning mechanics.  Crash
recovery is the durable tier's WAL, checked by ``test_durability.py``.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concepts import builders as b
from repro.database.maintenance import AsyncMaintainer, MaintenanceQueue
from repro.database.query_eval import QueryEvaluator
from repro.database.store import DatabaseState
from repro.workloads.synthetic import SchemaProfile, random_schema

from ..strategies import (
    apply_mutation as apply_op,
    hierarchical_catalog,
    mutation_vocabulary,
    mutations,
    simple_mutations,
)

SCHEMA = random_schema(
    SchemaProfile(classes=6, attributes=4, hierarchy_depth=2), seed=5
)
OBJECT_IDS, CLASSES, ATTRIBUTES = mutation_vocabulary(SCHEMA, object_count=8)

EVALUATOR = QueryEvaluator(None)

simple_op = simple_mutations(OBJECT_IDS, CLASSES, ATTRIBUTES)
op = mutations(OBJECT_IDS, CLASSES, ATTRIBUTES)

windows = st.integers(min_value=1, max_value=5)


def seed_state() -> DatabaseState:
    state = DatabaseState(SCHEMA)
    state.add_object("o0", CLASSES[0])
    state.add_object("o1", CLASSES[-1])
    state.set_attribute("o0", ATTRIBUTES[0], "o1")
    return state


def build_catalog(lattice: bool = True):
    return hierarchical_catalog(SCHEMA, 8, lattice=lattice, seed=3)


def oracle_extents(catalog, source):
    """From-scratch refresh of every view over ``source`` (state or snapshot)."""
    return {
        view.name: EVALUATOR.concept_answers(view.concept, source)
        for view in catalog
    }


def stored_extents(catalog):
    return {view.name: view.stored_extent for view in catalog}


class TestDrainConvergence:
    """drain() must land exactly where the synchronous tier lands."""

    @settings(deadline=None, max_examples=25)
    @given(ops=st.lists(op, max_size=18), window=windows)
    def test_drain_is_byte_identical_to_synchronous_queue(self, ops, window):
        async_state, sync_state = seed_state(), seed_state()
        async_catalog, sync_catalog = build_catalog(), build_catalog()
        async_catalog.refresh_all(async_state)
        sync_catalog.refresh_all(sync_state)
        maintainer = AsyncMaintainer(async_state, async_catalog, window=window)
        queue = MaintenanceQueue(sync_state, sync_catalog)
        try:
            for operation in ops:
                apply_op(async_state, operation)
                apply_op(sync_state, operation)
            maintainer.drain()
        finally:
            maintainer.close()
            queue.close()
        assert stored_extents(async_catalog) == stored_extents(sync_catalog)
        assert stored_extents(async_catalog) == oracle_extents(
            async_catalog, async_state
        )

    @settings(deadline=None, max_examples=15)
    @given(ops=st.lists(simple_op, min_size=1, max_size=12), window=windows)
    def test_flat_catalog_drains_to_oracle(self, ops, window):
        state = seed_state()
        catalog = build_catalog(lattice=False)
        catalog.refresh_all(state)
        maintainer = AsyncMaintainer(state, catalog, window=window)
        try:
            with state.batch():
                for operation in ops:
                    apply_op(state, operation)
            maintainer.drain()
        finally:
            maintainer.close()
        assert stored_extents(catalog) == oracle_extents(catalog, state)


class TestPrefixConsistency:
    """Every observed cut equals the oracle at some committed generation."""

    @settings(deadline=None, max_examples=12)
    @given(
        ops=st.lists(op, min_size=1, max_size=12),
        window=windows,
        barrier_every=st.integers(min_value=2, max_value=6),
    )
    def test_concurrent_reads_see_only_prefix_generations(
        self, ops, window, barrier_every
    ):
        state = seed_state()
        catalog = build_catalog()
        catalog.refresh_all(state)
        maintainer = AsyncMaintainer(state, catalog, window=window)
        snapshots = {state.generation: state.snapshot()}
        reader_observations = []
        barrier_observations = []
        reader_errors = []
        stop = threading.Event()

        def reader():
            last = None
            try:
                while not stop.is_set():
                    observation = maintainer.read_extents()
                    if observation != last:
                        reader_observations.append(observation)
                        last = observation
            except BaseException as error:  # pragma: no cover - surfaced below
                reader_errors.append(error)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for index, operation in enumerate(ops):
                apply_op(state, operation)
                # Record the oracle snapshot for the epoch the commit just
                # closed; no-op commits leave the generation (and the dict)
                # unchanged.
                snapshots.setdefault(state.generation, state.snapshot())
                if (index + 1) % barrier_every == 0:
                    maintainer.sync()
                    barrier_observations.append(
                        (state.generation, maintainer.read_extents())
                    )
            final_generation = maintainer.drain()
            barrier_observations.append(
                (state.generation, maintainer.read_extents())
            )
        finally:
            stop.set()
            thread.join()
            maintainer.close()
        assert not reader_errors, reader_errors

        # Reader cuts: each equals the from-scratch oracle of its
        # generation, and generations never move backwards.
        cache = {}

        def oracle_at(generation):
            if generation not in cache:
                cache[generation] = oracle_extents(catalog, snapshots[generation])
            return cache[generation]

        previous = -1
        for generation, extents in reader_observations:
            assert generation in snapshots
            assert generation >= previous
            previous = generation
            assert extents == oracle_at(generation)

        # Barrier cuts: after sync()/drain() the served generation is the
        # *latest* committed one, not merely some prefix.
        for committed_generation, (generation, extents) in barrier_observations:
            assert generation == committed_generation
            assert extents == oracle_at(generation)
        assert final_generation == barrier_observations[-1][0]


class TestCrashReplay:
    """A stopped worker surfaces on the commit path instead of hanging it."""

    def test_kill_during_backpressure_loses_no_epoch(self):
        """A commit blocked on the queue bound returns once kill() stops the worker.

        The state mutation has already happened when on_commit blocks on
        the queue bound; kill() must release it with a RuntimeError rather
        than leave the writer blocked on a queue no worker will drain.
        """
        state = seed_state()
        catalog = build_catalog()
        catalog.refresh_all(state)
        maintainer = AsyncMaintainer(state, catalog, max_pending=1)
        errors = []
        committed = threading.Event()
        maintainer.pause()
        state.assert_membership("k0", CLASSES[0])  # fills the queue

        def blocked_commit():
            try:
                state.assert_membership("k1", CLASSES[1])
            except RuntimeError as error:
                errors.append(error)
            committed.set()

        thread = threading.Thread(target=blocked_commit)
        thread.start()
        assert not committed.wait(0.2)  # blocked on the bound
        maintainer.kill()
        assert committed.wait(5.0)
        thread.join()
        assert errors  # the dead maintainer surfaced the stop
        assert "k1" in state.extent(CLASSES[1])  # the mutation itself stands


class TestWindowAndBarriers:
    def test_window_coalesces_queued_epochs_into_one_flush(self):
        state = seed_state()
        catalog = build_catalog()
        catalog.refresh_all(state)
        maintainer = AsyncMaintainer(state, catalog, window=8)
        try:
            maintainer.pause()
            baseline = maintainer.published_generation
            stale = stored_extents(catalog)
            for index in range(3):
                state.assert_membership(f"w{index}", CLASSES[0])
            assert maintainer.pending_epochs == 3
            # Serving stays pinned to the flushed prefix while epochs queue.
            generation, extents = maintainer.read_extents()
            assert generation == baseline
            assert extents == stale
            flushes_before = maintainer.statistics.flushes
            maintainer.resume()
            maintainer.drain()
        finally:
            maintainer.close()
        stats = maintainer.statistics
        assert stats.flushes == flushes_before + 1
        assert stats.epochs_coalesced >= 2
        assert stored_extents(catalog) == oracle_extents(catalog, state)

    def test_sync_blocks_until_the_committed_prefix_is_served(self):
        state = seed_state()
        catalog = build_catalog()
        catalog.refresh_all(state)
        maintainer = AsyncMaintainer(state, catalog, window=2)
        try:
            for index in range(5):
                state.assert_membership(f"s{index}", CLASSES[1])
            committed = state.generation
            assert maintainer.sync()
            assert maintainer.published_generation == committed
            assert maintainer.serving_state().generation == committed
            # The atomic cut agrees with itself: snapshot and extents from
            # one lock acquisition describe the same generation.
            snapshot, extents = maintainer.serving_cut()
            assert snapshot.generation == committed
            assert extents == oracle_extents(catalog, snapshot)
            assert stored_extents(catalog) == oracle_extents(catalog, state)
        finally:
            maintainer.close()

    def test_sync_while_paused_raises_instead_of_deadlocking(self):
        state = seed_state()
        catalog = build_catalog()
        catalog.refresh_all(state)
        maintainer = AsyncMaintainer(state, catalog)
        try:
            maintainer.pause()
            state.assert_membership("p0", CLASSES[0])
            with pytest.raises(RuntimeError):
                maintainer.sync()
        finally:
            maintainer.close()
        assert stored_extents(catalog) == oracle_extents(catalog, state)

    def test_backpressure_blocks_commits_at_the_queue_bound(self):
        state = seed_state()
        catalog = build_catalog()
        catalog.refresh_all(state)
        maintainer = AsyncMaintainer(state, catalog, max_pending=1)
        blocked_done = threading.Event()
        try:
            maintainer.pause()
            state.assert_membership("b0", CLASSES[0])
            assert maintainer.pending_epochs == 1

            def blocked_commit():
                state.assert_membership("b1", CLASSES[1])
                blocked_done.set()

            thread = threading.Thread(target=blocked_commit)
            thread.start()
            assert not blocked_done.wait(0.2)  # genuinely blocked on the bound
            maintainer.resume()
            assert blocked_done.wait(5.0)
            thread.join()
            maintainer.drain()
        finally:
            maintainer.close()
        assert maintainer.statistics.backpressure_waits >= 1
        assert stored_extents(catalog) == oracle_extents(catalog, state)

    def test_schema_swap_full_refreshes_through_the_worker(self):
        from repro.concepts.schema import Schema
        from repro.workloads.medical import medical_schema
        from repro.concepts import builders as b
        from repro.core.checker import SubsumptionChecker
        from repro.database.views import ViewCatalog

        state = DatabaseState(medical_schema())
        state.add_object("p", "Patient")
        catalog = ViewCatalog(None, checker=SubsumptionChecker(medical_schema()))
        view = catalog.register_concept("people", b.concept("Person"))
        catalog.refresh_all(state)
        maintainer = AsyncMaintainer(state, catalog, window=2)
        try:
            assert view.stored_extent == {"p"}
            state.schema = Schema.empty()
            maintainer.sync()
            assert view.stored_extent == frozenset()
            state.schema = medical_schema()
            maintainer.sync()
            assert view.stored_extent == {"p"}
            state.add_object("q", "Patient")
            maintainer.sync()
            assert view.stored_extent == {"p", "q"}
        finally:
            maintainer.close()

    def test_closed_maintainer_is_detached_from_the_store(self):
        state = seed_state()
        catalog = build_catalog()
        catalog.refresh_all(state)
        maintainer = AsyncMaintainer(state, catalog)
        maintainer.close()
        # Detached: mutations no longer reach the dead maintainer at all.
        state.assert_membership("z0", CLASSES[0])
        assert maintainer.pending_epochs == 0

    def test_bootstrap_materializes_and_stamps_the_catalog(self):
        state = seed_state()
        catalog = build_catalog()
        maintainer = AsyncMaintainer(state, catalog, bootstrap=True)
        try:
            assert stored_extents(catalog) == oracle_extents(catalog, state)
            for view in catalog:
                assert view.extent_generation == state.generation
        finally:
            maintainer.close()


class TestStateSnapshotPinning:
    """The store-level substrate: snapshots must not move with the state."""

    def test_snapshot_is_immune_to_later_mutations(self):
        state = seed_state()
        snapshot = state.snapshot()
        generation = snapshot.generation
        frozen = snapshot.to_interpretation()
        frozen_objects = snapshot.objects
        state.add_object("later", CLASSES[0])
        state.set_attribute("later", ATTRIBUTES[0], "o0")
        state.remove_object("o1")
        assert snapshot.generation == generation
        assert snapshot.objects == frozen_objects
        assert snapshot.to_interpretation() is frozen
        assert "later" not in snapshot.extent(CLASSES[0])
        assert (
            EVALUATOR.concept_answers(b.concept(CLASSES[0]), snapshot)
            <= frozen_objects
        )

    def test_snapshot_extends_with_fresh_constants(self):
        state = seed_state()
        snapshot = state.snapshot()
        base = snapshot.to_interpretation()
        extended = snapshot.to_interpretation(constants=["ghost"])
        assert extended is not base
        assert extended.has_constant("ghost")
        assert snapshot.to_interpretation(constants=["o0"]) is base

    def test_empty_state_snapshot(self):
        state = DatabaseState(SCHEMA)
        state.add_object("only")
        state.remove_object("only")
        snapshot = state.snapshot()
        assert len(snapshot) == 0
        assert snapshot.extent(CLASSES[0]) == frozenset()
        interpretation = snapshot.to_interpretation()
        assert interpretation.domain  # placeholder element keeps it valid
