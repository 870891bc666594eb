"""Network chaos and failover tests for the serving fabric.

Two oracles anchor this module:

* **Serving chaos oracle** (hypothesis): under any drawn interleaving of
  primary mutations, replica polls, serves, and injected network faults
  (connection kills, partitions with later heals, scheduled drops and
  mid-frame truncations through :class:`~tests.database.chaos_proxy.ChaosProxy`),
  every answer the replica serves equals a from-scratch evaluation of the
  primary generation it had pinned when it served.  Faults may cost
  freshness -- degraded serving is reported as a typed status -- but
  never correctness.
* **Failover oracles**: promoting a replica over the durable WAL preserves
  every fsync-ACKed commit, and a revived stale primary is fenced at the
  write gate before it can mutate or append; a promoted primary that
  crashes in turn recovers (through the fault-injecting filesystem) to a
  prefix of its own history holding every commit it ACKed.

Deterministic tests pin the mechanics each oracle relies on: proxy fault
injection, client reconnect + circuit breaker + degraded fallback for
both the cache client and the replica, and the promotion restore steps
(tail replay, checkpoint rebase, continued numbering, checkpointing and
compaction after the promotion).
"""

import os
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database.cacheserver import DecisionCacheServer, RemoteDecisionCache
from repro.database.failover import FailoverCoordinator, FencedOut
from repro.database.faults import (
    CircuitBreaker,
    DegradedServing,
    FaultPolicy,
    network_fault_policy,
)
from repro.database.maintenance import DurableMaintainer
from repro.database.query_eval import QueryEvaluator
from repro.database.replica import (
    ReplicaConnectionError,
    ReplicaServer,
    SnapshotReplica,
)
from repro.database.store import DatabaseState
from repro.database.wal import WalError
from repro.optimizer.optimizer import SemanticQueryOptimizer
from repro.workloads.driver import (
    apply_update,
    batch_workload_setup,
    generate_update_stream,
)
from repro.workloads.synthetic import SchemaProfile, random_schema

from ..strategies import (
    apply_mutation,
    hierarchical_catalog,
    mutation_vocabulary,
    mutations,
)
from .chaos_proxy import ChaosProxy
from .fault_fs import FaultyFileSystem
from .test_durability import surface

EVALUATOR = QueryEvaluator(None)

#: Retries with near-zero sleeps: chaos tests exercise the retry *logic*,
#: not wall-clock backoff.
FAST = FaultPolicy(
    max_retries=4, backoff=0.001, max_backoff=0.01, retryable=lambda e: True
)
#: A breaker that re-probes almost immediately after tripping.
quick_breaker = lambda: CircuitBreaker(failure_threshold=1, cooldown=0.01)  # noqa: E731


def build_primary(views=6, queries=4, seed=0):
    schema, state, catalog, stream = batch_workload_setup(
        "university", views, queries, seed
    )
    optimizer = SemanticQueryOptimizer(schema)
    for name, concept in catalog.items():
        optimizer.register_view_concept(name, concept)
    optimizer.catalog.refresh_all(state)
    return optimizer, state, stream


# -- proxy mechanics ----------------------------------------------------------


class TestChaosProxy:
    def test_clean_forwarding_is_transparent(self):
        optimizer, state, stream = build_primary(views=2, queries=2)
        with ReplicaServer(state, optimizer.catalog) as server:
            with ChaosProxy(server.address) as proxy:
                replica = SnapshotReplica(proxy.address).connect()
                answers, _ = replica.answer_concept(stream[0], check=True)
                assert answers == EVALUATOR.concept_answers(stream[0], state)
                assert proxy.accepted == 1 and proxy.forwarded_bytes > 0
                replica.close()

    def test_scheduled_drop_consumes_one_connection(self):
        optimizer, state, _ = build_primary(views=2, queries=1)
        with ReplicaServer(state, optimizer.catalog) as server:
            with ChaosProxy(server.address) as proxy:
                proxy.schedule(["drop"])
                replica = SnapshotReplica(
                    proxy.address, policy=FAST, breaker=quick_breaker()
                )
                # First dial dies instantly; the fault policy redials and the
                # second connection forwards cleanly.
                replica.connect()
                assert replica.state is not None
                assert proxy.dropped == 1 and proxy.accepted >= 2
                replica.close()

    def test_partition_refuses_until_healed(self):
        optimizer, state, _ = build_primary(views=2, queries=1)
        with ReplicaServer(state, optimizer.catalog) as server:
            with ChaosProxy(server.address) as proxy:
                proxy.partition()
                with pytest.raises(OSError):
                    SnapshotReplica(
                        proxy.address,
                        policy=FaultPolicy(max_retries=1, backoff=0.001),
                    ).connect()
                proxy.heal()
                replica = SnapshotReplica(
                    proxy.address, policy=FAST, breaker=quick_breaker()
                ).connect()
                assert replica.state is not None
                replica.close()

    def test_truncation_tears_the_stream_mid_frame(self):
        optimizer, state, _ = build_primary(views=4, queries=2)
        with ReplicaServer(state, optimizer.catalog) as server:
            with ChaosProxy(server.address) as proxy:
                # Let the header through, then tear inside the pickled
                # snapshot frame; the client sees a short read, redials, and
                # the clean second exchange completes the handshake.
                proxy.schedule([("truncate", 64)])
                replica = SnapshotReplica(
                    proxy.address, policy=FAST, breaker=quick_breaker()
                ).connect()
                assert proxy.truncated == 1
                assert replica.state is not None
                assert replica.state.objects == state.objects
                replica.close()


# -- self-healing cache client ------------------------------------------------


class TestSelfHealingCacheClient:
    def _client(self, address, **kwargs):
        kwargs.setdefault("policy", FAST)
        kwargs.setdefault("breaker", quick_breaker())
        return RemoteDecisionCache(address, "chaos-tests", **kwargs)

    def test_reconnects_through_connection_kills(self):
        with DecisionCacheServer() as server:
            with ChaosProxy(server.address) as proxy:
                client = self._client(proxy.address)
                client.set_many({(1, 2): True})
                # Sets are write-behind: a read round trip confirms the
                # server applied them before we start injecting faults.
                assert client.get_many([(1, 2)]) == {(1, 2): True}
                dials = client.reconnects
                proxy.kill_connections()
                # The pooled connection is dead; the next exchange notices,
                # redials through the proxy, and completes.
                assert client.get_many([(1, 2)]) == {(1, 2): True}
                assert not client.dead
                assert client.reconnects > dials
                client.close()

    def test_partition_trips_breaker_and_degrades_to_local(self):
        with DecisionCacheServer() as server:
            with ChaosProxy(server.address) as proxy:
                client = self._client(
                    proxy.address, breaker=CircuitBreaker(cooldown=60.0)
                )
                client.set_many({(1, 2): True})
                assert client.get_many([(1, 2)]) == {(1, 2): True}
                proxy.partition()
                # Exhausted retries trip the breaker: the client degrades to
                # cache-miss answers (callers fall back to local completion)
                # instead of raising into the serving path.
                assert client.get_many([(1, 2)]) == {}
                assert client.dead
                # While open (the cooldown is a minute), exchanges are refused
                # without even dialing.
                before = proxy.accepted
                assert client.get_many([(1, 2)]) == {}
                assert proxy.accepted == before

    def test_breaker_half_open_probe_heals_after_the_partition(self):
        with DecisionCacheServer() as server:
            with ChaosProxy(server.address) as proxy:
                client = self._client(proxy.address)
                client.set_many({(1, 2): True})
                assert client.get_many([(1, 2)]) == {(1, 2): True}
                proxy.partition()
                assert client.get_many([(1, 2)]) == {}
                assert client.dead
                proxy.heal()
                # After the cooldown the breaker admits one probe exchange;
                # its success closes the breaker again -- no reconnect() call
                # needed.
                import time

                time.sleep(0.02)
                assert client.get_many([(1, 2)]) == {(1, 2): True}
                assert not client.dead

    def test_explicit_reconnect_also_heals(self):
        with DecisionCacheServer() as server:
            with ChaosProxy(server.address) as proxy:
                client = self._client(
                    proxy.address, breaker=CircuitBreaker(cooldown=60.0)
                )
                client.set_many({(1, 2): True})
                assert client.get_many([(1, 2)]) == {(1, 2): True}
                proxy.partition()
                assert client.get_many([(1, 2)]) == {}
                assert client.dead
                proxy.heal()
                # Cooldown is a minute: only the explicit health probe heals.
                assert client.reconnect()
                assert not client.dead
                assert client.get_many([(1, 2)]) == {(1, 2): True}

    def test_open_breaker_refuses_calls_that_hold_pooled_connections(self):
        pauses = []
        with DecisionCacheServer() as server:
            with ChaosProxy(server.address) as proxy:
                client = self._client(
                    proxy.address,
                    policy=network_fault_policy(sleep=pauses.append),
                    breaker=CircuitBreaker(cooldown=60.0),
                )
                client.set_many({(1, 2): True})
                assert client.get_many([(1, 2)]) == {(1, 2): True}
                # Two overlapping round trips (each held up by the proxy)
                # leave two connections in the pool.
                proxy.set_delay(0.25)
                barrier = threading.Barrier(2)

                def lookup():
                    barrier.wait()
                    client.get_many([(1, 2)])

                threads = [threading.Thread(target=lookup) for _ in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                proxy.set_delay(0.0)
                assert client.reconnects == 2
                proxy.partition()
                # One call spends its retry budget and trips the breaker.
                assert client.get_many([(1, 2)]) == {}
                assert client.dead
                # The next call still holds a pooled connection, but the
                # open breaker refuses it at once: a miss with no pause
                # and no failed attempt.
                pauses.clear()
                failures = client.failures
                assert client.get_many([(1, 2)]) == {}
                assert pauses == []
                assert client.failures == failures


# -- self-healing replica -----------------------------------------------------


class TestSelfHealingReplica:
    def test_degraded_serving_keeps_answering_pinned_generation(self):
        optimizer, state, stream = build_primary(views=4, queries=2)
        with ReplicaServer(state, optimizer.catalog) as server:
            with ChaosProxy(server.address) as proxy:
                replica = SnapshotReplica(
                    proxy.address, policy=FAST, breaker=quick_breaker()
                ).connect()
                pinned = state.snapshot()
                expected = {
                    c: EVALUATOR.concept_answers(c, pinned) for c in stream
                }
                for op in generate_update_stream(optimizer.sl_schema, state, 6, seed=3):
                    apply_update(state, op)
                proxy.partition()
                # The bound cannot be verified, but the replica has served
                # before: it reports degraded and keeps serving its pin.
                lag = replica.ensure_fresh(0)
                assert replica.degraded
                status = replica.status
                assert isinstance(status, DegradedServing)
                assert status.since_generation == replica.applied_generation
                assert status.bound == replica.staleness_bound
                assert lag == (status.last_known_lag or 0)
                for concept, answers in expected.items():
                    got, generation = replica.answer_concept(concept, check=True)
                    assert generation == pinned.generation
                    assert got == answers
                replica.close()

    def test_heal_clears_degraded_and_catches_up(self):
        optimizer, state, _ = build_primary(views=4, queries=2)
        with ReplicaServer(state, optimizer.catalog) as server:
            with ChaosProxy(server.address) as proxy:
                replica = SnapshotReplica(
                    proxy.address, policy=FAST, breaker=quick_breaker()
                ).connect()
                for op in generate_update_stream(optimizer.sl_schema, state, 4, seed=5):
                    apply_update(state, op)
                proxy.partition()
                replica.ensure_fresh(0)
                assert replica.degraded
                proxy.heal()
                import time

                time.sleep(0.02)  # let the breaker's cooldown lapse
                assert replica.ensure_fresh(0) == 0
                assert not replica.degraded
                assert replica.applied_generation == state.generation
                replica.close()

    def test_open_breaker_fails_fast_without_dial_or_pause(self):
        optimizer, state, _ = build_primary(views=2, queries=1)
        pauses = []
        with ReplicaServer(state, optimizer.catalog) as server:
            with ChaosProxy(server.address) as proxy:
                replica = SnapshotReplica(
                    proxy.address,
                    policy=network_fault_policy(sleep=pauses.append),
                    breaker=CircuitBreaker(cooldown=60.0),
                ).connect()
                proxy.partition()
                # One call spends its retry budget and trips the breaker.
                with pytest.raises(ReplicaConnectionError):
                    replica.primary_position()
                assert replica.breaker.state == "open"
                pauses.clear()
                dials = proxy.accepted
                # While the breaker is open, calls fail at once: no dial,
                # no backoff.
                with pytest.raises(ReplicaConnectionError):
                    replica.primary_position()
                assert replica.ensure_fresh() == 0
                assert isinstance(replica.status, DegradedServing)
                assert pauses == []
                assert proxy.accepted == dials
                replica.close()

    def test_half_open_probe_that_fails_to_apply_still_heals_the_breaker(
        self, monkeypatch
    ):
        optimizer, state, _ = build_primary(views=2, queries=1)
        now = [0.0]
        with ReplicaServer(state, optimizer.catalog) as server:
            with ChaosProxy(server.address) as proxy:
                replica = SnapshotReplica(
                    proxy.address,
                    policy=FAST,
                    breaker=CircuitBreaker(cooldown=60.0, clock=lambda: now[0]),
                ).connect()
                for op in generate_update_stream(optimizer.sl_schema, state, 2, seed=5):
                    apply_update(state, op)
                assert server.position[0] > replica.applied_sequence
                proxy.partition()
                with pytest.raises(ReplicaConnectionError):
                    replica.primary_position()
                proxy.heal()
                now[0] += 60.0  # the cooldown lapses: the next call probes

                def broken(record):
                    raise RuntimeError("epoch does not apply")

                # The probe reaches the primary, whose answer fails to apply.
                monkeypatch.setattr(replica, "_apply_epoch", broken)
                with pytest.raises(RuntimeError):
                    replica.poll()
                monkeypatch.undo()
                # The primary answered: the breaker closed, and later calls
                # go through on a fresh connection.
                assert replica.breaker.state == "closed"
                assert replica.primary_position() == server.position
                assert replica.poll() > 0
                assert replica.applied_sequence == server.position[0]
                replica.close()

    def test_cold_replica_cannot_degrade(self):
        # Degraded serving needs something to serve: with no completed
        # handshake the connection fault propagates.
        with ChaosProxy(("127.0.0.1", 1)) as proxy:
            proxy.partition()
            replica = SnapshotReplica(
                proxy.address, policy=FaultPolicy(max_retries=1, backoff=0.001)
            )
            with pytest.raises(OSError):
                replica.connect()
            assert not replica.degraded


# -- failover -----------------------------------------------------------------


def durable_primary(tmp, **kwargs):
    optimizer, state, stream = build_primary()
    maintainer = DurableMaintainer(
        state, optimizer.catalog, path=tmp, checkpoint_every=None, **kwargs
    )
    return optimizer, state, stream, maintainer


class TestFailover:
    def test_promotion_preserves_every_acked_commit(self):
        tmp = tempfile.mkdtemp()
        optimizer, state, stream, maintainer = durable_primary(tmp)
        with ReplicaServer(state, optimizer.catalog) as server:
            replica = SnapshotReplica(server.address).connect()
            ops = list(generate_update_stream(optimizer.sl_schema, state, 12, seed=3))
            for op in ops[:6]:
                apply_update(state, op)
            replica.ensure_fresh(0)  # replica pinned at the midpoint
            for op in ops[6:]:
                apply_update(state, op)
            assert state.last_commit_ticket.wait_durable(timeout=5.0)
            acked_sequence = maintainer.wal.durable_sequence
        maintainer.close()  # primary dies after the last ACK
        expected = {c: EVALUATOR.concept_answers(c, state) for c in stream}

        primary = FailoverCoordinator().promote(replica, tmp).maintainer
        try:
            report = primary.recovery_report
            assert report.recovered_sequence >= acked_sequence
            assert report.replayed_epochs > 0  # the WAL tail bridged the gap
            assert report.base == "live"  # no rebuild from the checkpoint
            for concept, answers in expected.items():
                assert EVALUATOR.concept_answers(concept, primary.state) == answers
        finally:
            primary.close()

    def test_promotion_rebases_onto_a_newer_checkpoint(self):
        tmp = tempfile.mkdtemp()
        optimizer, state, stream, maintainer = durable_primary(tmp)
        with ReplicaServer(state, optimizer.catalog) as server:
            replica = SnapshotReplica(server.address).connect()
            pinned_sequence = replica.applied_sequence
            for op in generate_update_stream(optimizer.sl_schema, state, 8, seed=7):
                apply_update(state, op)
            assert state.last_commit_ticket.wait_durable(timeout=5.0)
            # Checkpointing prunes the covered tail: the durable image is now
            # checkpoint + empty tail, and the replica's pin predates it.
            checkpoint = maintainer.checkpoint()
            assert pinned_sequence < checkpoint.sequence
        maintainer.close()
        expected = {c: EVALUATOR.concept_answers(c, state) for c in stream}

        primary = FailoverCoordinator().promote(replica, tmp).maintainer
        try:
            report = primary.recovery_report
            assert report.base == "checkpoint"  # rebuilt from the checkpoint
            assert report.checkpoint_sequence == checkpoint.sequence
            assert report.recovered_sequence >= checkpoint.sequence
            for concept, answers in expected.items():
                assert EVALUATOR.concept_answers(concept, primary.state) == answers
        finally:
            primary.close()

    def test_promoted_primary_accepts_and_logs_new_writes(self):
        tmp = tempfile.mkdtemp()
        optimizer, state, _, maintainer = durable_primary(tmp)
        with ReplicaServer(state, optimizer.catalog) as server:
            replica = SnapshotReplica(server.address).connect()
            for op in generate_update_stream(optimizer.sl_schema, state, 4, seed=9):
                apply_update(state, op)
            assert state.last_commit_ticket.wait_durable(timeout=5.0)
        maintainer.close()

        primary = FailoverCoordinator().promote(replica, tmp).maintainer
        try:
            before = primary.wal.durable_sequence
            for op in generate_update_stream(
                optimizer.sl_schema, primary.state, 3, seed=11
            ):
                apply_update(primary.state, op)
            ticket = primary.state.last_commit_ticket
            assert ticket is not None and ticket.wait_durable(timeout=5.0)
            assert primary.wal.durable_sequence > before
            # The new primary can itself back a replica server: the epoch
            # numbering continues the recovered log.
            assert primary.state.commit_sequence == primary.wal.durable_sequence
        finally:
            primary.close()

    def test_revived_stale_primary_is_fenced(self):
        tmp = tempfile.mkdtemp()
        optimizer, state, _, maintainer = durable_primary(tmp)
        coordinator = FailoverCoordinator()
        coordinator.register_primary(maintainer.scheduler)
        with ReplicaServer(state, optimizer.catalog) as server:
            replica = SnapshotReplica(server.address).connect()
            for op in generate_update_stream(optimizer.sl_schema, state, 4, seed=13):
                apply_update(state, op)
            assert state.last_commit_ticket.wait_durable(timeout=5.0)
            sequence_at_failover = state.commit_sequence

        # The old primary merely *stalls* (no crash): promotion bumps the
        # fencing epoch, so when it revives, the write gate rejects it
        # before any mutation or WAL append can happen.
        primary = coordinator.promote(replica, tmp + "-new").maintainer
        try:
            ops = list(
                generate_update_stream(optimizer.sl_schema, state, 2, seed=15)
            )
            with pytest.raises(FencedOut) as caught:
                apply_update(state, ops[0])
            assert caught.value.stale_epoch < caught.value.current_epoch
            assert state.commit_sequence == sequence_at_failover  # nothing slipped
            # The promoted primary keeps writing under the current epoch.
            for op in generate_update_stream(
                optimizer.sl_schema, primary.state, 2, seed=17
            ):
                apply_update(primary.state, op)
            assert primary.state.last_commit_ticket.wait_durable(timeout=5.0)
        finally:
            primary.close()
            maintainer.close()

    def test_promoted_primary_checkpoints_and_compacts(self):
        tmp = tempfile.mkdtemp()
        optimizer, state, _, maintainer = durable_primary(tmp)
        with ReplicaServer(state, optimizer.catalog) as server:
            replica = SnapshotReplica(server.address).connect()
        maintainer.checkpoint()
        maintainer.close()

        primary = FailoverCoordinator().promote(replica, tmp, segment_bytes=512).maintainer
        try:
            start = primary.state.commit_sequence
            for index in range(primary.checkpoint_every):
                primary.state.add_object(f"promoted{index}")
            covered = start + primary.checkpoint_every
            names = os.listdir(tmp)
            assert [name for name in names if name.endswith(".ckpt")] == [
                f"checkpoint-{covered:012d}.ckpt"
            ]
            # The segments the checkpoint covers are gone; the active one stays.
            assert len([name for name in names if name.endswith(".seg")]) == 1
        finally:
            primary.close()

    def test_promote_rejects_a_mismatched_catalog(self):
        tmp = tempfile.mkdtemp()
        optimizer, state, _, maintainer = durable_primary(tmp)
        with ReplicaServer(state, optimizer.catalog) as server:
            replica = SnapshotReplica(server.address).connect()
        maintainer.checkpoint()
        maintainer.close()
        dropped = sorted(replica.optimizer.catalog.names())[0]
        replica.optimizer.catalog.unregister(dropped)
        with pytest.raises(WalError, match=f"missing=\\['{dropped}'\\]"):
            FailoverCoordinator().promote(replica, tmp)
        FailoverCoordinator().promote(replica, tmp, strict_catalog=False).maintainer.close()

    def test_promote_requires_a_connected_replica(self):
        with pytest.raises(ValueError):
            FailoverCoordinator().promote(
                SnapshotReplica(("127.0.0.1", 1)), tempfile.mkdtemp()
            )


# -- the serving chaos oracle -------------------------------------------------

ORACLE_SCHEMA = random_schema(
    SchemaProfile(classes=5, attributes=3, hierarchy_depth=2), seed=11
)
ORACLE_OBJECTS, ORACLE_CLASSES, ORACLE_ATTRS = mutation_vocabulary(
    ORACLE_SCHEMA, object_count=6
)

#: One chaos step: mutate the primary, poll, serve, or inject a fault.
chaos_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("mutate"),
            mutations(ORACLE_OBJECTS, ORACLE_CLASSES, ORACLE_ATTRS, max_batch=4),
        ),
        st.tuples(st.just("poll")),
        st.tuples(st.just("serve")),
        st.tuples(st.just("kill")),
        st.tuples(st.just("partition")),
        st.tuples(st.just("heal")),
        st.tuples(st.just("drop_next")),
        st.tuples(st.just("truncate_next"), st.integers(min_value=8, max_value=512)),
    ),
    min_size=1,
    max_size=20,
)


@settings(max_examples=15, deadline=None)
@given(steps=chaos_steps, tail_limit=st.integers(min_value=2, max_value=32))
def test_serving_chaos_oracle(steps, tail_limit):
    """Faults cost freshness, never correctness.

    Whatever fault schedule hypothesis draws, every served answer must
    equal the from-scratch evaluation of the generation the replica had
    pinned when it served -- and that generation must be one the primary
    actually committed.  Served-while-degraded rounds additionally carry
    the typed ``DegradedServing`` status.  After a final heal, the
    replica converges exactly.
    """
    state = DatabaseState(ORACLE_SCHEMA)
    state.add_object("o0", ORACLE_CLASSES[0])
    state.add_object("o1", ORACLE_CLASSES[-1])
    catalog = hierarchical_catalog(ORACLE_SCHEMA, 6, seed=2)
    catalog.refresh_all(state)
    probes = [view.concept for view in catalog][:4]

    history = {state.generation: state.snapshot()}
    with ReplicaServer(state, catalog, tail_limit=tail_limit) as server:
        with ChaosProxy(server.address) as proxy:
            replica = SnapshotReplica(
                proxy.address,
                staleness_bound=4,
                policy=FAST,
                breaker=CircuitBreaker(failure_threshold=1, cooldown=0.005),
            ).connect()
            try:
                for step in steps:
                    kind = step[0]
                    if kind == "mutate":
                        apply_mutation(state, step[1])
                        history[state.generation] = state.snapshot()
                    elif kind == "poll":
                        replica.poll()
                    elif kind == "kill":
                        proxy.kill_connections()
                    elif kind == "partition":
                        proxy.partition()
                    elif kind == "heal":
                        proxy.heal()
                    elif kind == "drop_next":
                        proxy.schedule(["drop"])
                    elif kind == "truncate_next":
                        proxy.schedule([("truncate", step[1])])
                    else:  # serve
                        replica.ensure_fresh()
                        served_generation = replica.applied_generation
                        assert served_generation in history, (
                            "replica pinned a generation the primary never committed"
                        )
                        pinned = history[served_generation]
                        for concept in probes:
                            answers, generation = replica.answer_concept(
                                concept, check=True
                            )
                            assert generation == served_generation
                            assert answers == EVALUATOR.concept_answers(concept, pinned)
                # Final convergence: heal everything (including faults still
                # queued for future connections) and catch up exactly.
                proxy.heal()
                proxy.clear_schedule()
                import time

                for _ in range(20):
                    time.sleep(0.01)  # let the breaker's cooldown lapse
                    replica.ensure_fresh(0)
                    if not replica.degraded:
                        break
                assert not replica.degraded
                assert replica.applied_generation == state.generation
                for view in catalog:
                    expected = EVALUATOR.concept_answers(view.concept, state)
                    local = replica.optimizer.catalog.get(view.name)
                    assert local.stored_extent == expected, view.name
            finally:
                replica.close()


# -- the failover oracle ------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    epochs=st.integers(min_value=1, max_value=10),
    catchup_after=st.integers(min_value=0, max_value=10),
    sync_every=st.sampled_from([1, 2, 4]),
    take_checkpoint=st.booleans(),
)
def test_failover_oracle(epochs, catchup_after, sync_every, take_checkpoint):
    """No fsync-ACKed commit is ever lost across a promotion.

    The primary commits ``epochs`` mutation epochs (all ACKed -- the last
    ticket's durable wait covers the group), the replica catches up at an
    arbitrary drawn point, optionally a checkpoint prunes the tail, then
    the primary dies.  The promoted replica must answer exactly like the
    dead primary's final state, start at or past the last ACKed
    sequence, and fence the old primary's scheduler.
    """
    tmp = tempfile.mkdtemp()
    optimizer, state, stream = build_primary()
    maintainer = DurableMaintainer(
        state,
        optimizer.catalog,
        path=tmp,
        checkpoint_every=None,
        sync_every=sync_every,
    )
    coordinator = FailoverCoordinator()
    coordinator.register_primary(maintainer.scheduler)
    promotion = None
    try:
        with ReplicaServer(state, optimizer.catalog) as server:
            replica = SnapshotReplica(server.address).connect()
            ops = list(
                generate_update_stream(optimizer.sl_schema, state, epochs, seed=21)
            )
            for index, op in enumerate(ops):
                apply_update(state, op)
                if index + 1 == catchup_after:
                    replica.ensure_fresh(0)
            assert state.last_commit_ticket.wait_durable(timeout=5.0)
            acked = maintainer.wal.durable_sequence
            if take_checkpoint:
                maintainer.checkpoint()
        expected = {c: EVALUATOR.concept_answers(c, state) for c in stream}

        promotion = coordinator.promote(replica, tmp)
        primary = promotion.maintainer
        assert primary.recovery_report.recovered_sequence >= acked
        for concept, answers in expected.items():
            assert EVALUATOR.concept_answers(concept, primary.state) == answers
        with pytest.raises(FencedOut):
            apply_update(state, ops[0])
    finally:
        if promotion is not None:
            promotion.maintainer.close()
        maintainer.close()


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_failover_crash_oracle(data):
    """A promoted primary recovers to a prefix of its own history.

    The primary commits under a drawn ``sync_every`` (``None``: only a
    waiter's group fsync makes a commit durable), a replica catches up at
    a drawn point, and the primary dies with its durable image.  The
    promoted primary's history is the replica's prefix, then the durable
    tail, then its own commits; it ACKs commits of its own and dies too.
    Recovery must land on that history, at or past every ACKed commit.
    """
    fs = FaultyFileSystem()
    sync_every = data.draw(st.sampled_from([1, 2, None]), label="sync_every")
    state = DatabaseState(ORACLE_SCHEMA)
    state.add_object("o0", ORACLE_CLASSES[0])
    catalog = hierarchical_catalog(ORACLE_SCHEMA, 6, seed=2)
    catalog.refresh_all(state)
    maintainer = DurableMaintainer(
        state, catalog, path="/wal", fs=fs, sync_every=sync_every, checkpoint_every=None
    )
    maintainer.checkpoint()  # the seed data predates the log
    history = {state.commit_sequence: surface(state.snapshot())}
    steps = st.lists(
        mutations(ORACLE_OBJECTS, ORACLE_CLASSES, ORACLE_ATTRS, max_batch=4),
        min_size=1,
        max_size=8,
    )
    batches = data.draw(steps, label="primary")
    catch_up = data.draw(st.integers(0, len(batches)), label="catch_up")
    try:
        with ReplicaServer(state, catalog) as server:
            replica = SnapshotReplica(server.address).connect()
            for index, batch in enumerate(batches):
                apply_mutation(state, batch)
                history[state.commit_sequence] = surface(state.snapshot())
                if index + 1 == catch_up:
                    replica.ensure_fresh(0)
    finally:
        maintainer.kill()
    fs.crash()

    promotion = FailoverCoordinator().promote(replica, "/wal", fs=fs, sync_every=sync_every)
    primary = promotion.maintainer
    acked = 0
    try:
        start = primary.state.commit_sequence
        history = {sequence: value for sequence, value in history.items() if sequence <= start}
        assert surface(primary.state.snapshot()) == history[start]
        for batch in data.draw(steps, label="promoted"):
            before = primary.state.commit_sequence
            apply_mutation(primary.state, batch)
            if primary.state.commit_sequence != before:
                assert primary.state.last_commit_ticket.wait_durable(timeout=5.0)
                acked = primary.state.commit_sequence
            history[primary.state.commit_sequence] = surface(primary.state.snapshot())
    finally:
        primary.kill()
    fs.crash()

    recovered_catalog = hierarchical_catalog(ORACLE_SCHEMA, 6, seed=2)
    recovered = DurableMaintainer.open("/wal", ORACLE_SCHEMA, recovered_catalog, fs=fs)
    try:
        report = recovered.recovery_report
        assert report.recovered_sequence >= acked
        assert surface(recovered.state.snapshot()) == history[report.recovered_sequence]
        for view in recovered_catalog:
            expected = EVALUATOR.concept_answers(view.concept, recovered.state)
            assert view.stored_extent == expected, view.name
    finally:
        recovered.kill()
