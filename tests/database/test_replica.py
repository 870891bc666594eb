"""Tests for the snapshot-replica tier (server, reader, staleness oracle).

The centerpiece is the staleness oracle: under hypothesis-drawn mutation
streams (the shared ``tests/strategies.py`` vocabulary) interleaved with
replica polls, **every** replica-served answer must equal a from-scratch
refresh of the primary generation the replica had pinned when it served
-- prefix consistency across a process-shaped boundary -- and after the
catch-up protocol the pinned generation is never staler than the
configured bound.  Deterministic tests pin the protocol mechanics:
snapshot leg, delta leg, tail-overflow rebase, schema-swap resync, frame
integrity and the error responses.
"""

import socket

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import checker as checker_module
from repro.core.checker import clear_shared_decision_cache
from repro.database import replica as replica_module
from repro.database.cacheserver import (
    DecisionCacheServer,
    RemoteDecisionCache,
    cache_namespace,
)
from repro.database.query_eval import QueryEvaluator
from repro.database.replica import (
    PROTOCOL_VERSION,
    ReplicaConnectionError,
    ReplicaProtocolError,
    ReplicaServer,
    SnapshotReplica,
    StalenessError,
)
from repro.database.store import DatabaseState
from repro.optimizer.optimizer import SemanticQueryOptimizer
from repro.workloads.driver import (
    apply_update,
    batch_workload_setup,
    generate_update_stream,
)
from repro.workloads.synthetic import SchemaProfile, random_schema

from ..strategies import apply_mutation, mutation_vocabulary, mutations

EVALUATOR = QueryEvaluator(None)


def build_primary(workload="university", views=6, queries=4, seed=0):
    schema, state, catalog, stream = batch_workload_setup(workload, views, queries, seed)
    optimizer = SemanticQueryOptimizer(schema)
    for name, concept in catalog.items():
        optimizer.register_view_concept(name, concept)
    optimizer.catalog.refresh_all(state)
    return optimizer, state, stream


# -- deterministic protocol mechanics ----------------------------------------


class TestReplicaProtocol:
    def test_snapshot_leg_rebuilds_state_and_answers(self):
        optimizer, state, stream = build_primary()
        with ReplicaServer(state, optimizer.catalog) as server:
            replica = SnapshotReplica(server.address).connect()
            assert replica.snapshot_loads == 1
            assert replica.state.objects == state.objects
            for concept in stream:
                answers, _ = replica.answer_concept(concept, check=True)
                assert answers == optimizer.evaluator.concept_answers(concept, state)
            replica.close()

    def test_delta_leg_applies_epochs_incrementally(self):
        optimizer, state, stream = build_primary()
        with ReplicaServer(state, optimizer.catalog, tail_limit=256) as server:
            replica = SnapshotReplica(server.address).connect()
            for op in generate_update_stream(optimizer.sl_schema, state, 12, seed=3):
                apply_update(state, op)
            assert replica.lag > 0
            replica.ensure_fresh(0)
            assert replica.lag == 0
            assert replica.epochs_applied > 0
            assert replica.snapshot_loads == 1  # never re-seeded
            for concept in stream:
                answers, _ = replica.answer_concept(concept, check=True)
                assert answers == optimizer.evaluator.concept_answers(concept, state)
            replica.close()

    def test_tail_overflow_reseeds_with_a_snapshot(self):
        optimizer, state, stream = build_primary()
        with ReplicaServer(state, optimizer.catalog, tail_limit=4) as server:
            replica = SnapshotReplica(server.address).connect()
            for op in generate_update_stream(optimizer.sl_schema, state, 24, seed=5):
                apply_update(state, op)
            replica.ensure_fresh(0)
            assert replica.snapshot_loads >= 2  # fell behind the rebased tail
            for concept in stream:
                answers, _ = replica.answer_concept(concept, check=True)
                assert answers == optimizer.evaluator.concept_answers(concept, state)
            replica.close()

    def test_generation_stamps_track_the_primary(self):
        optimizer, state, _ = build_primary()
        with ReplicaServer(state, optimizer.catalog) as server:
            replica = SnapshotReplica(server.address).connect()
            for op in generate_update_stream(optimizer.sl_schema, state, 6, seed=7):
                apply_update(state, op)
            replica.ensure_fresh(0)
            sequence, generation = server.position
            assert replica.applied_sequence == sequence
            assert replica.applied_generation == generation == state.generation
            replica.close()

    def test_staleness_bound_violation_raises(self):
        optimizer, state, _ = build_primary()
        with ReplicaServer(state, optimizer.catalog) as server:
            replica = SnapshotReplica(server.address, staleness_bound=0).connect()
            for op in generate_update_stream(optimizer.sl_schema, state, 4, seed=9):
                apply_update(state, op)
            # Zero polls allowed: the bound cannot be met, so it must raise
            # a typed staleness failure rather than silently serve stale
            # answers.
            try:
                replica.ensure_fresh(0, attempts=0)
            except StalenessError as error:
                assert error.lag > error.bound == 0
            else:
                raise AssertionError("expected StalenessError")
            replica.close()

    def test_one_epoch_catch_up_asks_the_position_once(self, monkeypatch):
        optimizer, state, _ = build_primary()
        with ReplicaServer(state, optimizer.catalog) as server:
            replica = SnapshotReplica(server.address).connect()
            sent = []
            send = replica_module.Connection.send

            def recording_send(conn, *lines):
                sent.extend(line.split()[0] for line in lines)
                send(conn, *lines)

            monkeypatch.setattr(replica_module.Connection, "send", recording_send)
            state.add_object("fresh")
            # The poll's DELTA header says where the primary is: no
            # second STAT confirms what it already told.
            assert replica.ensure_fresh(0) == 0
            assert sent == ["STAT", "POLL"]
            assert "fresh" in replica.state.objects
            assert replica.applied_sequence == server.position[0]
            replica.close()

    def test_bad_version_and_malformed_commands(self):
        optimizer, state, _ = build_primary(views=2, queries=1)
        with ReplicaServer(state, optimizer.catalog) as server:
            with socket.create_connection(server.address, timeout=2.0) as sock:
                sock.settimeout(2.0)
                wfile, rfile = sock.makefile("wb"), sock.makefile("rb")
                wfile.write(b"POLL notanumber\r\n")
                wfile.write(b"BOGUS\r\n")
                wfile.write(b"HELLO repro-replica/999 0\r\n")
                wfile.flush()
                replies = [rfile.readline().decode().strip() for _ in range(3)]
            assert all(reply.startswith("ERROR") for reply in replies)

    def test_stat_reports_primary_position(self):
        optimizer, state, _ = build_primary(views=2, queries=1)
        with ReplicaServer(state, optimizer.catalog) as server:
            replica = SnapshotReplica(server.address).connect()
            assert replica.primary_position() == server.position
            replica.close()

    def test_oversized_snapshot_is_refused_not_sent(self, monkeypatch):
        """A server answers ERROR instead of a frame its readers reject.

        The university snapshot pickles to about 27 KB; under a 16 KiB
        bound the handshake fails on its first attempt with a protocol
        error (never retried), not with a transport fault after retries.
        """
        optimizer, state, _ = build_primary()
        monkeypatch.setattr(replica_module, "_MAX_WIRE_FRAME_BYTES", 16 << 10)
        with ReplicaServer(state, optimizer.catalog) as server:
            replica = SnapshotReplica(server.address)
            with pytest.raises(ReplicaProtocolError) as raised:
                replica.connect()
            assert not isinstance(raised.value, ReplicaConnectionError)
            assert "exceeds the 16 KiB wire bound" in str(raised.value)
            assert replica.reconnects == 1
            assert replica.state is None
            replica.close()

    def test_oversized_epoch_is_refused_not_sent(self, monkeypatch):
        optimizer, state, _ = build_primary()
        with ReplicaServer(state, optimizer.catalog) as server:
            replica = SnapshotReplica(server.address).connect()
            monkeypatch.setattr(replica_module, "_MAX_WIRE_FRAME_BYTES", 16 << 10)
            before = replica.applied_sequence
            with state.batch():  # one epoch that pickles to about 42 KB
                for index in range(2000):
                    state.add_object(f"bulk{index}")
            with pytest.raises(ReplicaProtocolError) as raised:
                replica.poll()
            assert not isinstance(raised.value, ReplicaConnectionError)
            assert "wire bound" in str(raised.value)
            assert replica.reconnects == 1
            assert replica.applied_sequence == before
            # The refusal drops the connection; the next request redials and
            # is served.
            assert replica.primary_position() == server.position
            assert replica.reconnects == 2
            replica.close()

    def test_protocol_version_pinned(self):
        # The conformance suite keys on this token; bumping it is a
        # deliberate wire change that must update docs/PROTOCOL.md too.
        assert PROTOCOL_VERSION == "repro-replica/1"


# -- serving through the remote decision cache --------------------------------


def test_warmed_remote_serves_first_contacts_without_a_completion(monkeypatch):
    """A peer replica publishes the stream's decisions; the next completes none.

    Replicas match through their optimizer's own walk, whose checker asks
    the remote tier before any completion: every pair the second replica's
    walk cannot settle locally (memo, told seed, shortcut) was completed
    and published by the first.  Both replicas rebuild their catalogs from
    the shipped snapshot, so their decisions share one id keyspace.
    """
    optimizer, state, stream = build_primary(views=12, queries=8)
    with DecisionCacheServer() as cache_server, ReplicaServer(
        state, optimizer.catalog
    ) as server:
        namespace = cache_namespace(optimizer.sl_schema, optimizer.catalog)
        peer_remote = RemoteDecisionCache(cache_server.address, namespace, pool_size=1)
        peer = SnapshotReplica(server.address, remote=peer_remote).connect()
        clear_shared_decision_cache()
        peer.optimizer.checker.clear_cache()
        for concept in stream:
            peer.answer_concept(concept)
        assert peer_remote.sets > 0
        peer_remote.stats()  # a round trip behind the write-behind sets
        peer.close()
        peer_remote.close()

        clear_shared_decision_cache()
        remote = RemoteDecisionCache(cache_server.address, namespace)
        replica = SnapshotReplica(server.address, remote=remote).connect()
        assert (remote.hits, remote.misses) == (0, 0)  # classified locally
        clear_shared_decision_cache()

        decide = checker_module.decide_subsumption
        completions = []

        def counted(query, view, *args, **kwargs):
            if view != checker_module._PROBE:
                completions.append((query, view))
            return decide(query, view, *args, **kwargs)

        monkeypatch.setattr(checker_module, "decide_subsumption", counted)
        pinned = state.snapshot()
        for concept in stream:
            answers, generation = replica.answer_concept(concept)
            assert generation == pinned.generation
            assert answers == EVALUATOR.concept_answers(concept, pinned)
        statistics = replica.optimizer.checker.statistics
        assert completions == []
        assert statistics["remote_hits"] > 0
        assert statistics["remote_misses"] == 0
        replica.close()
        remote.close()


# -- the staleness oracle -----------------------------------------------------

ORACLE_SCHEMA = random_schema(
    SchemaProfile(classes=5, attributes=3, hierarchy_depth=2), seed=11
)
ORACLE_OBJECTS, ORACLE_CLASSES, ORACLE_ATTRS = mutation_vocabulary(
    ORACLE_SCHEMA, object_count=6
)

#: One oracle step: a mutation epoch against the primary, or a replica
#: poll, or a serve round (answer every probe concept on the replica).
oracle_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("mutate"),
            mutations(ORACLE_OBJECTS, ORACLE_CLASSES, ORACLE_ATTRS, max_batch=4),
        ),
        st.tuples(st.just("poll")),
        st.tuples(st.just("serve")),
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=20, deadline=None)
@given(steps=oracle_steps, tail_limit=st.integers(min_value=2, max_value=32))
@example(
    steps=[
        ("mutate", ("set", "o0", "p1", "o1")),
        ("mutate", ("assert", "o0", "K2")),
        ("poll",),
        ("serve",),
    ],
    tail_limit=8,
)
def test_replica_staleness_oracle(steps, tail_limit):
    """Every served answer == from-scratch refresh of the pinned generation.

    The oracle tracks a ``generation -> snapshot`` history on the primary
    (one pin per committed epoch).  Whatever interleaving of mutation
    epochs, polls and serves hypothesis draws -- including tail-overflow
    rebases forced by small ``tail_limit``s -- each serve must (a) answer
    for a generation actually committed on the primary, (b) equal the
    from-scratch evaluation over that generation's snapshot, and (c) after
    ``ensure_fresh`` the pinned generation must be within the staleness
    bound of the primary's newest.

    Only legal states are served: a drawn epoch reaches the primary only if
    it leaves a copy of the state satisfying every schema axiom.  The
    paper's subsumption-based answers are promised for legal states only;
    on an illegal one a schema-subsumer's extent is not a sound filter
    (the pinned example: ``o0`` gains ``p1 o1`` and ``K2``, and the
    matcher's subsumer of the probe also requires a class ``o0`` lacks).
    """
    from ..strategies import hierarchical_catalog

    state = DatabaseState(ORACLE_SCHEMA)
    state.add_object("o0", ORACLE_CLASSES[0])
    state.add_object("o1", ORACLE_CLASSES[-1])
    catalog = hierarchical_catalog(ORACLE_SCHEMA, 6, seed=2)
    catalog.refresh_all(state)
    probes = [view.concept for view in catalog][:4]

    history = {state.generation: state.snapshot()}
    bound = 4
    with ReplicaServer(state, catalog, tail_limit=tail_limit) as server:
        replica = SnapshotReplica(server.address, staleness_bound=bound).connect()
        try:
            for step in steps:
                if step[0] == "mutate":
                    trial = DatabaseState.from_snapshot(state.snapshot())
                    apply_mutation(trial, step[1])
                    if not trial.is_consistent():
                        continue
                    apply_mutation(state, step[1])
                    history[state.generation] = state.snapshot()
                elif step[0] == "poll":
                    replica.poll()
                else:
                    lag = replica.ensure_fresh()
                    assert lag <= bound
                    served_generation = replica.applied_generation
                    assert served_generation in history, (
                        "replica pinned a generation the primary never committed"
                    )
                    pinned = history[served_generation]
                    for concept in probes:
                        answers, generation = replica.answer_concept(concept, check=True)
                        assert generation == served_generation
                        assert answers == EVALUATOR.concept_answers(concept, pinned)
            # Final convergence: catch up fully and compare extents.
            replica.ensure_fresh(0)
            assert replica.applied_generation == state.generation
            for view in catalog:
                expected = EVALUATOR.concept_answers(view.concept, state)
                local = replica.optimizer.catalog.get(view.name)
                assert local.stored_extent == expected, view.name
        finally:
            replica.close()
