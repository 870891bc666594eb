"""Tests for the shared decision-cache tier (server, client, checker tier).

The protocol-level behavior (framing, responses, error handling) is pinned
here against a live server on an ephemeral port; the *normative* wire
examples live in ``docs/PROTOCOL.md`` and are executed by
``test_protocol_conformance.py``.  The integration tests check the
contract that matters: a remote hit replaces a full completion without
ever changing a decision, and a dead server degrades to a cold cache
instead of an error.
"""

import pickle
import socket

import pytest

from repro.concepts.intern import concept_id
from repro.concepts.normalize import normalize_concept
from repro.core.checker import SubsumptionChecker, clear_shared_decision_cache
from repro.database.cacheserver import (
    DecisionCacheServer,
    RemoteDecisionCache,
    cache_namespace,
)
from repro.optimizer.optimizer import SemanticQueryOptimizer
from repro.optimizer.parallel import ShardedMatcher
from repro.workloads.driver import batch_workload_setup


@pytest.fixture()
def server():
    with DecisionCacheServer(max_entries=64) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return RemoteDecisionCache(server.address, "testns")


def raw_exchange(address, *lines):
    """Send raw protocol lines; return every response line until quiescence."""
    with socket.create_connection(address, timeout=2.0) as sock:
        sock.settimeout(2.0)
        wfile = sock.makefile("wb")
        rfile = sock.makefile("rb")
        for line in lines:
            wfile.write(line.encode() + b"\r\n")
        wfile.write(b"quit\r\n")
        wfile.flush()
        return [raw.decode().strip() for raw in rfile.readlines()]


# -- protocol units ----------------------------------------------------------


class TestWireProtocol:
    def test_get_set_roundtrip(self, server):
        replies = raw_exchange(
            server.address,
            "set ns 10:20 1",
            "set ns 30:40 0",
            "get ns 10:20 30:40 50:60",
        )
        assert replies == [
            "STORED",
            "STORED",
            "VALUE 10:20 1",
            "VALUE 30:40 0",
            "END",
        ]

    def test_set_noreply_is_silent(self, server):
        replies = raw_exchange(server.address, "set ns 1:2 1 noreply", "get ns 1:2")
        assert replies == ["VALUE 1:2 1", "END"]

    def test_touch_and_not_found(self, server):
        replies = raw_exchange(
            server.address, "set ns 1:2 1", "touch ns 1:2", "touch ns 9:9"
        )
        assert replies == ["STORED", "TOUCHED", "NOT_FOUND"]

    def test_flush_drops_only_the_namespace(self, server):
        replies = raw_exchange(
            server.address,
            "set a 1:2 1",
            "set b 1:2 1",
            "flush a",
            "get a 1:2",
            "get b 1:2",
        )
        assert replies == ["STORED", "STORED", "OK 1", "END", "VALUE 1:2 1", "END"]

    def test_version_and_errors(self, server):
        replies = raw_exchange(
            server.address,
            "version",
            "bogus",
            "set ns notakey 1",
            "set ns 1:2 7",
            "get ns",
        )
        assert replies[0] == f"VERSION {DecisionCacheServer.PROTOCOL_VERSION}"
        assert all(reply.startswith("ERROR") for reply in replies[1:])

    def test_stats_counters(self, server, client):
        client.set(1, 2, True)
        assert client.get(1, 2) is True
        assert client.get(3, 4) is None
        stats = client.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["sets"] == 1

    def test_lru_eviction_bounds_entries(self, server, client):
        for index in range(100):
            client.set(index, index, True)
        stats = client.stats()
        assert stats["entries"] == 64
        assert stats["evictions"] == 36
        # The newest entries survived, the oldest were evicted.
        assert client.get(99, 99) is True
        assert client.get(0, 0) is None

    def test_eviction_telemetry_is_exact(self, server, client):
        # Empty cache: zeroed gauges, a well-defined hit rate.
        stats = client.stats()
        assert stats["resident_bytes"] == 0
        assert stats["hit_rate"] == 0.0
        # One entry pins the per-entry footprint (all keys below are
        # same-shaped small-int pairs, so every entry costs the same).
        client.set(0, 0, True)
        per_entry = client.stats()["resident_bytes"]
        assert per_entry > 0
        # Replacing a value must not double-count the entry.
        client.set(0, 0, False)
        assert client.stats()["resident_bytes"] == per_entry
        # Fill past the LRU cap: evictions release exactly what the
        # doomed entries held, so the gauge is cap * per_entry -- not a
        # monotonically growing estimate.
        for index in range(1, 200):
            client.set(index, index, True)
        stats = client.stats()
        assert stats["entries"] == 64
        assert stats["evictions"] == 200 - 64
        assert stats["resident_bytes"] == 64 * per_entry
        # The hit rate tracks gets exactly: one hit, one miss.
        assert client.get(199, 199) is True
        assert client.get(0, 0) is None  # evicted long ago
        assert client.stats()["hit_rate"] == pytest.approx(0.5)
        # Flushing the namespace returns the gauge to zero.
        client.flush_namespace()
        assert client.stats()["resident_bytes"] == 0


# -- client behavior ---------------------------------------------------------


class TestRemoteDecisionCache:
    def test_get_many_single_round_trip(self, server, client):
        client.set_many({(1, 2): True, (3, 4): False})
        values = client.get_many([(1, 2), (3, 4), (5, 6)])
        assert values == {(1, 2): True, (3, 4): False}
        assert client.hits == 2 and client.misses == 1

    def test_namespaces_do_not_leak(self, server):
        left = RemoteDecisionCache(server.address, "left")
        right = RemoteDecisionCache(server.address, "right")
        left.set(1, 2, True)
        assert left.get(1, 2) is True
        assert right.get(1, 2) is None

    def test_dead_server_degrades_to_noop(self):
        server = DecisionCacheServer().start()
        client = RemoteDecisionCache(server.address, "ns")
        client.set(1, 2, True)
        assert client.get(1, 2) is True
        server.close()
        client.close()  # force a re-dial against the closed listener
        assert client.get(1, 2) is None
        assert client.dead
        # Every later call is a cheap no-op, not an error.
        client.set(3, 4, True)
        assert client.get(3, 4) is None
        assert client.stats() == {}

    def test_reconnect_rearms_a_dead_client(self, server):
        client = RemoteDecisionCache(("127.0.0.1", 1), "ns", timeout=0.2)
        assert client.get(1, 2) is None
        assert client.dead
        client.address = server.address
        assert client.reconnect()
        client.set(1, 2, False)
        assert client.get(1, 2) is False

    def test_pickles_by_address(self, server, client):
        client.set(1, 2, True)
        # The set is write-behind; the clone reads on a new connection,
        # which nothing orders after it.  A synchronous get on the writing
        # client's connection (served in request order) lands the write.
        assert client.get(1, 2) is True
        clone = pickle.loads(pickle.dumps(client))
        assert clone.address == client.address
        assert clone.namespace == client.namespace
        assert clone.get(1, 2) is True


# -- the namespace token -----------------------------------------------------


class TestCacheNamespace:
    def test_same_identity_same_token(self):
        schema, _, catalog, _ = batch_workload_setup("university", 4, 2, 0)
        optimizer = SemanticQueryOptimizer(schema)
        for name, concept in catalog.items():
            optimizer.register_view_concept(name, concept)
        token = cache_namespace(optimizer.sl_schema, optimizer.catalog)
        again = cache_namespace(optimizer.sl_schema, optimizer.catalog)
        assert token == again

    def test_catalog_change_changes_token(self):
        schema, _, catalog, _ = batch_workload_setup("university", 4, 2, 0)
        optimizer = SemanticQueryOptimizer(schema)
        items = list(catalog.items())
        for name, concept in items:
            optimizer.register_view_concept(name, concept)
        before = cache_namespace(optimizer.sl_schema, optimizer.catalog)
        optimizer.register_view_concept("extra_view", items[0][1])
        after = cache_namespace(optimizer.sl_schema, optimizer.catalog)
        assert before != after

    def test_repair_rule_flag_changes_token(self):
        schema, _, catalog, _ = batch_workload_setup("university", 4, 2, 0)
        optimizer = SemanticQueryOptimizer(schema)
        for name, concept in catalog.items():
            optimizer.register_view_concept(name, concept)
        with_repair = cache_namespace(
            optimizer.sl_schema, optimizer.catalog, use_repair_rule=True
        )
        without = cache_namespace(
            optimizer.sl_schema, optimizer.catalog, use_repair_rule=False
        )
        assert with_repair != without


# -- the checker's remote tier ------------------------------------------------


def _completing_pair(schema, catalog, stream):
    """A (query, view) pair that no memo or shortcut decides: it completes."""
    for query in stream:
        for view in catalog.values():
            probe = SubsumptionChecker(schema, shared_cache=False)
            probe.subsumes(query, view)
            stats = probe.statistics
            if not (
                stats["told_shortcuts"]
                or stats["signature_rejections"]
                or stats["profile_rejections"]
            ):
                return normalize_concept(query), normalize_concept(view)
    raise AssertionError("the workload has no pair that needs a completion")


def _counting_completions(monkeypatch):
    """Count full completions (not facts-only profiles) the checker runs."""
    from repro.core import checker as checker_module

    decide = checker_module.decide_subsumption
    full = []

    def counted(query, view, *args, **kwargs):
        if view != checker_module._PROBE:
            full.append((query, view))
        return decide(query, view, *args, **kwargs)

    monkeypatch.setattr(checker_module, "decide_subsumption", counted)
    return full


class TestCheckerSeam:
    def _pair(self):
        schema, _, catalog, stream = batch_workload_setup("synthetic", 6, 4, 0)
        query, view = _completing_pair(schema, catalog, stream)
        return schema, query, view, (concept_id(query), concept_id(view))

    def test_remote_hit_replaces_the_completion(self, server, monkeypatch):
        schema, query, view, key = self._pair()
        remote = RemoteDecisionCache(server.address, "seam")
        clear_shared_decision_cache()
        decision = SubsumptionChecker(schema, remote=remote).subsumes(query, view)
        assert remote.get(*key) is decision

        # A second cold checker hits the published decision instead of
        # completing.  Clearing the process-wide shared cache simulates the
        # second checker living in another process.
        clear_shared_decision_cache()
        full = _counting_completions(monkeypatch)
        second = SubsumptionChecker(schema, remote=remote)
        assert second.subsumes(query, view) is decision
        assert second.statistics["remote_hits"] == 1
        assert second.statistics["remote_misses"] == 0
        assert full == []
        spec = SubsumptionChecker(schema, shared_cache=False, shortcuts=False)
        assert decision == spec.subsumes(query, view)

    def test_remote_miss_completes_locally_and_publishes(self, server, monkeypatch):
        schema, query, view, key = self._pair()
        remote = RemoteDecisionCache(server.address, "seam-miss")
        clear_shared_decision_cache()
        full = _counting_completions(monkeypatch)
        checker = SubsumptionChecker(schema, remote=remote)
        decision = checker.subsumes(query, view)
        assert full == [(query, view)]
        assert checker.statistics["remote_misses"] == 1
        assert checker.statistics["remote_hits"] == 0
        assert remote.sets == 1
        assert remote.get(*key) is decision
        # A hit or a completion is memoized like any other decision.
        assert checker.subsumes(query, view) is decision
        assert checker.statistics["remote_misses"] == 1
        # clear_cache() drops the memos but keeps the remote tier attached.
        checker.clear_cache()
        clear_shared_decision_cache()
        assert checker.remote is remote
        assert checker.subsumes(query, view) is decision
        assert checker.statistics["remote_hits"] == 1
        assert len(full) == 1

    def test_closed_server_degrades_to_a_local_completion(self, monkeypatch):
        schema, query, view, _ = self._pair()
        server = DecisionCacheServer().start()
        remote = RemoteDecisionCache(server.address, "seam-dead")
        server.close()
        clear_shared_decision_cache()
        full = _counting_completions(monkeypatch)
        checker = SubsumptionChecker(schema, remote=remote)
        spec = SubsumptionChecker(schema, shared_cache=False, shortcuts=False)
        assert checker.subsumes(query, view) == spec.subsumes(query, view)
        assert (query, view) in full
        assert checker.statistics["remote_misses"] == 1
        assert remote.dead

    def test_explain_sends_no_remote_traffic(self, server):
        schema, query, view, _ = self._pair()
        remote = RemoteDecisionCache(server.address, "seam-explain")
        clear_shared_decision_cache()
        checker = SubsumptionChecker(schema, remote=remote)
        checker.explain(query, view)
        checker.is_satisfiable(query)
        assert (remote.hits, remote.misses, remote.sets) == (0, 0, 0)
        assert checker.statistics["remote_misses"] == 0
        assert checker.statistics["remote_hits"] == 0

    def test_sharded_matching_with_remote_matches_spec(self, server):
        schema, _, catalog, stream = batch_workload_setup("university", 8, 6, 0)
        optimizer = SemanticQueryOptimizer(schema)
        for name, concept in catalog.items():
            optimizer.register_view_concept(name, concept)
        expected = [
            [view.name for view in optimizer.subsuming_views_for_concept(concept)]
            for concept in stream
        ]
        remote = RemoteDecisionCache(
            server.address, cache_namespace(optimizer.sl_schema, optimizer.catalog)
        )
        # Warm pass populates the shared cache; the second (cold-checker)
        # pass must answer identically, now partly from the remote tier.
        warm = ShardedMatcher(
            optimizer.checker, optimizer.catalog, shards=2, remote=remote
        )
        assert [
            [v.name for v in views] for views in warm.match_batch(stream)
        ] == [sorted_names_by_view(optimizer, names) for names in expected]

        cold_optimizer = SemanticQueryOptimizer(schema)
        for name, concept in catalog.items():
            cold_optimizer.register_view_concept(name, concept)
        cold_optimizer.checker.clear_cache()
        cold = ShardedMatcher(
            cold_optimizer.checker, cold_optimizer.catalog, shards=2, remote=remote
        )
        cold_names = [[v.name for v in views] for views in cold.match_batch(stream)]
        assert cold_names == [
            sorted_names_by_view(cold_optimizer, names) for names in expected
        ]


def sorted_names_by_view(optimizer, names):
    views = [optimizer.catalog.get(name) for name in names]
    views.sort(key=lambda view: (view.size, view.name))
    return [view.name for view in views]
