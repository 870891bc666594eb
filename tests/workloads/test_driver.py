"""The batch workload driver must report all-green equivalence verdicts."""

import pytest

from repro.workloads.driver import (
    apply_update,
    batch_workload_setup,
    generate_update_stream,
    run_async_maintenance_workload,
    run_batch_workload,
    run_commit_fleet_workload,
    run_durable_maintenance_workload,
    run_maintenance_workload,
)


def assert_green(report):
    assert report["catalog_equal"]
    assert report["matches_equal"]
    assert report["plans_equal"]
    assert report["answers_sound"]


class TestBatchWorkloadDriver:
    @pytest.mark.parametrize("workload", ["university", "trading"])
    def test_dl_workloads_green(self, workload):
        report = run_batch_workload(workload, views=10, queries=4, shards=2)
        assert_green(report)
        assert report["declared_queries"] > 0
        assert report["batch_profiles_computed"] > 0

    def test_synthetic_workload_green(self):
        report = run_batch_workload("synthetic", views=8, queries=4, shards=2, seed=3)
        assert_green(report)
        # No DL schema, so no declared query classes to plan.
        assert report["declared_queries"] == 0

    def test_setup_shapes(self):
        schema, state, catalog, stream = batch_workload_setup("trading", 6, 3, seed=1)
        assert len(catalog) == 6
        assert len(stream) == 3
        assert state.objects

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            batch_workload_setup("nope", 4, 2)


class TestMaintenanceWorkloadDriver:
    @pytest.mark.parametrize("workload", ["university", "trading"])
    def test_update_heavy_workloads_green(self, workload):
        report = run_maintenance_workload(
            workload, views=8, updates=24, batch_size=6, queries=3, seed=1
        )
        assert report["extents_equal"]
        assert report["states_equal"]
        assert report["engine_serving_sound"]
        assert report["flushes"] == report["epochs"]
        assert report["deltas_seen"] > 0

    @pytest.mark.parametrize("workload", ["university", "synthetic"])
    def test_async_serving_workload_green(self, workload):
        report = run_async_maintenance_workload(
            workload, views=8, updates=24, batch_size=6, window=2, queries=3, seed=1
        )
        assert report["prefix_consistent"]
        assert report["drained_equal_sync"]
        assert report["extents_equal"]
        assert report["states_equal"]
        assert report["async_serving_sound"]
        assert report["epochs_enqueued"] > 0
        # Every enqueued epoch was flushed by drain(); each flush batch of
        # size k coalesces k-1 epochs, so the counters must reconcile.
        assert (
            report["epochs_coalesced"]
            == report["epochs_enqueued"] - report["flushes"]
        )

    def test_durable_maintenance_workload_green(self, tmp_path):
        report = run_durable_maintenance_workload(
            "trading",
            views=6,
            updates=24,
            batch_size=6,
            window=2,
            checkpoint_every=2,
            seed=1,
            log_dir=str(tmp_path),
        )
        assert report["durable_sequence_complete"]
        assert report["durable_equal_volatile"]
        assert report["recovered_equal_live"]
        assert report["replay_recovered_equal_live"]
        assert report["recovery_idempotent"]
        # The checkpointed side replays a short tail, the other every epoch.
        assert report["recovered_replayed_epochs"] < report["replay_replayed_epochs"]

    def test_commit_fleet_workload_green(self):
        report = run_commit_fleet_workload(
            "university",
            views=6,
            queries=3,
            writers=3,
            readers=2,
            commits=6,
            sync_every=4,
            seed=1,
        )
        assert report["acks_complete"]
        assert report["no_acked_lost"]
        assert report["recovered_equal_live"]
        assert report["reader_generations_monotonic"]
        assert report["readers_serving_sound"]
        assert report["extents_equal"]
        assert not report["writer_errors"]
        assert report["acked_commits"] == report["total_commits"] == 18
        assert report["recovered_sequence"] == report["committed_sequence"]

    def test_commit_fleet_volatile_baseline(self):
        report = run_commit_fleet_workload(
            "university",
            views=6,
            queries=3,
            writers=3,
            readers=1,
            commits=6,
            durable=False,
            seed=1,
        )
        assert report["acks_complete"]
        assert report["reader_generations_monotonic"]
        assert report["readers_serving_sound"]
        assert report["extents_equal"]
        assert report["ack_p50_ms"] is None
        assert report["recovered_sequence"] is None

    def test_update_stream_is_reproducible(self):
        schema, state_a, _, _ = batch_workload_setup("trading", 4, 2, seed=2)
        _, state_b, _, _ = batch_workload_setup("trading", 4, 2, seed=2)
        from repro.dl.abstraction import schema_to_sl

        generator_schema = schema_to_sl(schema)
        ops_a = generate_update_stream(generator_schema, state_a, 20, seed=9)
        ops_b = generate_update_stream(generator_schema, state_b, 20, seed=9)
        assert ops_a == ops_b
        for op in ops_a:
            apply_update(state_a, op)
            apply_update(state_b, op)
        assert state_a.objects == state_b.objects
        for name in state_a.classes():
            assert state_a.extent(name) == state_b.extent(name)
