"""The batch workload driver must report all-green equivalence verdicts."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.workloads.driver import (
    SCENARIOS,
    apply_update,
    batch_workload_setup,
    generate_update_stream,
    run_async_maintenance_workload,
    run_batch_workload,
    run_commit_fleet_workload,
    run_durable_maintenance_workload,
    run_maintenance_workload,
)


def assert_green(report, scenario="serve"):
    for verdict in SCENARIOS[scenario].verdicts:
        assert report[verdict], verdict


class TestBatchWorkloadDriver:
    @pytest.mark.parametrize("workload", ["university", "trading"])
    def test_dl_workloads_green(self, workload):
        report = run_batch_workload(workload, views=10, queries=4, shards=2)
        assert_green(report)
        assert report["declared_queries"] > 0
        assert report["batch_profiles_computed"] > 0

    def test_answer_phase_does_not_inherit_sequential_planning(self, monkeypatch):
        # cold=True: the batched answer phase decides its declared queries
        # itself, whatever sequential plan() left in the shared cache.
        from repro.core.checker import clear_shared_decision_cache
        from repro.optimizer.optimizer import SemanticQueryOptimizer

        counters = ("batch_told_seeded", "batch_filter_rejections", "batch_profiles_computed")
        inheriting = run_batch_workload("trading", views=16, queries=6, shards=2)
        plan = SemanticQueryOptimizer.plan

        def plan_leaving_no_decisions(self, query):
            outcome = plan(self, query)
            clear_shared_decision_cache()
            return outcome

        monkeypatch.setattr(SemanticQueryOptimizer, "plan", plan_leaving_no_decisions)
        isolated = run_batch_workload("trading", views=16, queries=6, shards=2)
        assert_green(isolated)
        assert [inheriting[key] for key in counters] == [isolated[key] for key in counters]

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
        assert_green(report, "maintain")
        assert report["flushes"] == report["epochs"]
        assert report["deltas_seen"] > 0

    @pytest.mark.parametrize("workload", ["university", "synthetic"])
    def test_async_serving_workload_green(self, workload):
        report = run_async_maintenance_workload(
            workload, views=8, updates=24, batch_size=6, window=2, queries=3, seed=1
        )
        assert_green(report, "maintain-async")
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
        assert_green(report, "maintain-durable")
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
        assert_green(report, "commit-fleet")
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
        # Without a WAL the loss verdicts hold trivially; the rest still bind.
        assert_green(report, "commit-fleet")
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


#: Small command lines for every scenario: the CI smoke sizes for the fleet
#: scenarios, reduced sizes for the rest so the whole table runs in seconds.
SMOKE_ARGS = {
    "serve": "--views 8 --queries 4",
    "maintain": "--workload trading --views 8 --updates 24 --queries 4",
    "maintain-async": "--views 8 --updates 24 --queries 4",
    "maintain-durable": "--workload trading --views 8 --updates 24",
    "commit-fleet": "--views 8 --queries 4 --writers 2 --readers 1 --commits 6",
    "serve-fleet": "--processes 2 --clients 4 --rounds 1 --views 8 --queries 4 --updates 8",
    "serve-chaos": (
        "--processes 2 --rounds 3 --views 8 --queries 4 --updates 12 --outage-seconds 0.3"
    ),
}

#: Each scenario's report keys as printed by the command line (a golden file:
#: the benches and CI read these keys, so a rename must be deliberate).
REPORT_KEYS = os.path.join(os.path.dirname(__file__), "scenario_report_keys.json")


class TestCommandLine:
    def test_every_scenario_has_a_smoke_line_and_golden_keys(self):
        with open(REPORT_KEYS, encoding="utf-8") as handle:
            assert set(SMOKE_ARGS) == set(SCENARIOS) == set(json.load(handle))

    @pytest.mark.parametrize("scenario", list(SMOKE_ARGS))
    def test_scenario_exits_green_with_its_report_keys(self, scenario):
        """Each scenario runs through ``main()`` in a subprocess (the fleet
        scenarios fork, which must not fork the test process) and prints
        exactly its golden key set."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        command = [sys.executable, "-m", "repro.workloads.driver", "--scenario", scenario]
        result = subprocess.run(
            command + SMOKE_ARGS[scenario].split(),
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        with open(REPORT_KEYS, encoding="utf-8") as handle:
            expected = json.load(handle)[scenario]
        assert sorted(json.loads(result.stdout)) == expected
