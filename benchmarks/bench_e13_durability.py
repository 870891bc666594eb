"""Experiment E13: durability cost on commit, checkpoint payoff on recovery.

The durable tier (:class:`~repro.database.maintenance.DurableMaintainer`)
appends every committed epoch to a CRC-framed write-ahead log before it is
enqueued for flushing, checkpoints the pickled state snapshot every
``checkpoint_every`` commits, and recovers across process restarts from
checkpoint + epoch tail.  Two claims are quantified:

* **fsync batching pays** -- per-commit fsync (``sync_every=1``) buys the
  strongest guarantee but dominates commit latency; batching the fsync
  over ``sync_every=8`` commits amortizes it.  The guarded ratio is
  ``fsync_batching_speedup`` = per-commit-fsync p50 epoch latency /
  batched-fsync p50 epoch latency.
* **checkpoints pay** -- recovering from the newest checkpoint plus a
  short epoch tail beats replaying the whole log from genesis.  The
  guarded ratio is ``recovery_speedup`` = from-genesis replay recovery
  seconds / checkpoint-based recovery seconds.

Every measured point re-asserts the robustness verdicts of
``--scenario maintain-durable``: the WAL never changes what is served,
recovered state+extents equal the live side they were logged from, and
recovery is idempotent.  The series lands in ``BENCH_e13.json``
(``benchmarks/check_regression.py`` guards both ratios).

Usage::

    python benchmarks/bench_e13_durability.py      # full series + JSON
    pytest benchmarks/ --benchmark-only            # CI timing point
"""

import os
from statistics import median

from repro.workloads.driver import SCENARIOS, run_durable_maintenance_workload

try:
    from .helpers import print_table, write_trajectory
except ImportError:  # executed as a script
    from helpers import print_table, write_trajectory

SIZES = [32]
UPDATES = 800
BATCH_SIZE = 8
CHECKPOINT_EVERY = 6
BATCHED_SYNC = 8
WORKLOADS = ("university", "trading", "synthetic")

_VERDICTS = SCENARIOS["maintain-durable"].verdicts


def _checked_run(workload, size, sync_every, updates, batch_size, seed):
    report = run_durable_maintenance_workload(
        workload,
        views=size,
        updates=updates,
        batch_size=batch_size,
        checkpoint_every=CHECKPOINT_EVERY,
        sync_every=sync_every,
        seed=seed,
    )
    for verdict in _VERDICTS:
        assert report[verdict], (workload, size, sync_every, verdict)
    return report


def durability_point(
    workload,
    size,
    updates=UPDATES,
    batch_size=BATCH_SIZE,
    seed=0,
    repeats=1,
):
    """One durability run per fsync discipline; all verdicts asserted.

    Each repeat runs the workload twice -- per-commit fsync and batched
    fsync -- and the point keeps the median of each guarded ratio across
    repeats (single recovery timings are mostly I/O and jittery).
    """
    per_commit_runs = []
    batched_runs = []
    for repeat in range(max(1, repeats)):
        per_commit_runs.append(
            _checked_run(workload, size, 1, updates, batch_size, seed + repeat)
        )
        batched_runs.append(
            _checked_run(
                workload, size, BATCHED_SYNC, updates, batch_size, seed + repeat
            )
        )
    recovery_speedups = sorted(run["recovery_speedup"] for run in per_commit_runs)
    per_commit = per_commit_runs[
        [run["recovery_speedup"] for run in per_commit_runs].index(
            recovery_speedups[len(recovery_speedups) // 2]
        )
    ]
    batching_speedup = median(
        one["durable_p50_latency_ms"] / many["durable_p50_latency_ms"]
        for one, many in zip(per_commit_runs, batched_runs)
    )
    return {
        "workload": workload,
        "catalog_size": size,
        "updates": per_commit["updates"],
        "batch_size": batch_size,
        "epochs": per_commit["epochs"],
        "checkpoint_every": CHECKPOINT_EVERY,
        "batched_sync_every": BATCHED_SYNC,
        "checkpoints_written": per_commit["checkpoints_written"],
        "volatile_p50_latency_ms": per_commit["volatile_p50_latency_ms"],
        "durable_p50_latency_ms": per_commit["durable_p50_latency_ms"],
        "batched_p50_latency_ms": median(
            run["durable_p50_latency_ms"] for run in batched_runs
        ),
        "commit_overhead": per_commit["commit_overhead"],
        "fsync_batching_speedup": batching_speedup,
        "checkpoint_recovery_seconds": per_commit["checkpoint_recovery_seconds"],
        "replay_recovery_seconds": per_commit["replay_recovery_seconds"],
        "recovery_speedup": per_commit["recovery_speedup"],
        "recovered_sequence": per_commit["recovered_sequence"],
        "recovered_replayed_epochs": per_commit["recovered_replayed_epochs"],
        "replay_replayed_epochs": per_commit["replay_replayed_epochs"],
        **{verdict: per_commit[verdict] for verdict in _VERDICTS},
    }


# -- pytest-benchmark timing point -------------------------------------------


def test_e13_durable_commit_and_recovery(benchmark):
    report = benchmark(
        lambda: run_durable_maintenance_workload(
            "university", views=12, updates=24, batch_size=8, checkpoint_every=2
        )
    )
    for verdict in _VERDICTS:
        assert report[verdict], verdict


# -- full experiment series ---------------------------------------------------


def report() -> None:
    series = []
    for workload in WORKLOADS:
        for size in SIZES:
            series.append(durability_point(workload, size, repeats=3))

    print_table(
        "E13: WAL durability -- fsync cost on commit, checkpoint payoff on recovery",
        [
            "workload",
            "catalog",
            "durable p50 ms",
            "batched p50 ms",
            "fsync batching",
            "ckpt recovery s",
            "replay recovery s",
            "recovery speedup",
        ],
        [
            (
                point["workload"],
                point["catalog_size"],
                f"{point['durable_p50_latency_ms']:.2f}",
                f"{point['batched_p50_latency_ms']:.2f}",
                f"{point['fsync_batching_speedup']:.2f}x",
                f"{point['checkpoint_recovery_seconds']:.4f}",
                f"{point['replay_recovery_seconds']:.4f}",
                f"{point['recovery_speedup']:.2f}x",
            )
            for point in series
        ],
    )

    best = max(series, key=lambda point: point["recovery_speedup"])
    worst = min(series, key=lambda point: point["recovery_speedup"])
    print(
        f"\ncheckpoint-based recovery beats from-genesis replay "
        f"{worst['recovery_speedup']:.2f}x-{best['recovery_speedup']:.2f}x "
        f"(best on {best['workload']}); every recovered image equals the "
        f"live side it was logged from, idempotently"
    )

    write_trajectory(
        "e13",
        {
            "experiment": "e13-wal-durability",
            "cpu_count": os.cpu_count(),
            "sizes": SIZES,
            "updates": UPDATES,
            "batch_size": BATCH_SIZE,
            "checkpoint_every": CHECKPOINT_EVERY,
            "batched_sync_every": BATCHED_SYNC,
            "series": series,
            "best_recovery_speedup": best["recovery_speedup"],
            "worst_recovery_speedup": worst["recovery_speedup"],
        },
    )


if __name__ == "__main__":
    report()
