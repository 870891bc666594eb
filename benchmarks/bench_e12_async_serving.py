"""Experiment E12: async maintenance flushes vs. synchronous serving latency.

PR 5's :class:`~repro.database.maintenance.AsyncMaintainer` decouples
update commit from view re-materialization: commits enqueue generation-
pinned epochs to a background worker (coalescing up to ``window`` of them
per flush) while readers are served from the last fully-flushed
generation's extents.  The claim this experiment quantifies: under a
sustained update stream, the **p50 epoch-turnaround read latency** -- time
from submitting an epoch's mutations to a query being answered -- drops by
the inline-flush cost, because the synchronous tier makes every read wait
for maintenance while the async tier answers immediately from the
published snapshot (bounded staleness, never inconsistency).

Every measured point re-asserts the correctness verdicts: all observed
cuts are prefix-generation consistent, the post-``drain()`` extents are
byte-identical to the synchronous :class:`MaintenanceQueue`'s, and both
equal the from-scratch oracle.  The series lands in ``BENCH_e12.json``
(``benchmarks/check_regression.py`` guards the 64-view latency-speedup
ratio).

Usage::

    python benchmarks/bench_e12_async_serving.py   # full series + JSON
    pytest benchmarks/ --benchmark-only            # CI timing point
"""

import os

from repro.workloads.driver import SCENARIOS, run_async_maintenance_workload

try:
    from .helpers import print_table, write_trajectory
except ImportError:  # executed as a script
    from helpers import print_table, write_trajectory

SIZES = [64, 256]
UPDATES = 64
BATCH_SIZE = 8
WINDOW = 4
WORKLOADS = ("university", "trading", "synthetic")


def async_serving_point(
    workload,
    size,
    updates=UPDATES,
    batch_size=BATCH_SIZE,
    window=WINDOW,
    seed=0,
    repeats=1,
):
    """One sync-vs-async serving run; all consistency verdicts asserted.

    ``repeats`` re-runs the whole workload and keeps the run with the
    median latency speedup: async p50 latencies are sub-millisecond, so a
    single 8-epoch sample is noisy -- the regression guard (and the
    committed 64-view baselines) measure median-of-3 for a stable ratio.
    """
    reports = []
    for repeat in range(max(1, repeats)):
        report = run_async_maintenance_workload(
            workload,
            views=size,
            updates=updates,
            batch_size=batch_size,
            window=window,
            seed=seed,
            batched_registration=size > 64,
        )
        for verdict in SCENARIOS["maintain-async"].verdicts:
            assert report[verdict], (workload, size, verdict)
        reports.append(report)
    reports.sort(key=lambda entry: entry["latency_speedup"])
    report = reports[len(reports) // 2]
    return {
        "workload": workload,
        "catalog_size": size,
        "updates": report["updates"],
        "batch_size": batch_size,
        "window": window,
        "epochs": report["epochs"],
        "sync_p50_latency_ms": report["sync_p50_latency_ms"],
        "async_p50_latency_ms": report["async_p50_latency_ms"],
        "latency_speedup": report["latency_speedup"],
        "sync_seconds": report["sync_seconds"],
        "async_seconds": report["async_seconds"],
        "flushes": report["flushes"],
        "epochs_coalesced": report["epochs_coalesced"],
        "async_serving_sound": report["async_serving_sound"],
        "sync_serving_sound": report["sync_serving_sound"],
        "prefix_consistent": report["prefix_consistent"],
        "drained_equal_sync": report["drained_equal_sync"],
        "extents_equal": report["extents_equal"],
    }


# -- pytest-benchmark timing point -------------------------------------------


def test_e12_async_serving_latency(benchmark):
    report = benchmark(
        lambda: run_async_maintenance_workload(
            "university", views=16, updates=16, batch_size=8, window=2
        )
    )
    for verdict in SCENARIOS["maintain-async"].verdicts:
        assert report[verdict], verdict


# -- full experiment series ---------------------------------------------------


def report() -> None:
    series = []
    for workload in WORKLOADS:
        for size in SIZES:
            # The guarded (smallest) size is committed as a median-of-3,
            # matching how check_regression.py re-measures it.
            series.append(
                async_serving_point(workload, size, repeats=3 if size == SIZES[0] else 1)
            )

    print_table(
        "E12: serving under sustained updates, sync flush vs. async window",
        [
            "workload",
            "catalog",
            "sync p50 ms",
            "async p50 ms",
            "speedup",
            "flushes",
            "coalesced",
        ],
        [
            (
                point["workload"],
                point["catalog_size"],
                f"{point['sync_p50_latency_ms']:.2f}",
                f"{point['async_p50_latency_ms']:.2f}",
                f"{point['latency_speedup']:.2f}x",
                point["flushes"],
                point["epochs_coalesced"],
            )
            for point in series
        ],
    )

    largest = [point for point in series if point["catalog_size"] == SIZES[-1]]
    best = max(largest, key=lambda point: point["latency_speedup"])
    worst = min(largest, key=lambda point: point["latency_speedup"])
    print(
        f"\nlargest catalogs ({SIZES[-1]} views): p50 read-latency speedup "
        f"{worst['latency_speedup']:.2f}x-{best['latency_speedup']:.2f}x "
        f"(best on {best['workload']}); every cut prefix-consistent, every "
        f"drain byte-identical to the synchronous queue"
    )

    write_trajectory(
        "e12",
        {
            "experiment": "e12-async-serving-latency",
            "cpu_count": os.cpu_count(),
            "sizes": SIZES,
            "updates": UPDATES,
            "batch_size": BATCH_SIZE,
            "window": WINDOW,
            "series": series,
            "largest_catalog_best_speedup": best["latency_speedup"],
            "largest_catalog_worst_speedup": worst["latency_speedup"],
        },
    )


if __name__ == "__main__":
    report()
