"""Experiment E11: incremental view-maintenance throughput.

PR 4's delta engine claims that keeping materialized views current under an
update-heavy workload no longer costs O(catalog) concept evaluations per
mutation:

* the store's mutation log coalesces an epoch's deltas per object,
* the relevance index restricts propagation to views whose vocabulary the
  deltas touch,
* each relevant view is re-evaluated only on its affected set -- the
  objects its paths lead from to the epoch's changed facts -- by a
  candidate-scoped evaluator,
* and the lattice walk prunes a view whose affected objects provably miss
  a subsuming parent.

This benchmark drives :func:`repro.workloads.driver.run_maintenance_workload`
-- the same update stream applied to two identical state/catalog pairs,
naively (re-evaluate every view for every touched object after every
mutation) and through the maintenance engine (one batched flush per epoch)
-- on the university, trading and synthetic catalogs, cross-checking on
every configuration that the engine's extents equal re-materializing every
view from scratch.  The series lands in ``BENCH_e11.json``
(``benchmarks/check_regression.py`` guards the 64-view speedup ratio).

Usage::

    python benchmarks/bench_e11_maintenance_throughput.py  # full series + JSON
    pytest benchmarks/ --benchmark-only                     # CI timing points
"""

import os

from repro.workloads.driver import run_maintenance_workload

try:
    from .helpers import print_table, write_trajectory
except ImportError:  # executed as a script
    from helpers import print_table, write_trajectory

SIZES = [64, 256]
UPDATES = 48
BATCH_SIZE = 8
WORKLOADS = ("university", "trading", "synthetic")


def maintenance_point(workload, size, updates=UPDATES, batch_size=BATCH_SIZE, seed=0):
    """One naive-vs-engine maintenance run; extents are oracle-checked."""
    report = run_maintenance_workload(
        workload,
        views=size,
        updates=updates,
        batch_size=batch_size,
        seed=seed,
        serve=False,
        batched_registration=size > 64,
    )
    assert report["extents_equal"], (workload, size)
    assert report["states_equal"], (workload, size)
    return {
        "workload": workload,
        "catalog_size": size,
        "updates": report["updates"],
        "batch_size": batch_size,
        "naive_seconds": report["naive_seconds"],
        "engine_seconds": report["engine_seconds"],
        "naive_updates_per_second": report["naive_updates_per_second"],
        "engine_updates_per_second": report["engine_updates_per_second"],
        "speedup": report["speedup"],
        "extents_equal": report["extents_equal"],
        "naive_extents_equal": report["naive_extents_equal"],
        "views_evaluated": report["views_evaluated"],
        "views_lattice_pruned": report["views_lattice_pruned"],
        "views_skipped_irrelevant": report["views_skipped_irrelevant"],
        "deltas_seen": report["deltas_seen"],
        "deltas_coalesced": report["deltas_coalesced"],
        "flushes": report["flushes"],
    }


# -- pytest-benchmark timing point -------------------------------------------


def test_e11_maintenance_throughput(benchmark):
    report = benchmark(
        lambda: run_maintenance_workload(
            "university", views=16, updates=16, batch_size=8, serve=False
        )
    )
    assert report["extents_equal"]


# -- full experiment series ---------------------------------------------------


def report() -> None:
    series = []
    for workload in WORKLOADS:
        for size in SIZES:
            series.append(maintenance_point(workload, size))

    print_table(
        "E11: view maintenance, naive notify-all vs. delta engine",
        [
            "workload",
            "catalog",
            "naive upd/s",
            "engine upd/s",
            "speedup",
            "evaluated",
            "pruned",
            "irrelevant",
        ],
        [
            (
                point["workload"],
                point["catalog_size"],
                f"{point['naive_updates_per_second']:.1f}",
                f"{point['engine_updates_per_second']:.1f}",
                f"{point['speedup']:.2f}x",
                point["views_evaluated"],
                point["views_lattice_pruned"],
                point["views_skipped_irrelevant"],
            )
            for point in series
        ],
    )

    largest = [point for point in series if point["catalog_size"] == SIZES[-1]]
    best = max(largest, key=lambda point: point["speedup"])
    worst = min(largest, key=lambda point: point["speedup"])
    print(
        f"\nlargest catalogs ({SIZES[-1]} views): maintenance speedup "
        f"{worst['speedup']:.2f}x-{best['speedup']:.2f}x "
        f"(best on {best['workload']}); all extents equal the from-scratch oracle"
    )

    write_trajectory(
        "e11",
        {
            "experiment": "e11-maintenance-throughput",
            "cpu_count": os.cpu_count(),
            "sizes": SIZES,
            "updates": UPDATES,
            "batch_size": BATCH_SIZE,
            "series": series,
            "largest_catalog_best_speedup": best["speedup"],
            "largest_catalog_worst_speedup": worst["speedup"],
        },
    )


if __name__ == "__main__":
    report()
