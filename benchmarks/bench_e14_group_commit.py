"""Experiment E14: group commit under concurrent writers.

The commit pipeline (:mod:`repro.database.commit`) serializes writer
threads through the store, appends WAL-first and hands each commit a
:class:`~repro.database.commit.CommitTicket` that resolves on the
covering fsync ACK.  The group-commit claim: with ``sync_every`` > 1 the
leader's fsync runs *outside* the append fence, so commits from other
writers accumulate behind the in-flight fsync and the next leader
acknowledges them all at once -- K writers, ~K/commits-per-fsync fsyncs,
K ACKs.  With ``sync_every=1`` every commit pays its own fsync inline
under the fence, fully serialized.

Group commit matters exactly when the fsync dominates the commit path,
so every durable run here goes through :class:`SlowFsyncFileSystem`, a
thin wrapper over the real filesystem that models a commodity-disk fsync
(``FSYNC_SECONDS`` of device latency on top of the real call).  Without
the model, fast NVMe/page-cache fsyncs hide the mechanism being measured
and both disciplines converge; with it, the measured ratio isolates the
scheduling (identical code path, identical disk model, only the fsync
discipline differs).

Three fleets per measured point, identical writer count and commit
stream (:func:`repro.workloads.driver.run_commit_fleet_workload`):

* **fsync-per-commit** (``sync_every=1``) -- the strongest-guarantee
  baseline, one fsync per commit;
* **group commit** (``sync_every=8``) -- fsync-ACK tickets riding the
  batched sync; the guarded ratio is ``group_commit_speedup`` = group
  commits/sec / per-commit commits/sec;
* **volatile** -- a plain ``AsyncMaintainer`` fleet (no WAL), the
  commit-throughput ceiling, reported as ``durable_overhead``.

Every durable run re-asserts the fleet's loss contract before its timing
counts: all commits fsync-ACKed, no ACKed commit missing after killing
the maintainer and recovering the log, recovered state+extents equal to
the live side.  The series lands in ``BENCH_e14.json``
(``benchmarks/check_regression.py`` guards the group-commit speedup).

Usage::

    python benchmarks/bench_e14_group_commit.py    # full series + JSON
    pytest benchmarks/ --benchmark-only            # CI timing point
"""

import os
import time
from statistics import median

from repro.database.wal import OsFileSystem
from repro.workloads.driver import SCENARIOS, run_commit_fleet_workload

try:
    from .helpers import print_table, write_trajectory
except ImportError:  # executed as a script
    from helpers import print_table, write_trajectory

WRITERS = 8
COMMITS = 25
VIEWS = 8
GROUP_SYNC = 8
#: The modeled device fsync latency (2 ms: a commodity disk / virtualized
#: volume).  Applied identically to both durable disciplines.
FSYNC_SECONDS = 0.002
WORKLOADS = ("university", "trading")

_VERDICTS = SCENARIOS["commit-fleet"].verdicts


class SlowFsyncFileSystem(OsFileSystem):
    """The real filesystem plus a modeled device fsync latency."""

    def __init__(self, fsync_seconds: float = FSYNC_SECONDS) -> None:
        super().__init__()
        self.fsync_seconds = fsync_seconds

    def fsync(self, path: str) -> None:
        time.sleep(self.fsync_seconds)
        super().fsync(path)


def _checked_fleet(workload, writers, commits, seed, *, sync_every=None, durable=True):
    report = run_commit_fleet_workload(
        workload,
        views=VIEWS,
        queries=4,
        writers=writers,
        readers=0,
        commits=commits,
        sync_every=sync_every or 1,
        seed=seed,
        durable=durable,
        fs=SlowFsyncFileSystem() if durable else None,
    )
    for verdict in _VERDICTS:
        assert report[verdict], (workload, sync_every, durable, verdict)
    return report


def group_commit_point(workload, writers=WRITERS, commits=COMMITS, seed=0, repeats=1):
    """One fleet run per commit discipline; the loss contract asserted on each.

    Each repeat runs the identical fleet three ways -- fsync-per-commit,
    group commit, volatile -- and the point keeps the median of each
    guarded ratio across repeats (thread scheduling jitters single runs).
    """
    per_commit_runs, group_runs, volatile_runs = [], [], []
    for repeat in range(max(1, repeats)):
        per_commit_runs.append(
            _checked_fleet(workload, writers, commits, seed + repeat, sync_every=1)
        )
        group_runs.append(
            _checked_fleet(
                workload, writers, commits, seed + repeat, sync_every=GROUP_SYNC
            )
        )
        volatile_runs.append(
            _checked_fleet(workload, writers, commits, seed + repeat, durable=False)
        )
    speedup = median(
        group["commits_per_second"] / one["commits_per_second"]
        for group, one in zip(group_runs, per_commit_runs)
    )
    group = group_runs[0]
    per_commit = per_commit_runs[0]
    return {
        "workload": workload,
        "writers": writers,
        "commits_per_writer": commits,
        "total_commits": group["total_commits"],
        "group_sync_every": GROUP_SYNC,
        "fsync_model_ms": 1e3 * FSYNC_SECONDS,
        "per_commit_cps": median(r["commits_per_second"] for r in per_commit_runs),
        "group_cps": median(r["commits_per_second"] for r in group_runs),
        "volatile_cps": median(r["commits_per_second"] for r in volatile_runs),
        "group_commit_speedup": speedup,
        "durable_overhead": median(
            volatile["commits_per_second"] / group["commits_per_second"]
            for volatile, group in zip(volatile_runs, group_runs)
        ),
        "per_commit_ack_p99_ms": median(
            r["ack_p99_ms"] for r in per_commit_runs
        ),
        "group_ack_p50_ms": median(r["ack_p50_ms"] for r in group_runs),
        "group_ack_p99_ms": median(r["ack_p99_ms"] for r in group_runs),
        "per_commit_wal_syncs": per_commit["wal_syncs"],
        "group_wal_syncs": group["wal_syncs"],
        "commits_per_fsync": (
            group["total_commits"] / group["wal_syncs"]
            if group["wal_syncs"]
            else None
        ),
        **{verdict: group[verdict] for verdict in _VERDICTS},
    }


# -- pytest-benchmark timing point -------------------------------------------


def test_e14_group_commit_fleet(benchmark):
    report = benchmark(
        lambda: run_commit_fleet_workload(
            "university",
            views=8,
            queries=4,
            writers=4,
            readers=1,
            commits=8,
            sync_every=GROUP_SYNC,
            fs=SlowFsyncFileSystem(),
        )
    )
    for verdict in _VERDICTS:
        assert report[verdict], verdict


# -- full experiment series ---------------------------------------------------


def report() -> None:
    series = []
    for workload in WORKLOADS:
        series.append(group_commit_point(workload, repeats=3))

    print_table(
        "E14: group commit -- concurrent writers, fsync-ACK tickets, one fsync per batch",
        [
            "workload",
            "writers",
            "per-commit c/s",
            "group c/s",
            "volatile c/s",
            "group speedup",
            "ack p99 ms",
            "commits/fsync",
        ],
        [
            (
                point["workload"],
                point["writers"],
                f"{point['per_commit_cps']:.0f}",
                f"{point['group_cps']:.0f}",
                f"{point['volatile_cps']:.0f}",
                f"{point['group_commit_speedup']:.2f}x",
                f"{point['group_ack_p99_ms']:.2f}",
                f"{point['commits_per_fsync']:.2f}",
            )
            for point in series
        ],
    )

    best = max(series, key=lambda point: point["group_commit_speedup"])
    print(
        f"\ngroup commit beats fsync-per-commit up to "
        f"{best['group_commit_speedup']:.2f}x (on {best['workload']}) under a "
        f"{1e3 * FSYNC_SECONDS:.0f} ms fsync disk model; every run recovered "
        f"its full ACKed commit set after a kill"
    )

    write_trajectory(
        "e14",
        {
            "experiment": "e14-group-commit",
            "cpu_count": os.cpu_count(),
            "writers": WRITERS,
            "commits_per_writer": COMMITS,
            "views": VIEWS,
            "group_sync_every": GROUP_SYNC,
            "fsync_model_ms": 1e3 * FSYNC_SECONDS,
            "series": series,
            "best_group_commit_speedup": best["group_commit_speedup"],
        },
    )


if __name__ == "__main__":
    report()
