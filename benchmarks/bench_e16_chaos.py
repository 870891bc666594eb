"""Experiment E16: the serving fabric under induced outages.

The fault-tolerant serving fabric (:mod:`repro.database.faults` +
self-healing clients in :mod:`repro.database.replica` /
:mod:`repro.database.cacheserver`) claims that a fleet of serving
processes rides through a full primary-and-cache outage without a single
wrong answer and without meaningful unavailability: degraded replicas
keep serving their pinned generation (a *correct* answer for a slightly
stale state), circuit breakers turn doomed dials into fast local
fallbacks, and jittered reconnects re-converge every child on the
restarted primary within a bounded recovery window.

Each measured point runs
:func:`repro.workloads.driver.run_serve_chaos_workload`: the parent
kills both servers mid-run (every established connection drops, the
ports go dark), keeps committing on the primary through the outage, and
restarts the servers on the same ports.  The guarded quantity is
``availability`` = answered / attempted serves across the whole run,
outage included -- the paper-level claim is that semantic serving
degrades in *freshness*, never in correctness or availability.  Every
run's verdicts are asserted before its numbers count: zero wrong
answers (each served answer equals the from-scratch evaluation of its
pinned generation), every child recovered to a fully fresh exchange
within its budget, no child errors, and the chaos actually overlapped
serving (``degraded_rounds > 0`` -- a run the outage missed proves
nothing).

The series lands in ``BENCH_e16.json``
(``benchmarks/check_regression.py`` guards availability as ``e16``).

Usage::

    python benchmarks/bench_e16_chaos.py        # full series + JSON
    pytest benchmarks/ --benchmark-only         # CI timing point
"""

import os
from statistics import median

from repro.workloads.driver import SCENARIOS, run_serve_chaos_workload

try:
    from .helpers import print_table, write_trajectory
except ImportError:  # executed as a script
    from helpers import print_table, write_trajectory

PROCESSES = 2
VIEWS = 12
QUERIES = 6
ROUNDS = 4
UPDATES = 12
STALENESS_BOUND = 8
OUTAGE_SECONDS = 0.4
RECOVERY_CAP_SECONDS = 10.0
WORKLOADS = ("university", "trading")

_VERDICTS = SCENARIOS["serve-chaos"].verdicts


def _checked_chaos(workload, seed):
    report = run_serve_chaos_workload(
        workload,
        views=VIEWS,
        queries=QUERIES,
        processes=PROCESSES,
        rounds=ROUNDS,
        updates=UPDATES,
        staleness_bound=STALENESS_BOUND,
        outage_seconds=OUTAGE_SECONDS,
        seed=seed,
    )
    for verdict in _VERDICTS:
        assert report[verdict], (workload, verdict, report["child_errors"])
    # A run the outage never touched proves nothing about fault tolerance.
    assert report["degraded_rounds"] > 0, (workload, "chaos missed the serving")
    assert report["recovery_seconds"] is not None
    assert report["recovery_seconds"] <= RECOVERY_CAP_SECONDS, (
        workload,
        report["recovery_seconds"],
    )
    return report


def serve_chaos_point(workload, seed=0, repeats=1):
    """One full outage-and-recovery run per repeat; verdicts on each.

    The guarded availability and the recovery time take the median
    across repeats (scheduler jitter moves where the outage lands in the
    serving rounds); the structural counters come from the first run.
    """
    runs = [_checked_chaos(workload, seed + repeat) for repeat in range(max(1, repeats))]
    first = runs[0]
    return {
        "workload": workload,
        "processes": PROCESSES,
        "views": VIEWS,
        "queries": QUERIES,
        "rounds": ROUNDS,
        "updates": UPDATES,
        "staleness_bound": STALENESS_BOUND,
        "outage_seconds": OUTAGE_SECONDS,
        "availability": median(r["availability"] for r in runs),
        "recovery_seconds": median(r["recovery_seconds"] for r in runs),
        "wrong_answers": max(r["wrong_answers"] for r in runs),
        "attempted_serves": first["attempted_serves"],
        "degraded_serves": first["degraded_serves"],
        "degraded_rounds": first["degraded_rounds"],
        "reconnects": first["reconnects"],
        "snapshot_loads": first["snapshot_loads"],
        "committed_generations": first["committed_generations"],
        **{verdict: first[verdict] for verdict in _VERDICTS},
    }


# -- pytest-benchmark timing point -------------------------------------------


def test_e16_chaos(benchmark):
    report = benchmark.pedantic(
        lambda: run_serve_chaos_workload(
            "university",
            views=8,
            queries=4,
            processes=2,
            rounds=3,
            updates=8,
            outage_seconds=0.2,
        ),
        iterations=1,
        rounds=1,
    )
    for verdict in _VERDICTS:
        assert report[verdict], verdict


# -- full experiment series ---------------------------------------------------


def report() -> None:
    series = []
    for workload in WORKLOADS:
        series.append(serve_chaos_point(workload, repeats=3))

    print_table(
        "E16: serve chaos -- availability and recovery through a full outage",
        [
            "workload",
            "procs",
            "availability",
            "wrong",
            "degraded rounds",
            "reconnects",
            "recovery s",
        ],
        [
            (
                point["workload"],
                point["processes"],
                f"{point['availability']:.1%}",
                point["wrong_answers"],
                point["degraded_rounds"],
                point["reconnects"],
                f"{point['recovery_seconds']:.2f}",
            )
            for point in series
        ],
    )

    worst = min(series, key=lambda point: point["availability"])
    print(
        f"\nthe fleet served {worst['availability']:.1%} of attempted queries "
        f"through a {OUTAGE_SECONDS:.1f}s full outage (worst workload: "
        f"{worst['workload']}) with zero wrong answers; every child "
        f"re-converged on the restarted primary"
    )

    write_trajectory(
        "e16",
        {
            "experiment": "e16-serve-chaos",
            "cpu_count": os.cpu_count(),
            "processes": PROCESSES,
            "views": VIEWS,
            "queries": QUERIES,
            "rounds": ROUNDS,
            "updates": UPDATES,
            "outage_seconds": OUTAGE_SECONDS,
            "series": series,
            "worst_availability": worst["availability"],
        },
    )


if __name__ == "__main__":
    report()
