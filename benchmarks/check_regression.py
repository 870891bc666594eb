"""Guard the committed benchmark baselines against throughput regressions.

Re-measures a small, CI-sized subset of the committed trajectory files and
fails -- with a readable per-benchmark delta table -- when a hot path got
slower than the tolerance allows.  What is guarded is each experiment's
**speedup ratio** (optimized path vs. its executable-specification
baseline, both measured in the same fresh run), not absolute throughput:
ratios transfer across machines, so the same committed baselines gate CI
runners and developer laptops alike.

* **e8** (``BENCH_e8.json``): indexed-engine vs. naive-engine speedup on
  the chain/failing-chain/agreement configurations;
* **e9** (``BENCH_e9.json``): classified-lattice vs. flat-scan matching
  speedup on the synthetic catalogs;
* **e10** (``BENCH_e10.json``): batched vs. sequential registration
  speedup, plus the *deterministic* fraction of matching decisions the
  batch layer answers without a completion (told seeds + filter
  rejections), on the synthetic 64-view catalog;
* **e11** (``BENCH_e11.json``): delta-engine vs. naive notify-all view
  maintenance speedup on the 64-view update-heavy university and trading
  workloads (each re-measured point also re-asserts the from-scratch
  equivalence oracle);
* **e12** (``BENCH_e12.json``): async-vs-sync p50 epoch-turnaround read
  latency speedup on the 64-view update-heavy university and trading
  workloads (each re-measured point re-asserts prefix consistency and the
  drain-equals-synchronous-queue verdict);
* **e13** (``BENCH_e13.json``): WAL durability ratios -- the
  fsync-batching speedup (per-commit-fsync p50 epoch latency over
  batched-fsync p50) and the checkpoint recovery speedup (from-genesis
  replay recovery time over checkpoint-based recovery time) on the
  update-heavy workloads (each re-measured point re-asserts the full
  crash-recovery verdict set: durable == volatile, recovered == live,
  recovery idempotent);
* **e14** (``BENCH_e14.json``): group-commit speedup -- concurrent-writer
  commits/sec with fsync-ACK tickets riding the batched sync, over the
  fsync-per-commit discipline, both under the same modeled-disk fsync
  latency (each re-measured point re-asserts the fleet loss contract:
  every commit ACKed, no ACKed commit lost across a kill+recovery);
* **e15** (``BENCH_e15.json``): shared-cache serving speedup -- the
  serve-fleet mean first-contact query latency with cold per-process
  caches over the same fleet riding the shared decision-cache tier,
  committed side clamped to a conservative cap against fleet-timing
  jitter (each re-measured point re-asserts the fabric's serving contract:
  every answer equal to the from-scratch evaluation of its pinned
  generation, staleness bound honored, remote hits observed);
* **e16** (``BENCH_e16.json``): serve-chaos availability -- the fraction
  of attempted serves answered across a run whose middle kills and
  restarts both servers (each re-measured point re-asserts the chaos
  contract: zero wrong answers, every child recovered within budget, the
  outage actually overlapped serving).

Every guard compares the *median relative decay* across its re-measured
points rather than any single point, so one noisy configuration cannot fail
the check on a loaded machine.  Each guard is one entry of the ``GUARDS``
table, which :func:`measure` reads.

Entry points:

* ``python benchmarks/check_regression.py [--threshold 0.3] [--guard e9]
  [--write-fresh DIR]`` -- CLI; exits non-zero on regression and prints the
  delta table either way.  ``--write-fresh`` dumps the fresh measurements
  as ``BENCH_<name>_fresh.json`` files (CI uploads them as artifacts).
* ``pytest benchmarks/check_regression.py -m regression`` -- the opt-in
  pytest job (one test per guard; the ``regression`` marker is declared in
  ``pytest.ini`` and excluded from tier-1, which only collects ``tests/``).
"""

import argparse
import importlib
import json
import os
import sys
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, Optional, Tuple

import pytest

try:
    from .helpers import print_table
except ImportError:  # executed as a script: make siblings and repro importable
    _HERE = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, _HERE)
    _SRC = os.path.join(os.path.dirname(_HERE), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)
    from helpers import print_table

#: Allowed decay of a guarded speedup ratio before a guard fails.
THRESHOLD = 0.30

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_committed(name):
    path = os.path.join(_ROOT, f"BENCH_{name}.json")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


#: The committed e15 speedup is clamped to this cap before comparison.
#: The *magnitude* of the serve-fleet ratio swings with machine load (the
#: cold leg is CPU-contention-bound, the shared leg socket-latency-bound,
#: and they do not swing together), but the mechanism's guarantee -- the
#: shared tier beats cold per-process caches comfortably -- is stable.
#: Clamping makes the guard fire when fresh drops below cap/(1+threshold)
#: (~1.5x: the fabric no longer clearly winning, e.g. a reintroduced
#: Nagle stall measures ~0.4x), instead of on contention jitter around a
#: lucky committed run.
E15_SPEEDUP_CAP = 2.0


@dataclass(frozen=True)
class Guard:
    """One guard: which committed points it re-measures and which fields it compares.

    The committed points are ``BENCH_<trajectory>.json[series]``, keyed by
    the ``key`` fields.  Each key in ``points`` that the trajectory holds is
    re-measured by the bench module's point ``function``, called with the
    key itself (or with ``arguments(bench)(*key)`` where the point needs
    more than its key) plus ``options``; each ``(field, label)`` becomes one
    (label, committed, fresh) row, the committed side clamped to ``cap``.
    """

    trajectory: str
    points: Tuple[tuple, ...]
    bench: str
    function: str
    fields: Tuple[Tuple[str, str], ...]
    series: str = "series"
    key: Tuple[str, ...] = ("workload", "catalog_size")
    arguments: Optional[Callable] = None
    options: Dict[str, object] = field(default_factory=dict)
    cap: Optional[float] = None


def _chain_pairs(bench):
    """E8 arguments: each chain family's (query, view) pair at its parameter."""
    from repro.workloads.chains import agreement_pair, chain_pair, non_subsumed_chain_pair

    families = {
        "chain": chain_pair,
        "failing-chain": non_subsumed_chain_pair,
        "agreement": agreement_pair,
    }
    return lambda series, parameter: (series, parameter, *families[series](parameter))


def _synthetic_source(bench):
    """E9/E10 arguments: the bench's synthetic (name, schema, bases), built once per run."""
    name, schema, bases = bench._workloads()[0]
    return lambda workload, size: (name, schema, bases, size)


#: Guards: (label, committed value, fresh value) rows, throughput semantics
#: (higher is better); ratio committed/fresh > 1 + threshold means regression.
#: Each point function cross-checks its fast path against its spec (e8-e10)
#: or asserts its workload scenario's verdicts (e11-e16) before returning, so a
#: correctness break fails the guard outright rather than showing up as
#: noise.  Points keyed by workload alone (e14-e16) take their shape --
#: writer count, commit volume and the fsync disk model; fleet shape and
#: stream; outage length -- from the bench module, so the guard re-runs
#: exactly the committed configuration.
GUARDS = {
    # E8 configurations (series, parameter) -- small enough for CI, spread
    # over the three rule families.
    "e8": Guard(
        "e8",
        (("chain", 16), ("failing-chain", 16), ("agreement", 8)),
        "bench_e8_engine_throughput",
        "_series_point",
        (("speedup", "e8 {0}-{1} indexed-vs-naive speedup"),),
        key=("series", "parameter"),
        arguments=_chain_pairs,
    ),
    # E9/E10 synthetic catalog sizes: big enough for the lattice and the
    # batch layer to matter, small enough to finish in CI time.
    "e9": Guard(
        "e9",
        (("synthetic", 16), ("synthetic", 32), ("synthetic", 64)),
        "bench_e9_optimizer_throughput",
        "_series_point",
        (("speedup", "e9 {0}-{1} lattice-vs-flat speedup"),),
        arguments=_synthetic_source,
    ),
    # Batched-vs-sequential registration speedup (wall clock, 3 repeats).
    "e10-registration": Guard(
        "e10",
        (("synthetic", 64),),
        "bench_e10_parallel_throughput",
        "registration_point",
        (("speedup", "e10 {0}-{1} batched registration speedup"),),
        series="registration_series",
        arguments=_synthetic_source,
        options={"repeats": 3},
    ),
    # The matcher's avoided-decision fraction (deterministic counters).
    # Wall-clock matching speedups are too context-sensitive on small
    # catalogs to gate CI; this guard is gated *separately* from the noisy
    # registration guard precisely so that a decay of the exact counter --
    # which can only mean the seeding/filter layer itself broke -- cannot
    # hide behind a good wall-clock row in a pooled median.
    "e10-matching": Guard(
        "e10",
        (("synthetic", 64),),
        "bench_e10_parallel_throughput",
        "matching_point",
        (("avoided_fraction", "e10 {0}-{1} matching avoided-decision fraction"),),
        series="matching_series",
        arguments=_synthetic_source,
        options={"timing": False},
    ),
    # The committed E11 trajectory also records 256-view points; 64 views
    # keeps CI fast while still exercising relevance + pruning at scale.
    "e11": Guard(
        "e11",
        (("university", 64), ("trading", 64)),
        "bench_e11_maintenance_throughput",
        "maintenance_point",
        (("speedup", "e11 {0}-{1} maintenance speedup"),),
    ),
    # Same reduced shape as E11: the committed trajectory also records
    # 256-view points.
    "e12": Guard(
        "e12",
        (("university", 64), ("trading", 64)),
        "bench_e12_async_serving",
        "async_serving_point",
        (("latency_speedup", "e12 {0}-{1} async serving latency speedup"),),
        options={"repeats": 3},
    ),
    # Both E13 values are same-run ratios: ``fsync_batching_speedup``
    # divides the per-commit-fsync epoch latency by the batched-fsync one,
    # ``recovery_speedup`` the from-genesis replay recovery time by the
    # checkpoint-based one.  The committed trajectory also records a
    # synthetic point; two workloads keep CI fast while still timing both
    # fsync disciplines and both recovery paths.
    "e13": Guard(
        "e13",
        (("university", 32), ("trading", 32)),
        "bench_e13_durability",
        "durability_point",
        (
            ("fsync_batching_speedup", "e13 {0}-{1} fsync batching speedup"),
            ("recovery_speedup", "e13 {0}-{1} checkpoint recovery speedup"),
        ),
        options={"repeats": 3},
    ),
    # A same-run ratio: group-commit commits/sec over fsync-per-commit
    # commits/sec, both fleets identical in writer count, commit stream and
    # the modeled-disk fsync latency.
    "e14": Guard(
        "e14",
        (("university",), ("trading",)),
        "bench_e14_group_commit",
        "group_commit_point",
        (("group_commit_speedup", "e14 {0} group-commit speedup"),),
        key=("workload",),
        options={"repeats": 3},
    ),
    # A same-run ratio: cold per-process-cache mean first-contact query
    # latency over shared-cache mean, identical fleets otherwise; the
    # committed side is clamped (see ``E15_SPEEDUP_CAP`` for why).
    "e15": Guard(
        "e15",
        (("university",), ("trading",)),
        "bench_e15_serve_fleet",
        "serve_fleet_point",
        (("shared_cache_speedup", "e15 {0} shared-cache serving speedup (capped)"),),
        key=("workload",),
        options={"repeats": 3},
        cap=E15_SPEEDUP_CAP,
    ),
    # The fraction of attempted serves answered across an outage-spanning
    # run: for a self-healing fleet it sits at (or within noise of) 1.0, and
    # a real fault-tolerance break (breaker livelock, failed reconvergence,
    # dead degraded path) drags it toward the outage's duty cycle.
    "e16": Guard(
        "e16",
        (("university",), ("trading",)),
        "bench_e16_chaos",
        "serve_chaos_point",
        (("availability", "e16 {0} chaos serving availability"),),
        key=("workload",),
        options={"repeats": 3},
    ),
}


def _bench_module(name):
    """A sibling ``bench_*`` module, imported the way this file itself was."""
    if __package__:
        return importlib.import_module(f".{name}", __package__)
    return importlib.import_module(name)


def measure(name):
    """``(rows, fresh points)`` of one guard: each re-measured point's guarded
    fields as (label, committed value, fresh value) rows."""
    guard = GUARDS[name]
    bench = _bench_module(guard.bench)
    point = getattr(bench, guard.function)
    arguments = guard.arguments(bench) if guard.arguments else (lambda *key: key)
    committed = {
        tuple(entry[part] for part in guard.key): entry
        for entry in _load_committed(guard.trajectory)[guard.series]
    }
    rows = []
    fresh_points = []
    for key in guard.points:
        if key not in committed:
            continue
        fresh = point(*arguments(*key), **guard.options)
        fresh_points.append(fresh)
        for field_name, label in guard.fields:
            value = committed[key][field_name]
            if guard.cap is not None:
                value = min(value, guard.cap)
            rows.append((label.format(*key), value, fresh[field_name]))
    return rows, fresh_points


# ---------------------------------------------------------------------------
# Evaluation and reporting
# ---------------------------------------------------------------------------


def _decay(committed, fresh):
    """Relative decay of a guarded value (0.0 = unchanged, positive = worse).

    A fresh value of 0/None means the guarded mechanism produced nothing at
    all -- report it as an unbounded regression instead of crashing, so the
    delta table still renders in exactly the scenario the guard exists for.
    """
    if not fresh:
        return float("inf")
    return committed / fresh - 1.0


def evaluate_guard(name, threshold=THRESHOLD, fresh_dir=None):
    """(rows, median slowdown, ok) for one guard; optionally dump the run."""
    rows, fresh_points = measure(name)
    if not rows:
        raise AssertionError(
            f"BENCH_{name}.json has none of the guarded configurations; "
            f"re-run python benchmarks/bench_{name}_*.py"
        )
    slowdown = median(_decay(committed, fresh) for _, committed, fresh in rows)
    if fresh_dir is not None:
        os.makedirs(fresh_dir, exist_ok=True)
        path = os.path.join(fresh_dir, f"BENCH_{name}_fresh.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"guard": name, "points": fresh_points}, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return rows, slowdown, slowdown <= threshold


def run_check(threshold=THRESHOLD, guards=None, fresh_dir=None, verbose=True):
    """Run the selected guards; raise ``AssertionError`` with a delta table.

    Returns the per-guard median slowdowns on success.  The delta table is
    printed on success too (so CI logs always show the numbers), but the
    non-zero exit comes with the failing guards called out explicitly.
    """
    guards = list(guards or GUARDS)
    table = []
    verdicts = {}
    for name in guards:
        rows, slowdown, ok = evaluate_guard(name, threshold, fresh_dir)
        verdicts[name] = (slowdown, ok)
        for label, committed, fresh in rows:
            delta = _decay(committed, fresh)
            table.append(
                (
                    label,
                    f"{committed:.2f}x",
                    f"{fresh:.2f}x",
                    f"{delta:+.1%}",
                    "ok" if delta <= threshold else "REGRESSED",
                )
            )
        table.append(
            (
                f"[{name} median]",
                "",
                "",
                f"{slowdown:+.1%}",
                "ok" if ok else "REGRESSED",
            )
        )
    if verbose:
        print_table(
            f"benchmark regression guard (threshold {threshold:.0%} slowdown)",
            ["benchmark", "committed", "fresh", "slowdown", "status"],
            table,
        )
    failing = [name for name, (_, ok) in verdicts.items() if not ok]
    if failing:
        details = ", ".join(
            f"{name}: {verdicts[name][0]:+.1%}" for name in failing
        )
        raise AssertionError(
            f"throughput regressed beyond {threshold:.0%} on {details} "
            f"(see the delta table above; baselines in BENCH_*.json)"
        )
    return {name: slowdown for name, (slowdown, _) in verdicts.items()}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _fresh_dir_from_env():
    """CI sets CHECK_REGRESSION_FRESH_DIR so the pytest run also writes the
    fresh-measurement JSON artifacts (no second measuring pass needed)."""
    return os.environ.get("CHECK_REGRESSION_FRESH_DIR") or None


@pytest.mark.regression
@pytest.mark.parametrize("name", list(GUARDS))
def test_no_regression(name):
    run_check(guards=[name], fresh_dir=_fresh_dir_from_env())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold",
        type=float,
        default=THRESHOLD,
        help="allowed fractional throughput loss (default 0.3)",
    )
    parser.add_argument(
        "--guard",
        action="append",
        choices=sorted(GUARDS),
        help="guard(s) to run (default: all)",
    )
    parser.add_argument(
        "--write-fresh",
        metavar="DIR",
        default=None,
        help="write the fresh measurements as BENCH_<name>_fresh.json into DIR",
    )
    args = parser.parse_args(argv)
    try:
        run_check(threshold=args.threshold, guards=args.guard, fresh_dir=args.write_fresh)
    except AssertionError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    print("OK: no throughput regression")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
