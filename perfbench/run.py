#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload match-fresh --seed 1 --seconds 18 --trace 0

One run generates the workload's inputs from ``--seed``, sets the serving
system up one or more times (``setup_s`` is the median), drives a closed
loop from one client thread for ``--seconds`` seconds -- setting up
afresh whenever a round of ``match-fresh`` ends -- then checks every
served answer (and, for ``commit-catchup``, every ACKed commit after
reopening the log).  A host-speed probe (``perfbench/hostprobe.py``) is
timed between operations and between set-up steps; the end-to-end times
are normalized by it, and the report prints the wall times beside them.
The report lines name every metric with its unit and sample count; the
last line is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
instrumentation installed.  With ``--trace 1`` the layer entry points are
wrapped (``perfbench/tracer.py``), half of the operations are recorded, and
the metrics are the per-layer ones.  ``--ops N`` replaces the time limit
by a fixed number of operations, which makes the work counts exact (the
self-test in ``perfbench/test_counts.py`` relies on it).

The exit code is 0 when every answer was right and nothing ACKed was
lost, 1 when a check failed, and 2 when the run could not start (for
instance outside a checkout, where ``src/repro`` is missing).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from typing import List

from hostprobe import PROBE_EVERY, HostProbe, Stopwatch
from metrics import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for write-ahead logs and trace files, inside the checkout.
OUT = os.path.join(ROOT, ".perfbench-out")

#: The end-to-end metrics of the result line (BENCHMARK.json); the report
#: lines also print the commit-only ones and ``error_rate``.
END_TO_END = ("setup_s", "query_p50_ms", "query_p95_ms", "queries_per_s", "peak_rss_mb")
#: Seed of the sequence choosing the traced operations of a traced run.
TRACE_CHOICE_SEED = 0


def peak_rss_mb() -> float:
    """The process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops", type=int, default=None, help="run exactly this many operations"
    )
    return parser.parse_args(argv)


class Bench:
    """One run's workload, inputs, host probe and set-up clocks."""

    def __init__(self, workload, inputs, tracer) -> None:
        self.workload = workload
        self.inputs = inputs
        self.tracer = tracer
        self.probe = HostProbe()
        #: One stopwatch per set-up; ``setup_s`` is their median.
        self.setups: List[Stopwatch] = []
        #: What ``workload.epilogue`` returned for each system, in order.
        self.epilogues: List[dict] = []

    def set_up(self):
        """One timed set-up of the serving system."""
        with Stopwatch(self.probe) as stopwatch:
            self.workload.tick = stopwatch.tick
            system = self.workload.setup(self.inputs)
        self.setups.append(stopwatch)
        # Garbage of the set-up must not be collected inside the timed phase.
        gc.collect()
        return system

    def timed_phase(self, system, seconds, ops):
        """The closed loop: (system, steps, their windows, traced flags, ran out).

        A workload with ``rounds`` is set up afresh when its operations run
        out: the finished system's epilogue runs, then a new set-up, which
        counts towards ``setup_s``; the clock of the timed phase stops
        meanwhile.
        """
        workload, tracer, probe = self.workload, self.tracer, self.probe
        steps, windows, traced = [], [], []
        chooser = random.Random(TRACE_CHOICE_SEED)
        capacity = workload.capacity(system)
        limit = float("inf") if ops is None else ops
        probe.sample()
        deadline = time.perf_counter() + seconds
        next_probe = time.perf_counter() + PROBE_EVERY
        position = 0
        ran_out = False
        while len(steps) < limit:
            now = time.perf_counter()
            if ops is None and now >= deadline:
                break
            if position == capacity:
                if not workload.rounds:
                    ran_out = ops is None
                    break
                if tracer is not None:
                    tracer.end_round(workload.layer_objects(system))
                self.epilogues.append(workload.epilogue(system))
                workload.teardown(system)
                system = self.set_up()
                if tracer is not None:
                    tracer.begin_round(workload.layer_objects(system))
                position = 0
                deadline += time.perf_counter() - now
            if now >= next_probe:
                probe.sample()
                next_probe = time.perf_counter() + PROBE_EVERY
            # Half of the operations run traced, so the traced and untraced
            # samples see the same memo and data evolution; their latency
            # ratio is the tracing overhead.  The choice is a fixed random
            # sequence, not a parity: every 32nd commit writes a checkpoint,
            # and a period would trace all of them or none.
            record = tracer is not None and chooser.random() < 0.5
            if tracer is not None:
                tracer.begin_operation(len(steps), record)
            start = time.perf_counter()
            try:
                steps.append(workload.step(system, position))
            finally:
                windows.append((start, time.perf_counter()))
                if tracer is not None:
                    tracer.end_operation()
            traced.append(record)
            position += 1
        probe.sample()
        return system, steps, windows, traced, ran_out

    def end_to_end(self, steps, windows, normalize=True):
        """Every end-to-end metric as ``name -> (value, unit, samples)``.

        With ``normalize`` each interval is divided by its host factor (see
        ``perfbench/hostprobe.py``); without, the figures are wall times.
        """
        probe = self.probe
        if normalize:
            setups = [stopwatch.normalized() for stopwatch in self.setups]
        else:
            setups = [stopwatch.wall() for stopwatch in self.setups]
        queries, commits, busy = [], [], 0.0
        for step, window in zip(steps, windows):
            scale = probe.factor(*window) if normalize else 1.0
            if step.query_s is not None:
                queries.append(step.query_s / scale)
            if step.commit_s is not None:
                commits.append(step.commit_s / scale)
            busy += sum(
                interval / scale
                for interval in (step.query_s, step.commit_s, step.publish_s)
                if interval is not None
            )
        metrics = {
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "query_p50_ms": (1e3 * percentile(queries, 0.50), "ms", len(queries)),
            "query_p95_ms": (1e3 * percentile(queries, 0.95), "ms", len(queries)),
            "queries_per_s": (len(queries) / busy, "1/s", len(queries)),
            "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        }
        if commits:
            metrics["commit_p50_ms"] = (1e3 * percentile(commits, 0.50), "ms", len(commits))
            metrics["commits_per_s"] = (len(commits) / busy, "1/s", len(commits))
        return metrics


def run(args) -> int:
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.NAMES:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(choose from {', '.join(workloads.NAMES)})",
            file=sys.stderr,
        )
        return 2
    os.makedirs(OUT, exist_ok=True)
    workload = workloads.make(args.workload, OUT)
    inputs = workload.inputs(args.seed)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        workload.operation = tracer.operation
        workload.quiet = tracer.paused

    bench = Bench(workload, inputs, tracer)
    system = None
    for _ in range(workload.setups):
        if system is not None:
            workload.teardown(system)
        if tracer is not None:
            tracer.begin_untimed()
        system = bench.set_up()
        if tracer is not None:
            tracer.end_untimed()

    try:
        if tracer is not None:
            tracer.begin_phase(workload.layer_objects(system))
        system, steps, windows, traced, ran_out = bench.timed_phase(
            system, args.seconds, args.ops
        )
        if tracer is not None:
            tracer.end_phase(workload.layer_objects(system))
        failures = [f"op {n}: {step.error}" for n, step in enumerate(steps) if step.error]
        failures += workload.verify(system, steps)
        if tracer is not None:
            tracer.begin_untimed()
        bench.epilogues.append(workload.epilogue(system))
        if tracer is not None:
            tracer.end_untimed()
        for epilogue in bench.epilogues:
            failures += epilogue.get("recovery_failures", [])
    finally:
        workload.teardown(system)
        if tracer is not None:
            tracer.uninstall()

    if not any(step.query_s is not None for step in steps):
        print("perfbench: no query completed in the timed phase", file=sys.stderr)
        return 1

    # Every failure record is one failed operation: an exception, a wrong
    # answer, a lost ACK or a recovered state that differs from the live one.
    attempted = len(steps) + sum(step.commit_s is not None for step in steps)
    failed = min(len(failures), attempted)

    sizes = inputs["sizes"]
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} ops={len(steps)} ({workload.unit})"
    )
    probe = bench.probe
    readings = [1e3 * reading for reading in probe.readings]
    print(
        f"  host: cpu_count={os.cpu_count()} python={platform.python_version()} "
        f"calib_ms={probe.median_ms():.4f} "
        f"(n={len(readings)}, min={min(readings):.4f}, max={max(readings):.4f})"
    )
    print(
        "  inputs: "
        + " ".join(f"{key}={value}" for key, value in sizes.items())
        + f" seed={args.seed}"
    )
    if ran_out:
        print("  note: the input stream ran out before the time limit")
    e2e = bench.end_to_end(steps, windows)
    wall = bench.end_to_end(steps, windows, normalize=False)
    for name, (value, unit, samples) in e2e.items():
        print(
            f"  {name:<16} {value:14.6f} {unit:<4} (n={samples}; wall {wall[name][0]:.6f})"
        )
    recover = [
        seconds for epilogue in bench.epilogues for seconds in epilogue.get("recover_seconds", ())
    ]
    if recover:
        print(
            f"  {'recover_s':<16} {statistics.median(recover):14.6f} s    "
            f"(n={len(recover)}; wall, not normalized)"
        )
    error_rate = failed / attempted if attempted else 0.0
    print(f"  {'error_rate':<16} {error_rate:14.6f} share ({failed} of {attempted} ops failed)")
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")

    if tracer is not None:
        metrics = tracer.layer_metrics(steps, traced, probe, workload.setups)
        print("  counts: " + json.dumps(tracer.exact_counts(), sort_keys=True))
        tracer.write_spans(
            os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        )
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:14.6f} {unit}")
    else:
        metrics = {name: e2e[name][:2] for name in END_TO_END}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"perfbench: no repro package under {SRC}; run from a checkout of "
            "the repository",
            file=sys.stderr,
        )
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
