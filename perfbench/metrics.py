"""Per-layer metrics of a traced run, derived from the tracer's aggregates.

Per-operation figures (units ``1/op`` and ``ms/op``) divide the timed
phase's span counts and times by the number of *traced* operations: spans
are only recorded while a traced operation runs, including the spans
background threads record meanwhile.  Counters kept by the program's own
engines (``statistics`` objects, replica and cache-client counters) cover
every operation of the phase and are divided by all of them.  Percentiles
are taken over individual calls.  A layer that a workload never reaches
reports zero.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

#: ``name -> (value, unit)``, in the order of BENCHMARK.json.
Metrics = Dict[str, Tuple[float, str]]


def percentile(samples: List[float], fraction: float) -> float:
    """Linear-interpolated percentile (fraction in [0, 1]); 0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _View:
    """Read access to the merged aggregates of one phase."""

    def __init__(self, aggregates, counters, phase: str) -> None:
        self.spans: Dict[str, list] = {}
        for (span_phase, name, _foreground), aggregate in aggregates.items():
            if span_phase != phase:
                continue
            entry = self.spans.setdefault(name, [0, 0, 0, []])
            entry[0] += aggregate.count
            entry[1] += aggregate.total_ns
            entry[2] += aggregate.self_ns
            if aggregate.samples is not None:
                entry[3].extend(aggregate.samples)
        self.counters: Dict[str, int] = {}
        self.foreground: Dict[str, int] = {}
        for (counter_phase, name, foreground), value in counters.items():
            if counter_phase != phase:
                continue
            self.counters[name] = self.counters.get(name, 0) + value
            if foreground:
                self.foreground[name] = self.foreground.get(name, 0) + value

    def calls(self, *names: str) -> int:
        return sum(self.spans.get(name, (0,))[0] for name in names)

    def total_ms(self, *names: str) -> float:
        return sum(self.spans.get(name, (0, 0))[1] for name in names) / 1e6

    def self_ms(self, *names: str) -> float:
        return sum(self.spans.get(name, (0, 0, 0))[2] for name in names) / 1e6

    def samples_ms(self, name: str) -> List[float]:
        return [value / 1e6 for value in self.spans.get(name, (0, 0, 0, []))[3]]

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)


def layer_metrics(
    aggregates, counters, phase_objects, steps, traced, probe, setups: int
) -> Metrics:
    """Every per-layer metric of BENCHMARK.json for one traced run."""
    run = _View(aggregates, counters, "run")
    setup = _View(aggregates, counters, "setup")
    epilogue = _View(aggregates, counters, "epilogue")
    deltas = phase_objects.get("deltas", {})
    after = phase_objects.get("after", {})

    def delta(name: str) -> float:
        return deltas.get(name, 0)

    ops = len(steps)
    traced_ops = sum(traced)

    def per_op(value: float) -> float:
        return _ratio(value, traced_ops)

    def per_all(value: float) -> float:
        return _ratio(value, ops)

    checks = run.counter("checker.checks")
    walks = run.calls("lattice.subsumers")
    commits = run.calls("store.batch")
    appends = run.calls("wal.append")
    gets = run.calls("cacheserver.get")
    flushes = delta("maintenance.queue_flushes")

    untraced_commits = [
        step.commit_s * 1e3
        for step, flag in zip(steps, traced)
        if not flag and step.commit_s is not None
    ]
    traced_latency = [_latency(step) for step, flag in zip(steps, traced) if flag]
    untraced_latency = [_latency(step) for step, flag in zip(steps, traced) if not flag]
    traced_latency = [value for value in traced_latency if value is not None]
    untraced_latency = [value for value in untraced_latency if value is not None]
    overhead = 0.0
    if traced_latency and untraced_latency:
        overhead = 100.0 * (
            statistics.median(traced_latency) / statistics.median(untraced_latency) - 1.0
        )
    roots = ("operation.query", "operation.commit")
    registers = setup.samples_ms("lattice.register")

    metrics: Metrics = {
        "concepts.normalize_calls": (per_op(run.calls("concepts.normalize")), "1/op"),
        "concepts.normalize_ms": (per_op(run.total_ms("concepts.normalize")), "ms/op"),
        "calculus.completions": (per_op(run.calls("calculus.decide")), "1/op"),
        "calculus.completion_ms": (per_op(run.total_ms("calculus.decide")), "ms/op"),
        "calculus.completion_p50_us": (
            1e3 * percentile(run.samples_ms("calculus.decide"), 0.5),
            "us",
        ),
        "calculus.rule_applications": (
            per_op(run.counter("calculus.rule_applications")),
            "1/op",
        ),
        "calculus.facts": (per_op(run.counter("calculus.facts")), "1/op"),
        "checker.checks": (per_op(checks), "1/op"),
        "checker.self_ms": (
            per_op(run.self_ms("checker.subsumes", "checker.batch_subsumes")),
            "ms/op",
        ),
        "checker.memo_hit_share": (_ratio(run.counter("checker.memo"), checks), "share"),
        "checker.shortcut_share": (_ratio(run.counter("checker.shortcut"), checks), "share"),
        "checker.completion_share": (
            _ratio(run.counter("checker.completion"), checks),
            "share",
        ),
        "checker.remote_share": (_ratio(run.counter("checker.remote"), checks), "share"),
        "lattice.walks": (per_op(walks), "1/op"),
        "lattice.self_ms": (per_op(run.self_ms("lattice.subsumers")), "ms/op"),
        "lattice.checks_per_walk": (_ratio(run.counter("lattice.checks"), walks), "count"),
        "lattice.pruned_per_walk": (_ratio(run.counter("lattice.pruned"), walks), "count"),
        "lattice.register_ms": (_ratio(sum(registers), setups), "ms"),
        "optimizer.self_ms": (
            per_op(run.self_ms("optimizer.subsuming_views", "optimizer.match_batch")),
            "ms/op",
        ),
        "optimizer.hit_rate": (
            _ratio(run.counter("optimizer.hits"), run.counter("optimizer.matches")),
            "share",
        ),
        "optimizer.candidates_per_answer": (
            _ratio(
                run.foreground.get("query_eval.candidates", 0),
                run.foreground.get("query_eval.answers", 0),
            ),
            "count",
        ),
        "query_eval.calls": (per_op(run.calls("query_eval.concept_answers")), "1/op"),
        "query_eval.self_ms": (per_op(run.self_ms("query_eval.concept_answers")), "ms/op"),
        "query_eval.p95_us": (
            1e3 * percentile(run.samples_ms("query_eval.concept_answers"), 0.95),
            "us",
        ),
        "store.commits": (per_op(commits), "1/op"),
        "store.deltas_per_commit": (
            _ratio(
                delta("maintenance.deltas_seen") + delta("maintenance.primary_deltas_seen"),
                flushes + delta("maintenance.epochs_enqueued"),
            ),
            "count",
        ),
        "store.batch_self_ms": (per_op(run.self_ms("store.batch")), "ms/op"),
        "store.export_calls": (per_op(run.calls("store.to_interpretation")), "1/op"),
        "store.export_ms": (per_op(run.total_ms("store.to_interpretation")), "ms/op"),
        "store.snapshot_ms": (per_op(run.total_ms("store.snapshot")), "ms/op"),
        "maintenance.flushes": (per_all(flushes), "1/op"),
        "maintenance.flush_ms": (per_op(run.total_ms("maintenance.flush")), "ms/op"),
        "maintenance.views_evaluated_per_flush": (
            _ratio(delta("maintenance.views_evaluated"), flushes),
            "count",
        ),
        "maintenance.objects_touched_per_flush": (
            _ratio(delta("maintenance.objects_touched"), flushes),
            "count",
        ),
        "maintenance.pruned_share": (
            _ratio(
                delta("maintenance.views_lattice_pruned"),
                delta("maintenance.views_relevant"),
            ),
            "share",
        ),
        "maintenance.coalesced_share": (
            _ratio(
                delta("maintenance.epochs_coalesced"),
                delta("maintenance.epochs_enqueued"),
            ),
            "share",
        ),
        "wal.appends": (per_op(appends), "1/op"),
        "wal.append_ms": (per_op(run.total_ms("wal.append")), "ms/op"),
        "wal.fsyncs": (per_op(run.calls("wal.fsync")), "1/op"),
        "wal.fsync_ms": (per_op(run.total_ms("wal.fsync")), "ms/op"),
        "wal.bytes_per_commit": (_ratio(run.counter("wal.bytes"), appends), "B"),
        "wal.checkpoints": (per_op(run.calls("wal.write_checkpoint")), "1/op"),
        "wal.checkpoint_ms": (per_op(run.total_ms("wal.write_checkpoint")), "ms/op"),
        "wal.recover_ms": (
            statistics.median(epilogue.samples_ms("wal.recover"))
            if epilogue.samples_ms("wal.recover")
            else 0.0,
            "ms",
        ),
        "commit.ack_wait_ms": (per_op(run.total_ms("commit.wait_durable")), "ms/op"),
        "commit.p50_ms": (percentile(untraced_commits, 0.5), "ms"),
        "commit.ack_p95_ms": (percentile(untraced_commits, 0.95), "ms"),
        "commit.retries": (
            run.counter("retries.commit") + run.counter("retries.wal"),
            "count",
        ),
        "commit.degraded": (after.get("commit.degraded", 0), "count"),
        "replica.round_trips": (
            per_op(run.calls("replica.poll", "replica.primary_position", "replica.connect")),
            "1/op",
        ),
        "replica.rtt_p50_ms": (
            percentile(run.samples_ms("replica.primary_position"), 0.5),
            "ms",
        ),
        "replica.poll_ms": (per_op(run.total_ms("replica.poll")), "ms/op"),
        "replica.epochs_applied": (per_all(delta("replica.epochs_applied")), "1/op"),
        "replica.snapshot_loads": (after.get("replica.snapshot_loads", 0), "count"),
        "replica.connect_ms": (
            statistics.median(setup.samples_ms("replica.connect"))
            if setup.samples_ms("replica.connect")
            else 0.0,
            "ms",
        ),
        "replica.reconnects": (delta("replica.reconnects"), "count"),
        "cacheserver.gets": (per_op(gets), "1/op"),
        "cacheserver.get_p50_ms": (
            percentile(run.samples_ms("cacheserver.get"), 0.5),
            "ms",
        ),
        "cacheserver.hit_share": (_ratio(run.counter("cacheserver.hits"), gets), "share"),
        "cacheserver.sets": (per_op(run.calls("cacheserver.set")), "1/op"),
        "cacheserver.failures": (delta("cacheserver.failures"), "count"),
        "trace.overhead_pct": (overhead, "%"),
        "trace.unattributed_share": (
            _ratio(run.self_ms(*roots), run.total_ms(*roots)),
            "share",
        ),
        "trace.ops": (traced_ops, "count"),
        "host.calib_ms": (probe.median_ms(), "ms"),
    }
    return metrics


def _latency(step):
    if step.error is not None or step.query_s is None:
        return None
    return step.query_s + (step.commit_s or 0.0) + (step.publish_s or 0.0)
