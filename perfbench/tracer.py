"""Spans and counts at each layer's public entry point, for the traced run.

The program carries no instrumentation of its own, so this module wraps
the entry points from outside (``install`` patches them, ``uninstall``
restores them) and records, per call, a span: name, start, end, parent
span, request id and thread.  Spans of the client thread's current
operation share the operation's request id; background threads (the
primary's flush worker, server handlers) record spans with no request.
Counts are taken at the same boundaries.

Aggregation happens as spans close, per thread and per phase (``setup``,
``run``, ``epilogue``): count, total time, and self time -- a span's
duration minus the time its child spans cover.  Full span records are kept
in memory up to a cap and written out at the end (JSON lines).
``normalize_concept`` is called hundreds of times per query and is a
leaf, so it is aggregated into its parent without a record of its own.

Only half of the operations are recorded (``begin_operation``), which
gives ``trace.overhead_pct`` from traced and untraced operations of one
run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.calculus import subsume as _subsume_module
from repro.concepts import normalize as _normalize_module
from repro.core import checker as _checker_module
from repro.core.checker import SubsumptionChecker
from repro.database.cacheserver import RemoteDecisionCache
from repro.database.commit import CommitScheduler, CommitTicket
from repro.database.faults import FaultPolicy
from repro.database.lattice import LatticeMatchStats, ViewLattice
from repro.database.maintenance import MaintenanceQueue
from repro.database.query_eval import QueryEvaluator
from repro.database.replica import SnapshotReplica
from repro.database import views as _views_module
from repro.database.store import DatabaseState
from repro.database.views import ViewCatalog
from repro.database.wal import OsFileSystem, WriteAheadLog
from repro.optimizer import optimizer as _optimizer_module
from repro.optimizer import parallel as _parallel_module
from repro.optimizer.optimizer import SemanticQueryOptimizer
from repro.optimizer.parallel import BatchCheckerView, ShardedMatcher

_now = time.perf_counter_ns

#: Span names whose individual durations are kept for percentiles.
SAMPLED = {
    "calculus.decide",
    "query_eval.concept_answers",
    "replica.primary_position",
    "cacheserver.get",
    "lattice.register",
    "replica.connect",
    "wal.recover",
}

#: Full span records kept per phase before recording stops.
RECORD_CAP = {"setup": 5000, "run": 20000, "epilogue": 5000}


class _Aggregate:
    __slots__ = ("count", "total_ns", "self_ns", "samples")

    def __init__(self, sampled: bool) -> None:
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0
        self.samples: Optional[List[int]] = [] if sampled else None


class _ThreadState:
    """One thread's span stack, aggregates and counters (merged at the end)."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.request: Optional[int] = None
        self.aggregates: Dict[tuple, _Aggregate] = {}
        self.counters: Dict[tuple, int] = {}
        self.check_depth = 0
        self.normalize_depth = 0
        self.completions = 0
        self.remote_hits = 0


class Tracer:
    """Records spans and counts while ``recording`` is set."""

    def __init__(self) -> None:
        self.recording = False
        self.phase = "setup"
        #: The state whose commits count as ``store.batch`` (set per phase).
        self.primary = None
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._records: Dict[str, list] = {phase: [] for phase in RECORD_CAP}
        self._patches: List[tuple] = []
        #: ``deltas``: the engines' counters summed over the timed phase's
        #: systems; ``after``: their values on the last one.
        self._phase_objects: Dict[str, dict] = {}
        self._before: Dict[str, float] = {}
        self._client_state = self._state()

    # -- thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    # -- spans ------------------------------------------------------------

    def _open(self, name: str):
        state = self._state()
        frame = [next(self._ids), 0, _now(), name]
        state.stack.append(frame)
        return state, frame

    def _close(self, state: _ThreadState, frame) -> None:
        end = _now()
        state.stack.pop()
        span_id, child_ns, start, name = frame
        duration = end - start
        parent = state.stack[-1] if state.stack else None
        if parent is not None:
            parent[1] += duration
        key = (self.phase, name, state is self._client_state)
        aggregate = state.aggregates.get(key)
        if aggregate is None:
            aggregate = state.aggregates[key] = _Aggregate(name in SAMPLED)
        aggregate.count += 1
        aggregate.total_ns += duration
        aggregate.self_ns += duration - child_ns
        if aggregate.samples is not None:
            aggregate.samples.append(duration)
        records = self._records[self.phase]
        if len(records) < RECORD_CAP[self.phase]:
            records.append(
                (
                    span_id,
                    name,
                    start,
                    end,
                    parent[0] if parent is not None else None,
                    state.request,
                    threading.current_thread().name,
                )
            )

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a counter of the current phase (recording threads only)."""
        state = self._state()
        key = (self.phase, name, state is self._client_state)
        state.counters[key] = state.counters.get(key, 0) + amount

    def span(self, name: str, fn):
        """A wrapper recording one span per call of ``fn``."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            state, frame = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(state, frame)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def operation(self, kind: str):
        """The root span of one timed interval of the client's operation."""
        if not self.recording:
            yield
            return
        state, frame = self._open("operation." + kind)
        try:
            yield
        finally:
            self._close(state, frame)

    @contextmanager
    def paused(self):
        """Suspend recording (checks the workload runs between intervals)."""
        recording = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = recording

    # -- phases and operations ------------------------------------------

    def begin_untimed(self) -> None:
        """Record set-up or epilogue work (spans carry no request id)."""
        self.recording = True
        self._client_state.request = None

    def end_untimed(self) -> None:
        self.recording = False

    def begin_phase(self, objects) -> None:
        self.phase = "run"
        self.begin_round(objects)

    def begin_round(self, objects) -> None:
        """Start counting the engines of a (freshly set-up) system."""
        self.primary = objects.get("primary")
        self._before = _snapshot_counters(objects)

    def end_round(self, objects) -> None:
        """Add what the engines of a finished system counted in the phase."""
        after = _snapshot_counters(objects)
        deltas = self._phase_objects.setdefault("deltas", {})
        for name, value in after.items():
            deltas[name] = deltas.get(name, 0) + value - self._before.get(name, 0)
        self._phase_objects["after"] = after

    def end_phase(self, objects) -> None:
        self.recording = False
        self.end_round(objects)
        self.phase = "epilogue"

    def begin_operation(self, index: int, record: bool) -> None:
        self._client_state.request = index if record else None
        self.recording = record

    def end_operation(self) -> None:
        self.recording = False
        self._client_state.request = None

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every layer's entry point."""
        tracer = self
        span = self.span

        # concepts: a hot leaf, aggregated into its caller's span.  On a
        # memo miss it recurses through the patched module attribute, so
        # only the outermost call of a nest is counted: its time already
        # covers the nested calls.
        normalize = _normalize_module.normalize_concept

        def traced_normalize(concept):
            if not tracer.recording:
                return normalize(concept)
            state = tracer._state()
            if state.normalize_depth:
                return normalize(concept)
            state.normalize_depth = 1
            start = _now()
            try:
                return normalize(concept)
            finally:
                duration = _now() - start
                state.normalize_depth = 0
                if state.stack:
                    state.stack[-1][1] += duration
                key = (tracer.phase, "concepts.normalize", state is tracer._client_state)
                aggregate = state.aggregates.get(key)
                if aggregate is None:
                    aggregate = state.aggregates[key] = _Aggregate(False)
                aggregate.count += 1
                aggregate.total_ns += duration
                aggregate.self_ns += duration

        # Callers bound the name at import; functions that import it late
        # (maintenance, wal) read the patched module attribute.
        for module in (
            _normalize_module,
            _checker_module,
            _optimizer_module,
            _parallel_module,
            _views_module,
            _subsume_module,
        ):
            self._patch(module, "normalize_concept", traced_normalize)

        # calculus, as called by the checker (profiles, probes, decisions).
        decide = _checker_module.decide_subsumption

        def traced_decide(*args, **kwargs):
            if not tracer.recording:
                return decide(*args, **kwargs)
            state, frame = tracer._open("calculus.decide")
            try:
                result = decide(*args, **kwargs)
            finally:
                tracer._close(state, frame)
            state.completions += 1
            statistics = result.statistics
            tracer.count("calculus.rule_applications", statistics.total_applications)
            tracer.count("calculus.facts", statistics.fact_count)
            return result

        self._patch(_checker_module, "decide_subsumption", traced_decide)

        # checker: classify each outermost check by what resolved it.
        def checker_wrapper(name, fn, shortcuts_of):
            def traced(self_, query, view):
                if not tracer.recording:
                    return fn(self_, query, view)
                state, frame = tracer._open(name)
                outer = state.check_depth == 0
                state.check_depth += 1
                completions = state.completions
                remote_hits = state.remote_hits
                shortcuts = shortcuts_of(self_)
                try:
                    return fn(self_, query, view)
                finally:
                    state.check_depth -= 1
                    tracer._close(state, frame)
                    if outer:
                        if state.completions != completions:
                            kind = "completion"
                        elif state.remote_hits != remote_hits:
                            kind = "remote"
                        elif shortcuts_of(self_) != shortcuts:
                            kind = "shortcut"
                        else:
                            kind = "memo"
                        tracer.count("checker.checks")
                        tracer.count("checker." + kind)

            return traced

        self._patch(
            SubsumptionChecker,
            "subsumes",
            checker_wrapper(
                "checker.subsumes",
                SubsumptionChecker.subsumes,
                _checker_shortcuts,
            ),
        )
        self._patch(
            BatchCheckerView,
            "subsumes",
            checker_wrapper(
                "checker.batch_subsumes",
                BatchCheckerView.subsumes,
                lambda v: v.statistics.filter_rejections,
            ),
        )

        # lattice: the frontier walk (both the catalog's and the matcher's
        # path end here) and view registration.
        subsumers = ViewLattice.subsumers

        def traced_subsumers(self_, concept, checker, stats=None):
            if not tracer.recording:
                return subsumers(self_, concept, checker, stats)
            walk = LatticeMatchStats()
            state, frame = tracer._open("lattice.subsumers")
            try:
                return subsumers(self_, concept, checker, walk)
            finally:
                tracer._close(state, frame)
                if stats is not None:
                    stats.checks += walk.checks
                    stats.signature_skips += walk.signature_skips
                    stats.nodes_visited += walk.nodes_visited
                    stats.pruned_views += walk.pruned_views
                tracer.count("lattice.checks", walk.checks)
                tracer.count("lattice.pruned", walk.pruned_views)

        self._patch(ViewLattice, "subsumers", traced_subsumers)
        self._patch(
            ViewCatalog,
            "register_concept",
            span("lattice.register", ViewCatalog.register_concept),
        )

        # optimizer: matching entry points; hits counted per query.
        subsuming_views = SemanticQueryOptimizer.subsuming_views_for_concept

        def traced_subsuming_views(self_, concept):
            if not tracer.recording:
                return subsuming_views(self_, concept)
            state, frame = tracer._open("optimizer.subsuming_views")
            try:
                views = subsuming_views(self_, concept)
            finally:
                tracer._close(state, frame)
            tracer.count("optimizer.matches")
            tracer.count("optimizer.hits", 1 if views else 0)
            return views

        self._patch(
            SemanticQueryOptimizer, "subsuming_views_for_concept", traced_subsuming_views
        )
        match_batch = ShardedMatcher.match_batch

        def traced_match_batch(self_, concepts):
            if not tracer.recording:
                return match_batch(self_, concepts)
            state, frame = tracer._open("optimizer.match_batch")
            try:
                matched = match_batch(self_, concepts)
            finally:
                tracer._close(state, frame)
            tracer.count("optimizer.matches", len(matched))
            tracer.count("optimizer.hits", sum(1 for views in matched if views))
            return matched

        self._patch(ShardedMatcher, "match_batch", traced_match_batch)

        # query_eval: candidate pool and answer sizes per call.
        concept_answers = QueryEvaluator.concept_answers

        def traced_concept_answers(self_, concept, state_, candidates=None):
            if not tracer.recording:
                return concept_answers(self_, concept, state_, candidates)
            state, frame = tracer._open("query_eval.concept_answers")
            try:
                answers = concept_answers(self_, concept, state_, candidates)
            finally:
                tracer._close(state, frame)
            pool = len(state_.objects) if candidates is None else len(candidates)
            tracer.count("query_eval.candidates", pool)
            tracer.count("query_eval.answers", len(answers))
            return answers

        self._patch(QueryEvaluator, "concept_answers", traced_concept_answers)

        # store: the primary's outermost batches only (every mutator opens a
        # nested one).
        batch = DatabaseState.batch

        class _BatchSpan:
            __slots__ = ("inner", "state", "frame")

            def __init__(self, inner):
                self.inner = inner

            def __enter__(self):
                self.state, self.frame = tracer._open("store.batch")
                try:
                    return self.inner.__enter__()
                except BaseException:
                    tracer._close(self.state, self.frame)
                    raise

            def __exit__(self, *exc):
                try:
                    return self.inner.__exit__(*exc)
                finally:
                    tracer._close(self.state, self.frame)

        def traced_batch(self_):
            # The primary's commits only: a replica applies each shipped
            # epoch in a batch of its own, which is replica work.
            if not tracer.recording or self_.in_batch or self_ is not tracer.primary:
                return batch(self_)
            return _BatchSpan(batch(self_))

        self._patch(DatabaseState, "batch", traced_batch)
        self._patch(
            DatabaseState,
            "to_interpretation",
            span("store.to_interpretation", DatabaseState.to_interpretation),
        )
        self._patch(DatabaseState, "snapshot", span("store.snapshot", DatabaseState.snapshot))

        # maintenance: the synchronous flush on the replica's read path.
        self._patch(
            MaintenanceQueue, "flush", span("maintenance.flush", MaintenanceQueue.flush)
        )

        # wal: appends, checkpoints, recovery, and the filesystem seam.
        self._patch(WriteAheadLog, "append", span("wal.append", WriteAheadLog.append))
        self._patch(
            WriteAheadLog,
            "write_checkpoint",
            span("wal.write_checkpoint", WriteAheadLog.write_checkpoint),
        )
        self._patch(WriteAheadLog, "recover", span("wal.recover", WriteAheadLog.recover))
        self._patch(OsFileSystem, "fsync", span("wal.fsync", OsFileSystem.fsync))
        fs_append = OsFileSystem.append

        def traced_fs_append(self_, path, data):
            if tracer.recording:
                tracer.count("wal.bytes", len(data))
            return fs_append(self_, path, data)

        self._patch(OsFileSystem, "append", traced_fs_append)

        # commit: scheduling and the durable ACK.
        self._patch(CommitScheduler, "append", span("commit.append", CommitScheduler.append))
        self._patch(
            CommitTicket,
            "wait_durable",
            span("commit.wait_durable", CommitTicket.wait_durable),
        )
        pause = FaultPolicy.pause

        def traced_pause(self_, attempt):
            if tracer.recording:
                tracer.count("retries." + tracer._innermost_layer())
            return pause(self_, attempt)

        self._patch(FaultPolicy, "pause", traced_pause)

        # replica: every protocol exchange and the pinned answer.
        for attribute, name in (
            ("connect", "replica.connect"),
            ("poll", "replica.poll"),
            ("primary_position", "replica.primary_position"),
            ("answer_concept", "replica.answer_concept"),
        ):
            self._patch(SnapshotReplica, attribute, span(name, getattr(SnapshotReplica, attribute)))

        # cacheserver: round trips of the remote decision cache.
        get = RemoteDecisionCache.get

        def traced_get(self_, query_id, view_id):
            if not tracer.recording:
                return get(self_, query_id, view_id)
            state, frame = tracer._open("cacheserver.get")
            try:
                decision = get(self_, query_id, view_id)
            finally:
                tracer._close(state, frame)
            if decision is not None:
                state.remote_hits += 1
                tracer.count("cacheserver.hits")
            return decision

        self._patch(RemoteDecisionCache, "get", traced_get)
        self._patch(RemoteDecisionCache, "set", span("cacheserver.set", RemoteDecisionCache.set))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _innermost_layer(self) -> str:
        stack = self._state().stack
        return stack[-1][3].split(".", 1)[0] if stack else "operation"

    # -- results ------------------------------------------------------------

    def _merged(self):
        aggregates: Dict[tuple, _Aggregate] = {}
        counters: Dict[tuple, int] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for key, value in list(state.aggregates.items()):
                merged = aggregates.get(key)
                if merged is None:
                    merged = aggregates[key] = _Aggregate(value.samples is not None)
                merged.count += value.count
                merged.total_ns += value.total_ns
                merged.self_ns += value.self_ns
                if value.samples is not None:
                    merged.samples.extend(value.samples)
            for key, value in list(state.counters.items()):
                counters[key] = counters.get(key, 0) + value
        return aggregates, counters

    def exact_counts(self) -> Dict[str, int]:
        """Client-thread counts of the timed phase (repeatable for a seed)."""
        aggregates, counters = self._merged()
        counts = {
            name: aggregate.count
            for (phase, name, foreground), aggregate in aggregates.items()
            if phase == "run" and foreground
        }
        counts.update(
            {
                name: value
                for (phase, name, foreground), value in counters.items()
                if phase == "run" and foreground
            }
        )
        return dict(sorted(counts.items()))

    def layer_metrics(self, steps, traced, probe, setups: int):
        """Every per-layer metric as ``name -> (value, unit)``."""
        from metrics import layer_metrics

        aggregates, counters = self._merged()
        return layer_metrics(
            aggregates, counters, self._phase_objects, steps, traced, probe, setups
        )

    def write_spans(self, path: str) -> None:
        """Write the kept span records as JSON lines (one object per span)."""
        with open(path, "w", encoding="utf-8") as handle:
            for phase, records in self._records.items():
                for span_id, name, start, end, parent, request, thread in records:
                    handle.write(
                        json.dumps(
                            {
                                "phase": phase,
                                "id": span_id,
                                "name": name,
                                "start_ns": start,
                                "end_ns": end,
                                "parent": parent,
                                "request": request,
                                "thread": thread,
                            }
                        )
                        + "\n"
                    )


def _checker_shortcuts(checker) -> int:
    """Decisions the checker's told/signature/profile shortcuts took so far."""
    statistics = checker.statistics
    return (
        statistics["told_shortcuts"]
        + statistics["signature_rejections"]
        + statistics["profile_rejections"]
    )


def _snapshot_counters(objects) -> Dict[str, float]:
    """The engines' own counters at a phase boundary."""
    values: Dict[str, float] = {}
    replica = objects.get("replica")
    if replica is not None:
        values["replica.epochs_applied"] = replica.epochs_applied
        values["replica.snapshot_loads"] = replica.snapshot_loads
        values["replica.reconnects"] = replica.reconnects
    remote = objects.get("remote")
    if remote is not None:
        values["cacheserver.failures"] = remote.failures
    for queue in objects.get("queues", ()):
        stats = queue.statistics
        values["maintenance.views_evaluated"] = stats.views_evaluated
        values["maintenance.objects_touched"] = stats.objects_touched
        values["maintenance.views_relevant"] = stats.views_relevant
        values["maintenance.views_lattice_pruned"] = stats.views_lattice_pruned
        values["maintenance.queue_flushes"] = stats.flushes
        values["maintenance.deltas_seen"] = stats.deltas_seen
    maintainer = objects.get("maintainer")
    if maintainer is not None:
        stats = maintainer.statistics
        values["maintenance.epochs_enqueued"] = stats.epochs_enqueued
        values["maintenance.epochs_coalesced"] = stats.epochs_coalesced
        values["maintenance.primary_deltas_seen"] = stats.deltas_seen
        values["commit.degraded"] = 1 if maintainer.scheduler.read_only else 0
    return values
