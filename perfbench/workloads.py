"""The three benchmark workloads: inputs, set-up, one timed operation, checks.

Every workload runs the paper's serve path -- decide subsumption against a
classified view catalog, then filter the chosen view's extent -- through a
different tier of the system (see ``perfbench/README.md`` for why each
exists).  A workload object is driven by ``perfbench/run.py`` in four
phases:

* ``inputs(seed)`` generates everything the program receives (state,
  catalog, queries, update epochs) before any clock starts;
* ``setup(inputs)`` builds the serving system from those inputs; it is
  timed (``setup_s``) and repeated, and ``teardown`` releases it.  It calls
  ``tick()`` between its steps, where the host probe may run untimed;
* ``step(system, position)`` runs one closed-loop operation and returns
  its timed intervals plus what is needed to check it later.  A workload
  with ``rounds`` set replays its ``capacity`` operations on a freshly
  set-up system when they run out; the others stop there;
* ``verify`` and ``epilogue`` run after the clock stops: every served
  answer is compared with a from-scratch evaluation of the generation it
  was pinned to, and the durable workload reopens its write-ahead log.

The view catalog, the query lists, the stored data and the write stream
are fixed per deployment (constant generator seeds); the seed draws the
read traffic: the order of the first-contact queries, the skewed stream,
and the query read after each committed epoch.  Costs in this system
depend strongly on which concepts the catalog and the queries hold, on
the data they select and on what each epoch updates, so drawing those
per seed would make run-to-run spread measure the generator rather than
the program.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from repro.concepts.normalize import clear_normalize_memo
from repro.concepts.syntax import Concept
from repro.core.checker import SubsumptionChecker, clear_shared_decision_cache
from repro.database.cacheserver import (
    DecisionCacheServer,
    RemoteDecisionCache,
    cache_namespace,
)
from repro.database.faults import StalenessError
from repro.database.maintenance import DurableMaintainer
from repro.database.query_eval import QueryEvaluator
from repro.database.replica import ReplicaServer, SnapshotReplica
from repro.database.store import DatabaseState
from repro.dl.abstraction import schema_to_sl
from repro.optimizer import SemanticQueryOptimizer, ShardedMatcher
from repro.workloads import generate_trading_state, trading_concepts, trading_dl_schema
from repro.workloads.driver import apply_update
from repro.workloads.synthetic import (
    generate_hierarchical_catalog,
    generate_matching_queries,
)
from updates import legal_epochs

#: Generator seeds of the fixed deployment: the catalog, the query pool,
#: match-fresh's first-contact queries, the stored data and
#: commit-catchup's write stream.  Smaller catalogs are prefixes of the
#: same generated sequence.
CATALOG_SEED = 0
POOL_SEED = 1
FRESH_SEED = 2
STATE_SEED = 3
EPOCHS_SEED = 4
#: Distinct concepts in the fleet-read pool and in commit-catchup's, whose
#: set-up answers each pooled query once.
POOL = 128
CATCHUP_POOL = 32
#: Updates per committed epoch in commit-catchup.
EPOCH_UPDATES = 8
#: Zipf exponent of the fleet-read stream over the pool's ranks.  Request
#: streams to shared caches are Zipf-like with exponents of 0.64-0.83
#: (Breslau, Cao, Fan, Phillips and Shenker, "Web Caching and Zipf-like
#: Distributions: Evidence and Implications", INFOCOM 1999, over six proxy
#: traces); 0.8 sits at the skewed end of that range.
ZIPF_S = 0.8
#: First-contact queries of one match-fresh round.
FRESH_QUERIES = 200
#: Length of the pre-generated fleet-read stream; a run that exhausts it
#: stops early and says so in its report.
FLEET_DRAWS = 200_000
#: Committed epochs of one commit-catchup round.
CATCHUP_EPOCHS = 100


class TradingSchema:
    """The trading schema in both forms (parsed once per process)."""

    def __init__(self) -> None:
        self.dl = trading_dl_schema()
        self.sl = schema_to_sl(self.dl)


def _catalog(schema: TradingSchema, views: int) -> Dict[str, Concept]:
    return generate_hierarchical_catalog(
        schema.sl,
        views,
        seed=CATALOG_SEED,
        base_concepts=tuple(trading_concepts().values()),
    )


def _distinct(concepts: Sequence[Concept]) -> List[Concept]:
    """Drop structural duplicates, keeping first occurrences in order."""
    seen = set()
    kept = []
    for concept in concepts:
        if concept not in seen:
            seen.add(concept)
            kept.append(concept)
    return kept


def _pool(schema: TradingSchema, catalog: Dict[str, Concept], size: int) -> List[Concept]:
    pool = _distinct(
        generate_matching_queries(schema.sl, catalog, 2 * size, seed=POOL_SEED)
    )
    return pool[:size]


def _no_tick() -> None:
    """The stand-in for the set-up clock's probe point."""


def _build_optimizer(
    schema: TradingSchema, catalog: Dict[str, Concept], tick=_no_tick
) -> SemanticQueryOptimizer:
    optimizer = SemanticQueryOptimizer(schema.dl, lattice=True)
    for name, concept in catalog.items():
        optimizer.register_view_concept(name, concept)
        tick()
    return optimizer


def _cold_start() -> None:
    """Drop the process-wide memos, as in a freshly started process."""
    clear_shared_decision_cache()
    clear_normalize_memo()


class Step:
    """One timed operation: its intervals and what the checks need.

    Answers are kept as ``(size, hash)`` digests, so the bookkeeping of a
    long run does not weigh on the peak resident set.
    """

    __slots__ = (
        "query_s",
        "commit_s",
        "publish_s",
        "query",
        "generation",
        "digest",
        "error",
        "sequence",
    )

    def __init__(self) -> None:
        self.query_s: Optional[float] = None
        self.commit_s: Optional[float] = None
        self.publish_s: Optional[float] = None
        self.query: Optional[int] = None
        self.generation: Optional[int] = None
        self.digest: Optional[Tuple[int, int]] = None
        self.error: Optional[str] = None
        self.sequence: Optional[int] = None


def _digest(answers) -> Tuple[int, int]:
    return len(answers), hash(frozenset(answers))


def _untraced(*_kind):
    """The untraced stand-in for the tracer's operation and pause spans."""
    return nullcontext()


def _wrong_answer(step: Step, queries, snapshots, evaluator, expected) -> Optional[str]:
    """Why ``step``'s answer differs from a from-scratch evaluation, if it does.

    ``snapshots`` maps the generation the answer was pinned to onto the
    primary's snapshot of that generation; ``expected`` memoizes the
    evaluation of one query at one generation.
    """
    snapshot = snapshots.get(step.generation)
    if snapshot is None:
        return f"unknown generation {step.generation}"
    key = (step.query, step.generation)
    if key not in expected:
        expected[key] = _digest(evaluator.concept_answers(queries[step.query], snapshot))
    if step.digest != expected[key]:
        return f"wrong answer for query {step.query} at generation {step.generation}"
    return None


def _check_answers(steps, queries, snapshots) -> List[str]:
    """Compare every served answer with a from-scratch evaluation."""
    evaluator = QueryEvaluator(None)
    expected: Dict[Tuple[int, int], Tuple[int, int]] = {}
    failures = []
    for position, step in enumerate(steps):
        if step.error is None and step.digest is not None:
            failure = _wrong_answer(step, queries, snapshots, evaluator, expected)
            if failure is not None:
                failures.append(f"op {position}: {failure}")
    return failures


# ---------------------------------------------------------------------------
# match-fresh
# ---------------------------------------------------------------------------


class MatchFresh:
    """First-contact queries against one in-process optimizer.

    One round sends every query of a fixed list once, in an order drawn
    from the seed, to a freshly set-up optimizer; the next round sets up
    again (a ``setup_s`` sample, not timed as queries), so every query of
    every round is a first contact and every run measures the same
    queries.
    """

    name = "match-fresh"
    unit = "queries"
    #: Set-ups before the timed phase; the rounds add more, and
    #: ``setup_s`` reports the median of all.
    setups = 1
    rounds = True
    operation = staticmethod(_untraced)
    tick = staticmethod(_no_tick)
    views = 128

    def inputs(self, seed: int):
        schema = TradingSchema()
        catalog = _catalog(schema, self.views)
        state = generate_trading_state(seed=STATE_SEED)
        queries = _distinct(
            generate_matching_queries(schema.sl, catalog, 2 * FRESH_QUERIES, seed=FRESH_SEED)
        )[:FRESH_QUERIES]
        random.Random(seed).shuffle(queries)
        return {
            "schema": schema,
            "catalog": catalog,
            "snapshot": state.snapshot(),
            "queries": queries,
            "sizes": {
                "views": len(catalog),
                "objects": len(state.objects),
                "pool": len(queries),
                "epochs": 0,
            },
        }

    def setup(self, inputs):
        _cold_start()
        state = DatabaseState.from_snapshot(inputs["snapshot"])
        self.tick()
        optimizer = _build_optimizer(inputs["schema"], inputs["catalog"], self.tick)
        optimizer.catalog.refresh_all(state)
        return {"state": state, "optimizer": optimizer, "queries": inputs["queries"]}

    def teardown(self, system) -> None:
        system.clear()
        gc.collect()

    def capacity(self, system) -> int:
        return len(system["queries"])

    def step(self, system, position: int) -> Step:
        step = Step()
        step.query = position
        concept = system["queries"][position]
        optimizer = system["optimizer"]
        state = system["state"]
        start = time.perf_counter()
        with self.operation("query"):
            views = optimizer.subsuming_views_for_concept(concept)
            candidates = views[0].extent if views else None
            answers = optimizer.evaluator.concept_answers(concept, state, candidates)
        step.query_s = time.perf_counter() - start
        step.digest = _digest(answers)
        step.generation = state.generation
        return step

    def verify(self, system, steps) -> List[str]:
        state = system["state"]
        return _check_answers(
            steps, system["queries"], {state.generation: state.snapshot()}
        )

    def epilogue(self, system) -> Dict[str, float]:
        return {}

    def layer_objects(self, system):
        return {"primary": system["state"]}


# ---------------------------------------------------------------------------
# fleet-read
# ---------------------------------------------------------------------------


def _zipf_stream(size: int, draws: int, seed: int) -> List[int]:
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(size)]
    rng = random.Random(seed)
    return rng.choices(range(size), weights=weights, k=draws)


class FleetRead:
    """A read-only serving node: snapshot replica plus remote decision cache."""

    name = "fleet-read"
    unit = "queries"
    setups = 3
    rounds = False
    operation = staticmethod(_untraced)
    tick = staticmethod(_no_tick)
    views = 128

    def inputs(self, seed: int):
        schema = TradingSchema()
        catalog = _catalog(schema, self.views)
        state = generate_trading_state(
            customers=400, orders=800, products=160, clerks=30, regions=12, seed=STATE_SEED
        )
        pool = _pool(schema, catalog, POOL)
        return {
            "schema": schema,
            "catalog": catalog,
            "snapshot": state.snapshot(),
            "pool": pool,
            "stream": _zipf_stream(len(pool), FLEET_DRAWS, seed),
            "sizes": {
                "views": len(catalog),
                "objects": len(state.objects),
                "pool": len(pool),
                "epochs": 0,
            },
        }

    def setup(self, inputs):
        _cold_start()
        primary = DatabaseState.from_snapshot(inputs["snapshot"])
        self.tick()
        optimizer = _build_optimizer(inputs["schema"], inputs["catalog"], self.tick)
        optimizer.catalog.refresh_all(primary)
        self.tick()
        system = {"primary": primary, "pool": inputs["pool"], "stream": inputs["stream"]}
        system["cache_server"] = DecisionCacheServer().start()
        system["replica_server"] = ReplicaServer(primary, optimizer.catalog).start()
        namespace = cache_namespace(optimizer.sl_schema, optimizer.catalog)
        system["remote"] = RemoteDecisionCache(
            system["cache_server"].address, namespace, pool_size=1
        )
        system["replica"] = SnapshotReplica(
            system["replica_server"].address,
            staleness_bound=0,
            remote=system["remote"],
        ).connect()
        self.tick()
        # A peer node publishes the pool's decisions from a cold checker:
        # only full completions are written behind, so a memoized checker
        # would publish nothing.
        clear_shared_decision_cache()
        peer = RemoteDecisionCache(system["cache_server"].address, namespace, pool_size=1)
        try:
            ShardedMatcher(
                SubsumptionChecker(optimizer.sl_schema),
                optimizer.catalog,
                shards=1,
                backend="serial",
                remote=peer,
            ).match_batch(inputs["pool"])
        finally:
            peer.close()
        self.tick()
        # The serving node starts with the shared tier only.
        clear_shared_decision_cache()
        system["replica"].optimizer.checker.clear_cache()
        system["snapshots"] = {primary.generation: primary.snapshot()}
        return system

    def teardown(self, system) -> None:
        for key in ("replica", "remote", "replica_server", "cache_server"):
            handle = system.get(key)
            if handle is not None:
                handle.close()
        system.clear()
        gc.collect()

    def capacity(self, system) -> int:
        return len(system["stream"])

    def step(self, system, position: int) -> Step:
        step = Step()
        step.query = system["stream"][position]
        replica = system["replica"]
        _serve(replica, system["pool"][step.query], step, self.operation)
        return step

    def verify(self, system, steps) -> List[str]:
        return _check_answers(steps, system["pool"], system["snapshots"])

    def epilogue(self, system) -> Dict[str, float]:
        return {}

    def layer_objects(self, system):
        replica = system["replica"]
        return {
            "replica": replica,
            "remote": system["remote"],
            "queues": [replica.maintenance],
            "primary": system["primary"],
        }


# ---------------------------------------------------------------------------
# commit-catchup
# ---------------------------------------------------------------------------


class CommitCatchup:
    """Durable commits beside a replica that catches up before each read.

    One round commits the deployment's epochs in order, starting from the
    generated state with an empty log; the next round sets up afresh.
    The state grows with every epoch, so without rounds a faster run would
    reach larger, costlier states than a slower one.
    """

    name = "commit-catchup"
    unit = "iterations"
    #: Set-ups before the timed phase; the rounds add more.
    setups = 3
    rounds = True
    operation = staticmethod(_untraced)
    tick = staticmethod(_no_tick)
    #: Wraps the checks run between timed intervals; the traced run
    #: suspends recording there.
    quiet = staticmethod(_untraced)
    #: Every epoch re-evaluates the relevant views on the read path, so the
    #: catalog is smaller here to fit enough iterations into a run.
    views = 8
    #: Reopens of the finished log; ``recover_s`` is their median.
    REOPENS = 3

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._log_dirs = 0

    def inputs(self, seed: int):
        schema = TradingSchema()
        catalog = _catalog(schema, self.views)
        state = generate_trading_state(seed=STATE_SEED)
        epochs = legal_epochs(
            schema.sl, state.snapshot(), CATCHUP_EPOCHS, EPOCH_UPDATES, EPOCHS_SEED
        )
        pool = _pool(schema, catalog, CATCHUP_POOL)
        rng = random.Random(seed)
        return {
            "schema": schema,
            "catalog": catalog,
            "snapshot": state.snapshot(),
            "epochs": epochs,
            "pool": pool,
            "picks": [rng.randrange(len(pool)) for _ in epochs],
            "sizes": {
                "views": len(catalog),
                "objects": len(state.objects),
                "pool": len(pool),
                "epochs": len(epochs),
            },
        }

    def _fresh_log_dir(self) -> str:
        self._log_dirs += 1
        path = os.path.join(self.out_dir, f"wal-{os.getpid()}-{self._log_dirs}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def setup(self, inputs):
        _cold_start()
        state = DatabaseState.from_snapshot(inputs["snapshot"])
        self.tick()
        optimizer = _build_optimizer(inputs["schema"], inputs["catalog"], self.tick)
        optimizer.catalog.refresh_all(state)
        self.tick()
        system = {
            "schema": inputs["schema"],
            "catalog_concepts": inputs["catalog"],
            "state": state,
            "optimizer": optimizer,
            "epochs": inputs["epochs"],
            "pool": inputs["pool"],
            "picks": inputs["picks"],
            "log_dir": self._fresh_log_dir(),
            "acked": [],
        }
        # Store defaults: fsync before every ACK, checkpoint every 32 commits.
        system["maintainer"] = DurableMaintainer(state, optimizer.catalog, path=system["log_dir"])
        # The generated objects predate the log: a genesis checkpoint makes
        # them recoverable.
        system["maintainer"].checkpoint()
        system["replica_server"] = ReplicaServer(state, optimizer.catalog).start()
        replica = SnapshotReplica(system["replica_server"].address, staleness_bound=0)
        system["replica"] = replica.connect()
        self.tick()
        # First contacts are paid here, so the timed reads hit the memos.
        for concept in inputs["pool"]:
            replica.answer_concept(concept)
            self.tick()
        system["snapshots"] = {state.generation: state.snapshot()}
        return system

    def teardown(self, system) -> None:
        for key in ("replica", "replica_server"):
            handle = system.get(key)
            if handle is not None:
                handle.close()
        maintainer = system.get("maintainer")
        if maintainer is not None:
            maintainer.close()
        if system.get("log_dir"):
            shutil.rmtree(system["log_dir"], ignore_errors=True)
        system.clear()
        gc.collect()

    def capacity(self, system) -> int:
        return len(system["epochs"])

    def step(self, system, index: int) -> Step:
        step = Step()
        state = system["state"]
        before = state.commit_sequence
        start = time.perf_counter()
        try:
            with self.operation("commit"):
                with state.batch():
                    for op in system["epochs"][index]:
                        apply_update(state, op)
                if state.commit_sequence != before:
                    ticket = state.last_commit_ticket
                    if not ticket.wait_durable(timeout=30.0):
                        step.error = f"no durable ACK for commit {ticket.sequence}"
                        return step
                    step.sequence = ticket.sequence
        except Exception as error:  # noqa: BLE001 - a failed commit is a failed op
            step.error = f"commit: {error!r}"
            return step
        step.commit_s = time.perf_counter() - start
        if step.sequence is not None:
            system["acked"].append(step.sequence)
        # The client waits until the primary has published the epoch's
        # extents before it reads: the primary's flush worker then never
        # holds the interpreter lock inside the timed catch-up, which would
        # make the read latency measure thread scheduling.
        start = time.perf_counter()
        system["maintainer"].sync()
        step.publish_s = time.perf_counter() - start
        # The pinned snapshot of every generation is checked right away and
        # then dropped: holding one per epoch would grow with the run.
        snapshots = system["snapshots"]
        with self.quiet():
            snapshots[state.generation] = state.snapshot()
        step.query = system["picks"][index]
        _serve(system["replica"], system["pool"][step.query], step, self.operation)
        if step.error is None:
            with self.quiet():
                step.error = _wrong_answer(
                    step, system["pool"], snapshots, QueryEvaluator(None), {}
                )
        for generation in list(snapshots):
            if generation != state.generation:
                del snapshots[generation]
        return step

    def verify(self, system, steps) -> List[str]:
        return []

    def epilogue(self, system) -> Dict[str, object]:
        """Close the primary, reopen its log, and check nothing ACKed was lost."""
        state = system["state"]
        maintainer = system.pop("maintainer")
        maintainer.close()
        live_extents = {view.name: view.stored_extent for view in system["optimizer"].catalog}
        fresh = _build_optimizer(system["schema"], system["catalog_concepts"])
        seconds = []
        failures = []
        recovered_sequence = None
        for _ in range(self.REOPENS):
            start = time.perf_counter()
            recovered = DurableMaintainer.open(
                system["log_dir"], system["schema"].sl, fresh.catalog
            )
            seconds.append(time.perf_counter() - start)
            try:
                recovered_sequence = recovered.recovery_report.recovered_sequence
                failures.extend(_recovery_failures(recovered.state, state))
                recovered_extents = {
                    view.name: view.stored_extent for view in fresh.catalog
                }
                if recovered_extents != live_extents:
                    failures.append("recovered view extents differ from the live ones")
            finally:
                recovered.kill()
        lost = [
            sequence for sequence in system["acked"] if sequence > recovered_sequence
        ]
        failures.extend(f"ACKed commit {sequence} lost" for sequence in lost)
        return {"recover_seconds": seconds, "recovery_failures": failures}

    def layer_objects(self, system):
        replica = system["replica"]
        return {
            "replica": replica,
            "queues": [replica.maintenance],
            "maintainer": system.get("maintainer"),
            "primary": system["state"],
        }


def _serve(replica: SnapshotReplica, concept: Concept, step: Step, operation) -> None:
    """Catch the replica up to lag 0 and answer one query there (timed)."""
    start = time.perf_counter()
    try:
        with operation("query"):
            lag = replica.ensure_fresh(0)
            answers, step.generation = replica.answer_concept(concept)
    except StalenessError as error:
        step.error = f"StalenessError: {error}"
        return
    step.query_s = time.perf_counter() - start
    step.digest = _digest(answers)
    if lag != 0:
        step.error = f"lag {lag} after catch-up"
    elif replica.degraded:
        step.error = f"DegradedServing: {replica.status}"


def _recovery_failures(recovered: DatabaseState, live: DatabaseState) -> List[str]:
    failures = []
    if recovered.objects != live.objects:
        failures.append("recovered objects differ from the live state")
    for name in live.classes() | recovered.classes():
        if recovered.extent(name) != live.extent(name):
            failures.append(f"recovered extent of {name} differs")
    for name in live.attributes() | recovered.attributes():
        if recovered.attribute_pairs(name) != live.attribute_pairs(name):
            failures.append(f"recovered pairs of {name} differ")
    return failures


def make(name: str, out_dir: str):
    """The workload object for ``name``."""
    if name == MatchFresh.name:
        return MatchFresh()
    if name == FleetRead.name:
        return FleetRead()
    if name == CommitCatchup.name:
        return CommitCatchup(out_dir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (MatchFresh.name, FleetRead.name, CommitCatchup.name)
