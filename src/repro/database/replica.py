"""Snapshot read replicas: generation-stamped state shipping over sockets.

The async tier (PR 5) bounded read staleness *inside* one process; this
module ships the same serve-from-generation model across process
boundaries so reader processes scale horizontally.  A
:class:`ReplicaServer` attaches to a live primary
(:class:`~repro.database.store.DatabaseState` + its view catalog) as a
mutation-log listener and serves each connecting replica a **full
snapshot plus a typed-delta tail**:

* the snapshot leg is a pickled :class:`~repro.database.store.StateSnapshot`
  together with the schema and the catalog's structural identity (the
  same ``(name, normalized concept)`` pairs the WAL's checkpoints
  record), everything a fresh process needs to rebuild state, catalog
  and extents from nothing;
* the delta leg is a stream of
  :class:`~repro.database.store.EpochRecord` frames (the records the
  primary's store seals at commit) in the **WAL's own frame format**
  (``<u32 length><u32 crc32><pickled payload>``), one per committed epoch
  past the snapshot -- the identical bytes-on-the-wire discipline
  recovery already trusts, CRC-checked per frame.

:class:`SnapshotReplica` is the reader side: it rebuilds a local
``DatabaseState`` via ``from_snapshot``, registers the catalog's
concepts into a local optimizer, regenerates extents, and then serves
queries against its **pinned local generation** while a local
maintenance queue keeps extents incremental across applied epochs.
Queries match through the local optimizer's own walk
(``subsuming_views_for_concept``); a shared remote decision cache, when
configured, is the optimizer's checker's last layer before a completion.
Staleness is explicit: every applied epoch carries the primary's
sequence and generation stamps, :attr:`SnapshotReplica.lag` is the
number of primary epochs not yet applied, and the **catch-up protocol**
(:meth:`SnapshotReplica.ensure_fresh`) polls delta batches until the
configured bound holds -- a replica that falls behind the server's
retained tail is handed a fresh snapshot instead of an unservable gap.

Consistency model: a replica always serves the extents of *some* fully
applied primary epoch -- the same prefix-consistency contract the async
tier's oracle enforces, property-checked across processes by
``tests/database/test_replica.py`` (every replica-served answer equals a
from-scratch refresh of the pinned generation, and the pinned generation
is never staler than the bound after catch-up).

The wire protocol (handshake lines + framed legs, error responses,
rebase rules) is normatively specified in ``docs/PROTOCOL.md``.
"""

from __future__ import annotations

import pickle
import threading
from typing import Dict, List, Optional, Tuple

from .faults import (
    CircuitBreaker,
    DegradedServing,
    FaultPolicy,
    StalenessError,
    network_fault_policy,
)
from .net import Connection, LineRequestHandler, TCPService
from .store import DatabaseState, EpochRecord
from .wal import FrameError, catalog_identity, encode_frame, read_frame

__all__ = [
    "ReplicaConnectionError",
    "ReplicaProtocolError",
    "ReplicaServer",
    "SnapshotReplica",
    "StalenessError",
]

#: Bumped on any incompatible wire change; exchanged in the handshake.
PROTOCOL_VERSION = "repro-replica/1"

#: The largest frame payload the stream carries (docs/PROTOCOL.md section
#: 2.1).  A receiver checks it before reading any payload byte, so a peer on
#: the replica port cannot make a reader buffer more; a server answers
#: ``ERROR`` instead of sending a frame over it.  The WAL's on-disk frame
#: bound is larger and applies to log files only.
_MAX_WIRE_FRAME_BYTES = 64 << 20

#: Hard cap on one request or response line; longer lines are an error.
_MAX_LINE_BYTES = 4096

#: The integer fields each response header carries (docs/PROTOCOL.md 2.3).
_HEADER_FIELDS = {"SNAPSHOT": 3, "DELTA": 2, "PRIMARY": 2}


class ReplicaProtocolError(RuntimeError):
    """A malformed or version-incompatible replica-stream exchange."""


class ReplicaConnectionError(ReplicaProtocolError, ConnectionError):
    """A transport-level replica-stream fault (drop, truncation, torn CRC).

    Distinct from a plain :class:`ReplicaProtocolError` (a server that
    *answered* with an error): the exchange died mid-flight, so the right
    response is to tear the connection down and re-ask -- every request
    in the protocol is idempotent.  Subclasses :class:`ConnectionError`
    so the shared network fault policy
    (:func:`~repro.database.faults.is_retryable_net_error`) retries it.
    """


def _read_frame(rfile):
    """One CRC-checked frame off the stream, under the wire's bound."""
    try:
        return read_frame(rfile, _MAX_WIRE_FRAME_BYTES)
    except FrameError as error:
        raise ReplicaConnectionError(str(error)) from None


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


class _ReplicaState:
    """The base snapshot + epoch tail one server retains (lock-guarded)."""

    def __init__(self, state: DatabaseState, catalog, tail_limit: int) -> None:
        self.state = state
        self.catalog = catalog
        self.tail_limit = tail_limit
        self.lock = threading.Lock()
        self.tail: List[EpochRecord] = []
        self.snapshots_served = 0
        self.deltas_served = 0
        self.rebases = 0
        self._rebase_locked()

    def _rebase_locked(self) -> None:
        self.base_snapshot = self.state.snapshot()
        self.base_sequence = self.state.commit_sequence
        self.base_catalog = catalog_identity(self.catalog)
        self.tail = []
        self.rebases += 1

    # -- mutation-log listener (runs on the primary's mutator thread) ------

    def on_commit(self, record: EpochRecord) -> None:
        """Append a committed epoch to the tail, rebasing on swap/overflow."""
        with self.lock:
            # A schema swap invalidates every shipped delta interpretation:
            # rebase so late joiners (and resyncing replicas) start from a
            # snapshot taken under the new schema.
            if record.schema_changed or len(self.tail) >= self.tail_limit:
                self._rebase_locked()
            else:
                self.tail.append(record)

    # -- responses (handler threads) ----------------------------------------

    def response_for(self, have_sequence: int):
        """``("SNAPSHOT", payload, records)`` or ``("DELTA", None, records)``."""
        with self.lock:
            if have_sequence < self.base_sequence:
                self.snapshots_served += 1
                payload = {
                    "sequence": self.base_sequence,
                    "generation": self.base_snapshot.generation,
                    "snapshot": self.base_snapshot,
                    "schema": self.base_snapshot.schema,
                    "catalog": self.base_catalog,
                }
                return "SNAPSHOT", payload, list(self.tail)
            records = [record for record in self.tail if record.sequence > have_sequence]
            self.deltas_served += len(records)
            return "DELTA", None, records

    def position(self) -> Tuple[int, int]:
        """The newest shippable ``(sequence, generation)`` -- tail head or base."""
        with self.lock:
            if self.tail:
                newest = self.tail[-1]
                return newest.sequence, newest.generation
            return self.base_sequence, self.base_snapshot.generation


class _ReplicaHandler(LineRequestHandler):
    """One replica connection: HELLO/POLL/STAT lines, framed responses."""

    max_line = _MAX_LINE_BYTES

    def dispatch(self, command: str, args: List[str]) -> bool:  # noqa: D102
        shared: _ReplicaState = self.server.replica_state  # type: ignore[attr-defined]
        if command == "hello" and len(args) == 2:
            if args[0] != PROTOCOL_VERSION:
                self.reply(f"ERROR unsupported version {args[0]}")
                self.close_connection = True
            else:
                self._respond(shared, int(args[1]))
        elif command == "poll" and len(args) == 1:
            self._respond(shared, int(args[0]))
        elif command == "stat" and not args:
            sequence, generation = shared.position()
            self.reply(f"PRIMARY {sequence} {generation}")
        else:
            return False
        return True

    def _respond(self, shared: _ReplicaState, have_sequence: int) -> None:
        kind, payload, records = shared.response_for(have_sequence)
        # Encode everything before writing anything: a frame the reader
        # would refuse becomes one ERROR line, never a half-sent response.
        objects = ([payload] if kind == "SNAPSHOT" else []) + records
        try:
            frames = [
                encode_frame(pickle.dumps(item, protocol=4), _MAX_WIRE_FRAME_BYTES, "wire")
                for item in objects
            ]
        except FrameError as refused:
            self.reply(f"ERROR {refused}")
            return
        if kind == "SNAPSHOT":
            self.reply(f"SNAPSHOT {payload['sequence']} {payload['generation']} {len(records)}")
        else:
            self.reply(f"DELTA {shared.position()[0]} {len(records)}")
        for frame in frames:
            self.wfile.write(frame)


class ReplicaServer(TCPService):
    """Ships generation-stamped snapshots + delta tails to reader processes.

    Attach to a live primary *after* its catalog is registered (the
    shipped identity is captured at rebase time); mutations committed
    while the server runs land in the retained tail.  ``tail_limit``
    bounds the tail: past it the server rebases onto a fresh snapshot
    (late joiners pay one snapshot instead of an unbounded replay), and a
    replica whose position predates the current base is re-seeded with a
    snapshot by the catch-up protocol.  ``port=0`` binds an ephemeral
    port; hand :attr:`address` to :class:`SnapshotReplica`.
    """

    def __init__(
        self,
        state: DatabaseState,
        catalog,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        tail_limit: int = 512,
        idle_timeout: Optional[float] = 60.0,
    ) -> None:
        self.state = state
        self.shared = _ReplicaState(state, catalog, tail_limit)
        super().__init__(
            _ReplicaHandler,
            host,
            port,
            idle_timeout=idle_timeout,
            thread_name="replica-server",
            replica_state=self.shared,
        )
        state.subscribe(self.shared)

    @property
    def position(self) -> Tuple[int, int]:
        """The newest shippable ``(sequence, generation)``."""
        return self.shared.position()

    def close(self) -> None:
        """Detach from the primary and stop serving (idempotent).

        Established replica connections are dropped too: from a client's
        point of view a closed server is indistinguishable from a dead
        one, and the self-healing path owns the reconnect.
        """
        self.state.unsubscribe(self.shared)
        super().close()


# ---------------------------------------------------------------------------
# Reader side
# ---------------------------------------------------------------------------


class SnapshotReplica:
    """A reader process's pinned-generation serving copy of the primary.

    :meth:`connect` performs the snapshot leg -- rebuild the state via
    ``DatabaseState.from_snapshot``, register the shipped catalog
    identity into a local :class:`~repro.optimizer.optimizer.SemanticQueryOptimizer`,
    regenerate extents -- and every :meth:`poll` applies the next delta
    batch as local epochs (one ``state.replay()`` per
    :class:`~repro.database.store.EpochRecord`, flushed incrementally by a
    local :class:`~repro.database.maintenance.MaintenanceQueue`).
    Serving happens strictly against the last fully applied epoch:
    :attr:`applied_generation` is the primary generation every answer is
    pinned to.

    ``staleness_bound`` is the replica's freshness contract, measured in
    primary epochs: :meth:`ensure_fresh` polls until
    ``primary_sequence - applied_sequence <= staleness_bound`` (the
    catch-up protocol; a position behind the server's tail base comes
    back as a fresh snapshot and a full rebuild).  :meth:`answer_concept`
    runs the view-filtered evaluation and optionally cross-checks it
    against the unfiltered one (``check=True``), the paper's soundness
    invariant per served generation.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        *,
        staleness_bound: int = 8,
        timeout: float = 10.0,
        remote=None,
        policy: Optional[FaultPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.address = (address[0], int(address[1]))
        self.staleness_bound = staleness_bound
        self.timeout = timeout
        self.remote = remote
        self.policy = policy if policy is not None else network_fault_policy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.state: Optional[DatabaseState] = None
        self.optimizer = None
        self.maintenance = None
        self.applied_generation = 0
        self.snapshot_loads = 0
        self.epochs_applied = 0
        self.polls = 0
        self.reconnects = 0
        self._degraded: Optional[DegradedServing] = None
        self._last_known_lag: Optional[int] = None
        self._conn: Optional[Connection] = None
        self._lock = threading.Lock()

    # -- connection ---------------------------------------------------------

    def _connection(self) -> Connection:
        if self._conn is None:
            self._conn = Connection(self.address, timeout=self.timeout, max_line=_MAX_LINE_BYTES)
            self.reconnects += 1
        return self._conn

    def _drop_connection(self, error: Optional[OSError] = None) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _exchange_locked(self, perform):
        """Run ``perform(conn)``, one request/response exchange, under the policy.

        The breaker is asked once, before the first attempt: an open breaker
        fails the call at once (no dial, no pause, no recorded failure).
        ``perform`` reruns from scratch on each attempt -- every request is
        idempotent, and epoch application skips applied sequences.  A spent
        budget records one breaker failure.  Any other error (an ``ERROR``
        reply, a header that does not parse, a frame that does not load or
        apply) proves the primary reachable, so it records a success; it
        also drops the connection, whose unread bytes no later request may
        take for its reply.  Transport faults surface as
        :class:`ReplicaConnectionError`; success clears any degraded status.
        """
        if not self.breaker.allow():
            raise ReplicaConnectionError(
                "circuit breaker open: primary unreachable, probe pending"
            )
        try:
            result = self.policy.run(
                lambda: perform(self._connection()), on_fault=self._drop_connection
            )
        except OSError as error:
            self.breaker.record_failure()
            if isinstance(error, ReplicaConnectionError):
                raise
            raise ReplicaConnectionError(f"{type(error).__name__}: {error}") from error
        except Exception:
            self.breaker.record_success()
            self._drop_connection()
            raise
        self.breaker.record_success()
        self._degraded = None
        return result

    def _note_degraded(self, error: BaseException) -> None:
        """Record that serving continues pinned, behind an unreachable primary."""
        self._degraded = DegradedServing(
            reason=f"{type(error).__name__}: {error}",
            since_sequence=self.applied_sequence,
            since_generation=self.applied_generation,
            last_known_lag=self._last_known_lag,
            bound=self.staleness_bound,
        )

    @property
    def status(self):
        """``None`` while healthy; a typed ``DegradedServing`` otherwise."""
        return self._degraded

    @property
    def degraded(self) -> bool:
        """``True`` while serving pinned answers behind a connection fault."""
        return self._degraded is not None

    @staticmethod
    def _request(conn: Connection, line: str, *kinds: str) -> Tuple[str, List[int]]:
        """Send one request line; the response header's kind and integers.

        An ``ERROR`` reply, or a header that is not one of ``kinds`` with
        its integers (``SNAPSHOT <seq> <gen> <n>``, ``DELTA <seq> <n>``,
        ``PRIMARY <seq> <gen>``), raises :class:`ReplicaProtocolError`.
        """
        conn.send(line)
        reply = conn.read_line()
        kind, *fields = reply.split() or [""]
        if kind == "ERROR":
            raise ReplicaProtocolError(" ".join(fields) or "server error")
        try:
            if kind not in kinds or len(fields) != _HEADER_FIELDS[kind]:
                raise ValueError(reply)
            return kind, [int(field) for field in fields]
        except ValueError:
            raise ReplicaProtocolError(f"unexpected response {reply!r}") from None

    def connect(self) -> "SnapshotReplica":
        """Dial the server and perform the initial snapshot handshake."""

        def perform(conn: Connection) -> int:
            # -1 means "I have nothing": it forces the snapshot leg even
            # when the primary itself is still at commit sequence 0.
            have = self.applied_sequence if self.state is not None else -1
            return self._consume_response(conn, f"HELLO {PROTOCOL_VERSION} {have}")

        with self._lock:
            self._exchange_locked(perform)
        return self

    def probe(self) -> bool:
        """Health probe: one ``STAT`` round trip; ``True`` when answered."""
        try:
            self.primary_position()
        except (OSError, ReplicaProtocolError):
            return False
        return True

    def close(self) -> None:
        """Drop the connection (local serving state stays usable)."""
        with self._lock:
            self._drop_connection()

    # -- the snapshot + delta legs ------------------------------------------

    def _consume_response(self, conn: Connection, request: str) -> int:
        """Send a HELLO or POLL; apply its SNAPSHOT or DELTA; epochs applied.

        Records the lag the reply leaves behind: a ``DELTA`` header names
        the primary's newest sequence, and a ``SNAPSHOT`` ships every epoch
        the primary held when it answered.
        """
        kind, fields = self._request(conn, request, "SNAPSHOT", "DELTA")
        if kind == "SNAPSHOT":
            self._load_snapshot(_read_frame(conn.rfile))
        applied = sum(self._apply_epoch(_read_frame(conn.rfile)) for _ in range(fields[-1]))
        self._last_known_lag = max(0, fields[0] - self.applied_sequence)
        return applied

    def _load_snapshot(self, payload: Dict) -> None:
        from ..optimizer.optimizer import SemanticQueryOptimizer
        from .maintenance import MaintenanceQueue

        if self.maintenance is not None:
            self.maintenance.close()
        self.state = DatabaseState.from_snapshot(
            payload["snapshot"], schema=payload["schema"]
        )
        self.state.reset_commit_sequence(payload["sequence"])
        self.optimizer = SemanticQueryOptimizer(payload["schema"])
        for name, concept in payload["catalog"]:
            self.optimizer.register_view_concept(name, concept)
        self.optimizer.checker.remote = self.remote
        self.optimizer.catalog.regenerate_extents(self.state)
        self.maintenance = MaintenanceQueue(self.state, self.optimizer.catalog)
        self.applied_generation = payload["generation"]
        self.snapshot_loads += 1

    def _apply_epoch(self, record: EpochRecord) -> int:
        if record.sequence <= self.applied_sequence:
            return 0
        self.state.replay(record)
        self.applied_generation = record.generation
        self.epochs_applied += 1
        return 1

    @property
    def applied_sequence(self) -> int:
        """The primary sequence of the last fully applied epoch (0 before connecting).

        The local state is rebuilt at the snapshot's sequence and replays
        each epoch under the primary's, so its own commit sequence is the
        applied one: a promotion restores from that state as it stands.
        """
        return 0 if self.state is None else self.state.commit_sequence

    # -- catch-up protocol ---------------------------------------------------

    def primary_position(self) -> Tuple[int, int]:
        """The primary's newest ``(sequence, generation)`` (one round trip)."""
        with self._lock:
            _, (sequence, generation) = self._exchange_locked(
                lambda conn: self._request(conn, "STAT", "PRIMARY")
            )
        return sequence, generation

    @property
    def lag(self) -> int:
        """Primary epochs committed but not yet applied here (one round trip)."""
        lag = max(0, self.primary_position()[0] - self.applied_sequence)
        self._last_known_lag = lag
        return lag

    def poll(self) -> int:
        """Fetch and apply the next delta batch; returns epochs applied.

        A position that fell behind the server's retained tail comes back
        as a full ``SNAPSHOT`` response -- the replica rebuilds and the
        poll still converges.  A dropped or truncated exchange reconnects
        and re-asks under the fault policy (application is idempotent:
        already-applied sequences are skipped); a primary that stays
        unreachable past the budget flips the replica into degraded
        serving (see :meth:`ensure_fresh`) and the poll reports zero
        epochs instead of raising -- unless the replica has no state at
        all yet, in which case there is nothing to serve and the fault
        propagates.
        """

        def perform(conn: Connection) -> int:
            self.polls += 1
            return self._consume_response(conn, f"POLL {self.applied_sequence}")

        with self._lock:
            try:
                return self._exchange_locked(perform)
            except OSError as error:
                if self.state is None:
                    raise
                self._note_degraded(error)
                return 0

    def ensure_fresh(self, max_lag: Optional[int] = None, *, attempts: int = 64) -> int:
        """Catch up until ``lag <= max_lag`` (default: the staleness bound).

        Asks the primary's position once (one ``STAT``), then polls; each
        poll's reply says how far the primary was, so a catch-up needs no
        second ``STAT``.  Returns the final verified lag and clears the
        degraded status.
        Raises a typed :class:`~repro.database.faults.StalenessError` if
        the bound cannot be met within ``attempts`` polls against a
        *reachable* primary (a primary outrunning the replica's apply
        rate is an operational error, not silent staleness).

        Graceful degradation: when the primary is unreachable (and this
        replica has served before), the replica keeps serving its pinned
        generation instead of raising -- the typed
        :class:`~repro.database.faults.DegradedServing` status lands on
        :attr:`status`, and the returned value is the last lag the
        replica could verify (its freshness claim *as of* losing the
        primary).  The next successful exchange heals the status.
        """
        bound = self.staleness_bound if max_lag is None else max_lag
        try:
            lag = self.lag
        except (OSError, ReplicaProtocolError) as error:
            if self.state is None or not isinstance(error, OSError):
                raise
            self._note_degraded(error)
            return self._last_known_lag or 0
        for _ in range(attempts):
            if lag <= bound:
                return lag
            self.poll()
            if self._degraded is not None:
                return self._last_known_lag or 0
            lag = self._last_known_lag
        lag = self.lag
        if lag > bound:
            raise StalenessError(
                f"replica cannot catch up: lag {lag} > bound {bound} "
                f"after {attempts} polls",
                lag=lag,
                bound=bound,
            )
        return lag

    # -- serving -------------------------------------------------------------

    def answer_concept(self, concept, *, check: bool = False):
        """Answers for one ``QL`` concept against the pinned generation.

        Matches subsuming views through the local optimizer (whose checker
        asks the shared remote decision cache before any completion when
        one is attached), evaluates over the view-filtered candidate set,
        and -- with ``check=True`` -- verifies the result against the
        unfiltered evaluation of the same pinned state (the
        serving-soundness invariant).  Returns ``(answers, generation)``.
        """
        matches = self.optimizer.subsuming_views_for_concept(concept)
        evaluator = self.optimizer.evaluator
        if matches:
            answers = evaluator.concept_answers(
                concept, self.state, candidates=matches[0].extent
            )
        else:
            answers = evaluator.concept_answers(concept, self.state)
        if check:
            full = evaluator.concept_answers(concept, self.state)
            if answers != full:
                raise AssertionError(
                    f"unsound replica answer at generation {self.applied_generation}"
                )
        return answers, self.applied_generation
