"""Write-scheduled group commit: tickets, fault policy, degraded mode.

PR 6 made epochs durable, but the WAL append lived inside
:class:`~repro.database.maintenance.DurableMaintainer` and assumed one
mutator thread: sequences were pre-computed on the committing thread, an
injected ``EIO`` crashed the worker instead of degrading, and a second
writer would have raced the numbering.  This module is the commit pipeline
that fixes all three, following SNIPPETS.md's oidadb discipline -- writes
are *scheduled* and serialized through the log while reads stay lock-free
on the last published version:

* the store serializes writer threads (``DatabaseState.batch()`` holds the
  write lock for the whole epoch) and assigns the epoch sequence at commit
  (``DatabaseState.commit_sequence``) -- the maintainer consumes it;
* :meth:`CommitScheduler.append` writes the epoch WAL-first under a
  bounded-retry :class:`FaultPolicy` (transient ``OSError`` -> backoff and
  retry, distinguishing "frame landed, fsync pending" from "frame torn,
  truncate and re-append") and hands back a :class:`CommitTicket`;
* :meth:`CommitTicket.wait_durable` resolves only once the covering fsync
  is acknowledged.  Group commit rides the WAL's ``sync_every`` batching:
  appends do not fsync individually, and the first ticket-waiter becomes
  the *leader* that issues one fsync on behalf of every appended commit --
  N writers, one fsync, N ACKs (via the WAL's durable-watermark
  notification);
* when retries exhaust, the scheduler flips to **read-only degraded
  mode**: pending tickets fail with a typed :class:`DurabilityError`
  carrying the last ACKed sequence, new write batches are rejected at the
  store boundary before they mutate anything, and readers keep serving the
  last published generation untouched.  :meth:`CommitScheduler.heal`
  re-probes the log (torn-tail repair + a real fsync) and resumes writes.

The degraded-mode contract is deliberately honest about what a failed ACK
means: the commit *is* applied in memory and its frame may even survive on
disk -- ``DurabilityError`` says "not acknowledged durable", never
"definitely lost".  The crash oracle's spec is unchanged: recovery lands
on a from-scratch refresh of some ACK-consistent durable prefix, and no
``wait_durable()``-acknowledged commit is ever lost while fsyncs are
honest.

Locking & fencing invariants
----------------------------

Three locks, acquired only in the order ``_sync_lock`` -> ``_wal_lock``
(the *append fence*) -> ``_state_lock`` (a leaf), never the reverse:

* Every WAL mutation -- append, torn-tail repair, checkpoint,
  :meth:`CommitScheduler.heal`, :meth:`CommitScheduler.exclusive` -- runs
  under the append fence.  Appends arrive already serialized by the
  store's write lock; the fence orders them against the *other* threads
  that touch the log.
* ``_sync_lock`` elects exactly one group-commit *leader* at a time.
  The leader takes the fence only twice -- to capture the sync window
  and to adopt its result -- and **the fsync itself runs outside the
  append fence**, so writers keep appending behind the in-flight fsync
  and the next leader acknowledges them all at once.
* ``_state_lock`` guards the ticket table, the durable-watermark mirror
  and the degraded flag; it is never held across I/O, and ticket events
  are set only after it is released.
* A ticket is registered under the append fence *before* its frame is
  appended, and degradation takes the fence before failing tickets --
  so neither an ACK nor a fault declaration can race past a
  concurrently-registered ticket.
* The durability boundary is adopted from the *captured* sync window,
  never from the log's live tail: bytes appended while the out-of-fence
  fsync was in flight stay unacknowledged until the next sync covers
  them.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, suppress
from typing import Callable, Dict, Optional

from .faults import FaultPolicy
from .store import EpochRecord
from .wal import WalError, WriteAheadLog

__all__ = [
    "CommitScheduler",
    "CommitTicket",
    "DurabilityError",
    "FaultPolicy",
]


class DurabilityError(WalError):
    """A commit could not be acknowledged durable (typed, with the watermark).

    Raised to writers on the commit path when the WAL's fault policy
    exhausts its retries, and by :meth:`CommitTicket.wait_durable` for
    tickets whose covering fsync never arrived.  ``last_durable_sequence``
    is the newest epoch that *was* fsync-acknowledged when the fault was
    declared -- everything up to it survived, everything after it is
    applied in memory but unacknowledged.  Subclasses :class:`WalError` so
    pre-existing ``except WalError`` failure handling keeps working.
    """

    def __init__(self, message: str, *, last_durable_sequence: int = 0) -> None:
        super().__init__(message)
        self.last_durable_sequence = last_durable_sequence


class CommitTicket:
    """The fsync-ACK handle of one scheduled commit.

    Returned by :meth:`CommitScheduler.append` (reachable as
    ``DatabaseState.last_commit_ticket`` right after a batch commits).
    :meth:`wait_durable` blocks until the covering fsync is acknowledged;
    :attr:`durable`/:attr:`error` answer without blocking.
    """

    __slots__ = ("sequence", "_scheduler", "_event", "_error")

    def __init__(self, sequence: int, scheduler: "CommitScheduler") -> None:
        self.sequence = sequence
        self._scheduler = scheduler
        self._event = threading.Event()
        self._error: Optional[DurabilityError] = None

    @property
    def resolved(self) -> bool:
        """``True`` once the ticket is decided (acknowledged or failed)."""
        return self._event.is_set()

    @property
    def durable(self) -> bool:
        """``True`` iff the commit's covering fsync has been acknowledged."""
        return self._event.is_set() and self._error is None

    @property
    def error(self) -> Optional[DurabilityError]:
        """The failure, when the commit could not be acknowledged durable."""
        return self._error

    def wait_durable(self, timeout: Optional[float] = None) -> bool:
        """Block until the covering fsync is acknowledged.

        Group-commit semantics: if no ``sync_every`` batch boundary has
        flushed this commit yet, the first waiter becomes the leader and
        issues one fsync covering *every* appended commit -- concurrent
        waiters ride the same fsync.  Returns ``True`` on acknowledgment,
        ``False`` on timeout; raises :class:`DurabilityError` when the
        fault policy declared the log unwritable before the ACK arrived.
        """
        return self._scheduler._await_ticket(self, timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "durable" if self.durable else ("failed" if self._error else "pending")
        return f"CommitTicket(sequence={self.sequence}, {state})"


class CommitScheduler:
    """Serializes WAL commits, acknowledges fsyncs, degrades on faults.

    One scheduler guards one :class:`~repro.database.wal.WriteAheadLog`.
    Appends arrive already serialized (the store's write lock orders
    writer threads); the scheduler's own ``_wal_lock`` additionally fences
    them against ticket-driven group-commit flushes, checkpoints and
    :meth:`heal`, which run on other threads.  Attach the scheduler to the
    store (``DatabaseState.attach_commit_scheduler``) to enforce the
    read-only degraded mode at the batch boundary -- writers are rejected
    *before* mutating, so a degraded store never accumulates
    unacknowledgeable epochs.
    """

    def __init__(
        self,
        wal: WriteAheadLog,
        *,
        policy: Optional[FaultPolicy] = None,
        fence: Optional[Callable[[], None]] = None,
    ) -> None:
        self.wal = wal
        self.policy = policy if policy is not None else FaultPolicy()
        #: Epoch-fencing hook (see ``repro.database.failover``): called
        #: before admitting a write batch and before every WAL append; a
        #: raised :class:`DurabilityError` subclass rejects the write.  A
        #: stale primary revived after a failover is fenced here -- its
        #: batches never mutate the store and its epochs never reach the
        #: shared log.
        self.fence = fence
        self._wal_lock = threading.RLock()
        #: Serializes group-commit leaders; held *without* ``_wal_lock``
        #: during the leader's fsync so appenders accumulate behind it.
        self._sync_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._tickets: Dict[int, CommitTicket] = {}
        self._durable = wal.durable_sequence
        self._degraded: Optional[BaseException] = None
        self._local = threading.local()
        self._last_ticket: Optional[CommitTicket] = None
        #: Commits acknowledged per leader-issued group fsync (telemetry).
        self.group_acks = 0
        wal.add_sync_listener(self._on_durable)

    # -- introspection -----------------------------------------------------

    @property
    def durable_sequence(self) -> int:
        """The newest fsync-acknowledged epoch sequence."""
        with self._state_lock:
            return self._durable

    @property
    def read_only(self) -> bool:
        """``True`` while degraded: writes are rejected, reads keep serving."""
        return self._degraded is not None

    @property
    def last_ticket(self) -> Optional[CommitTicket]:
        """The calling thread's most recent ticket (global fallback).

        Thread-local on purpose: under concurrent writers, "the last
        commit" is only well-defined per committing thread.
        """
        ticket = getattr(self._local, "ticket", None)
        return ticket if ticket is not None else self._last_ticket

    def pending_tickets(self) -> int:
        """Unacknowledged, unfailed tickets currently awaiting an fsync."""
        with self._state_lock:
            return len(self._tickets)

    # -- the write path (called under the store's write lock) --------------

    def check_writable(self) -> None:
        """Gate new write batches: raise when fenced or degraded read-only."""
        if self.fence is not None:
            self.fence()
        error = self._degraded
        if error is not None:
            raise DurabilityError(
                "store is in read-only degraded mode after a persistent WAL "
                f"fault ({error}); readers keep serving, heal() resumes writes",
                last_durable_sequence=self.durable_sequence,
            )

    def append(self, record: EpochRecord) -> CommitTicket:
        """Schedule one epoch: WAL-first append under the fault policy.

        Never raises ``OSError``: transient faults are retried with
        backoff, persistent ones flip the scheduler degraded and *fail*
        the returned ticket (callers surface ``ticket.error`` after their
        own bookkeeping).  A frame the log refuses as larger than its
        readers accept counts as persistent.  Simulated-crash ``BaseException``\\ s from the
        fault harness propagate, exactly like a real ``kill -9``.
        """
        ticket = CommitTicket(record.sequence, self)
        self._local.ticket = ticket
        self._last_ticket = ticket
        with self._wal_lock:
            if self.fence is not None:
                # Fencing outranks everything: a stale primary's epoch must
                # never reach the shared log, even if the batch that built
                # it slipped past check_writable() before the promotion.
                try:
                    self.fence()
                except DurabilityError as error:
                    ticket._error = error
                    ticket._event.set()
                    return ticket
            if self._degraded is not None:
                self._fail_ticket(ticket)
                return ticket
            with self._state_lock:
                self._tickets[record.sequence] = ticket
            try:
                self._append_under_policy(record)
            except OSError as error:
                self._enter_degraded(error)
            except WalError as error:
                # The log refused the frame before writing a byte: no retry
                # or heal can land it, and an ACK of any later epoch would
                # sit behind the gap, so the refusal is persistent.
                ticket._error = DurabilityError(
                    f"commit {record.sequence} was refused by the WAL ({error}); "
                    "it is applied in memory but will not be recovered",
                    last_durable_sequence=self.durable_sequence,
                )
                self._enter_degraded(error)
        return ticket

    def _append_under_policy(self, record: EpochRecord) -> None:
        def attempt() -> None:
            if self.wal.appended_sequence >= record.sequence:
                # The frame reached the file on an earlier attempt and only
                # its covering fsync failed: re-appending would duplicate
                # the sequence (poisoning recovery), so the retry targets
                # the sync alone.
                self.wal.sync()
            else:
                self.wal.append(record)

        def discard_torn_frame(error: OSError) -> None:
            if self.wal.appended_sequence < record.sequence:
                # The frame itself tore: drop the partial bytes before any
                # retry may append after them.  A repair that hits the
                # fault too leaves the consequences to the retry (or
                # degradation) path.
                with suppress(OSError):
                    self.wal.discard_torn_tail()

        self.policy.run(attempt, on_fault=discard_torn_frame)

    # -- acknowledgment ----------------------------------------------------

    def _on_durable(self, sequence: int) -> None:
        """WAL sync listener: resolve every ticket the watermark covers."""
        with self._state_lock:
            self._durable = max(self._durable, sequence)
            covered = [seq for seq in self._tickets if seq <= sequence]
            resolved = [self._tickets.pop(seq) for seq in covered]
        for ticket in resolved:
            ticket._event.set()

    def _await_ticket(self, ticket: CommitTicket, timeout: Optional[float]) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not ticket._event.is_set():
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                return False
            # Leader election: whoever wins the sync lock fsyncs on behalf
            # of every appended commit; the rest either block here briefly
            # or wake up already acknowledged via the sync listener.
            slice_ = 0.1 if remaining is None else min(remaining, 0.1)
            if not self._sync_lock.acquire(timeout=slice_):
                continue
            try:
                if ticket._event.is_set() or self._degraded is not None:
                    continue
                self._lead_group_sync(slice_)
            finally:
                self._sync_lock.release()
        if ticket._error is not None:
            raise ticket._error
        return True

    def _lead_group_sync(self, fence_timeout: float) -> None:
        """One leader-issued group fsync (``_sync_lock`` held by the caller).

        The append fence is taken only to *capture* the sync window and to
        *adopt* its result -- the fsync itself runs with the fence
        released, so concurrent writers keep appending behind it and the
        next leader acknowledges them all with one fsync.  A held fence
        (an exclusive checkpoint, a degraded-mode heal) simply makes this
        round a no-op; the waiter loop re-tries within its deadline.
        """
        if not self._wal_lock.acquire(timeout=fence_timeout):
            return
        try:
            if self._degraded is not None:
                return
            window = self.wal.sync_window()
        finally:
            self._wal_lock.release()
        if window is None:
            return
        before = self.durable_sequence
        if window["target"] <= before and not window["dir_sync"]:
            return

        def fsync_window() -> None:
            self.wal.fs.fsync(window["path"])
            if window["dir_sync"]:
                self.wal.fs.fsync_dir(self.wal.path)

        try:
            self.policy.run(fsync_window)
        except OSError as error:
            # Take the append fence first: ticket registration happens
            # under it, so degradation can never miss a ticket registered
            # concurrently (it is either failed here or rejected at
            # append entry).
            with self._wal_lock:
                self._enter_degraded(error)
            return
        with self._wal_lock:
            self.wal.complete_sync(window)
        self.group_acks += max(0, self.durable_sequence - before)

    def flush(self) -> int:
        """Force one group fsync now; returns the durable watermark.

        Raises :class:`DurabilityError` when the log is (or becomes)
        unwritable.
        """
        with self._wal_lock:
            self.check_writable()
            try:
                self.policy.run(self.wal.sync)
            except OSError as error:
                self._enter_degraded(error)
                self.check_writable()
        return self.durable_sequence

    # -- degradation & healing --------------------------------------------

    def _enter_degraded(self, error: BaseException) -> None:
        with self._state_lock:
            if self._degraded is None:
                self._degraded = error
            pending = list(self._tickets.values())
            self._tickets.clear()
            watermark = self._durable
        for ticket in pending:
            if ticket._error is None:
                ticket._error = DurabilityError(
                    f"commit {ticket.sequence} was not acknowledged durable "
                    f"before the WAL degraded ({error}); it is applied in "
                    "memory and may still be recovered from disk",
                    last_durable_sequence=watermark,
                )
            ticket._event.set()

    def _fail_ticket(self, ticket: CommitTicket) -> None:
        ticket._error = DurabilityError(
            f"commit {ticket.sequence} rejected: the store is in read-only "
            "degraded mode",
            last_durable_sequence=self.durable_sequence,
        )
        ticket._event.set()

    def heal(self) -> bool:
        """Re-probe the log after degradation; resume writes on success.

        Repairs any torn active-segment tail, then issues a real fsync
        through the retry policy -- the probe that proves the device
        answers again.  Returns ``True`` (and clears the degraded flag)
        when the probe succeeds, ``False`` when the fault persists -- and
        always ``False`` after the log refused a frame, which no probe
        can cure.  Idempotent; a no-op ``True`` when not degraded.
        """
        with self._wal_lock:
            if self._degraded is None:
                return True
            if not isinstance(self._degraded, OSError):
                # A refused frame (see append) is no I/O fault: resuming
                # would ACK later epochs behind the epoch the log lacks.
                return False
            try:
                self.wal.discard_torn_tail()
                self.policy.run(self.wal.sync)
            except OSError:
                return False
            with self._state_lock:
                self._degraded = None
        return True

    @contextmanager
    def exclusive(self):
        """Hold the WAL fence (checkpoints, close) against group flushes."""
        with self._wal_lock:
            yield
