"""Primary failover: epoch-fenced promotion of a snapshot replica.

The deductive-database design treats the **update stream as the unit of
correctness** -- every commit is a typed-delta epoch, totally ordered by
the commit sequence, durable in the WAL before it is acknowledged.  That
is exactly what makes principled failover possible without consensus
machinery: a promoted primary is *defined* as "some fully applied epoch
prefix, extended by the durable WAL tail", and a stale primary is
*defined* as "any writer whose fencing epoch predates the promotion".

Three pieces:

* :class:`FencingToken` / :class:`FencedOut` -- the fencing protocol.
  The coordinator hands every primary generation a token carrying a
  monotonically increasing **fencing epoch**; the token's check is wired
  into the write path as the :class:`~repro.database.commit.CommitScheduler`'s
  ``fence`` hook, which runs both at batch admission (before any
  mutation) and again under the WAL append fence (before any bytes reach
  the shared log).  Promotion bumps the epoch, so a revived stale
  primary's next write raises :class:`FencedOut` -- a
  :class:`~repro.database.commit.DurabilityError` subclass, because "your
  writes can no longer be acknowledged" is precisely what fencing means.
* :class:`FailoverCoordinator.promote` -- turns a caught-up-as-far-as-
  possible :class:`~repro.database.replica.SnapshotReplica` into a
  primary: recover the durable WAL, rebase the replica onto the newest
  checkpoint if its pinned position predates it, replay the durable
  epoch tail through the replica's own idempotent apply path
  (already-applied sequences are skipped), regenerate extents, truncate
  any torn WAL tail, and re-anchor the commit sequence so new epochs
  continue the recovered numbering.  **No fsync-ACKed commit is lost**:
  an ACK is only ever issued after the covering fsync
  (:mod:`repro.database.commit`), so every ACKed epoch is in the durable
  WAL image the promotion replays.
* :class:`Promotion` -- the running result: the promoted state wired to
  a fenced :class:`~repro.database.commit.CommitScheduler` and a
  WAL-first epoch appender, ready to accept writes and to back a new
  :class:`~repro.database.replica.ReplicaServer`.

The coordinator is deliberately a *local* arbiter (one process decides
the epoch); distributed leader election is out of scope -- the fencing
discipline is the part that must be airtight regardless of who elects.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from .commit import CommitScheduler, DurabilityError
from .faults import FaultPolicy
from .store import EpochRecord
from .wal import WriteAheadLog, require_catalog_identity

__all__ = [
    "FailoverCoordinator",
    "FencedOut",
    "FencingToken",
    "Promotion",
    "PromotionReport",
]


class FencedOut(DurabilityError):
    """A write was rejected because the writer's fencing epoch is stale.

    Raised from the commit gate (before any mutation) and from the WAL
    append path (before any bytes land) of a primary that has been
    superseded by a promotion.  Subclasses
    :class:`~repro.database.commit.DurabilityError`, so existing
    degraded-mode handling (readers keep serving, writers see a typed
    refusal) applies unchanged.
    """

    def __init__(self, *, stale_epoch: int, current_epoch: int) -> None:
        super().__init__(
            f"fenced out: writer epoch {stale_epoch} superseded by "
            f"epoch {current_epoch}; this primary must stand down"
        )
        self.stale_epoch = stale_epoch
        self.current_epoch = current_epoch


@dataclass(frozen=True)
class FencingToken:
    """One primary generation's write credential (a monotonic epoch)."""

    epoch: int


@dataclass(frozen=True)
class PromotionReport:
    """What a promotion recovered and where the new primary starts."""

    #: The new primary's fencing epoch.
    epoch: int
    #: The replica's applied sequence entering the promotion.
    base_sequence: int
    #: The checkpoint the replica was rebased onto (0: tail-only replay).
    checkpoint_sequence: int
    #: Durable epochs replayed on top of the replica's pinned state.
    replayed_epochs: int
    #: The durable WAL's newest sequence (every ACKed commit is <= this).
    durable_sequence: int
    #: The promoted primary's starting commit sequence (>= both of the
    #: above: a replica may have applied shipped-but-unACKed epochs).
    start_sequence: int
    #: The promoted primary's serving generation.
    generation: int
    #: Whether the replica had to rebuild from the WAL checkpoint.
    snapshot_rebuilt: bool


class _EpochAppender:
    """Mutation-log listener: WAL-first append of every committed epoch.

    The minimal durable write path for a promoted primary (the full
    :class:`~repro.database.maintenance.DurableMaintainer` adds async
    flushing and checkpointing on top of the same discipline): append the
    store's :class:`~repro.database.store.EpochRecord` through the fenced
    scheduler.  A fenced or degraded append surfaces its typed error to
    the committing writer.
    """

    def __init__(self, scheduler: CommitScheduler) -> None:
        self.scheduler = scheduler

    def on_commit(self, record: EpochRecord) -> None:
        ticket = self.scheduler.append(record)
        if ticket.error is not None:
            raise ticket.error


@dataclass
class Promotion:
    """A promoted primary: fenced write path over the recovered state."""

    token: FencingToken
    state: object
    optimizer: object
    scheduler: CommitScheduler
    wal: WriteAheadLog
    report: PromotionReport
    _appender: _EpochAppender = field(repr=False, default=None)

    @property
    def catalog(self):
        """The promoted primary's view catalog (extents regenerated)."""
        return self.optimizer.catalog

    def close(self) -> None:
        """Detach the write path and release WAL handles (idempotent)."""
        self.state.detach_commit_scheduler(self.scheduler)
        if self._appender is not None:
            self.state.unsubscribe(self._appender)
            self._appender = None
        try:
            with self.scheduler.exclusive():
                self.wal.close()
        except OSError:  # pragma: no cover - handle-close race
            pass


class FailoverCoordinator:
    """Hands out fencing epochs and promotes replicas to primary.

    One coordinator arbitrates one primary lineage.  The current primary
    registers (:meth:`register_primary`) and wires the returned token
    into its commit scheduler; :meth:`promote` bumps the fencing epoch
    *first* -- from that instant every write under the old token raises
    :class:`FencedOut` -- and then rebuilds the new primary from the
    replica's pinned state plus the durable WAL tail.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """The current (newest) fencing epoch."""
        with self._lock:
            return self._epoch

    def check(self, token: FencingToken) -> None:
        """Raise :class:`FencedOut` unless ``token`` is the current epoch."""
        with self._lock:
            current = self._epoch
        if token.epoch != current:
            raise FencedOut(stale_epoch=token.epoch, current_epoch=current)

    def guard(self, token: FencingToken):
        """The zero-argument fence callback for a ``CommitScheduler``."""
        return lambda: self.check(token)

    def register_primary(
        self, scheduler: Optional[CommitScheduler] = None
    ) -> FencingToken:
        """Open a new primary generation; optionally wire its fence.

        Bumps the fencing epoch (standing down any previous holder) and
        returns the new token.  When ``scheduler`` is given, its
        ``fence`` hook is pointed at the token's check.
        """
        with self._lock:
            self._epoch += 1
            token = FencingToken(self._epoch)
        if scheduler is not None:
            scheduler.fence = self.guard(token)
        return token

    def promote(
        self,
        replica,
        wal_path: str,
        *,
        schema=None,
        fs=None,
        sync_every: Optional[int] = 1,
        segment_bytes: int = 1 << 20,
        fault_policy: Optional[FaultPolicy] = None,
        strict_catalog: bool = True,
    ) -> Promotion:
        """Promote ``replica`` to primary from the durable WAL at ``wal_path``.

        The replica must have completed at least one snapshot handshake
        (it owns a state, an optimizer and a catalog); it should have
        caught up as far as the dead primary allowed, but any shortfall
        is covered by the WAL replay.  ``schema`` overrides the pinned
        schema when the durable tail carries ``schema_changed`` epochs
        past the replica's position (the delta log does not carry the
        swap itself).  ``strict_catalog`` requires the WAL checkpoint's
        catalog identity to match the replica's (a mismatch raises
        :class:`~repro.database.wal.WalError`, as in
        :meth:`~repro.database.maintenance.DurableMaintainer.open`).

        Steps, in fencing-safe order: bump the epoch (stale primary
        rejected from here on), recover the durable WAL image, rebase
        onto its checkpoint if the replica predates it, replay the
        durable tail idempotently, regenerate extents, truncate the torn
        tail, re-anchor the commit sequence, and wire a fenced
        WAL-appending commit scheduler to the recovered state.
        """
        if replica.state is None or replica.optimizer is None:
            raise ValueError(
                "promote() needs a replica that has completed its snapshot "
                "handshake (connect() first)"
            )
        token = self.register_primary()
        replica.close()

        wal = WriteAheadLog(
            wal_path, sync_every=sync_every, segment_bytes=segment_bytes, fs=fs
        )
        found = wal.recover()
        base_sequence = replica.applied_sequence
        snapshot_rebuilt = False
        checkpoint_sequence = 0
        if found.checkpoint is not None:
            checkpoint_sequence = found.checkpoint.sequence
            if strict_catalog:
                require_catalog_identity(found.checkpoint.catalog, replica.optimizer.catalog)
            if replica.applied_sequence < found.checkpoint.sequence:
                # The replica's position predates the durable checkpoint:
                # the WAL tail alone cannot bridge the gap, so rebase the
                # replica onto the checkpoint exactly like a late joiner
                # rebasing onto a replica server's fresh base.
                base = found.checkpoint.snapshot
                replica._load_snapshot(
                    {
                        "sequence": found.checkpoint.sequence,
                        "generation": base.generation,
                        "snapshot": base,
                        "schema": schema if schema is not None else base.schema,
                        "catalog": found.checkpoint.catalog,
                    }
                )
                snapshot_rebuilt = True
        replayed = 0
        for record in found.epochs:
            if record.schema_changed and record.sequence > replica.applied_sequence:
                if schema is None:
                    raise ValueError(
                        "the durable tail carries a schema swap past the "
                        "replica's position; pass the post-swap schema"
                    )
                replica.state.schema = schema
            replayed += replica._apply_epoch(record)
        snapshot = replica.state.snapshot()
        replica.optimizer.catalog.regenerate_extents(snapshot)
        wal.reset_to(found)
        start_sequence = max(found.last_sequence, replica.applied_sequence)
        replica.state.reset_commit_sequence(start_sequence)

        scheduler = CommitScheduler(
            wal, policy=fault_policy, fence=self.guard(token)
        )
        appender = _EpochAppender(scheduler)
        replica.state.attach_commit_scheduler(scheduler)
        replica.state.subscribe(appender)
        report = PromotionReport(
            epoch=token.epoch,
            base_sequence=base_sequence,
            checkpoint_sequence=checkpoint_sequence,
            replayed_epochs=replayed,
            durable_sequence=found.last_sequence,
            start_sequence=start_sequence,
            generation=snapshot.generation,
            snapshot_rebuilt=snapshot_rebuilt,
        )
        return Promotion(
            token=token,
            state=replica.state,
            optimizer=replica.optimizer,
            scheduler=scheduler,
            wal=wal,
            report=report,
            _appender=appender,
        )
