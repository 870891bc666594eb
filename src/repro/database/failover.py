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
  primary through the one restore path a restart takes
  (:meth:`~repro.database.maintenance.DurableMaintainer.open`), with the
  replica's live state as the base: the durable epoch tail past it is
  replayed, extents are regenerated, the torn WAL tail is truncated, the
  commit numbering continues, and a checkpoint covers any epoch the
  replica holds that the log lacks.  **No fsync-ACKed commit is lost**:
  an ACK is only ever issued after the covering fsync
  (:mod:`repro.database.commit`), so every ACKed epoch is in the durable
  WAL image the promotion replays.
* :class:`Promotion` -- the result: an ordinary
  :class:`~repro.database.maintenance.DurableMaintainer` whose commit
  scheduler is fenced by the new token.  It checkpoints, compacts, heals
  and maintains extents through the async tier like any durable primary,
  so readers of its extents see the same published-generation staleness.

The coordinator is deliberately a *local* arbiter (one process decides
the epoch); distributed leader election is out of scope -- the fencing
discipline is the part that must be airtight regardless of who elects.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from .commit import CommitScheduler, DurabilityError
from .faults import FaultPolicy
from .maintenance import DurableMaintainer

__all__ = [
    "FailoverCoordinator",
    "FencedOut",
    "FencingToken",
    "Promotion",
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
class Promotion:
    """A promoted primary: its fencing token beside an ordinary durable maintainer.

    ``maintainer.recovery_report`` says what the promotion restored.  The
    former replica's optimizer answers from the maintainer's catalog.
    """

    token: FencingToken
    maintainer: DurableMaintainer


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
        """Promote ``replica`` to primary over the durable WAL at ``wal_path``.

        The replica must have completed at least one snapshot handshake
        (it owns a state, an optimizer and a catalog); it should have
        caught up as far as the dead primary allowed, but any shortfall
        is covered by the WAL replay.  ``schema``, ``strict_catalog`` and
        the log options mean what they mean to
        :meth:`~repro.database.maintenance.DurableMaintainer.open`.

        Steps, in fencing-safe order: bump the epoch (stale primary
        rejected from here on), close the replica's connection, restore a
        durable maintainer over the replica's catalog from its live state
        and the log, detach the replica's maintenance queue, and fence the
        maintainer's commit scheduler with the new token.  The queue goes
        last so that a restore that raises leaves the replica's extents
        maintained.
        """
        if replica.state is None or replica.optimizer is None:
            raise ValueError(
                "promote() needs a replica that has completed its snapshot "
                "handshake (connect() first)"
            )
        token = self.register_primary()
        replica.close()
        maintainer = DurableMaintainer.open(
            wal_path,
            schema,
            replica.optimizer.catalog,
            sync_every=sync_every,
            segment_bytes=segment_bytes,
            fs=fs,
            strict_catalog=strict_catalog,
            fault_policy=fault_policy,
            base=replica.state,
        )
        replica.maintenance.close()
        maintainer.scheduler.fence = self.guard(token)
        return Promotion(token, maintainer)
