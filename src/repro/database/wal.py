"""A durable, append-only, segmented write-ahead log for maintenance epochs.

This module is the storage engine underneath the durable tier
(:class:`~repro.database.maintenance.DurableMaintainer`) and the system's
only crash recovery: every committed epoch is appended to an on-disk log
*before* it is enqueued for flushing, so a fresh process can rebuild the
state and every view extent from disk.

File format
-----------

A log is a directory:

* ``epochs-<8 digits>.seg`` -- segment files holding a sequence of
  **frames**.  A frame is ``<u32 length><u32 crc32(payload)><payload>``
  (little-endian header), where the payload is a pickled
  :class:`~repro.database.store.EpochRecord` -- the record the store
  seals at commit.  Segments roll over at :attr:`segment_bytes`;
  record sequences increase strictly across the whole directory.
* ``checkpoint-<12 digits>.ckpt`` -- one frame whose payload is a pickled
  :class:`CheckpointPayload`: the epoch sequence it covers, a full
  :class:`~repro.database.store.StateSnapshot` (which pins the explicit
  membership surface, see ``store.py``) and the catalog identity (view
  names + normalized concepts) the snapshot was serving.  Checkpoints are
  written via temp file + ``fsync`` + atomic rename + directory ``fsync``,
  so a visible checkpoint is always complete; the digits are the covered
  sequence, so the newest checkpoint sorts last.

Durability discipline
---------------------

``sync_every=N`` batches ``fsync`` over N appended epochs (``1`` =
fsync-per-commit; ``0``/``None`` disables the automatic batching entirely
-- the log then fsyncs **only** on an explicit :meth:`WriteAheadLog.sync`,
e.g. from a checkpoint or from the commit scheduler's group-commit flush).
Acknowledged fsyncs are the durability boundary: :attr:`durable_sequence`
is the last epoch guaranteed to survive a crash, anything after it may be
torn.  Parties that need to react to the watermark (the group-commit
ticket machinery in :mod:`repro.database.commit`) register a callback via
:meth:`WriteAheadLog.add_sync_listener`; every successful ``sync`` invokes
the listeners with the new watermark.  Checkpoint writes first sync the
log, and compaction only deletes segments whose every record is covered by
the just-made-durable checkpoint -- so no crash ordering can lose an
acknowledged epoch.

Locking & fencing invariants
----------------------------

The log object itself is **not** internally synchronized: callers
serialize access.  In-process that caller is the commit scheduler
(:mod:`repro.database.commit`), whose ``_wal_lock`` append fence wraps
every mutating call.  The one deliberate exception is the out-of-lock
group fsync: :meth:`WriteAheadLog.sync_window` is called *under* the
fence to pin what an fsync may claim, the ``fs.fsync`` itself runs with
the fence **released** (writers keep appending behind it), and
:meth:`WriteAheadLog.complete_sync` is called back under the fence to
adopt exactly the captured watermark -- never the live tail, so the
durability boundary stays conservative no matter how the fsync races
later appends.

The unsynced-batch counter is conservative by construction: an append is
counted *before* its bytes reach the filesystem and the counter resets
only after a **fully successful** ``sync`` -- so neither a torn append nor
a failed fsync can under-count the batch a retry must cover (at worst the
counter over-counts and an extra fsync is paid, which is always safe).

Recovery (:meth:`WriteAheadLog.recover`) loads the newest checkpoint whose
frame validates (corrupt ones are reported and skipped), then replays
segment frames in order, **stopping at the first bad frame** -- short
header, short payload, CRC mismatch, unpicklable payload or a sequence
regression -- and reports exactly what was dropped (bytes, parseable
records, corrupt checkpoints).  Recovery never raises on torn input; a
writer re-opening the directory truncates the torn tail
(:meth:`WriteAheadLog.reset_to`) before appending again.

All OS access goes through a tiny filesystem seam (:class:`OsFileSystem`),
so the fault-injection harness (``tests/database/fault_fs.py``) can tear
writes mid-frame, fail ``fsync`` and kill the writer at arbitrary byte
boundaries while the crash-recovery oracle checks every recovered state
against the from-scratch refresh of a durable prefix of commits.
"""

from __future__ import annotations

import errno
import io
import os
import pickle
import re
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

# EpochRecord lives in store.py since the store seals each epoch; importing
# it here keeps logs that pickled it as repro.database.wal.EpochRecord
# readable.
from .store import EpochRecord, StateSnapshot

__all__ = [
    "CheckpointPayload",
    "EpochRecord",
    "FrameError",
    "OsFileSystem",
    "RETRYABLE_ERRNOS",
    "WalError",
    "WalRecovery",
    "WriteAheadLog",
    "catalog_identity",
    "encode_frame",
    "is_retryable_io_error",
    "read_frame",
    "require_catalog_identity",
]

_HEADER = struct.Struct("<II")
#: The log's bound on a frame's payload length: a corrupted header must not
#: make the reader allocate gigabytes before the CRC can reject it.  The
#: replica stream has its own, smaller bound (``replica.py``).
_MAX_FRAME_BYTES = 1 << 30

_SEGMENT_RE = re.compile(r"^epochs-(\d{8})\.seg$")
_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{12})\.ckpt$")


class WalError(RuntimeError):
    """A write-ahead-log invariant violation (e.g. catalog identity mismatch).

    The root of the durability error taxonomy: recoverable I/O trouble on
    the commit path surfaces as the :class:`repro.database.commit.DurabilityError`
    subclass (typed, carrying the last acknowledged sequence), while
    structural violations -- catalog identity mismatches, failed checkpoint
    writes -- raise this base class directly.
    """


class FrameError(WalError):
    """A frame over its channel's bound, cut short, or failing its CRC."""


#: ``errno`` values worth retrying with backoff before declaring an I/O
#: fault persistent: media hiccups (``EIO``), space pressure that a
#: concurrent compaction may relieve (``ENOSPC``/``EDQUOT``), interrupted
#: or temporarily unserviceable calls (``EINTR``/``EAGAIN``/``EBUSY``).
RETRYABLE_ERRNOS = frozenset(
    {
        errno.EIO,
        errno.ENOSPC,
        errno.EDQUOT,
        errno.EINTR,
        errno.EAGAIN,
        errno.EBUSY,
        errno.ETIMEDOUT,
    }
)


def is_retryable_io_error(error: BaseException) -> bool:
    """``True`` iff ``error`` is an :class:`OSError` worth retrying.

    An ``OSError`` without an ``errno`` (injected faults, exotic wrappers)
    counts as retryable: the bounded retry policy turns a persistent fault
    into degradation anyway, so the unknown case errs towards one more
    probe rather than an immediate outage.
    """
    if not isinstance(error, OSError):
        return False
    return error.errno is None or error.errno in RETRYABLE_ERRNOS


@dataclass(frozen=True)
class CheckpointPayload:
    """A durable cut: everything up to ``sequence`` baked into one snapshot."""

    sequence: int
    snapshot: StateSnapshot
    #: ``(view name, normalized concept)`` pairs -- the catalog identity the
    #: snapshot was serving.  Concepts pickle stamp-free (see
    #: ``concepts/intern.py``) and re-intern structurally in a fresh
    #: process, so identity is compared via re-interned ids on recovery.
    catalog: Tuple[Tuple[str, object], ...] = ()


def catalog_identity(catalog) -> Tuple[Tuple[str, object], ...]:
    """The ``(name, normalized concept)`` identity pairs of a view catalog."""
    from ..concepts.normalize import normalize_concept

    return tuple(
        (view.name, normalize_concept(view.concept)) for view in catalog
    )


def require_catalog_identity(recorded, catalog) -> None:
    """Raise :class:`WalError` unless ``recorded`` identity matches ``catalog``.

    Order-insensitive; the error names the missing, added and changed
    views.  Compared by structural equality of the normalized concepts,
    not by intern id: the recorded side crossed a pickle boundary and equal
    ids are only guaranteed for ids issued while the intern tables are live
    (after ``clear_intern_tables`` an old canonical instance embedded in
    one side can split otherwise-equal structures onto distinct ids).
    """
    from ..concepts.normalize import normalize_concept

    current = dict(catalog_identity(catalog))
    loaded = {name: normalize_concept(concept) for name, concept in recorded}
    if current != loaded:
        missing = sorted(set(loaded) - set(current))
        added = sorted(set(current) - set(loaded))
        changed = sorted(
            name for name in set(current) & set(loaded) if current[name] != loaded[name]
        )
        raise WalError(
            "checkpoint catalog identity does not match the supplied catalog "
            f"(missing={missing}, added={added}, changed={changed}); recover "
            "with the catalog the log was written under, or pass "
            "strict_catalog=False to rebuild extents for the new catalog"
        )


@dataclass
class WalRecovery:
    """What :meth:`WriteAheadLog.recover` found on disk.

    ``epochs`` is the replay tail (records past the checkpoint, in
    sequence order); the ``dropped_*`` fields and ``corrupt_checkpoints``
    report everything recovery had to discard -- recovery never raises on
    torn input, it reports.
    """

    checkpoint: Optional[CheckpointPayload] = None
    epochs: Tuple[EpochRecord, ...] = ()
    dropped_bytes: int = 0
    dropped_records: int = 0
    corrupt_checkpoints: Tuple[str, ...] = ()
    segments_scanned: int = 0
    #: Per-segment valid-prefix byte lengths (consumed by ``reset_to``).
    good_lengths: Dict[str, int] = field(default_factory=dict)
    #: Segments wholly past the first bad frame (dropped, removed on reset).
    abandoned_segments: Tuple[str, ...] = ()

    @property
    def last_sequence(self) -> int:
        """The newest epoch sequence the recovered image reflects (0 = empty)."""
        if self.epochs:
            return self.epochs[-1].sequence
        if self.checkpoint is not None:
            return self.checkpoint.sequence
        return 0


class OsFileSystem:
    """The real-OS implementation of the WAL's filesystem seam.

    Append handles are cached per path (one ``open`` per segment lifetime,
    not per record); ``read`` flushes a cached handle first so in-process
    readers observe buffered frames.  The fault-injection harness
    implements the same surface over in-memory durable/volatile buffers.
    """

    def __init__(self) -> None:
        self._handles: Dict[str, object] = {}

    def makedirs(self, path: str) -> None:
        """Create ``path`` (and parents) if missing."""
        os.makedirs(path, exist_ok=True)

    def listdir(self, path: str) -> List[str]:
        """Directory entries, unordered, as the OS reports them."""
        return os.listdir(path)

    def exists(self, path: str) -> bool:
        """``True`` iff ``path`` exists."""
        return os.path.exists(path)

    def append(self, path: str, data: bytes) -> None:
        """Append bytes through the cached per-path append handle."""
        handle = self._handles.get(path)
        if handle is None:
            handle = open(path, "ab")
            self._handles[path] = handle
        handle.write(data)

    def write(self, path: str, data: bytes) -> None:
        """Replace the file's contents (dropping any cached append handle)."""
        self._drop_handle(path)
        with open(path, "wb") as handle:
            handle.write(data)

    def read(self, path: str) -> bytes:
        """Whole-file read; flushes a cached append handle first."""
        handle = self._handles.get(path)
        if handle is not None:
            handle.flush()
        with open(path, "rb") as reader:
            return reader.read()

    def fsync(self, path: str) -> None:
        """``fsync`` the file, through the cached handle when one is open."""
        handle = self._handles.get(path)
        if handle is not None:
            handle.flush()
            os.fsync(handle.fileno())
            return
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def fsync_dir(self, path: str) -> None:
        """``fsync`` a directory's namespace (create/rename durability)."""
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def truncate(self, path: str, length: int) -> None:
        """Truncate the file to ``length`` bytes (torn-tail repair)."""
        handle = self._handles.get(path)
        if handle is not None:
            handle.flush()
            handle.truncate(length)
            return
        with open(path, "rb+") as writer:
            writer.truncate(length)

    def replace(self, source: str, target: str) -> None:
        """Atomically rename ``source`` over ``target`` (checkpoint publish)."""
        self._drop_handle(source)
        self._drop_handle(target)
        os.replace(source, target)

    def remove(self, path: str) -> None:
        """Delete the file (segment/checkpoint compaction)."""
        self._drop_handle(path)
        os.remove(path)

    def close(self) -> None:
        """Close every cached append handle."""
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()

    def _drop_handle(self, path: str) -> None:
        handle = self._handles.pop(path, None)
        if handle is not None:
            handle.close()


def encode_frame(payload: bytes, bound: int, channel: str) -> bytes:
    """Frame ``payload`` as ``<u32 length><u32 crc32(payload)><payload>``.

    The one encoder of the frame the log and the replica stream share.
    ``bound`` is the channel's payload limit, the one its readers enforce
    (``channel`` names it in the error): a larger payload raises
    :class:`FrameError` and nothing is framed, so a writer never emits
    what its own reader would reject.
    """
    if len(payload) > bound:
        unit = f"{bound >> 20} MiB" if bound >= 1 << 20 else f"{bound >> 10} KiB"
        raise FrameError(f"frame of {len(payload)} bytes exceeds the {unit} {channel} bound")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def read_frame(stream, bound: int):
    """Read one frame off the binary ``stream``; its unpickled payload.

    The one decoder of the shared frame (wrap bytes in
    :class:`io.BytesIO`).  A header announcing more than ``bound`` bytes
    is refused before any payload byte is read, and the payload is
    unpickled only once its CRC holds; those refusals and a short read
    raise :class:`FrameError`.  Unpickling errors propagate as they are.
    """
    length, crc = _HEADER.unpack(_read_exact(stream, _HEADER.size))
    if length > bound:
        raise FrameError(f"oversized frame ({length} bytes)")
    payload = _read_exact(stream, length)
    if zlib.crc32(payload) != crc:
        raise FrameError("frame CRC mismatch")
    return pickle.loads(payload)


def _read_exact(stream, count: int) -> bytes:
    chunks = []
    while count:
        chunk = stream.read(count)
        if not chunk:
            raise FrameError("stream closed mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _encode_frame(payload: bytes) -> bytes:
    """A log frame: the shared encoder under the log's bound."""
    return encode_frame(payload, _MAX_FRAME_BYTES, "log")


def _parse_frames(data: bytes, min_sequence: int):
    """``(records, good_length)``: the valid frame prefix of one segment.

    Stops at the first bad frame: truncated header/payload, CRC mismatch,
    unpicklable payload, a non-:class:`EpochRecord` payload, or a sequence
    that fails to increase past ``min_sequence`` (corruption that still
    CRCs is astronomically unlikely, but a misdirected or re-ordered frame
    would surface exactly as a sequence regression).
    """
    records: List[EpochRecord] = []
    stream = io.BytesIO(data)
    good = 0
    previous = min_sequence
    while good < len(data):
        try:
            record = read_frame(stream, _MAX_FRAME_BYTES)
        except Exception:
            break
        if not isinstance(record, EpochRecord) or record.sequence <= previous:
            break
        records.append(record)
        previous = record.sequence
        good = stream.tell()
    return records, good


class WriteAheadLog:
    """The append/checkpoint/compact/recover surface over one log directory.

    Parameters
    ----------
    path:
        The log directory (created if missing).
    sync_every:
        ``fsync`` the active segment after every N appended epochs.
        ``1`` = per-commit durability; ``N > 1`` = group-commit batching
        (N appends share one fsync); ``0``/``None`` = **no automatic
        fsync at all** -- durability then advances only on an explicit
        :meth:`sync` (issued by a checkpoint, a group-commit flush, or
        the caller).  ``0`` and ``None`` are equivalent and normalize to
        ``0``.
    segment_bytes:
        Roll to a fresh segment once the active one reaches this size.
    fs:
        The filesystem seam (default: the real OS).  The fault-injection
        harness passes its in-memory implementation here.
    """

    def __init__(
        self,
        path: str,
        *,
        sync_every: Optional[int] = 1,
        segment_bytes: int = 1 << 20,
        fs=None,
    ) -> None:
        self.path = path
        self.sync_every = sync_every or 0
        self.segment_bytes = segment_bytes
        self.fs = fs if fs is not None else OsFileSystem()
        self.fs.makedirs(path)
        self._active: Optional[str] = None
        self._active_size = 0
        self._segment_index = 1 + max(
            (int(match.group(1)) for match in map(_SEGMENT_RE.match, self.fs.listdir(path)) if match),
            default=0,
        )
        #: Last record sequence per retained segment (drives compaction).
        self._segment_last: Dict[str, int] = {}
        self._since_sync = 0
        self._appended_sequence = 0
        self._durable_sequence = 0
        # A freshly created segment's *directory entry* is volatile until
        # the directory itself is fsynced; sync() pays that once per roll.
        self._dir_sync_needed = False
        self._sync_listeners: List[Callable[[int], None]] = []
        self.sync_count = 0

    # -- write path --------------------------------------------------------

    @property
    def durable_sequence(self) -> int:
        """The newest sequence covered by an acknowledged ``fsync``."""
        return self._durable_sequence

    @property
    def appended_sequence(self) -> int:
        """The newest sequence handed to the filesystem (maybe still volatile)."""
        return self._appended_sequence

    @property
    def pending_sync(self) -> int:
        """Appends (including torn attempts) not yet covered by a successful sync."""
        return self._since_sync

    def add_sync_listener(self, callback: Callable[[int], None]) -> None:
        """Register ``callback(durable_sequence)`` for every successful sync.

        The durable-watermark notification channel: the commit scheduler
        resolves fsync-ACK tickets from here, so batched ``sync_every``
        fsyncs triggered inside :meth:`append` acknowledge every covered
        commit without a second bookkeeping path.
        """
        self._sync_listeners.append(callback)

    def append(self, record: EpochRecord) -> None:
        """Append one epoch frame; fsyncs per the ``sync_every`` batching.

        The unsynced counter is bumped *before* the bytes are handed to the
        filesystem: a torn append (an ``OSError`` after a partial write)
        must still count towards the batch the next sync covers, otherwise
        a retry after a failed fsync would under-count what is volatile.
        The bookkeeping that names the record (sizes, sequences) only
        advances once the filesystem accepted the whole frame, so a caller
        can distinguish "frame landed, sync pending" (``appended_sequence``
        reached the record) from "frame torn" (it did not, and
        :meth:`discard_torn_tail` repairs the file before a re-append).
        A record whose frame exceeds the bound the readers enforce raises
        :class:`WalError` before any byte or counter moves.
        """
        frame = _encode_frame(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
        if self._active is None or self._active_size >= self.segment_bytes:
            self._roll_segment()
        target = os.path.join(self.path, self._active)
        self._since_sync += 1
        self.fs.append(target, frame)
        self._active_size += len(frame)
        self._segment_last[self._active] = record.sequence
        self._appended_sequence = record.sequence
        if self.sync_every and self._since_sync >= self.sync_every:
            self.sync()

    def discard_torn_tail(self) -> int:
        """Truncate unaccounted bytes a failed append left on the active segment.

        After ``fs.append`` raises mid-frame the file may hold a torn
        suffix the log's own size accounting never adopted; appending the
        retry after it would bury valid frames behind garbage (recovery
        stops at the first bad frame).  Returns the number of bytes
        discarded (0 when the tail was clean).
        """
        if self._active is None:
            return 0
        target = os.path.join(self.path, self._active)
        if not self.fs.exists(target):
            return 0
        excess = len(self.fs.read(target)) - self._active_size
        if excess > 0:
            self.fs.truncate(target, self._active_size)
            return excess
        return 0

    def _roll_segment(self) -> None:
        # Make the outgoing segment durable before frames land in the next
        # one: recovery stops at the first bad frame, so a volatile tail in
        # an *earlier* segment would silently shadow later durable frames.
        if self._active is not None and self._since_sync:
            self.sync()
        self._active = f"epochs-{self._segment_index:08d}.seg"
        self._segment_index += 1
        self._active_size = 0
        self._dir_sync_needed = True

    def sync(self) -> None:
        """Force an ``fsync`` of the active segment (advances durability).

        After a segment roll the new file's directory entry is itself
        volatile: fsyncing the file contents alone would not keep a crash
        from unlinking the whole segment.  The first sync of a fresh
        segment therefore also fsyncs the log directory.

        The unsynced counter and the durable watermark move only when
        every constituent fsync succeeded: a failure part-way (file synced
        but directory entry still volatile) leaves the batch counted as
        unsynced, so the retry re-covers all of it.  Successful syncs
        notify the registered watermark listeners.
        """
        if self._active is not None:
            self.fs.fsync(os.path.join(self.path, self._active))
            if self._dir_sync_needed:
                self.fs.fsync_dir(self.path)
                self._dir_sync_needed = False
        self._since_sync = 0
        self._durable_sequence = self._appended_sequence
        self.sync_count += 1
        for callback in self._sync_listeners:
            callback(self._durable_sequence)

    def sync_window(self) -> Optional[Dict[str, object]]:
        """Capture the target of an out-of-lock group fsync (or ``None``).

        The group-commit leader calls this *under* the scheduler's append
        fence, then performs the actual ``fs.fsync`` with the fence
        released -- so writer threads keep appending (and accumulating
        behind the in-flight fsync, which is the entire point of group
        commit) while the disk works.  The window pins everything the
        fsync may claim: the active segment path, the appended watermark
        at capture time and the unsynced batch it covers.  Bytes appended
        *after* capture are not claimed -- :meth:`complete_sync` adopts
        exactly the captured watermark, so the durability boundary stays
        conservative no matter how the fsync races later appends.
        """
        if self._active is None:
            return None
        return {
            "segment": self._active,
            "path": os.path.join(self.path, self._active),
            "target": self._appended_sequence,
            "batch": self._since_sync,
            "dir_sync": self._dir_sync_needed,
        }

    def complete_sync(self, window: Dict[str, object]) -> None:
        """Adopt a finished out-of-lock fsync (called back under the fence).

        Advances the durable watermark to the *captured* target (never
        past it), discounts exactly the captured batch from the unsynced
        counter (appends that landed during the fsync stay counted), and
        notifies the watermark listeners -- resolving every ticket the
        window covers.
        """
        self._since_sync = max(0, self._since_sync - int(window["batch"]))
        if window["dir_sync"] and self._active == window["segment"]:
            self._dir_sync_needed = False
        self._durable_sequence = max(self._durable_sequence, int(window["target"]))
        self.sync_count += 1
        for callback in self._sync_listeners:
            callback(self._durable_sequence)

    def write_checkpoint(self, payload: CheckpointPayload) -> str:
        """Durably publish a checkpoint, then compact what it subsumes.

        The log is synced first (the checkpoint must never claim coverage
        beyond the durable log); the checkpoint file is written to a temp
        name, fsynced, atomically renamed and the directory fsynced -- a
        visible checkpoint is therefore always complete.  Superseded
        checkpoints and fully covered segments are deleted last, so every
        crash ordering leaves either the old or the new recovery basis
        intact.  A payload over the readers' frame bound raises
        :class:`WalError` before anything is synced or written, so the
        previous checkpoint stays the recovery basis.
        """
        frame = _encode_frame(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        self.sync()
        name = f"checkpoint-{payload.sequence:012d}.ckpt"
        final = os.path.join(self.path, name)
        temp = final + ".tmp"
        try:
            self.fs.write(temp, frame)
            self.fs.fsync(temp)
        except Exception:
            if self.fs.exists(temp):
                try:
                    self.fs.remove(temp)
                except OSError:
                    pass
            raise
        self.fs.replace(temp, final)
        self.fs.fsync_dir(self.path)
        for other in self.fs.listdir(self.path):
            match = _CHECKPOINT_RE.match(other)
            if match and int(match.group(1)) < payload.sequence:
                self.fs.remove(os.path.join(self.path, other))
        self.compact(payload.sequence)
        return name

    def compact(self, covered_sequence: int) -> List[str]:
        """Delete non-active segments whose every record is checkpoint-covered."""
        removed = []
        for name, last in sorted(self._segment_last.items()):
            if name != self._active and last <= covered_sequence:
                self.fs.remove(os.path.join(self.path, name))
                del self._segment_last[name]
                removed.append(name)
        return removed

    def close(self) -> None:
        """Flush and release file handles (no implicit fsync)."""
        self.fs.close()

    # -- recovery ----------------------------------------------------------

    def recover(self) -> WalRecovery:
        """Read the newest valid checkpoint plus the replayable epoch tail.

        Never raises on torn/truncated/garbage input: scanning stops at the
        first bad frame and the report says what was dropped.  Checkpoint
        files that fail validation are skipped (the next-newest is tried),
        so a torn checkpoint write degrades to the previous recovery basis
        instead of losing the log.
        """
        names = self.fs.listdir(self.path)
        recovery = WalRecovery()
        corrupt: List[str] = []
        checkpoints = sorted(
            (name for name in names if _CHECKPOINT_RE.match(name)), reverse=True
        )
        for name in checkpoints:
            payload = self._load_checkpoint(os.path.join(self.path, name))
            if payload is not None:
                recovery.checkpoint = payload
                break
            corrupt.append(name)
        recovery.corrupt_checkpoints = tuple(corrupt)
        base = recovery.checkpoint.sequence if recovery.checkpoint else 0

        segments = sorted(name for name in names if _SEGMENT_RE.match(name))
        recovery.segments_scanned = len(segments)
        epochs: List[EpochRecord] = []
        abandoned: List[str] = []
        previous = 0
        broken = False
        for name in segments:
            data = self.fs.read(os.path.join(self.path, name))
            if broken:
                # Past the first bad frame nothing is trustworthy; count
                # this segment's parseable prefix so the report is honest.
                records, good = _parse_frames(data, previous)
                recovery.dropped_records += len(records)
                recovery.dropped_bytes += len(data)
                abandoned.append(name)
                continue
            records, good = _parse_frames(data, previous)
            epochs.extend(records)
            if records:
                previous = records[-1].sequence
            recovery.good_lengths[name] = good
            if good < len(data):
                recovery.dropped_bytes += len(data) - good
                broken = True
        recovery.abandoned_segments = tuple(abandoned)
        recovery.epochs = tuple(
            record for record in epochs if record.sequence > base
        )
        return recovery

    def _load_checkpoint(self, path: str) -> Optional[CheckpointPayload]:
        try:
            checkpoint = read_frame(io.BytesIO(self.fs.read(path)), _MAX_FRAME_BYTES)
        except Exception:  # unreadable, torn, oversized, CRC-corrupt or unloadable
            return None
        return checkpoint if isinstance(checkpoint, CheckpointPayload) else None

    def reset_to(self, recovery: WalRecovery) -> None:
        """Prepare the directory for appending after ``recovery``.

        Truncates the torn tail (rewriting the broken segment's valid
        prefix through the atomic temp+rename discipline), removes
        abandoned segments, and re-adopts the surviving tail segment as
        the active one so new frames continue the recovered sequence.
        Recovery itself never mutates the directory -- only a writer that
        intends to append pays this.
        """
        for name in recovery.abandoned_segments:
            self.fs.remove(os.path.join(self.path, name))
        self._segment_last = {}
        previous = 0
        for name in sorted(recovery.good_lengths):
            target = os.path.join(self.path, name)
            data = self.fs.read(target)
            good = recovery.good_lengths[name]
            if good == 0:
                self.fs.remove(target)
                continue
            if good < len(data):
                temp = target + ".tmp"
                self.fs.write(temp, data[:good])
                self.fs.fsync(temp)
                self.fs.replace(temp, target)
                self.fs.fsync_dir(self.path)
            records, _ = _parse_frames(data[:good], previous)
            if records:
                self._segment_last[name] = records[-1].sequence
                previous = records[-1].sequence
        retained = sorted(self._segment_last)
        if retained:
            self._active = retained[-1]
            self._active_size = recovery.good_lengths[self._active]
        else:
            self._active = None
            self._active_size = 0
        self._segment_index = 1 + max(
            (int(_SEGMENT_RE.match(name).group(1)) for name in retained),
            default=self._segment_index - 1,
        )
        self._since_sync = 0
        self._appended_sequence = recovery.last_sequence
        self._durable_sequence = recovery.last_sequence
