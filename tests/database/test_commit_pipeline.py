"""Units + multi-writer oracle for the write-scheduled commit pipeline.

Three layers, mirroring ``test_durability.py`` one tier up:

* **Scheduler units** -- deterministic tests of the
  :class:`~repro.database.commit.CommitScheduler` over the fault seam:
  ticket resolution per ``sync_every`` batch, group commit sharing one
  fsync across N appends, transient faults absorbed by the retry policy
  (torn frames truncated before re-append), persistent faults degrading
  to read-only with :meth:`~repro.database.commit.CommitScheduler.heal`
  resuming, and the ``_since_sync`` accounting staying conservative
  across a failed fsync (satellite: a retry must cover the *whole*
  unsynced batch).
* **The multi-writer fault oracle** -- hypothesis drives K writer
  threads (``STRESS_WRITERS``, default 2) against one durable maintainer
  with injected fsync faults and an adversarial post-crash disk image.
  The spec: recovery lands on an ACK-consistent durable prefix -- every
  ``wait_durable()``-acknowledged commit survives, the surviving objects
  are per-thread prefix-closed (the WAL's global order makes any
  recovered prefix project onto a prefix of each writer's own commit
  order), extents equal the from-scratch refresh of the recovered state,
  and recovering twice equals recovering once.
* **A real multi-writer ``kill -9``** -- ``durable_writer.py --threads``
  commits from K threads with per-commit ``wait_durable`` ACKs printed to
  the parent, which SIGKILLs mid-stream and recovers in-process: no ACKed
  object may be missing.

The checkpoint-under-ENOSPC satellite lives here too: a failed
checkpoint tmp-write must leave the previous checkpoint recoverable
(atomic-rename invariant under faults) and must not degrade the store.
"""

import errno
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database.commit import (
    CommitScheduler,
    DurabilityError,
    FaultPolicy,
)
from repro.database import wal as wal_module
from repro.database.maintenance import DurableMaintainer
from repro.database.store import DatabaseState, ObjectAdded
from repro.database.wal import (
    EpochRecord,
    WalError,
    WriteAheadLog,
    is_retryable_io_error,
)

from .fault_fs import FaultyFileSystem
from .test_durability import (
    CLASSES,
    LOG_DIR,
    SCHEMA,
    build_catalog,
    open_recovered,
    oracle_extents,
    record,
    seed_state,
    stored_extents,
    surface,
)

#: Writer-thread count for the concurrency oracles (CI matrixes {2, 8}).
WRITERS = max(2, int(os.environ.get("STRESS_WRITERS", "2")))

#: A fault policy that pays no wall clock for backoff.
FAST = FaultPolicy(max_retries=2, sleep=lambda _: None)


def make_scheduler(fs, sync_every, **kwargs):
    wal = WriteAheadLog(LOG_DIR, sync_every=sync_every, fs=fs)
    return wal, CommitScheduler(wal, policy=kwargs.pop("policy", FAST), **kwargs)


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------


class TestErrorTaxonomy:
    def test_classification(self):
        assert is_retryable_io_error(OSError(errno.EIO, "eio"))
        assert is_retryable_io_error(OSError(errno.ENOSPC, "enospc"))
        # No errno (the legacy injected failure) is assumed transient.
        assert is_retryable_io_error(OSError("untyped"))
        # A permission problem will not fix itself by retrying.
        assert not is_retryable_io_error(OSError(errno.EACCES, "eacces"))
        assert not is_retryable_io_error(ValueError("not io at all"))

    def test_durability_error_is_a_wal_error(self):
        failure = DurabilityError("nope", last_durable_sequence=7)
        assert isinstance(failure, WalError)
        assert failure.last_durable_sequence == 7


class TestFaultPolicyRun:
    """The one bounded-retry loop every scheduler and client path calls."""

    def test_retryable_fault_is_retried_max_retries_times(self):
        pauses, faults = [], []
        # backoff 1 s doubling per attempt: each recorded sleep names its
        # attempt (the injected sleep pays no wall clock).
        policy = FaultPolicy(max_retries=3, backoff=1.0, max_backoff=8.0, sleep=pauses.append)

        def operation():
            raise OSError(errno.EIO, "eio")

        with pytest.raises(OSError):
            policy.run(operation, on_fault=faults.append)
        assert pauses == [1.0, 2.0, 4.0]  # pause(1), pause(2), pause(3)
        assert len(faults) == 1 + policy.max_retries

    def test_on_fault_runs_once_per_failure_before_success(self):
        pauses, faults = [], []
        policy = FaultPolicy(max_retries=3, sleep=pauses.append)
        outcomes = [OSError(errno.EIO, "eio"), OSError(errno.ENOSPC, "enospc"), "done"]

        def operation():
            outcome = outcomes.pop(0)
            if isinstance(outcome, OSError):
                raise outcome
            return outcome

        assert policy.run(operation, on_fault=faults.append) == "done"
        assert [fault.errno for fault in faults] == [errno.EIO, errno.ENOSPC]
        assert len(pauses) == 2

    def test_non_retryable_fault_propagates_at_once(self):
        pauses, faults, calls = [], [], []
        policy = FaultPolicy(max_retries=3, sleep=pauses.append)

        def operation():
            calls.append(1)
            raise OSError(errno.EACCES, "eacces")

        with pytest.raises(OSError):
            policy.run(operation, on_fault=faults.append)
        assert len(calls) == 1 and len(faults) == 1 and pauses == []

        def not_a_fault():
            raise ValueError("not io at all")

        with pytest.raises(ValueError):
            policy.run(not_a_fault, on_fault=faults.append)
        assert len(faults) == 1 and pauses == []


# ---------------------------------------------------------------------------
# Scheduler units
# ---------------------------------------------------------------------------


class TestSchedulerUnits:
    def test_tickets_resolve_at_the_sync_every_boundary(self):
        fs = FaultyFileSystem()
        wal, scheduler = make_scheduler(fs, sync_every=2)
        first = scheduler.append(record(1))
        assert not first.resolved  # appended, fsync still pending
        second = scheduler.append(record(2))
        # The second append crossed the batch boundary: one fsync, two ACKs.
        assert first.durable and second.durable
        assert scheduler.durable_sequence == 2
        assert scheduler.pending_tickets() == 0

    def test_group_commit_shares_one_fsync_across_all_waiters(self):
        fs = FaultyFileSystem()
        wal, scheduler = make_scheduler(fs, sync_every=None)
        tickets = [scheduler.append(record(sequence)) for sequence in range(1, 6)]
        assert not any(ticket.resolved for ticket in tickets)
        before = fs.fsync_calls
        assert tickets[0].wait_durable(timeout=5.0)
        # The leader's single fsync acknowledged every appended commit.
        assert fs.fsync_calls == before + 1
        assert all(ticket.durable for ticket in tickets)
        assert scheduler.group_acks >= 5

    def test_wait_durable_times_out_while_the_fence_is_held(self):
        fs = FaultyFileSystem()
        wal, scheduler = make_scheduler(fs, sync_every=None)
        ticket = scheduler.append(record(1))
        outcome = {}
        entered = threading.Event()

        def waiter():
            entered.set()
            outcome["result"] = ticket.wait_durable(timeout=0.3)

        with scheduler.exclusive():
            thread = threading.Thread(target=waiter)
            thread.start()
            entered.wait()
            thread.join()
        assert outcome["result"] is False
        # Once the fence drops, the same ticket resolves normally.
        assert ticket.wait_durable(timeout=5.0)

    def test_transient_write_fault_is_retried_without_surfacing(self):
        fs = FaultyFileSystem()
        wal, scheduler = make_scheduler(fs, sync_every=1)
        fs.fail_writes(2, errno.EIO)
        ticket = scheduler.append(record(1))
        assert ticket.durable
        assert not scheduler.read_only

    def test_torn_frame_is_truncated_before_the_retry(self):
        fs = FaultyFileSystem()
        wal, scheduler = make_scheduler(fs, sync_every=1)
        scheduler.append(record(1))
        # The next frame tears 5 bytes in, then the retry must not append
        # after the garbage -- recovery would stop at the torn bytes and
        # silently drop the good frame behind them.
        fs.fail_writes(1, errno.EIO, partial=5)
        ticket = scheduler.append(record(2))
        assert ticket.durable
        wal.close()
        found = WriteAheadLog(LOG_DIR, fs=fs).recover()
        assert [epoch.sequence for epoch in found.epochs] == [1, 2]
        assert found.dropped_bytes == 0

    def test_non_retryable_error_degrades_immediately(self):
        fs = FaultyFileSystem()
        wal, scheduler = make_scheduler(fs, sync_every=1)
        fs.fail_writes(1, errno.EACCES)
        ticket = scheduler.append(record(1))
        assert ticket.error is not None
        assert scheduler.read_only
        with pytest.raises(DurabilityError):
            scheduler.check_writable()

    def test_persistent_fault_degrades_and_heal_resumes(self):
        fs = FaultyFileSystem()
        wal, scheduler = make_scheduler(fs, sync_every=1)
        good = scheduler.append(record(1))
        assert good.durable
        fs.fail_writes(None, errno.ENOSPC)
        failed = scheduler.append(record(2))
        assert failed.error is not None
        assert failed.error.last_durable_sequence == 1
        assert scheduler.read_only
        # Appends while degraded are rejected without touching the log.
        rejected = scheduler.append(record(3))
        assert rejected.error is not None
        # The device is still broken: heal() probes and reports failure.
        fs.fail_fsyncs(None, errno.ENOSPC)
        assert not scheduler.heal()
        assert scheduler.read_only
        # The fault clears: heal() succeeds and writes resume.
        fs.disarm()
        assert scheduler.heal()
        assert not scheduler.read_only
        resumed = scheduler.append(record(3))
        assert resumed.durable

    def test_wait_durable_raises_the_degradation_for_pending_tickets(self):
        fs = FaultyFileSystem()
        wal, scheduler = make_scheduler(fs, sync_every=None)
        ticket = scheduler.append(record(1))
        fs.fail_fsyncs(None, errno.EIO)
        with pytest.raises(DurabilityError):
            ticket.wait_durable(timeout=5.0)
        assert scheduler.read_only

    def test_failed_fsync_does_not_undercount_the_unsynced_batch(self):
        # Satellite: after a failed fsync the retry must cover the whole
        # batch, not just the appends since the failure.
        fs = FaultyFileSystem()
        wal = WriteAheadLog(LOG_DIR, sync_every=None, fs=fs)
        for sequence in range(1, 4):
            wal.append(record(sequence))
        assert wal.pending_sync == 3
        fs.fail_fsyncs(1)
        with pytest.raises(OSError):
            wal.sync()
        # The counter still owes all three appends.
        assert wal.pending_sync == 3
        assert wal.durable_sequence == 0
        wal.sync()
        assert wal.pending_sync == 0
        assert wal.durable_sequence == 3
        # ... and the durable image really holds every frame.
        wal.close()
        fs.crash()
        found = WriteAheadLog(LOG_DIR, fs=fs).recover()
        assert [epoch.sequence for epoch in found.epochs] == [1, 2, 3]

    def test_sync_every_zero_means_explicit_sync_only(self):
        for batching in (0, None):
            fs = FaultyFileSystem()
            wal = WriteAheadLog(LOG_DIR, sync_every=batching, fs=fs)
            for sequence in range(1, 5):
                wal.append(record(sequence))
            assert fs.fsync_calls == 0
            assert wal.durable_sequence == 0
            wal.sync()
            assert wal.durable_sequence == wal.appended_sequence == 4
            wal.close()

    def test_slow_fsyncs_delay_but_do_not_fail_the_ack(self):
        fs = FaultyFileSystem()
        wal, scheduler = make_scheduler(fs, sync_every=None)
        ticket = scheduler.append(record(1))
        fs.slow_fsyncs(1, 0.05)
        started = time.monotonic()
        assert ticket.wait_durable(timeout=5.0)
        assert time.monotonic() - started >= 0.05


# ---------------------------------------------------------------------------
# The store gate: degraded mode, ticket handles, backpressure composition
# ---------------------------------------------------------------------------


class TestStoreGate:
    def test_last_commit_ticket_is_reachable_from_the_store(self):
        fs = FaultyFileSystem()
        state = seed_state()
        catalog = build_catalog()
        maintainer = DurableMaintainer(
            state, catalog, path=LOG_DIR, fs=fs, sync_every=2, checkpoint_every=None
        )
        try:
            state.assert_membership("o5", CLASSES[0])
            ticket = state.last_commit_ticket
            assert ticket is not None and not ticket.resolved
            assert ticket.wait_durable(timeout=5.0)
            assert maintainer.wal.durable_sequence >= ticket.sequence
        finally:
            maintainer.kill()

    def test_durability_ack_does_not_wait_for_the_maintenance_queue(self):
        # Backpressure composes with ticket waits: a commit blocked on the
        # bounded epoch queue is already WAL-appended, so its fsync ACK
        # resolves while the maintenance enqueue is still waiting.
        fs = FaultyFileSystem()
        state = seed_state()
        catalog = build_catalog()
        maintainer = DurableMaintainer(
            state,
            catalog,
            path=LOG_DIR,
            fs=fs,
            sync_every=None,
            checkpoint_every=None,
            max_pending=1,
        )
        try:
            maintainer.pause()
            state.assert_membership("b0", CLASSES[0])  # fills the queue

            def writer():
                state.assert_membership("b1", CLASSES[0])  # blocks on backpressure

            thread = threading.Thread(target=writer)
            thread.start()
            deadline = time.monotonic() + 5.0
            while (
                maintainer.statistics.backpressure_waits < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            assert maintainer.statistics.backpressure_waits >= 1
            # The blocked commit is already WAL-appended: a group fsync
            # acknowledges it while its maintenance enqueue still waits.
            assert maintainer.scheduler.flush() == state.commit_sequence
            assert thread.is_alive()
            maintainer.resume()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        finally:
            maintainer.resume()
            maintainer.kill()


# ---------------------------------------------------------------------------
# Satellite: checkpoint under ENOSPC keeps the previous checkpoint usable
# ---------------------------------------------------------------------------


class TestCheckpointUnderFaults:
    def test_enospc_mid_checkpoint_preserves_the_previous_checkpoint(self):
        fs = FaultyFileSystem()
        state = seed_state()
        catalog = build_catalog()
        maintainer = DurableMaintainer(
            state, catalog, path=LOG_DIR, fs=fs, sync_every=1, checkpoint_every=None
        )
        try:
            state.assert_membership("o5", CLASSES[0])
            first = maintainer.checkpoint()
            state.assert_membership("o6", CLASSES[1])
            fs.fail_writes(None, errno.ENOSPC)
            with pytest.raises(WalError):
                maintainer.checkpoint()
            fs.disarm()
            # A failed checkpoint is not a durability fault: the log holds
            # every commit, so writes keep flowing.
            assert not state.read_only
            state.assert_membership("o7", CLASSES[2])
            expected = surface(state.snapshot())
        finally:
            maintainer.kill()
        # No torn tmp artifact may shadow the good checkpoint.
        assert not any(name.endswith(".tmp") for name in fs.files)
        fs.crash()  # keep exactly the durable image

        recovered_catalog = build_catalog()
        recovered = open_recovered(fs, recovered_catalog)
        try:
            report = recovered.recovery_report
            # Recovery starts from the surviving (first) checkpoint and
            # replays the tail to the full pre-crash state.
            assert report.checkpoint_sequence == first.sequence
            assert surface(recovered.state.snapshot()) == expected
            assert stored_extents(recovered_catalog) == oracle_extents(
                recovered_catalog, recovered.state.snapshot()
            )
        finally:
            recovered.kill()


class TestFrameBound:
    """The writer refuses any frame its own reader would reject.

    ``_parse_frames`` and ``_load_checkpoint`` drop a frame over
    ``_MAX_FRAME_BYTES`` as a torn tail, so an over-bound epoch that was
    written and ACKed would vanish at recovery together with every epoch
    behind it.  The bound is lowered to 4 KiB here so an epoch of a few
    hundred deltas (9-17 KB pickled) crosses it.
    """

    BOUND = 4096

    def bulk_epoch(self, state):
        with state.batch():
            for index in range(400):
                state.add_object(f"bulk{index:04d}", CLASSES[1])

    def test_wal_refuses_before_writing_a_byte(self, monkeypatch):
        monkeypatch.setattr(wal_module, "_MAX_FRAME_BYTES", self.BOUND)
        fs = FaultyFileSystem()
        wal = WriteAheadLog(LOG_DIR, sync_every=1, fs=fs)
        wal.append(record(1))
        before = {name: len(fs.read(name)) for name in fs.files}
        big = EpochRecord(
            sequence=2,
            generation=2,
            deltas=tuple(ObjectAdded(f"bulk{index:04d}") for index in range(400)),
            schema_changed=False,
        )
        with pytest.raises(WalError):
            wal.append(big)
        assert {name: len(fs.read(name)) for name in fs.files} == before
        assert wal.appended_sequence == wal.durable_sequence == 1
        assert wal.pending_sync == 0

    def test_over_bound_epoch_fails_its_ticket_and_degrades(self, monkeypatch):
        monkeypatch.setattr(wal_module, "_MAX_FRAME_BYTES", self.BOUND)
        fs = FaultyFileSystem()
        state = DatabaseState(SCHEMA)
        maintainer = DurableMaintainer(
            state, build_catalog(), path=LOG_DIR, fs=fs, sync_every=1, checkpoint_every=None
        )
        try:
            state.add_object("o1", CLASSES[0])
            assert state.last_commit_ticket.wait_durable(timeout=5.0)
            expected = surface(state.snapshot())
            with pytest.raises(DurabilityError):
                self.bulk_epoch(state)
            refused = state.last_commit_ticket
            assert refused.sequence == 2 and isinstance(refused.error, DurabilityError)
            assert refused.error.last_durable_sequence == 1
            assert maintainer.wal.appended_sequence == maintainer.wal.durable_sequence == 1
            assert state.read_only
            # The next write batch is rejected before it mutates the store.
            generation = state.generation
            with pytest.raises(DurabilityError):
                state.add_object("o3", CLASSES[2])
            assert state.generation == generation and "o3" not in state.objects
            # No probe can land the refused frame: writes stay off.
            assert not maintainer.heal()
            assert state.read_only
        finally:
            maintainer.kill()
        fs.crash()
        recovered = open_recovered(fs, build_catalog())
        try:
            assert recovered.recovery_report.recovered_sequence == 1
            assert surface(recovered.state.snapshot()) == expected
        finally:
            recovered.kill()

    def test_over_bound_checkpoint_keeps_the_previous_basis(self, monkeypatch):
        monkeypatch.setattr(wal_module, "_MAX_FRAME_BYTES", self.BOUND)
        fs = FaultyFileSystem()
        state = DatabaseState(SCHEMA)
        catalog = build_catalog()
        maintainer = DurableMaintainer(
            state, catalog, path=LOG_DIR, fs=fs, sync_every=1, checkpoint_every=None
        )
        try:
            state.add_object("o1", CLASSES[0])
            first = maintainer.checkpoint()
            # Small epochs, each under the bound, outgrow it together.
            for batch in range(6):
                with state.batch():
                    for index in range(40):
                        state.add_object(f"grow{batch}-{index:02d}", CLASSES[1])
            with pytest.raises(WalError):
                maintainer.checkpoint()
            assert not any(name.endswith(".tmp") for name in fs.files)
            # A refused checkpoint is not a durability fault.
            assert not state.read_only
            state.add_object("o9", CLASSES[2])
            expected = surface(state.snapshot())
        finally:
            maintainer.kill()
        fs.crash()
        recovered = open_recovered(fs, build_catalog())
        try:
            report = recovered.recovery_report
            assert report.checkpoint_sequence == first.sequence
            assert surface(recovered.state.snapshot()) == expected
        finally:
            recovered.kill()


# ---------------------------------------------------------------------------
# The multi-writer fault oracle
# ---------------------------------------------------------------------------


class TestMultiWriterOracle:
    @settings(deadline=None, max_examples=12)
    @given(data=st.data())
    def test_recovery_is_ack_consistent_under_concurrent_writers(self, data):
        fs = FaultyFileSystem()
        state = DatabaseState(SCHEMA)
        catalog = build_catalog()
        sync_every = data.draw(st.sampled_from([1, 2, 4]), label="sync_every")
        checkpoint_every = data.draw(st.sampled_from([None, 2]), label="checkpoint")
        maintainer = DurableMaintainer(
            state,
            catalog,
            path=LOG_DIR,
            fs=fs,
            sync_every=sync_every,
            checkpoint_every=checkpoint_every,
            fault_policy=FAST,
        )
        per_thread = data.draw(st.integers(1, 4), label="epochs per writer")
        classes = [
            [data.draw(st.sampled_from(CLASSES)) for _ in range(per_thread)]
            for _ in range(WRITERS)
        ]
        fault = data.draw(
            st.sampled_from(["none", "transient", "persistent"]), label="fault"
        )
        if fault == "transient":
            fs.fail_fsyncs(data.draw(st.integers(1, 2), label="failures"))
        elif fault == "persistent":
            fs.fail_fsyncs(None, errno.EIO)

        acked = {}
        acked_lock = threading.Lock()
        barrier = threading.Barrier(WRITERS)

        def writer(thread: int) -> None:
            barrier.wait()
            for index in range(per_thread):
                obj = f"t{thread}o{index}"
                try:
                    with state.batch():
                        state.add_object(obj, classes[thread][index])
                except WalError:
                    return  # degraded: this writer stops committing
                ticket = state.last_commit_ticket
                try:
                    if ticket is not None and ticket.wait_durable(timeout=10.0):
                        with acked_lock:
                            acked[obj] = ticket.sequence
                except WalError:
                    return

        workers = [
            threading.Thread(target=writer, args=(thread,))
            for thread in range(WRITERS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        if fault == "persistent":
            # Degraded mode held: nothing past the watermark was ACKed and
            # the store rejected later batches instead of mutating.
            assert state.read_only or not acked
        maintainer.kill()
        fs.disarm()
        fs.crash(
            keep_ops=lambda directory, count: data.draw(
                st.integers(0, count), label=f"keep_ops {directory}"
            ),
            keep_bytes=lambda path, volatile: data.draw(
                st.integers(0, volatile), label=f"keep_bytes {path}"
            ),
        )

        recovered_catalog = build_catalog()
        recovered = open_recovered(fs, recovered_catalog)
        try:
            report = recovered.recovery_report
            snapshot = recovered.state.snapshot()
            # No ACKed commit is ever lost when fsyncs are honest.
            for obj, sequence in acked.items():
                assert obj in snapshot.objects, (obj, sequence, report)
                assert report.recovered_sequence >= sequence
            # The recovered prefix of the global commit order projects onto
            # a prefix of every writer's own commit order.
            for thread in range(WRITERS):
                flags = [
                    f"t{thread}o{index}" in snapshot.objects
                    for index in range(per_thread)
                ]
                assert flags == sorted(flags, reverse=True), (thread, flags)
            # Extents equal the from-scratch refresh of the recovered state.
            assert stored_extents(recovered_catalog) == oracle_extents(
                recovered_catalog, snapshot
            )
        finally:
            recovered.kill()

        # Recovering twice equals recovering once.
        second_catalog = build_catalog()
        second = open_recovered(fs, second_catalog)
        try:
            assert surface(second.state.snapshot()) == surface(snapshot)
            assert stored_extents(second_catalog) == stored_extents(recovered_catalog)
        finally:
            second.kill()


# ---------------------------------------------------------------------------
# A real multi-writer kill -9 across process boundaries
# ---------------------------------------------------------------------------


class TestMultiWriterSubprocessCrash:
    def test_sigkill_loses_no_acked_commit(self, tmp_path):
        from . import durable_writer

        logdir = str(tmp_path / "log")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        writer = subprocess.Popen(
            [
                sys.executable,
                str(Path(durable_writer.__file__).resolve()),
                logdir,
                "200",
                "5",
                "--threads",
                str(WRITERS),
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        acks = []
        try:
            for _ in range(8 * WRITERS):
                line = writer.stdout.readline()
                assert line.startswith("ACK "), line
                _, sequence, obj = line.split()
                acks.append((int(sequence), obj))
            os.kill(writer.pid, signal.SIGKILL)
        finally:
            writer.wait()
            writer.stdout.close()
        assert acks

        catalog = durable_writer.build_catalog()
        recovered = DurableMaintainer.open(
            logdir, durable_writer.build_schema(), catalog
        )
        try:
            report = recovered.recovery_report
            snapshot = recovered.state.snapshot()
            assert report.recovered_sequence >= max(seq for seq, _ in acks)
            for sequence, obj in acks:
                assert obj in snapshot.objects, (sequence, obj, report)
            assert stored_extents(catalog) == oracle_extents(catalog, snapshot)
            # The recovered maintainer keeps accepting multi-writer load.
            obj = durable_writer.thread_object(99, 0)
            with recovered.state.batch():
                recovered.state.add_object(obj, durable_writer.CLASSES[0])
            ticket = recovered.state.last_commit_ticket
            assert ticket is not None and ticket.wait_durable(timeout=10.0)
        finally:
            recovered.kill()
