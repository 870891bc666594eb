"""The crash-recovery oracle for the durable maintenance tier.

Three layers of checking:

* **WAL mechanics** -- deterministic tests of the frame/segment/checkpoint
  format: torn tails stop the scan (never crash it), corrupt checkpoints
  fall back to older ones, ``reset_to`` re-opens a torn directory for
  appending, compaction never deletes an uncovered record.
* **The fault-injection oracle** -- hypothesis drives a
  :class:`~tests.database.fault_fs.FaultyFileSystem` under a live
  :class:`~repro.database.maintenance.DurableMaintainer`: fsyncs fail,
  the "process" dies at arbitrary byte boundaries, the post-crash disk
  keeps an adversarial mix of volatile suffixes and namespace ops.  The
  invariant: **every recovered state equals the from-scratch build of
  some fsync-durable prefix of the commit history** (at least everything
  acknowledged durable, never a torn mix), extents included -- and
  recovering twice equals recovering once.
* **A real ``kill -9``** -- a subprocess writer commits epochs with
  per-commit fsync, the parent SIGKILLs it mid-stream and recovers in a
  fresh process (``tests/database/durable_writer.py``), closing the loop
  on actual cross-process durability.

The WAL is the system's only crash recovery, so the oracle also covers a
dead flush worker: its commits raise but still reach the log, and
:meth:`DurableMaintainer.open` recovers them.  Satellites checked here too:
logs that pickled ``EpochRecord`` under its old ``repro.database.wal``
class path still recover, and the
:class:`~repro.database.store.StateSnapshot` pickle round-trip holds,
including interned-concept stability in a fresh process.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concepts import builders as b
from repro.concepts.schema import Schema
from repro.database.commit import DurabilityError, FaultPolicy
from repro.database.maintenance import DurableMaintainer
from repro.database.query_eval import QueryEvaluator
from repro.database.replica import ReplicaServer, SnapshotReplica
from repro.database.store import DatabaseState, EpochRecord, ObjectAdded
from repro.database.views import ViewCatalog
from repro.database.wal import WalError, WriteAheadLog, _encode_frame
from repro.workloads.synthetic import SchemaProfile, random_schema

from ..strategies import (
    apply_mutation as apply_op,
    hierarchical_catalog,
    mutation_vocabulary,
    simple_mutations,
)
from .fault_fs import FaultyFileSystem, SimulatedCrash

SCHEMA = random_schema(
    SchemaProfile(classes=6, attributes=4, hierarchy_depth=2), seed=11
)
OBJECT_IDS, CLASSES, ATTRIBUTES = mutation_vocabulary(SCHEMA, object_count=8)
EVALUATOR = QueryEvaluator(None)

simple_op = simple_mutations(OBJECT_IDS, CLASSES, ATTRIBUTES)

LOG_DIR = "/wal"  # a virtual path inside the FaultyFileSystem


def build_catalog():
    return hierarchical_catalog(SCHEMA, 6, lattice=True, seed=7)


def seed_state() -> DatabaseState:
    state = DatabaseState(SCHEMA)
    state.add_object("o0", CLASSES[0])
    state.add_object("o1", CLASSES[-1])
    state.set_attribute("o0", ATTRIBUTES[0], "o1")
    return state


def surface(snapshot):
    """The explicit data a snapshot pins, as one comparable value."""
    return (
        frozenset(snapshot.objects),
        tuple(
            sorted(
                (name, tuple(sorted(members)))
                for name, members in snapshot.explicit.items()
                if members
            )
        ),
        tuple(
            sorted(
                (attribute, tuple(sorted(snapshot.attribute_pairs(attribute))))
                for attribute in snapshot.attributes()
                if snapshot.attribute_pairs(attribute)
            )
        ),
    )


def oracle_extents(catalog, source):
    return {
        view.name: EVALUATOR.concept_answers(view.concept, source)
        for view in catalog
    }


def stored_extents(catalog):
    return {view.name: view.stored_extent for view in catalog}


def record(sequence: int) -> EpochRecord:
    return EpochRecord(sequence=sequence, generation=sequence, deltas=(), schema_changed=False)


# ---------------------------------------------------------------------------
# WAL mechanics (deterministic)
# ---------------------------------------------------------------------------


class TestWalMechanics:
    def test_append_recover_round_trip(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "log"), sync_every=1)
        for sequence in range(1, 6):
            wal.append(record(sequence))
        wal.close()
        found = WriteAheadLog(str(tmp_path / "log")).recover()
        assert [epoch.sequence for epoch in found.epochs] == [1, 2, 3, 4, 5]
        assert found.dropped_bytes == 0 and found.dropped_records == 0

    def test_torn_tail_stops_the_scan_without_crashing(self, tmp_path):
        path = str(tmp_path / "log")
        wal = WriteAheadLog(path, sync_every=1)
        for sequence in range(1, 4):
            wal.append(record(sequence))
        wal.close()
        (segment,) = [n for n in os.listdir(path) if n.endswith(".seg")]
        target = os.path.join(path, segment)
        data = open(target, "rb").read()
        # Tear the last frame in half and glue garbage after it.
        open(target, "wb").write(data[: len(data) - 7] + b"\xde\xad\xbe\xef")
        found = WriteAheadLog(path).recover()
        assert [epoch.sequence for epoch in found.epochs] == [1, 2]
        assert found.dropped_bytes > 0

    def test_reset_to_reopens_a_torn_directory_for_appending(self, tmp_path):
        path = str(tmp_path / "log")
        wal = WriteAheadLog(path, sync_every=1)
        for sequence in range(1, 4):
            wal.append(record(sequence))
        wal.close()
        (segment,) = [n for n in os.listdir(path) if n.endswith(".seg")]
        target = os.path.join(path, segment)
        data = open(target, "rb").read()
        open(target, "wb").write(data + b"garbage-after-the-good-frames")
        reopened = WriteAheadLog(path, sync_every=1)
        found = reopened.recover()
        assert [epoch.sequence for epoch in found.epochs] == [1, 2, 3]
        reopened.reset_to(found)
        reopened.append(record(4))
        reopened.close()
        final = WriteAheadLog(path).recover()
        assert [epoch.sequence for epoch in final.epochs] == [1, 2, 3, 4]
        assert final.dropped_bytes == 0

    def test_corrupt_checkpoint_falls_back_to_the_previous_one(self, tmp_path):
        path = str(tmp_path / "log")
        wal = WriteAheadLog(path, sync_every=1)
        wal.append(record(1))
        from repro.database.wal import CheckpointPayload

        snapshot = DatabaseState(SCHEMA).snapshot()
        wal.write_checkpoint(CheckpointPayload(sequence=1, snapshot=snapshot))
        wal.close()
        # A newer checkpoint that is pure garbage must be skipped+reported.
        bogus = os.path.join(path, "checkpoint-000000000009.ckpt")
        open(bogus, "wb").write(b"not a frame at all")
        found = WriteAheadLog(path).recover()
        assert found.checkpoint is not None
        assert found.checkpoint.sequence == 1
        assert found.corrupt_checkpoints == ("checkpoint-000000000009.ckpt",)

    def test_checkpoint_compacts_only_covered_segments(self, tmp_path):
        path = str(tmp_path / "log")
        wal = WriteAheadLog(path, sync_every=1, segment_bytes=1)  # roll every frame
        for sequence in range(1, 5):
            wal.append(record(sequence))
        from repro.database.wal import CheckpointPayload

        snapshot = DatabaseState(SCHEMA).snapshot()
        wal.write_checkpoint(CheckpointPayload(sequence=2, snapshot=snapshot))
        wal.close()
        found = WriteAheadLog(path).recover()
        # 1 and 2 are covered (their segments are gone, except the one
        # that also holds a later record or is active); 3 and 4 survive.
        assert [epoch.sequence for epoch in found.epochs] == [3, 4]

    def test_segment_roll_keeps_sequences_strictly_increasing(self, tmp_path):
        path = str(tmp_path / "log")
        wal = WriteAheadLog(path, sync_every=None, segment_bytes=64)
        for sequence in range(1, 30):
            wal.append(record(sequence))
        wal.sync()
        wal.close()
        found = WriteAheadLog(path).recover()
        assert [epoch.sequence for epoch in found.epochs] == list(range(1, 30))
        assert found.segments_scanned > 1

    def test_frames_naming_the_old_wal_class_path_still_recover(self, tmp_path, monkeypatch):
        # EpochRecord used to live in wal.py, so older logs pickle it as
        # repro.database.wal.EpochRecord; wal.py still exports that name.
        with monkeypatch.context() as patch:
            patch.setattr(EpochRecord, "__module__", "repro.database.wal")
            payloads = [
                pickle.dumps(
                    EpochRecord(sequence, sequence, (ObjectAdded(f"x{sequence}"),)),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                for sequence in (1, 2)
            ]
        assert all(b"repro.database.wal" in payload for payload in payloads)
        log = tmp_path / "log"
        log.mkdir()
        segment = b"".join(_encode_frame(payload) for payload in payloads)
        (log / "epochs-00000001.seg").write_bytes(segment)
        found = WriteAheadLog(str(log)).recover()
        assert [epoch.sequence for epoch in found.epochs] == [1, 2]
        assert found.dropped_bytes == 0
        recovered = DurableMaintainer.open(str(log), SCHEMA, build_catalog())
        try:
            assert recovered.state.objects == {"x1", "x2"}
            assert recovered.recovery_report.recovered_sequence == 2
        finally:
            recovered.kill()


# ---------------------------------------------------------------------------
# The fault-injection crash-recovery oracle
# ---------------------------------------------------------------------------


def open_recovered(fs, catalog, **kwargs):
    return open_recovered_under(fs, SCHEMA, catalog, **kwargs)


def open_recovered_under(fs, schema, catalog, **kwargs):
    return DurableMaintainer.open(LOG_DIR, schema, catalog, fs=fs, **kwargs)


class TestCrashRecoveryOracle:
    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_recovery_lands_on_a_durable_prefix(self, data):
        fs = FaultyFileSystem()
        state = seed_state()
        catalog = build_catalog()
        maintainer = DurableMaintainer(
            state,
            catalog,
            path=LOG_DIR,
            fs=fs,
            sync_every=data.draw(st.integers(1, 3), label="sync_every"),
            checkpoint_every=data.draw(st.integers(1, 4), label="checkpoint_every"),
            segment_bytes=data.draw(st.sampled_from([128, 1024, 1 << 20])),
            bootstrap=True,
        )
        surfaces = {}
        crashed = False
        try:
            genesis = maintainer.checkpoint()  # make the seed data recoverable
            surfaces[genesis.sequence] = state.snapshot()
            batches = data.draw(
                st.lists(
                    st.lists(simple_op, min_size=1, max_size=4),
                    min_size=1,
                    max_size=6,
                ),
                label="batches",
            )
            for batch in batches:
                action = data.draw(
                    st.sampled_from(["ok", "ok", "ok", "fsync_fail", "kill"]),
                    label="fault",
                )
                if action == "fsync_fail":
                    fs.fail_fsyncs(data.draw(st.integers(1, 2)))
                elif action == "kill":
                    fs.crash_after(data.draw(st.integers(0, 300), label="kill_at"))
                before = maintainer._sequence
                try:
                    with state.batch():
                        for operation in batch:
                            apply_op(state, operation)
                except (WalError, OSError):
                    pass  # commit applied in memory, durability lost/behind
                except SimulatedCrash:
                    # A kill during the *checkpoint* write happens after the
                    # epoch frame landed whole: its sequence is recoverable,
                    # so its surface must be in the oracle map.  A kill
                    # during the epoch append itself tears the frame before
                    # the sequence advances.
                    if maintainer._sequence > before:
                        surfaces[maintainer._sequence] = state.snapshot()
                    crashed = True
                    break
                surfaces[maintainer._sequence] = state.snapshot()
            if not crashed:
                surfaces[maintainer._sequence] = state.snapshot()
            durable = maintainer.wal.durable_sequence
        finally:
            fs.disarm()
            maintainer.kill()

        # Power failure: the disk keeps an adversarial mix of the volatile
        # suffixes and pending namespace operations.
        fs.crash(
            keep_ops=lambda directory, count: data.draw(
                st.integers(0, count), label=f"keep_ops:{directory}"
            ),
            keep_bytes=lambda path, volatile: data.draw(
                st.integers(0, volatile), label=f"keep_bytes:{path}"
            ),
        )

        recovered_catalog = build_catalog()
        recovered = open_recovered(fs, recovered_catalog)
        report = recovered.recovery_report
        try:
            # The recovered sequence is a real prefix: at least everything
            # fsync-acknowledged, at most everything ever committed.
            assert report.recovered_sequence >= durable
            assert report.recovered_sequence in surfaces
            expected = surfaces[report.recovered_sequence]
            assert surface(recovered.state.snapshot()) == surface(expected)
            # Extents equal the from-scratch refresh of that prefix.
            assert stored_extents(recovered_catalog) == oracle_extents(
                recovered_catalog, expected
            )
            for view in recovered_catalog:
                assert view.extent_generation == report.generation
        finally:
            recovered.kill()

        # Recovery idempotence: recover-twice ≡ recover-once.
        second_catalog = build_catalog()
        second = open_recovered(fs, second_catalog)
        try:
            assert second.recovery_report.recovered_sequence == report.recovered_sequence
            assert surface(second.state.snapshot()) == surface(expected)
            assert stored_extents(second_catalog) == stored_extents(recovered_catalog)
        finally:
            second.kill()

    @settings(deadline=None, max_examples=15)
    @given(data=st.data())
    def test_commits_after_recovery_continue_the_log(self, data):
        fs = FaultyFileSystem()
        state = seed_state()
        catalog = build_catalog()
        maintainer = DurableMaintainer(
            state, catalog, path=LOG_DIR, fs=fs, checkpoint_every=2, bootstrap=True
        )
        try:
            maintainer.checkpoint()
            for operation in data.draw(st.lists(simple_op, max_size=6)):
                apply_op(state, operation)
        finally:
            maintainer.kill()
        fs.crash()  # keep exactly the durable image

        recovered_catalog = build_catalog()
        recovered = open_recovered(fs, recovered_catalog)
        try:
            for operation in data.draw(st.lists(simple_op, min_size=1, max_size=6)):
                apply_op(recovered.state, operation)
            recovered.sync()
            final = recovered.state.snapshot()
        finally:
            recovered.kill()
        fs.crash()

        third_catalog = build_catalog()
        third = open_recovered(fs, third_catalog)
        try:
            assert surface(third.state.snapshot()) == surface(final)
            assert stored_extents(third_catalog) == oracle_extents(third_catalog, final)
        finally:
            third.kill()

    def test_dead_worker_commits_reach_the_wal_and_recover(self, monkeypatch):
        fs = FaultyFileSystem()
        state = seed_state()
        catalog = build_catalog()
        maintainer = DurableMaintainer(
            state, catalog, path=LOG_DIR, fs=fs, checkpoint_every=None, bootstrap=True
        )
        pinned = []
        snapshot = DatabaseState.snapshot

        def counted_snapshot(live):
            pinned.append(live.commit_sequence)
            return snapshot(live)

        try:
            maintainer.kill()  # the flush worker dies...
            state.subscribe(maintainer)  # ...while the commit path stays attached
            before = state.commit_sequence
            with monkeypatch.context() as patch:
                patch.setattr(DatabaseState, "snapshot", counted_snapshot)
                for index in range(5):
                    with pytest.raises(RuntimeError):
                        state.assert_membership(f"t{index}", CLASSES[0])
            # Every commit raised without queuing (or pinning a snapshot only
            # to discard it), yet reached the WAL.
            assert not pinned
            assert maintainer.pending_epochs == 0
            assert maintainer.wal.appended_sequence == state.commit_sequence == before + 5
            # The sequence advanced through the raises: the checkpoint covers them.
            assert maintainer.checkpoint().sequence == state.commit_sequence
            live = state.snapshot()
        finally:
            state.unsubscribe(maintainer)
            maintainer.kill()
        fs.crash()

        recovered_catalog = build_catalog()
        recovered = open_recovered(fs, recovered_catalog)
        try:
            assert recovered.recovery_report.recovered_sequence == state.commit_sequence
            assert surface(recovered.state.snapshot()) == surface(live)
            assert stored_extents(recovered_catalog) == oracle_extents(recovered_catalog, live)
        finally:
            recovered.kill()

    def test_transient_fsync_fault_is_retried_and_the_commit_stays_durable(self):
        fs = FaultyFileSystem()
        state = seed_state()
        catalog = build_catalog()
        maintainer = DurableMaintainer(
            state, catalog, path=LOG_DIR, fs=fs, sync_every=1, checkpoint_every=None
        )
        try:
            fs.fail_fsyncs(1)
            # One transient failure: the retry policy absorbs it entirely.
            state.assert_membership("o5", CLASSES[0])
            assert maintainer.wal.durable_sequence == maintainer.wal.appended_sequence
            assert not state.read_only
        finally:
            maintainer.kill()

    def test_persistent_fsync_fault_degrades_then_heals(self):
        fs = FaultyFileSystem()
        state = seed_state()
        catalog = build_catalog()
        maintainer = DurableMaintainer(
            state,
            catalog,
            path=LOG_DIR,
            fs=fs,
            sync_every=1,
            checkpoint_every=None,
            fault_policy=FaultPolicy(max_retries=2, sleep=lambda _: None),
        )
        try:
            durable_before = maintainer.wal.durable_sequence
            fs.fail_fsyncs(None)
            with pytest.raises(DurabilityError) as failure:
                state.assert_membership("o5", CLASSES[0])
            assert failure.value.last_durable_sequence == durable_before
            # Applied in memory and enqueued despite the lost durability.
            assert "o5" in state.extent(CLASSES[0])
            maintainer.sync()
            assert stored_extents(catalog) == oracle_extents(catalog, state)
            # Degraded mode: later writes are rejected at the batch
            # boundary, before any state mutation; readers still serve.
            assert state.read_only
            with pytest.raises(DurabilityError):
                state.assert_membership("o6", CLASSES[0])
            assert "o6" not in state.extent(CLASSES[0])
            # The fault clears: heal() re-probes the log and resumes, and
            # the un-ACKed commit was never lost -- its frame is in the
            # log, so the healing sync makes it durable.
            fs.disarm()
            assert maintainer.heal()
            assert not state.read_only
            state.assert_membership("o6", CLASSES[0])
            assert maintainer.wal.durable_sequence == maintainer.wal.appended_sequence
        finally:
            maintainer.kill()

    def test_catalog_identity_mismatch_is_rejected(self):
        fs = FaultyFileSystem()
        state = seed_state()
        catalog = build_catalog()
        maintainer = DurableMaintainer(
            state, catalog, path=LOG_DIR, fs=fs, checkpoint_every=None
        )
        try:
            maintainer.checkpoint()
        finally:
            maintainer.kill()
        fs.crash()
        different = hierarchical_catalog(SCHEMA, 3, lattice=True, seed=99)
        with pytest.raises(WalError):
            open_recovered(fs, different)
        # Opting out rebuilds extents for the new catalog instead.
        relaxed = open_recovered(fs, different, strict_catalog=False)
        try:
            assert stored_extents(different) == oracle_extents(
                different, relaxed.state.snapshot()
            )
        finally:
            relaxed.kill()


# ---------------------------------------------------------------------------
# Restarts continue the history they recover
# ---------------------------------------------------------------------------


class TestRestartContinuity:
    def test_commit_numbering_continues_across_a_restart(self):
        """A checkpoint taken right after attaching covers the state's own
        commits, so a restart numbers new commits past them and a replica
        that applied the old sequence sees every new epoch as lag."""
        fs = FaultyFileSystem()
        state = seed_state()  # three commits before any maintainer attaches
        catalog = build_catalog()
        maintainer = DurableMaintainer(
            state, catalog, path=LOG_DIR, fs=fs, checkpoint_every=None, bootstrap=True
        )
        try:
            genesis = maintainer.checkpoint()
            with ReplicaServer(state, catalog) as server:
                replica = SnapshotReplica(server.address).connect()
            assert replica.applied_sequence == state.commit_sequence == 3
        finally:
            maintainer.kill()
        fs.crash()

        recovered = open_recovered(fs, build_catalog())
        try:
            # A plain restart writes no checkpoint: the log already covers it.
            checkpoints = [name for name in fs.files if name.endswith(".ckpt")]
            assert checkpoints == [f"{LOG_DIR}/checkpoint-{genesis.sequence:012d}.ckpt"]
            with ReplicaServer(recovered.state, recovered.catalog) as server:
                replica.close()
                replica.address = server.address  # the primary came back here
                for index in range(3):
                    recovered.state.add_object(f"new{index}", CLASSES[0])
                assert replica.ensure_fresh(0) == 0
                assert {"new0", "new1", "new2"} <= replica.state.objects
            assert genesis.sequence == recovered.recovery_report.recovered_sequence == 3
            assert recovered.state.commit_sequence == 6
        finally:
            replica.close()
            recovered.kill()

    def test_a_schema_swap_in_the_tail_needs_the_new_schema(self):
        """The log records that an epoch swapped the schema, not the new
        schema: recovering past a swap without ``schema=`` is refused
        instead of serving the old hierarchy's extents."""
        fs = FaultyFileSystem()
        swapped = Schema([b.isa("Student", "Person")])

        def person_catalog():
            catalog = ViewCatalog(None)
            catalog.register_concept("Person", b.concept("Person"))
            return catalog

        state = DatabaseState(Schema.empty())
        catalog = person_catalog()
        maintainer = DurableMaintainer(
            state, catalog, path=LOG_DIR, fs=fs, checkpoint_every=None, bootstrap=True
        )
        try:
            maintainer.checkpoint()
            state.schema = swapped
            state.add_object("ann", "Student")
            maintainer.sync()
            assert catalog.get("Person").stored_extent == {"ann"}
        finally:
            maintainer.kill()
        fs.crash()

        with pytest.raises(ValueError, match="post-swap schema"):
            open_recovered_under(fs, None, person_catalog())
        recovered_catalog = person_catalog()
        recovered = open_recovered_under(fs, swapped, recovered_catalog)
        try:
            assert recovered.state.schema == swapped
            assert recovered_catalog.get("Person").stored_extent == {"ann"}
        finally:
            recovered.kill()


# ---------------------------------------------------------------------------
# A real kill -9 across process boundaries
# ---------------------------------------------------------------------------


class TestSubprocessCrash:
    def test_sigkill_mid_stream_recovers_the_acknowledged_prefix(self, tmp_path):
        from . import durable_writer

        logdir = str(tmp_path / "log")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        writer = subprocess.Popen(
            [
                sys.executable,
                str(Path(durable_writer.__file__).resolve()),
                logdir,
                "500",
                "5",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        acked = 0
        try:
            for _ in range(12):
                line = writer.stdout.readline()
                assert line.startswith("ACK "), line
                acked = int(line.split()[1])
            os.kill(writer.pid, signal.SIGKILL)
        finally:
            writer.wait()
            writer.stdout.close()
        assert acked >= 12  # sync_every=1: every commit acked durable

        catalog = durable_writer.build_catalog()
        recovered = DurableMaintainer.open(
            logdir, durable_writer.build_schema(), catalog
        )
        report = recovered.recovery_report
        try:
            assert report.recovered_sequence >= acked
            # From-scratch oracle: replay the deterministic epochs.
            oracle = DatabaseState(durable_writer.build_schema())
            for index in range(report.recovered_sequence):
                durable_writer.apply_epoch(oracle, index)
            assert surface(recovered.state.snapshot()) == surface(oracle.snapshot())
            assert stored_extents(catalog) == oracle_extents(catalog, oracle.snapshot())
            # And the recovered maintainer keeps working.
            durable_writer.apply_epoch(
                recovered.state, report.recovered_sequence
            )
            recovered.sync()
            assert stored_extents(catalog) == oracle_extents(
                catalog, recovered.state.snapshot()
            )
        finally:
            recovered.kill()


# ---------------------------------------------------------------------------
# Satellite: StateSnapshot pickling round-trips (same and fresh process)
# ---------------------------------------------------------------------------


class TestSnapshotPickling:
    @settings(deadline=None, max_examples=40)
    @given(ops=st.lists(simple_op, max_size=15))
    def test_round_trip_preserves_the_explicit_surface(self, ops):
        state = seed_state()
        for operation in ops:
            apply_op(state, operation)
        snapshot = state.snapshot()
        clone = pickle.loads(pickle.dumps(snapshot, pickle.HIGHEST_PROTOCOL))
        assert clone.generation == snapshot.generation
        assert surface(clone) == surface(snapshot)
        rebuilt = DatabaseState.from_snapshot(clone)
        assert surface(rebuilt.snapshot()) == surface(snapshot)
        # The rebuilt state answers queries identically.
        catalog = build_catalog()
        assert oracle_extents(catalog, rebuilt.snapshot()) == oracle_extents(
            catalog, snapshot
        )

    def test_interned_ids_are_stable_in_a_fresh_process(self, tmp_path):
        state = seed_state()
        concepts = [view.concept for view in build_catalog()]
        payload = tmp_path / "snapshot.pkl"
        payload.write_bytes(
            pickle.dumps((state.snapshot(), concepts), pickle.HIGHEST_PROTOCOL)
        )
        script = textwrap.dedent(
            """
            import pickle, sys
            from repro.concepts.intern import concept_id
            from repro.concepts.normalize import normalize_concept
            from repro.database.store import DatabaseState

            with open(sys.argv[1], "rb") as fh:
                first_snapshot, first_concepts = pickle.load(fh)
            with open(sys.argv[1], "rb") as fh:
                second_snapshot, second_concepts = pickle.load(fh)
            # Two independent loads re-intern to the *same* concept ids:
            # identity is structural, not tied to the dumping process.
            for one, two in zip(first_concepts, second_concepts):
                a = concept_id(normalize_concept(one))
                b = concept_id(normalize_concept(two))
                assert a == b, (one, two)
                assert normalize_concept(one) is normalize_concept(two)
            rebuilt = DatabaseState.from_snapshot(first_snapshot)
            assert rebuilt.objects == first_snapshot.objects
            print("FRESH-PROCESS-OK")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        result = subprocess.run(
            [sys.executable, "-c", script, str(payload)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "FRESH-PROCESS-OK" in result.stdout
