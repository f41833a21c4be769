"""Unit tests for the OMS write-ahead log (append, recover, checkpoint)."""

import json

import pytest

from repro.errors import WALError, WALIntegrityError, WALSyncError
from repro.faults import FaultPlan, inject
from repro.oms.database import OMSDatabase
from repro.oms.snapshot import dump_snapshot
from repro.oms.wal import (
    CHECKPOINT_NAME,
    FRAME_HEADER,
    FRAME_MAGIC,
    LOG_NAME,
    PACK_NAME,
    WALRecoveryInfo,
    WriteAheadLog,
)


def open_wal(schema, root):
    """Recover (or bootstrap) a database from a WAL directory."""
    wal = WriteAheadLog(root)
    db, info = wal.recover(schema)
    db.attach_wal(wal)
    return wal, db, info


def reopened_dump(schema, root):
    """State a fresh process would reconstruct from the WAL directory."""
    _, db, _ = open_wal(schema, root)
    return dump_snapshot(db)


class TestAppend:
    def test_fresh_directory_recovers_empty(self, simple_schema, tmp_path):
        wal, db, info = open_wal(simple_schema, tmp_path / "wal")
        assert info.fresh
        assert info.base == "none"
        assert db.stats()["objects"] == 0

    def test_commits_survive_reopen(self, simple_schema, tmp_path):
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        thing = db.create("Thing", {"name": "t"}, payload=b"bytes")
        box = db.create("Box", {"label": "b"})
        db.link("contains", box.oid, thing.oid)
        db.set_attr(thing.oid, "size", 7)
        assert reopened_dump(simple_schema, root) == dump_snapshot(db)

    def test_delete_and_unlink_replay(self, simple_schema, tmp_path):
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        a = db.create("Thing", {"name": "a"}, payload=b"pa")
        b = db.create("Thing", {"name": "b"})
        db.link("linked", a.oid, b.oid)
        db.unlink("linked", a.oid, b.oid)
        db.delete(a.oid)
        assert reopened_dump(simple_schema, root) == dump_snapshot(db)

    def test_aborted_transaction_logs_nothing(self, simple_schema, tmp_path):
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        before = wal.stats()["records_appended"]
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.create("Thing", {"name": "doomed"})
                raise RuntimeError("abort")
        assert wal.stats()["records_appended"] == before
        assert reopened_dump(simple_schema, root) == dump_snapshot(db)

    def test_transaction_commits_as_one_record(self, simple_schema, tmp_path):
        wal, db, _ = open_wal(simple_schema, tmp_path / "wal")
        before = wal.stats()["records_appended"]
        with db.transaction():
            db.create("Thing", {"name": "x"})
            db.create("Thing", {"name": "y"})
        assert wal.stats()["records_appended"] == before + 1

    def test_group_commit_batches_one_record(self, simple_schema, tmp_path):
        wal, db, _ = open_wal(simple_schema, tmp_path / "wal")
        before = wal.stats()["records_appended"]
        with db.group_commit():
            db.create("Thing", {"name": "x"})
            db.create("Thing", {"name": "y"})
            db.create("Thing", {"name": "z"})
        assert wal.stats()["records_appended"] == before + 1

    def test_group_commit_appends_on_ordinary_exception(
        self, simple_schema, tmp_path
    ):
        """Commits made before a live failure stay committed and logged."""
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        before = wal.stats()["records_appended"]
        with pytest.raises(RuntimeError):
            with db.group_commit():
                db.create("Thing", {"name": "kept"})
                raise RuntimeError("a run failed")
        assert wal.stats()["records_appended"] == before + 1
        assert reopened_dump(simple_schema, root) == dump_snapshot(db)

    def test_crashed_group_appends_nothing(self, simple_schema, tmp_path):
        """A group that dies of CrashFault leaves no record behind."""
        from repro.faults import CrashFault

        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "before"})
        durable_state = dump_snapshot(db)
        before = wal.stats()["records_appended"]
        with pytest.raises(CrashFault):
            with db.group_commit():
                db.create("Thing", {"name": "lost"})
                raise CrashFault("process died mid-group")
        assert wal.stats()["records_appended"] == before
        assert reopened_dump(simple_schema, root) == durable_state

    def test_refused_append_aborts_the_transaction(
        self, simple_schema, tmp_path
    ):
        """Write-ahead: a change set the log refused is not committed."""
        from repro.faults import TransientFault

        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "before"})
        durable_state = dump_snapshot(db)
        with inject(FaultPlan.transient("wal.append")):
            with pytest.raises(TransientFault):
                with db.transaction():
                    db.create("Thing", {"name": "unlogged"})
        assert dump_snapshot(db) == durable_state
        assert [o.get("name") for o in db.select("Thing")] == ["before"]
        # the log and the database go on together
        db.create("Thing", {"name": "after"})
        assert reopened_dump(simple_schema, root) == dump_snapshot(db)

    def test_failed_group_append_stops_the_database(
        self, simple_schema, tmp_path
    ):
        """A group's commits that cannot be logged cannot be built on."""
        from repro.faults import CrashFault, FailStop

        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "before"})
        durable_state = dump_snapshot(db)
        original = wal.commit

        def full_disk(ops):
            raise OSError("no space left on device")

        wal.commit = full_disk
        with pytest.raises(FailStop):
            with db.group_commit():
                db.create("Thing", {"name": "unlogged"})
        wal.commit = original
        assert issubclass(FailStop, CrashFault)
        assert "not logged" in db.stopped
        before = wal.stats()["records_appended"]
        with pytest.raises(FailStop):
            with db.transaction():
                pass
        with pytest.raises(FailStop):
            with db.group_commit():
                pass
        with pytest.raises(FailStop):
            db.create("Thing", {"name": "auto-committed"})
        with pytest.raises(FailStop):
            wal.checkpoint(db)  # would make "unlogged" durable
        assert wal.stats()["records_appended"] == before
        assert reopened_dump(simple_schema, root) == durable_state

    def test_identical_payloads_write_one_sidecar(
        self, simple_schema, tmp_path
    ):
        wal, db, _ = open_wal(simple_schema, tmp_path / "wal")
        db.create("Thing", {"name": "a"}, payload=b"same-bytes")
        db.create("Thing", {"name": "b"}, payload=b"same-bytes")
        stats = wal.stats()
        assert stats["blob_writes"] == 1
        assert stats["blob_dedup_hits"] == 1

    def test_log_and_pack_stay_open_across_commits(
        self, simple_schema, tmp_path, namespace_ops
    ):
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "first"}, payload=b"first payload")
        namespace_ops.clear()
        for n in range(5):
            db.create("Thing", {"name": f"t{n}"}, payload=b"p%d" % n)
        assert wal.stats()["records_appended"] == 6
        assert list(namespace_ops) == []
        # a checkpoint rotates the log and retires the pack: the next
        # commit opens each anew, once
        wal.checkpoint(db)
        namespace_ops.clear()
        for n in range(3):
            db.create("Thing", {"name": f"u{n}"}, payload=b"q%d" % n)
        assert sorted(
            path for kind, path in namespace_ops if kind == "append"
        ) == sorted([str(wal.log_path), str(wal.pack_path)])
        assert reopened_dump(simple_schema, root) == dump_snapshot(db)

    def test_empty_ops_commit_is_a_noop(self, simple_schema, tmp_path):
        wal, _, _ = open_wal(simple_schema, tmp_path / "wal")
        assert wal.commit([]) is None


class TestCheckpoint:
    def test_checkpoint_truncates_log_and_blobs(
        self, simple_schema, tmp_path
    ):
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "a"}, payload=b"payload")
        assert wal.log_size() > 0
        assert wal.pack_path.stat().st_size > len(b"payload")
        wal.checkpoint(db)
        assert not wal.log_path.exists()
        assert not wal.prev_log_path.exists()
        assert not wal.prev_checkpoint_path.exists()
        assert not wal.pack_path.exists()
        assert sorted(p.name for p in root.iterdir()) == [CHECKPOINT_NAME]
        _, db2, info = open_wal(simple_schema, root)
        assert info.base == "checkpoint"
        assert dump_snapshot(db2) == dump_snapshot(db)

    def test_commits_after_checkpoint_replay_on_top(
        self, simple_schema, tmp_path
    ):
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "a"})
        wal.checkpoint(db)
        db.create("Thing", {"name": "b"}, payload=b"later")
        _, db2, info = open_wal(simple_schema, root)
        assert info.base == "checkpoint"
        assert info.records_applied == 1
        assert dump_snapshot(db2) == dump_snapshot(db)

    def test_delete_then_reintern_after_checkpoint(
        self, simple_schema, tmp_path
    ):
        # the digest is durable only inside the checkpoint after GC; a
        # replayed delete must not strand the later re-create of the
        # same bytes (the payload-cache pinning path)
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        a = db.create("Thing", {"name": "a"}, payload=b"shared")
        wal.checkpoint(db)
        db.delete(a.oid)
        db.create("Thing", {"name": "b"}, payload=b"shared")
        _, db2, _ = open_wal(simple_schema, root)
        assert dump_snapshot(db2) == dump_snapshot(db)

    def test_double_replay_is_a_fixpoint(self, simple_schema, tmp_path):
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        a = db.create("Thing", {"name": "a"}, payload=b"pa")
        db.set_payload(a.oid, b"pb")
        db.delete(a.oid)
        db.create("Thing", {"name": "c"}, payload=b"pa")
        first = reopened_dump(simple_schema, root)
        second = reopened_dump(simple_schema, root)
        assert first == second == dump_snapshot(db)

    def test_replay_into_attached_database_refused(
        self, simple_schema, tmp_path
    ):
        wal, db, _ = open_wal(simple_schema, tmp_path / "wal")
        with pytest.raises(WALError):
            wal.replay_into(db, [])


class TestDamage:
    def test_torn_tail_is_dropped(self, simple_schema, tmp_path):
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "a"})
        db.create("Thing", {"name": "b"})
        expected = dump_snapshot(db)
        with open(root / LOG_NAME, "ab") as handle:
            handle.write(b'{"format": "repro-oms-wal-1", "lsn": 99, "tr')
        wal2 = WriteAheadLog(root)
        assert any(kind == "torn-tail" for _, kind in wal2.verify())
        db2, info = wal2.recover(simple_schema)
        assert info.torn_records_dropped == 1
        assert dump_snapshot(db2) == expected
        # the repair is durable: a third open sees a clean log
        assert WriteAheadLog(root).verify() == []

    def test_repair_truncates_torn_tail(self, simple_schema, tmp_path):
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "a"})
        with open(root / LOG_NAME, "ab") as handle:
            handle.write(b"garbage-no-newline")
        wal2 = WriteAheadLog(root)
        notes = wal2.repair()
        assert notes and "torn tail" in notes[0]
        assert wal2.verify() == []
        assert wal2.repair() == []

    def test_reserialised_record_is_damage(self, simple_schema, tmp_path):
        """The digest covers the bytes written, not just their meaning."""
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "a"})
        record = json.loads((root / LOG_NAME).read_bytes())
        (root / LOG_NAME).write_bytes(
            json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
            + b"\n"
        )
        assert WriteAheadLog(root).verify() == [
            (str(root / LOG_NAME), "torn-tail")
        ]

    def test_digest_marker_inside_a_value_replays(
        self, simple_schema, tmp_path
    ):
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": 'x, "sha256": "y"}'})
        assert WriteAheadLog(root).verify() == []
        assert reopened_dump(simple_schema, root) == dump_snapshot(db)

    def test_mid_file_damage_raises(self, simple_schema, tmp_path):
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "a"})
        db.create("Thing", {"name": "b"})
        lines = (root / LOG_NAME).read_bytes().splitlines(keepends=True)
        assert len(lines) == 2
        (root / LOG_NAME).write_bytes(b"damaged-line\n" + lines[1])
        with pytest.raises(WALIntegrityError):
            WriteAheadLog(root).recover(simple_schema)

    def test_damaged_checkpoint_falls_back_to_prev(
        self, simple_schema, tmp_path
    ):
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "a"})
        wal.checkpoint(db)
        expected = dump_snapshot(db)
        db.create("Thing", {"name": "b"})
        wal.checkpoint(db)
        # fabricate the crash window where the freshly published current
        # checkpoint is damaged but its retained predecessor survives
        wal.checkpoint_path.write_bytes(b'{"broken": true}')
        wal.prev_checkpoint_path.write_bytes(expected)
        db2, info = WriteAheadLog(root).recover(simple_schema)
        assert info.base == "previous-checkpoint"
        assert dump_snapshot(db2) == expected

    def test_all_checkpoints_damaged_raises(self, simple_schema, tmp_path):
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "a"})
        wal.checkpoint(db)
        wal.checkpoint_path.write_bytes(b"not json at all")
        with pytest.raises(WALIntegrityError):
            WriteAheadLog(root).recover(simple_schema)

    def test_corrupted_record_is_detected_as_torn_tail(
        self, simple_schema, tmp_path
    ):
        # a corruption rule damages the encoded record in flight; the
        # checksum catches it at recovery as a (droppable) damaged tail
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "a"})
        expected = dump_snapshot(db)
        with inject(FaultPlan.corrupt("wal.record", mode="flip")):
            db.create("Thing", {"name": "b"})
        db2, info = WriteAheadLog(root).recover(simple_schema)
        assert info.torn_records_dropped == 1
        # the corrupted commit is lost whole; earlier state survives
        assert dump_snapshot(db2) == expected

    def test_lsn_order_is_enforced(self, simple_schema, tmp_path):
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "a"})
        line = (root / LOG_NAME).read_bytes()
        # duplicate the record: same lsn twice is a rewound/mixed log
        (root / LOG_NAME).write_bytes(line + line)
        with pytest.raises(WALIntegrityError):
            WriteAheadLog(root).recover(simple_schema)

    def test_damaged_blob_sidecar_reported(self, simple_schema, tmp_path):
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "a"}, payload=b"rot-me")
        db.create("Thing", {"name": "b"}, payload=b"stays-clean")
        frame = FRAME_HEADER.size + len(b"rot-me")
        data = bytearray(wal.pack_path.read_bytes())
        data[frame - 1] ^= 0x01  # last payload byte of the first frame
        wal.pack_path.write_bytes(bytes(data))
        findings = WriteAheadLog(root).verify()
        assert findings == [(f"{wal.pack_path}@0", "bit-rot")]
        # replay never serves the rotted bytes
        with pytest.raises(WALIntegrityError):
            WriteAheadLog(root).recover(simple_schema)


class TestPack:
    """Payload bytes live as frames of one append-only pack."""

    def test_one_pack_append_per_record(self, simple_schema, tmp_path):
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        payloads = [b"first", b"second", b"third", b"first"]
        with db.transaction():
            for i, payload in enumerate(payloads):
                db.create("Thing", {"name": f"t{i}"}, payload=payload)
        assert wal.stats()["records_appended"] == 1
        assert wal.stats()["blob_writes"] == 3
        assert wal.pack_path.stat().st_size == sum(
            FRAME_HEADER.size + len(p) for p in set(payloads)
        )
        assert not (root / "blobs").exists()
        assert reopened_dump(simple_schema, root) == dump_snapshot(db)

    def test_recover_opens_the_pack_once(
        self, simple_schema, tmp_path, monkeypatch
    ):
        """The scan and the replay of every packed payload share a handle."""
        import builtins

        import repro.oms.wal as wal_module

        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        for i in range(4):
            db.create("Thing", {"name": f"t{i}"}, payload=b"payload %d" % i)
        reopened = WriteAheadLog(root)
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(str(path))
            return builtins.open(path, *args, **kwargs)

        monkeypatch.setattr(wal_module, "open", counting_open, raising=False)
        fresh, info = reopened.recover(simple_schema)
        assert info.records_applied == 4
        assert opened.count(str(reopened.pack_path)) == 1
        assert dump_snapshot(fresh) == dump_snapshot(db)

    def test_torn_final_frame_is_truncated(self, simple_schema, tmp_path):
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "a"}, payload=b"kept")
        good = wal.pack_path.stat().st_size
        torn = FRAME_HEADER.pack(FRAME_MAGIC, bytes(32), 100) + b"half"
        with open(wal.pack_path, "ab") as handle:
            handle.write(torn)
        wal2 = WriteAheadLog(root)
        assert wal2.verify() == [(f"{wal.pack_path}@{good}", "torn-tail")]
        db2, info = wal2.recover(simple_schema)
        assert info.torn_pack_bytes == len(torn)
        assert wal.pack_path.stat().st_size == good
        assert dump_snapshot(db2) == dump_snapshot(db)
        # the next append lands on a frame boundary
        db2.attach_wal(wal2)
        db2.create("Thing", {"name": "b"}, payload=b"after")
        assert WriteAheadLog(root).verify() == []
        assert reopened_dump(simple_schema, root) == dump_snapshot(db2)

    def test_repair_truncates_torn_frame(self, simple_schema, tmp_path):
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "a"}, payload=b"kept")
        with open(wal.pack_path, "ab") as handle:
            handle.write(bytes([FRAME_MAGIC]) + b"cut")
        notes = WriteAheadLog(root).repair()
        assert notes == ["wal: truncated torn final frame of blobs.pack"]
        assert WriteAheadLog(root).verify() == []

    def test_damaged_frame_header_raises(self, simple_schema, tmp_path):
        """A header without its magic byte cannot be a torn append."""
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "a"}, payload=b"one")
        second = wal.pack_path.stat().st_size
        db.create("Thing", {"name": "b"}, payload=b"two")
        data = bytearray(wal.pack_path.read_bytes())
        data[second] ^= 0xFF
        wal.pack_path.write_bytes(bytes(data))
        assert WriteAheadLog(root).verify() == [
            (f"{wal.pack_path}@{second}", "bit-rot")
        ]
        with pytest.raises(WALIntegrityError):
            WriteAheadLog(root).recover(simple_schema)
        # refused, not truncated: the damage stays for the scrubber
        assert len(wal.pack_path.read_bytes()) == len(data)

    def test_rotted_length_is_not_a_torn_tail(self, simple_schema, tmp_path):
        """A flipped high length byte runs a frame past the end of the
        pack; records still name the frames behind it, so neither
        repair() nor recover() may cut them."""
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "a"}, payload=b"one")
        db.create("Thing", {"name": "b"}, payload=b"two")
        data = bytearray(wal.pack_path.read_bytes())
        data[1 + 32] ^= 0x01  # high byte of the first frame's length
        wal.pack_path.write_bytes(bytes(data))
        finding = [(f"{wal.pack_path}@0", "bit-rot")]
        assert WriteAheadLog(root).verify() == finding
        assert wal.repair() == []
        assert WriteAheadLog(root).repair() == []
        assert wal.pack_path.read_bytes() == bytes(data)
        with pytest.raises(WALIntegrityError) as info:
            WriteAheadLog(root).recover(simple_schema)
        assert info.value.classification == "bit-rot"
        assert wal.pack_path.read_bytes() == bytes(data)
        # a checkpoint from the live database heals it
        wal.checkpoint(db)
        assert WriteAheadLog(root).verify() == []
        assert reopened_dump(simple_schema, root) == dump_snapshot(db)

    def test_rotted_length_behind_checkpointed_payloads_is_cut(
        self, simple_schema, tmp_path
    ):
        """Frames whose digests a checkpoint also holds are not needed."""
        from repro.oms.blobs import digest_bytes

        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "a"}, payload=b"one")
        wal.checkpoint(db)
        # a commit that died before its record packed "two" ...
        wal._pack_payloads({digest_bytes(b"two"): b"two"})
        # ... and a later record names only the checkpointed "one"
        db.create("Thing", {"name": "b"}, payload=b"one")
        data = bytearray(wal.pack_path.read_bytes())
        data[1 + 32] ^= 0x01
        wal.pack_path.write_bytes(bytes(data))
        assert WriteAheadLog(root).verify() == [
            (f"{wal.pack_path}@0", "torn-tail")
        ]
        assert wal.repair() == [
            "wal: truncated torn final frame of blobs.pack"
        ]
        assert wal.pack_path.stat().st_size == 0
        # the cut frame is durable no more: committing its bytes packs
        # them again instead of logging a digest nothing holds
        db.create("Thing", {"name": "c"}, payload=b"two")
        assert wal.pack_path.stat().st_size == FRAME_HEADER.size + 3
        assert reopened_dump(simple_schema, root) == dump_snapshot(db)


def fail_fsync_of(monkeypatch, name):
    """Make every fsync of the file called *name* raise ``EIO``."""
    import errno
    import os

    real = os.fsync

    def fsync(fd):
        if os.readlink(f"/proc/self/fd/{fd}").endswith(name):
            raise OSError(errno.EIO, "input/output error")
        real(fd)

    monkeypatch.setattr(os, "fsync", fsync)


class TestFsyncFailures:
    """A failed fsync either stops the database or aborts cleanly; the
    database and a reopen agree either way."""

    @pytest.mark.parametrize("mode", ["transaction", "auto-commit"])
    def test_failed_record_fsync_stops_the_database(
        self, simple_schema, tmp_path, monkeypatch, mode
    ):
        from repro.faults import FailStop

        root = tmp_path / "wal"
        wal = WriteAheadLog(root)
        db, _ = wal.recover(simple_schema)
        db.attach_wal(wal)
        db.create("Thing", {"name": "before"}, payload=b"p0")
        fail_fsync_of(monkeypatch, LOG_NAME)
        with pytest.raises(FailStop) as info:
            if mode == "transaction":
                with db.transaction():
                    db.create("Thing", {"name": "unsynced"}, payload=b"p1")
            else:
                db.create("Thing", {"name": "unsynced"}, payload=b"p1")
        monkeypatch.undo()
        assert isinstance(info.value.__cause__, WALSyncError)
        assert db.stopped is not None
        # the record reached the file: memory kept the commit too
        names = sorted(o.get("name") for o in db.select("Thing"))
        assert names == ["before", "unsynced"]
        assert reopened_dump(simple_schema, root) == dump_snapshot(db)
        with pytest.raises(FailStop):
            db.create("Thing", {"name": "after"})

    @pytest.mark.parametrize("mode", ["transaction", "auto-commit"])
    def test_failed_pack_fsync_aborts(
        self, simple_schema, tmp_path, monkeypatch, mode
    ):
        root = tmp_path / "wal"
        wal = WriteAheadLog(root)
        db, _ = wal.recover(simple_schema)
        db.attach_wal(wal)
        db.create("Thing", {"name": "before"}, payload=b"p0")
        durable_state = dump_snapshot(db)
        fail_fsync_of(monkeypatch, PACK_NAME)
        with pytest.raises(WALError) as info:
            if mode == "transaction":
                with db.transaction():
                    db.create("Thing", {"name": "unsynced"}, payload=b"p1")
            else:
                db.create("Thing", {"name": "unsynced"}, payload=b"p1")
        monkeypatch.undo()
        assert not isinstance(info.value, WALSyncError)
        assert db.stopped is None
        assert dump_snapshot(db) == durable_state
        assert reopened_dump(simple_schema, root) == durable_state
        # the database goes on, and the payload is packed again
        db.create("Thing", {"name": "retried"}, payload=b"p1")
        assert reopened_dump(simple_schema, root) == dump_snapshot(db)

    def test_pack_name_synced_after_failed_first_append(
        self, simple_schema, tmp_path, monkeypatch
    ):
        """The pack's first append created it but failed: the retry
        still makes the pack's directory entry durable."""
        from repro.oms import durable

        root = tmp_path / "wal"
        wal = WriteAheadLog(root)
        db, _ = wal.recover(simple_schema)
        db.attach_wal(wal)
        fail_fsync_of(monkeypatch, PACK_NAME)
        with pytest.raises(WALError):
            db.create("Thing", {"name": "a"}, payload=b"p0")
        monkeypatch.undo()
        assert wal.pack_path.exists()
        synced = []
        real = durable.fsync_dir
        monkeypatch.setattr(
            durable, "fsync_dir",
            lambda path: (synced.append(path), real(path)),
        )
        db.create("Thing", {"name": "a"}, payload=b"p0")
        db.create("Thing", {"name": "b"}, payload=b"p1")
        assert synced == [root]  # once, not per append
        assert reopened_dump(simple_schema, root) == dump_snapshot(db)


class TestSurface:
    def test_present_at(self, simple_schema, tmp_path):
        root = tmp_path / "wal"
        assert not WriteAheadLog.present_at(root)
        wal, db, _ = open_wal(simple_schema, root)
        assert not WriteAheadLog.present_at(root)  # nothing committed yet
        db.create("Thing", {"name": "a"})
        assert WriteAheadLog.present_at(root)

    def test_stats_and_summary(self, simple_schema, tmp_path):
        wal, db, info = open_wal(simple_schema, tmp_path / "wal")
        db.create("Thing", {"name": "a"}, payload=b"x")
        stats = wal.stats()
        assert stats["records_appended"] == 1
        assert stats["lsn"] == 1
        assert stats["log_size"] > 0
        assert "base=none" in info.summary()
        assert WALRecoveryInfo(base="checkpoint").fresh is False

    def test_records_are_checksummed_json_lines(
        self, simple_schema, tmp_path
    ):
        root = tmp_path / "wal"
        wal, db, _ = open_wal(simple_schema, root)
        db.create("Thing", {"name": "a"}, payload=b"x")
        record = json.loads((root / LOG_NAME).read_text().splitlines()[0])
        assert record["format"] == "repro-oms-wal-1"
        assert record["lsn"] == 1
        assert "sha256" in record
        # payload bytes never ride in the record itself
        assert all("payload" not in op for op in record["ops"])
        assert record["ops"][0]["payload_digest"]
