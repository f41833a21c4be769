"""Unit tests for the OMS write-ahead log (append, recover, checkpoint)."""

import json

import pytest

from repro.errors import WALError, WALIntegrityError
from repro.faults import FaultPlan, inject
from repro.oms.database import OMSDatabase
from repro.oms.snapshot import dump_snapshot
from repro.oms.wal import (
    LOG_NAME,
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

    def test_identical_payloads_write_one_sidecar(
        self, simple_schema, tmp_path
    ):
        wal, db, _ = open_wal(simple_schema, tmp_path / "wal")
        db.create("Thing", {"name": "a"}, payload=b"same-bytes")
        db.create("Thing", {"name": "b"}, payload=b"same-bytes")
        stats = wal.stats()
        assert stats["blob_writes"] == 1
        assert stats["blob_dedup_hits"] == 1

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
        wal.checkpoint(db)
        assert not wal.log_path.exists()
        assert not wal.prev_log_path.exists()
        assert not wal.prev_checkpoint_path.exists()
        assert list(wal.blob_dir.iterdir()) == []
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
        sidecar = next(p for p in wal.blob_dir.iterdir() if p.is_file())
        sidecar.write_bytes(b"rotted")
        findings = WriteAheadLog(root).verify()
        assert any(kind == "bit-rot" for _, kind in findings)


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
