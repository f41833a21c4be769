"""Unit tests for the shared durability helpers (fsync-then-rename)."""

import os

import pytest

from repro.oms import durable
from tests.conftest import REAL_FSYNC


class TestWrites:
    def test_write_bytes(self, tmp_path):
        target = tmp_path / "data.bin"
        durable.write_bytes(target, b"payload")
        assert target.read_bytes() == b"payload"

    def test_atomic_replace_publishes_and_cleans_temp(self, tmp_path):
        target = tmp_path / "state.json"
        target.write_bytes(b"old")
        durable.atomic_replace(target, b"new")
        assert target.read_bytes() == b"new"
        assert not target.with_name("state.json.tmp").exists()

    def test_replace_moves_the_file(self, tmp_path):
        src = tmp_path / "a"
        dst = tmp_path / "b"
        src.write_bytes(b"bytes")
        durable.replace(src, dst)
        assert not src.exists()
        assert dst.read_bytes() == b"bytes"

    def test_fsync_helpers_tolerate_full_mode(self, tmp_path, monkeypatch):
        # the suite's fsync is a no-op: issue real ones here
        monkeypatch.setattr(os, "fsync", REAL_FSYNC)
        target = tmp_path / "f"
        durable.write_bytes(target, b"x")
        durable.fsync_file(target)
        durable.fsync_dir(tmp_path)
        durable.atomic_replace(target, b"y")
        assert target.read_bytes() == b"y"

    def test_fsync_dir_tolerates_missing_directory(self, tmp_path):
        durable.fsync_dir(tmp_path / "nope")


class TestNames:
    """New names become durable through their directory's fsync."""

    @pytest.fixture
    def synced(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            durable, "fsync_dir",
            lambda path: calls.append(str(path)),
        )
        return calls

    def test_make_dirs_syncs_each_created_name(self, tmp_path, synced):
        durable.make_dirs(tmp_path / "a" / "b")
        assert synced == [str(tmp_path), str(tmp_path / "a")]
        del synced[:]
        durable.make_dirs(tmp_path / "a" / "b")  # already there
        assert synced == []

    def test_deferred_names_sync_once_after_files(self, tmp_path, synced):
        with durable.deferred_fsyncs() as pending:
            durable.make_dirs(tmp_path / "a" / "b")
            durable.make_dirs(tmp_path / "a" / "c")
            durable.write_bytes(
                tmp_path / "a" / "b" / "f", b"x", deferrable=True
            )
            durable.fsync_entry(tmp_path / "a" / "b" / "f")
            assert synced == []
        assert pending.files == [tmp_path / "a" / "b" / "f"]
        pending.fsync()
        assert synced == [
            str(tmp_path), str(tmp_path / "a"), str(tmp_path / "a" / "b")
        ]
