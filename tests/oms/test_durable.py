"""Unit tests for the shared durability helpers (fsync-then-rename)."""

import threading

import pytest

from repro.oms import durable


class TestModes:
    def test_default_mode_is_validated(self):
        with pytest.raises(ValueError):
            durable.set_default_durability("bogus")

    def test_context_manager_is_thread_local(self):
        # the suite-wide conftest fixture sets the default to relaxed;
        # an override in one thread must not leak into another
        assert durable.get_default_durability() == durable.DURABILITY_RELAXED
        seen = {}

        def probe():
            seen["other"] = durable.get_default_durability()

        with durable.durability(durable.DURABILITY_FULL):
            assert (
                durable.get_default_durability() == durable.DURABILITY_FULL
            )
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen["other"] == durable.DURABILITY_RELAXED
        assert durable.get_default_durability() == durable.DURABILITY_RELAXED

    def test_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with durable.durability(durable.DURABILITY_FULL):
                raise RuntimeError("boom")
        assert durable.get_default_durability() == durable.DURABILITY_RELAXED

    def test_invalid_mode_rejected_everywhere(self, tmp_path):
        with pytest.raises(ValueError):
            durable.write_bytes(tmp_path / "f", b"x", mode="sorta")
        with pytest.raises(ValueError):
            durable.durability("sorta").__enter__()


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

    def test_full_mode_writes_identical_bytes(self, tmp_path):
        # "relaxed" only skips fsyncs; the visible file contents must be
        # byte-identical between the two modes
        relaxed = tmp_path / "relaxed.bin"
        full = tmp_path / "full.bin"
        durable.atomic_replace(relaxed, b"same", mode="relaxed")
        with durable.durability(durable.DURABILITY_FULL):
            durable.atomic_replace(full, b"same")
        assert relaxed.read_bytes() == full.read_bytes()

    def test_fsync_helpers_tolerate_full_mode(self, tmp_path):
        target = tmp_path / "f"
        target.write_bytes(b"x")
        durable.fsync_file(target, mode="full")
        durable.fsync_dir(tmp_path, mode="full")
        with open(target, "rb") as handle:
            durable.fsync_fd(handle.fileno(), mode="full")

    def test_fsync_dir_tolerates_missing_directory(self, tmp_path):
        durable.fsync_dir(tmp_path / "nope", mode="full")


class TestNames:
    """New names become durable through their directory's fsync."""

    @pytest.fixture
    def synced(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            durable, "fsync_dir",
            lambda path, mode=None: calls.append(str(path)),
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
