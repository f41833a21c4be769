"""Unit tests for the library .meta file."""

import pytest

from repro.errors import MetaFileError
from repro.fmcad.metafile import MetaFile, MetaRecord


@pytest.fixture
def metafile(tmp_path):
    return MetaFile(tmp_path / ".meta")


def record(cell="alu", view="schematic", version=1):
    return MetaRecord(
        cell=cell,
        view=view,
        viewtype=view,
        version=version,
        filename=f"v{version:04d}.dat",
        author="alice",
        tick=version,
    )


class TestRecordFormat:
    def test_round_trip(self):
        original = record()
        assert MetaRecord.from_line(original.to_line()) == original

    def test_malformed_line_raises(self):
        with pytest.raises(MetaFileError):
            MetaRecord.from_line("too|few|fields")

    def test_non_numeric_version_raises(self):
        with pytest.raises(MetaFileError):
            MetaRecord.from_line("a|b|c|xx|f|u|1")


class TestIO:
    def test_missing_file_reads_empty(self, metafile):
        records, tick = metafile.read()
        assert records == [] and tick == 0

    def test_write_read_round_trip(self, metafile):
        assert metafile.acquire("alice")
        metafile.write([record(version=2), record(version=1)], tick=5,
                       user="alice")
        metafile.release("alice")
        records, tick = metafile.read()
        assert tick == 5
        assert [r.version for r in records] == [1, 2]  # sorted

    def test_write_without_lock_raises(self, metafile):
        with pytest.raises(MetaFileError):
            metafile.write([record()], tick=1, user="alice")

    def test_corrupt_header_raises(self, metafile):
        metafile.path.write_text("garbage\n")
        with pytest.raises(MetaFileError):
            metafile.read()

    def test_missing_tick_line_raises(self, metafile):
        metafile.path.write_text("#FMCAD-META 1\n")
        with pytest.raises(MetaFileError):
            metafile.read()

    def test_index_keys(self, metafile):
        metafile.acquire("a")
        metafile.write([record(version=1), record(version=2)], 2, "a")
        metafile.release("a")
        index = metafile.index()
        assert ("alu", "schematic", 2) in index


class TestWriterLock:
    def test_acquire_release(self, metafile):
        assert metafile.acquire("alice")
        assert metafile.writer == "alice"
        metafile.release("alice")
        assert metafile.writer is None

    def test_reacquire_by_same_user_ok(self, metafile):
        assert metafile.acquire("alice")
        assert metafile.acquire("alice")

    def test_contention_counted(self, metafile):
        metafile.acquire("alice")
        assert not metafile.acquire("bob")
        assert not metafile.acquire("carol")
        assert metafile.contended_acquires == 2
        assert metafile.total_acquires == 3

    def test_release_by_non_holder_raises(self, metafile):
        metafile.acquire("alice")
        with pytest.raises(MetaFileError):
            metafile.release("bob")


class TestAppendAndCompaction:
    def test_appends_stay_under_the_snapshot(self, tmp_path):
        """200 one-version flushes: append, compact, total bytes linear."""
        from repro.fmcad.library import Library

        library = Library("deep", tmp_path / "libs")
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        path = library.metafile.path
        previous = b""
        snapshot = written = batches = 0
        for n in range(200):
            version = library.write_version(cellview, b"v%d" % n, "alice")
            version.properties.set("jcf_oid", f"DesignObjectVersion:{n:06d}")
            assert library.flush_meta("alice")
            data = path.read_bytes()
            if previous and data.startswith(previous):
                written += len(data) - len(previous)
                batches += len(data) - len(previous)
            else:  # a snapshot rewrite
                written += len(data)
                snapshot = len(data)
            assert len(data) - snapshot <= snapshot
            previous = data
        assert written < 3 * (batches + len(previous))
        assert batches  # most flushes appended
        reopened = Library.open("deep", tmp_path / "libs")
        versions = reopened.cellview("alu", "schematic").versions
        assert [v.properties.get("jcf_oid") for v in versions] == [
            f"DesignObjectVersion:{n:06d}" for n in range(200)
        ]
