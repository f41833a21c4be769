"""Unit tests for FMCAD libraries."""

import pytest

from repro.errors import LibraryError
from repro.fmcad.checkout import CheckoutManager
from repro.fmcad.library import Library


@pytest.fixture
def library(tmp_path, clock):
    return Library("mylib", tmp_path, clock=clock)


class TestStructure:
    def test_library_creates_directory(self, library):
        assert library.directory.is_dir()

    def test_invalid_library_name(self, tmp_path):
        with pytest.raises(LibraryError):
            Library("bad/name", tmp_path)

    def test_create_cell_makes_directory(self, library):
        library.create_cell("alu")
        assert (library.directory / "alu").is_dir()

    def test_duplicate_cell_rejected(self, library):
        library.create_cell("alu")
        with pytest.raises(LibraryError):
            library.create_cell("alu")

    def test_hidden_cell_name_rejected(self, library):
        with pytest.raises(LibraryError):
            library.create_cell(".meta")

    def test_cellview_requires_cell(self, library):
        with pytest.raises(LibraryError):
            library.create_cellview("ghost", "schematic")

    def test_cellview_viewtype_defaults_to_view_name(self, library):
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "layout")
        assert cellview.viewtype.name == "layout"

    def test_cells_sorted(self, library):
        library.create_cell("zz")
        library.create_cell("aa")
        assert [c.name for c in library.cells()] == ["aa", "zz"]


class TestVersionData:
    def test_write_version_creates_file(self, library):
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        version = library.write_version(cellview, b"data1", "alice")
        assert version.number == 1
        assert version.path.read_bytes() == b"data1"

    def test_versions_advance(self, library):
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        library.write_version(cellview, b"v1", "alice")
        v2 = library.write_version(cellview, b"v2", "bob")
        assert v2.number == 2
        assert cellview.default_version.number == 2

    def test_read_default_version(self, library):
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        library.write_version(cellview, b"v1", "alice")
        library.write_version(cellview, b"v2", "alice")
        assert library.read_version(cellview) == b"v2"

    def test_read_specific_version(self, library):
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        library.write_version(cellview, b"v1", "alice")
        library.write_version(cellview, b"v2", "alice")
        assert library.read_version(cellview, 1) == b"v1"

    def test_read_empty_cellview_raises(self, library):
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        with pytest.raises(LibraryError):
            library.read_version(cellview)

    def test_io_charges_native_cost(self, library, clock):
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        library.write_version(cellview, b"x" * 100, "alice")
        assert clock.elapsed_by_category()["native_io"] > 0


class TestMetaMaintenance:
    def test_flush_and_snapshot(self, library):
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        library.write_version(cellview, b"v1", "alice")
        assert library.flush_meta("alice")
        snapshot = library.snapshot("bob")
        assert snapshot.versions_of("alu", "schematic") == [1]
        assert not snapshot.is_stale(library)

    def test_snapshot_goes_stale_without_flush(self, library):
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        library.write_version(cellview, b"v1", "alice")
        library.flush_meta("alice")
        snapshot = library.snapshot("bob")
        library.write_version(cellview, b"v2", "carol")  # no flush!
        assert snapshot.is_stale(library)
        # bob's picture still shows only version 1
        assert snapshot.versions_of("alu", "schematic") == [1]

    def test_flush_denied_while_lock_held(self, library):
        library.create_cell("alu")
        library.metafile.acquire("someone_else")
        assert not library.flush_meta("alice")

    def test_verify_meta_detects_unflushed_state(self, library):
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        library.write_version(cellview, b"v1", "alice")
        problems = library.verify_meta()
        assert any("missing from .meta" in p for p in problems)

    def test_verify_meta_clean_after_flush(self, library):
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        library.write_version(cellview, b"v1", "alice")
        library.flush_meta("alice")
        assert library.verify_meta() == []

    def test_verify_meta_detects_dangling_records(self, library):
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        library.write_version(cellview, b"v1", "alice")
        library.flush_meta("alice")
        # simulate a lost version file record mismatch by rewriting .meta
        # with an extra phantom version
        from repro.fmcad.metafile import MetaRecord

        records, tick = library.metafile.read()
        records.append(
            MetaRecord("alu", "schematic", "schematic", 99,
                       "v0099.dat", "ghost", 99)
        )
        library.metafile.acquire("x")
        library.metafile.write(records, tick, "x")
        library.metafile.release("x")
        problems = library.verify_meta()
        assert any("dangling" in p for p in problems)


class TestStats:
    def test_stats_shape(self, library):
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        library.write_version(cellview, b"12345", "alice")
        stats = library.stats()
        assert stats["cells"] == 1
        assert stats["cellviews"] == 1
        assert stats["versions"] == 1
        assert stats["bytes"] == 5


class TestReopenFromDisk:
    def make_flushed_library(self, tmp_path, clock):
        library = Library("persist", tmp_path / "libs", clock=clock)
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        version = library.write_version(cellview, b"v1 data", "alice")
        version.properties.set("jcf_oid", "DesignObjectVersion:000001")
        library.write_version(cellview, b"v2 data", "alice")
        library.flush_meta("alice")
        return library

    def test_open_recovers_structure(self, tmp_path, clock):
        self.make_flushed_library(tmp_path, clock)
        reopened = Library.open("persist", tmp_path / "libs", clock=clock)
        cellview = reopened.cellview("alu", "schematic")
        assert [v.number for v in cellview.versions] == [1, 2]
        assert reopened.read_version(cellview) == b"v2 data"
        assert reopened.read_version(cellview, 1) == b"v1 data"

    def test_open_recovers_property_sidecars(self, tmp_path, clock):
        self.make_flushed_library(tmp_path, clock)
        reopened = Library.open("persist", tmp_path / "libs", clock=clock)
        version = reopened.cellview("alu", "schematic").version(1)
        assert version.properties.get("jcf_oid") == \
            "DesignObjectVersion:000001"

    def test_open_preserves_tick(self, tmp_path, clock):
        original = self.make_flushed_library(tmp_path, clock)
        reopened = Library.open("persist", tmp_path / "libs", clock=clock)
        assert reopened.tick == original.metafile.tick()
        assert reopened.verify_meta() == []

    def test_unflushed_versions_become_orphans(self, tmp_path, clock):
        library = self.make_flushed_library(tmp_path, clock)
        cellview = library.cellview("alu", "schematic")
        library.write_version(cellview, b"never flushed", "bob")
        reopened = Library.open("persist", tmp_path / "libs", clock=clock)
        assert len(reopened.cellview("alu", "schematic").versions) == 2
        orphans = reopened.orphaned_files()
        assert len(orphans) == 1
        assert orphans[0].read_bytes() == b"never flushed"

    def test_open_recovers_cells_without_versions(self, tmp_path, clock):
        library = self.make_flushed_library(tmp_path, clock)
        library.create_cell("spare")
        library.flush_meta("alice")  # records only alu's versions
        reopened = Library.open("persist", tmp_path / "libs", clock=clock)
        assert [c.name for c in reopened.cells()] == ["alu", "spare"]
        cellview = reopened.create_cellview("spare", "schematic")
        ticket = CheckoutManager(tmp_path / "work").checkout(
            "alice", reopened, "spare", "schematic"
        )
        assert ticket.base_version is None
        assert cellview.locked_by == "alice"

    def test_open_empty_directory(self, tmp_path, clock):
        Library("fresh", tmp_path / "libs", clock=clock)
        reopened = Library.open("fresh", tmp_path / "libs", clock=clock)
        assert reopened.cells() == []
