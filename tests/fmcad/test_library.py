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

    def test_flush_charges_the_bytes_it_writes(self, library, clock):
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        library.write_version(cellview, b"v1", "alice")
        before = clock.elapsed_by_category().get("native_io", 0.0)
        library.flush_meta("alice")
        charged = clock.elapsed_by_category()["native_io"] - before
        size = library.metafile.path.stat().st_size
        model = clock.cost_model
        assert charged == pytest.approx(
            model.native_byte_ms * size + model.native_file_ms
        )

    def test_meta_names_only_flushed_versions(self, library):
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        first = library.write_version(cellview, b"v1", "alice")
        assert not library.meta_names(first)
        library.flush_meta("alice")
        second = library.write_version(cellview, b"v2", "alice")
        assert library.meta_names(first)
        assert not library.meta_names(second)


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

    def test_open_recovers_properties_from_journal(self, tmp_path, clock):
        self.make_flushed_library(tmp_path, clock)
        reopened = Library.open("persist", tmp_path / "libs", clock=clock)
        version = reopened.cellview("alu", "schematic").version(1)
        assert version.properties.get("jcf_oid") == \
            "DesignObjectVersion:000001"

    def test_open_preserves_tick(self, tmp_path, clock):
        original = self.make_flushed_library(tmp_path, clock)
        reopened = Library.open("persist", tmp_path / "libs", clock=clock)
        assert reopened.tick == original.metafile.read()[1]
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

    def test_leftover_sidecar_is_not_inherited(self, tmp_path, clock):
        """A dead run's tag must not attach to the next version 3."""
        library = self.make_flushed_library(tmp_path, clock)
        cellview = library.cellview("alu", "schematic")
        dead = library.write_version(cellview, b"dead run", "bob")
        dead.properties.set("jcf_oid", "DesignObjectVersion:000009")
        # the process dies before .meta names v3
        reopened = Library.open("persist", tmp_path / "libs", clock=clock)
        cellview = reopened.cellview("alu", "schematic")
        fresh = reopened.write_version(cellview, b"fresh", "alice")
        assert fresh.number == 3
        assert fresh.properties.get("jcf_oid") is None
        assert not fresh.path.with_name("v0003.dat.props").exists()

    def test_journalled_tag_without_meta_is_not_inherited(
        self, tmp_path, clock
    ):
        """The dead run's tag was set and flushed; its record was not."""
        library = self.make_flushed_library(tmp_path, clock)
        cellview = library.cellview("alu", "schematic")
        dead = library.write_version(cellview, b"dead run", "bob")
        dead.properties.set("jcf_oid", "DesignObjectVersion:000009")
        assert library.flush_properties("bob")
        reopened = Library.open("persist", tmp_path / "libs", clock=clock)
        # a bag is only written after its version's record
        assert list(reopened.metafile.contents().bags) == [
            ("alu", "schematic", 1)
        ]
        cellview = reopened.cellview("alu", "schematic")
        fresh = reopened.write_version(cellview, b"fresh", "alice")
        # same number and same created tick as the dead version
        assert (fresh.number, fresh.created_tick) == (3, dead.created_tick)
        reopened.flush_meta("alice")
        again = Library.open("persist", tmp_path / "libs", clock=clock)
        version = again.cellview("alu", "schematic").version(3)
        assert version.properties.get("jcf_oid") is None
        assert again.cellview("alu", "schematic").version(1).properties.get(
            "jcf_oid"
        ) == "DesignObjectVersion:000001"

    def test_leftover_link_is_replaced_not_written_through(
        self, tmp_path, clock
    ):
        """A leftover hard link shares an inode with a live version."""
        import os

        library = self.make_flushed_library(tmp_path, clock)
        cellview = library.cellview("alu", "schematic")
        # a dead run's dedup checkin: v3 linked to v2, never in .meta
        os.link(cellview.version(2).path, cellview.version(2).path
                .with_name("v0003.dat"))
        reopened = Library.open("persist", tmp_path / "libs", clock=clock)
        cellview = reopened.cellview("alu", "schematic")
        reopened.write_version(cellview, b"new bytes", "alice")
        assert reopened.read_version(cellview, 2) == b"v2 data"
        assert reopened.read_version(cellview, 3) == b"new bytes"

    def test_reclaim_orphans(self, tmp_path, clock):
        library = self.make_flushed_library(tmp_path, clock)
        cellview = library.cellview("alu", "schematic")
        dead = library.write_version(cellview, b"dead run", "bob")
        dead.properties.set("jcf_oid", "DesignObjectVersion:000009")
        reopened = Library.open("persist", tmp_path / "libs", clock=clock)
        reclaimed = reopened.reclaim_orphans()
        assert [p.name for p in reclaimed] == ["v0003.dat"]
        assert reopened.orphaned_files() == []
        # named versions and their tags stay
        cellview = reopened.cellview("alu", "schematic")
        assert reopened.read_version(cellview, 1) == b"v1 data"
        assert cellview.version(1).properties.get("jcf_oid")

    def test_reclaim_keeps_versions_waiting_for_their_flush(
        self, tmp_path, clock
    ):
        library = self.make_flushed_library(tmp_path, clock)
        cellview = library.cellview("alu", "schematic")
        library.write_version(cellview, b"not flushed yet", "alice")
        assert library.reclaim_orphans() == []
        assert library.read_version(cellview) == b"not flushed yet"

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


class TestPropertyJournal:
    """Property bags appended to ``.meta`` as they change."""

    def test_concurrent_sets_and_flushes_lose_no_line(self, tmp_path, clock):
        """Tags set on many threads while another thread flushes."""
        import sys
        import threading

        library = Library("busy", tmp_path / "libs", clock=clock)
        versions = []
        for cell in range(8):
            library.create_cell(f"c{cell}")
            cellview = library.create_cellview(f"c{cell}", "schematic")
            for n in range(20):
                versions.append(library.write_version(
                    cellview, b"%d/%d" % (cell, n), "alice"
                ))
        library.flush_meta("alice")
        done = threading.Event()

        def tag(mine):
            for version in mine:
                version.properties.set("jcf_oid", f"oid-{version.path}")

        def flush():
            while not done.is_set():
                library.flush_properties("alice")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            flusher = threading.Thread(target=flush)
            flusher.start()
            taggers = [
                threading.Thread(target=tag, args=(versions[i::8],))
                for i in range(8)
            ]
            for thread in taggers:
                thread.start()
            for thread in taggers:
                thread.join(timeout=30)
            done.set()
            flusher.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not flusher.is_alive()
        assert not any(thread.is_alive() for thread in taggers)
        library.flush_meta("alice")
        reopened = Library.open("busy", tmp_path / "libs", clock=clock)
        for cellview in reopened.cellviews():
            for version in cellview.versions:
                assert version.properties.get("jcf_oid") == \
                    f"oid-{version.path}"

    def test_failed_append_leaves_no_partial_line(
        self, tmp_path, clock, monkeypatch
    ):
        import os

        library = Library("torn", tmp_path / "libs", clock=clock)
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        first = library.write_version(cellview, b"one", "alice")
        first.properties.set("jcf_oid", "DesignObjectVersion:000001")
        library.flush_meta("alice")
        whole = library.metafile.path.read_bytes()
        second = library.write_version(cellview, b"two", "alice")
        second.properties.set("jcf_oid", "DesignObjectVersion:000002")
        real_write = os.write

        def half_then_fail(fd, data):
            real_write(fd, bytes(data[: len(data) // 2]))
            raise OSError("disk full")

        monkeypatch.setattr(os, "write", half_then_fail)
        with pytest.raises(OSError):
            library.flush_meta("alice")
        monkeypatch.setattr(os, "write", real_write)
        assert library.metafile.path.read_bytes() == whole
        # the record and the bag stay queued: the next flush writes them
        library.flush_meta("alice")
        reopened = Library.open("torn", tmp_path / "libs", clock=clock)
        assert [
            v.properties.get("jcf_oid")
            for v in reopened.cellview("alu", "schematic").versions
        ] == ["DesignObjectVersion:000001", "DesignObjectVersion:000002"]
