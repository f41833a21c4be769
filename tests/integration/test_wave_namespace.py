"""The filesystem namespace work of a scheduled wave, counted exactly.

A served checkin reproduces FMCAD's copy-in/copy-out through the UNIX
file system (Section 2.1), but only as SimClock charges; the files the
reproduction itself creates around it cost real kernel work.  These
tests record every namespace operation through an audit hook and pin
down what one wave of schematic entries leaves behind (its view
directories, its version files and one append to the library's
``.meta``) and what a wave of simulations does in the staging root.
"""

from __future__ import annotations

import os
from typing import List, Tuple

import pytest

from repro.fmcad.library import Library
from tests.conftest import (
    build_wave_environment,
    schematic_wave,
    simulation_wave,
)

def _kinds(ops, root) -> List[Tuple[str, str]]:
    return [(kind, os.path.relpath(path, root)) for kind, path in ops]


class TestScheduledWave:
    def test_wave_creates_only_what_fmcad_names(
        self, tmp_path, namespace_ops
    ):
        root = tmp_path / "env"
        hybrid, project, library, cells = build_wave_environment(root, 12)
        # a first wave makes what every later wave finds (the WAL's
        # payload pack, a .meta snapshot larger than the next batch), so
        # the counted one is a steady-state wave
        warm = hybrid.run_many(schematic_wave(project, library, cells[:8]))
        assert all(outcome.ok for outcome in warm.outcomes)
        namespace_ops.clear()
        granted = hybrid.fmcad.checkouts.stats()["granted"]
        fresh = cells[8:]
        result = hybrid.run_many(schematic_wave(project, library, fresh))
        ops = _kinds(list(namespace_ops), root)
        assert all(outcome.ok for outcome in result.outcomes)

        # no working copy, no sandbox, no speculative unlink
        assert not [path for _, path in ops if path.endswith(".work")]
        assert [
            op for op in ops
            if op[0] in ("unlink", "rmdir", "listdir", "link")
        ] == []
        views = ("schematic", "symbol")
        lib = "fmcad/libs/chiplib"
        assert sorted(path for kind, path in ops if kind == "mkdir") == \
            sorted(f"{lib}/{c}/{view}" for c in fresh for view in views)
        assert sorted(path for kind, path in ops if kind == "create") == \
            sorted(
                f"{lib}/{cell}/{view}/v0001.dat"
                for cell in fresh
                for view in views
            )
        # no .meta temp and no rename: the wave's metadata is one
        # append, and the WAL keeps its log and pack open
        assert [op for op in ops if op[0] == "rename"] == []
        assert [op for op in ops if op[0] == "append"] == [
            ("append", f"{lib}/.meta")
        ]
        stats = hybrid.fmcad.checkouts.stats()
        assert stats["working_files"] == 0
        assert stats["granted"] == granted + 2 * len(fresh)


class TestSimulationWaveStaging:
    def test_each_run_stages_one_file_and_makes_no_directory(
        self, tmp_path, namespace_ops
    ):
        """The design_cycle shape: simulations over existing schematics."""
        root = tmp_path / "env"
        hybrid, project, library, cells = build_wave_environment(root, 4)
        entered = hybrid.run_many(schematic_wave(project, library, cells))
        assert all(outcome.ok for outcome in entered.outcomes)
        staging_root = hybrid.jcf.staging.root
        namespace_ops.clear()
        result = hybrid.run_many(
            simulation_wave(project, library, cells), sandbox_prefix="s0b0002_"
        )
        assert all(outcome.ok for outcome in result.outcomes)
        ops = [
            (kind, os.path.relpath(path, staging_root))
            for kind, path in namespace_ops
            if os.path.commonpath([path, staging_root]) == str(staging_root)
        ]
        # one staged schematic per run, named after the run, created in
        # the root and unlinked when the run clears its area
        assert not [
            op for op in ops if op[0] in ("mkdir", "rmdir", "listdir")
        ]
        for index in range(len(cells)):
            mine = [
                kind for kind, name in ops
                if name.startswith(f"s0b0002_run_{index:03d}-")
            ]
            assert sorted(mine) == ["create", "unlink"]
        assert len(ops) == 2 * len(cells)
        assert list(staging_root.iterdir()) == []


class TestWriteVersionOntoLeftovers:
    """A dead run's files at a fresh version number; the next checkin.

    Each row leaves something a run that died before its ``.meta``
    could have left at ``v0003``.  The checkin that lands on that
    number starts from no tag and never writes through a shared inode.
    """

    @staticmethod
    def _library(tmp_path, clock) -> Library:
        library = Library("persist", tmp_path / "libs", clock=clock)
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        for data in (b"v1 data", b"v2 data"):
            version = library.write_version(cellview, data, "alice")
            version.properties.set("jcf_oid", f"tag of {data!r}")
        library.flush_meta("alice")
        return library

    @pytest.mark.parametrize("leftover", ["dat", "link"])
    def test_checkin_starts_from_no_tag(
        self, tmp_path, clock, namespace_ops, leftover
    ):
        library = self._library(tmp_path, clock)
        view_dir = tmp_path / "libs" / "persist" / "alu" / "schematic"
        dead = view_dir / "v0003.dat"
        if leftover == "dat":
            dead.write_bytes(b"dead run")
        else:
            # a dead dedup checkin: shares its inode with v2
            os.link(view_dir / "v0002.dat", dead)
        reopened = Library.open("persist", tmp_path / "libs", clock=clock)
        cellview = reopened.cellview("alu", "schematic")
        namespace_ops.clear()
        fresh = reopened.write_version(cellview, b"fresh", "bob")
        ops = _kinds(list(namespace_ops), view_dir)

        assert fresh.number == 3
        assert fresh.properties.get("jcf_oid") is None
        assert reopened.read_version(cellview, 3) == b"fresh"
        assert reopened.read_version(cellview, 2) == b"v2 data"
        assert cellview.version(2).properties.get("jcf_oid")
        # the exclusive create fails once, then the leftover goes
        assert ops == [("unlink", "v0003.dat"), ("create", "v0003.dat")]

    def test_clean_number_is_created_without_unlinks(
        self, tmp_path, clock, namespace_ops
    ):
        library = self._library(tmp_path, clock)
        namespace_ops.clear()
        library.write_version(
            library.cellview("alu", "schematic"), b"v3 data", "bob"
        )
        assert [kind for kind, _ in namespace_ops] == ["create"]

    def test_drop_unlinks_only_the_version_file(
        self, tmp_path, clock, namespace_ops
    ):
        library = self._library(tmp_path, clock)
        namespace_ops.clear()
        library.drop_version(library.cellview("alu", "schematic"), 2)
        assert [
            (kind, os.path.basename(path)) for kind, path in namespace_ops
        ] == [("unlink", "v0002.dat")]
