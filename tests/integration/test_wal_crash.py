"""Integration: crash the WAL at every append/checkpoint window, restart.

The WAL extension of the crash matrix: a coupled workload runs on a
hybrid environment with a deterministic crash scheduled
at the ``wal.append`` / ``wal.checkpoint`` fault points, the process is
"restarted" (``HybridFramework.reopen`` on the same root), recovery
runs, and the audit must come back clean.  Replay convergence is
asserted by reopening twice — the double-replay fixpoint.

A scheduled wave adds two windows of its own: after its version files
but before its one ``.meta`` write (``wave.before_meta``, also hit by a
real ``os._exit`` in a child process), and after the ``.meta`` but
before its WAL record.  The payload pack adds two more: after the
pack's fsync but before the record append (orphan frames), and a torn
final frame.  The version files' directory entries, and those of the
view directories a run made, are fsynced before any ``.meta`` names
them, also when the wave dies at ``wave.before_meta``.  ``.meta``'s
appended batches add three more: a batch torn at any byte reopens to the
batch before it, a crash inside a compaction keeps the old snapshot and
its tail, and a batch cut at rest never gets its logged version files
reclaimed.
"""

import os
import pathlib

import pytest

from repro.core.coupling import HybridFramework
from repro.core.scheduler import RunRequest
from repro.faults import CrashFault, FaultPlan, MODE_TRUNCATE, inject
from repro.fmcad.library import Library
from repro.integrity import Scrubber
from repro.oms.snapshot import dump_snapshot
from repro.oms.wal import FRAME_HEADER, FRAME_MAGIC
from tests.conftest import (
    assert_no_wave_leftovers,
    build_inverter_editor_fn,
    build_wave_environment,
    die_in_child,
    inverter_testbench_fn,
    schematic_wave,
)


def build_environment(root):
    hybrid = HybridFramework(root)
    resources = hybrid.jcf.resources
    resources.define_user("admin", "alice")
    resources.define_team("admin", "team1")
    resources.add_member("admin", "alice", "team1")
    hybrid.setup_standard_flow()
    library = hybrid.fmcad.create_library("chiplib")
    library.create_cell("inv2")
    project = hybrid.adopt_library("alice", library, "chipA")
    resources.assign_team_to_project("admin", "team1", project.oid)
    hybrid.prepare_cell("alice", project, "inv2", team_name="team1")
    # flush .meta so a post-crash reopen can rediscover the library even
    # when the crash lands before the first harvest checkin flushes it
    library.flush_meta("setup")
    return hybrid


def idempotent_schematic_edit(editor):
    if not editor.schematic.ports():
        build_inverter_editor_fn()(editor)


def run_workload(hybrid):
    project = hybrid.jcf.project("chipA")
    library = hybrid.fmcad.library("chiplib")
    if not library.has_cell("inv2"):
        # a crash before the first checkin leaves the empty cell out of
        # .meta (versions never flushed are invisible after reopening —
        # faithfully); re-creating it is part of the idempotent setup
        library.create_cell("inv2")
    return [
        hybrid.run_schematic_entry(
            "alice", project, library, "inv2", idempotent_schematic_edit
        ),
        hybrid.run_simulation(
            "alice", project, library, "inv2", inverter_testbench_fn()
        ),
    ]


def restart_recover(root):
    """What an operator does after a crash: reopen, repair, re-audit."""
    hybrid = HybridFramework.reopen(root)
    hybrid.recover()
    return hybrid


class TestAppendCrashes:
    # the workload appends six records, three per run (start, harvest,
    # finish): crash in each of the first run's and at the second's start
    @pytest.mark.parametrize("on_hit", [1, 2, 3, 4])
    def test_crash_at_append_recovers_clean(self, tmp_path, on_hit):
        root = tmp_path / "env"
        hybrid = build_environment(root)
        plan = FaultPlan.crash("wal.append", on_hit=on_hit)
        with inject(plan):
            with pytest.raises(CrashFault):
                run_workload(hybrid)
        assert plan.crash_fired, "workload never reached that append"

        hybrid2 = restart_recover(root)
        audit = hybrid2.audit()
        assert audit.clean, audit.render()
        # the interrupted flow completes on the recovered environment
        results = run_workload(hybrid2)
        assert all(result.success for result in results)
        assert hybrid2.audit().clean

    def test_lost_commit_is_lost_whole(self, tmp_path):
        """A commit whose record never landed vanishes atomically."""
        root = tmp_path / "env"
        hybrid = build_environment(root)
        before = dump_snapshot(hybrid.jcf.db)
        plan = FaultPlan.crash("wal.append", on_hit=1)
        with inject(plan):
            with pytest.raises(CrashFault):
                hybrid.jcf.resources.define_user("admin", "ghost")
        hybrid2 = HybridFramework.reopen(root)
        assert dump_snapshot(hybrid2.jcf.db) == before


class TestCheckpointCrashes:
    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    def test_crash_in_each_checkpoint_window(self, tmp_path, window):
        root = tmp_path / "env"
        hybrid = build_environment(root)
        results = run_workload(hybrid)
        assert all(result.success for result in results)
        committed = dump_snapshot(hybrid.jcf.db)

        plan = FaultPlan.crash("wal.checkpoint", on_hit=window)
        with inject(plan):
            with pytest.raises(CrashFault):
                hybrid.save_state()
        assert plan.crash_fired

        # restart: every committed change survives the torn checkpoint
        hybrid2 = restart_recover(root)
        assert dump_snapshot(hybrid2.jcf.db) == committed
        audit = hybrid2.audit()
        assert audit.clean, audit.render()
        # and the next checkpoint completes and compacts normally
        hybrid2.save_state()
        hybrid3 = HybridFramework.reopen(root)
        assert dump_snapshot(hybrid3.jcf.db) == committed
        assert hybrid3.jcf.wal_recovery.base == "checkpoint"

    def test_checkpoint_then_crash_then_more_commits(self, tmp_path):
        """Replay stacks post-checkpoint commits over the compacted base."""
        root = tmp_path / "env"
        hybrid = build_environment(root)
        hybrid.save_state()
        plan = FaultPlan.crash("wal.checkpoint", on_hit=3)
        with inject(plan):
            with pytest.raises(CrashFault):
                hybrid.save_state()
        hybrid2 = restart_recover(root)
        run_workload(hybrid2)
        committed = dump_snapshot(hybrid2.jcf.db)
        hybrid3 = HybridFramework.reopen(root)
        assert dump_snapshot(hybrid3.jcf.db) == committed


class TestReplayFixpoint:
    def test_double_reopen_is_identical(self, tmp_path):
        root = tmp_path / "env"
        hybrid = build_environment(root)
        run_workload(hybrid)
        first = dump_snapshot(HybridFramework.reopen(root).jcf.db)
        second = dump_snapshot(HybridFramework.reopen(root).jcf.db)
        assert first == second == dump_snapshot(hybrid.jcf.db)

    def test_wal_sweeps_are_wired_into_recovery_and_audit(self, tmp_path):
        root = tmp_path / "env"
        hybrid = build_environment(root)
        run_workload(hybrid)
        # tear the log tail behind the running framework's back
        with open(hybrid.jcf.wal.log_path, "ab") as handle:
            handle.write(b"half a record")
        audit = hybrid.audit()
        assert any(
            finding.category == "wal-integrity"
            for finding in audit.findings
        )
        report = hybrid.recover()
        assert any("torn tail" in note for note in report.wal_repairs)
        assert hybrid.audit().clean


def two_wave_batch(project, library, cells):
    """Schematic entry on every cell, then a simulation of each."""
    return [
        RunRequest(
            "alice", project, library, cell, "schematic_entry",
            kwargs={"edit_fn": idempotent_schematic_edit},
        )
        for cell in cells
    ] + [
        RunRequest(
            "alice", project, library, cell, "digital_simulation",
            kwargs={"testbench_fn": inverter_testbench_fn()},
        )
        for cell in cells
    ]


class TestWaveMetaWindows:
    # every append inside a batch is a wave's group record, so on_hit
    # picks the wave: 1 = schematic wave, 2 = simulation wave
    @pytest.mark.parametrize(
        "point,on_hit",
        [
            ("wave.before_meta", 1),
            ("wave.before_meta", 2),
            ("wal.append", 1),
            ("wal.append", 2),
        ],
    )
    def test_crash_in_a_wave_recovers_clean(self, tmp_path, point, on_hit):
        root = tmp_path / "env"
        hybrid, project, library, cells = build_wave_environment(root, 3)
        plan = FaultPlan.crash(point, on_hit=on_hit)
        with inject(plan):
            with pytest.raises(CrashFault):
                hybrid.run_many(two_wave_batch(project, library, cells))
        assert plan.crash_fired

        hybrid2 = restart_recover(root)
        assert_no_wave_leftovers(hybrid2)
        # the interrupted batch completes on the recovered environment,
        # and no new version inherits a dead run's tag
        project2 = hybrid2.jcf.project("chipA")
        library2 = hybrid2.fmcad.library("chiplib")
        result = hybrid2.run_many(two_wave_batch(project2, library2, cells))
        assert all(o.ok for o in result.outcomes)
        assert_no_wave_leftovers(hybrid2)
        # recovery is a fixpoint
        assert hybrid2.recover().empty()

    def test_crash_before_wave_meta_logs_nothing(self, tmp_path):
        root = tmp_path / "env"
        hybrid, project, library, cells = build_wave_environment(root)
        before = dump_snapshot(hybrid.jcf.db)
        with inject(FaultPlan.crash("wave.before_meta")):
            with pytest.raises(CrashFault):
                hybrid.run_many(schematic_wave(project, library, cells))
        assert dump_snapshot(HybridFramework.reopen(root).jcf.db) == before


#: child-process body: set up, then die inside a four-run schematic wave
DEAD_WAVE = """
    from tests.conftest import build_wave_environment, schematic_wave
    hybrid, project, library, cells = build_wave_environment(root)
    arm()
    hybrid.run_many(schematic_wave(project, library, cells), workers=2)
"""


class TestProcessDeathInAWave:
    """A real process exit inside a wave: nothing unwinds."""

    def test_dead_wave_leaves_nothing_behind(self, tmp_path):
        root = tmp_path / "env"
        die_in_child(root, "wave.before_meta", DEAD_WAVE)

        hybrid = HybridFramework.reopen(root)
        library = hybrid.fmcad.library("chiplib")
        # the dead wave's version files are on disk, named by no .meta
        # record
        assert len(library.orphaned_files()) == 8
        # a checkin that lands on a dead run's version number starts
        # from nothing
        cellview = library.create_cellview("cell0", "schematic")
        fresh = library.write_version(cellview, b"fresh bytes", "alice")
        assert fresh.number == 1
        assert fresh.properties.get("jcf_oid") is None
        assert library.read_version(cellview) == b"fresh bytes"
        library.drop_version(cellview, 1)

        report = hybrid.recover()
        assert len(report.reclaimed_fmcad_files) == 7
        assert library.orphaned_files() == []
        assert hybrid.audit().clean

        project = hybrid.jcf.project("chipA")
        result = hybrid.run_many(
            schematic_wave(project, library, ["cell0", "cell1"])
        )
        assert all(o.ok for o in result.outcomes)
        assert_no_wave_leftovers(hybrid)

    def test_exit_between_wave_meta_and_wal_record(self, tmp_path):
        """``.meta`` names the wave's versions; the WAL never logged them."""
        root = tmp_path / "env"
        die_in_child(root, "wal.append", DEAD_WAVE)

        hybrid = HybridFramework.reopen(root)
        library = hybrid.fmcad.library("chiplib")
        assert sum(len(cv.versions) for cv in library.cellviews()) == 8
        report = hybrid.recover()
        assert len(report.deleted_fmcad_versions) == 8
        assert_no_wave_leftovers(hybrid)
        assert all(not cv.versions for cv in library.cellviews())
        project = hybrid.jcf.project("chipA")
        result = hybrid.run_many(schematic_wave(project, library, ["cell2"]))
        assert all(o.ok for o in result.outcomes)
        assert_no_wave_leftovers(hybrid)


@pytest.fixture
def fsynced(monkeypatch):
    """Every path fsynced, in call order."""
    paths = []
    real = os.fsync

    def record(fd):
        paths.append(os.readlink(f"/proc/self/fd/{fd}"))
        real(fd)

    monkeypatch.setattr(os, "fsync", record)
    return paths


def names_synced_before_meta(library, cells, fsynced, cell_syncs=1):
    """Check the FMCAD fsyncs that precede the first ``.meta`` write.

    Each run checks in a schematic and a symbol, whose view directories
    the harvest makes: every version file is fsynced, then its view
    directory once, and each cell directory (where the view directories
    got their names) *cell_syncs* times.
    """
    meta = [i for i, path in enumerate(fsynced) if ".meta" in path]
    before = fsynced[: meta[0]] if meta else fsynced
    versions = [path for path in before if path.endswith(".dat")]
    lib = str(library.directory)
    cell_dirs = [f"{lib}/{cell}" for cell in cells]
    view_dirs = [
        f"{lib}/{cell}/{view}" for cell in cells
        for view in ("schematic", "symbol")
    ]
    assert sorted(versions) == sorted(f"{d}/v0001.dat" for d in view_dirs)
    for directory in view_dirs:
        assert before.count(directory) == 1, directory
    for directory in cell_dirs:
        assert before.count(directory) == cell_syncs, directory
    for view_dir in view_dirs:
        assert (
            before.index(f"{view_dir}/v0001.dat") < before.index(view_dir)
        )


class TestDirectoryEntriesDurable:
    """New names in a library are durable before a ``.meta`` names them."""

    def test_wave_syncs_each_directory_once(self, tmp_path, fsynced):
        hybrid, project, library, cells = build_wave_environment(
            tmp_path / "env"
        )
        del fsynced[:]
        result = hybrid.run_many(
            schematic_wave(project, library, cells), workers=4
        )
        assert all(o.ok for o in result.outcomes)
        names_synced_before_meta(library, cells, fsynced)
        assert hybrid.audit().clean

    def test_wave_dead_before_meta_synced_its_names(
        self, tmp_path, fsynced
    ):
        root = tmp_path / "env"
        hybrid, project, library, cells = build_wave_environment(root)
        del fsynced[:]
        with inject(FaultPlan.crash("wave.before_meta")):
            with pytest.raises(CrashFault):
                hybrid.run_many(schematic_wave(project, library, cells))
        assert not any(".meta" in path for path in fsynced)
        names_synced_before_meta(library, cells, fsynced)
        assert restart_recover(root).audit().clean

    def test_new_library_name_synced_before_its_meta(
        self, tmp_path, fsynced
    ):
        hybrid = HybridFramework(tmp_path / "env")
        del fsynced[:]
        library = hybrid.fmcad.create_library("chiplib")
        library.create_cell("cell0")
        library.flush_meta("setup")
        libs = str(library.directory.parent)
        meta = next(i for i, path in enumerate(fsynced) if ".meta" in path)
        assert fsynced[:meta].count(libs) == 1
        assert fsynced[:meta].count(str(library.directory)) == 1

    def test_unscheduled_run_syncs_inline(self, tmp_path, fsynced):
        hybrid, project, library, cells = build_wave_environment(
            tmp_path / "env"
        )
        del fsynced[:]
        result = hybrid.run_schematic_entry(
            "alice", project, library, cells[0], build_inverter_editor_fn(2)
        )
        assert result.success
        # inline, each view directory made syncs the cell directory
        names_synced_before_meta(library, cells[:1], fsynced, cell_syncs=2)


def packed_orphans(wal):
    """Digests with a pack frame that no log record names."""
    named = {
        op.get("payload_digest")
        for record, _, _ in wal._iter_lines(wal.log_path)
        if record is not None
        for op in record["ops"]
    }
    index, _ = wal._scan_pack()
    return set(index) - named


class TestPackCrashes:
    """The payload pack's own crash windows."""

    def test_crash_after_pack_fsync_before_record(self, tmp_path):
        """Frames packed for a record that never landed replay nothing."""
        root = tmp_path / "env"
        hybrid, project, library, cells = build_wave_environment(root)
        before = dump_snapshot(hybrid.jcf.db)
        wal = hybrid.jcf.wal
        packed = wal._pack_payloads

        def die_after_pack_fsync(payloads):
            packed(payloads)
            raise CrashFault("died between pack fsync and record append")

        wal._pack_payloads = die_after_pack_fsync
        with pytest.raises(CrashFault):
            hybrid.run_many(schematic_wave(project, library, cells))
        orphans = packed_orphans(wal)
        assert orphans  # the wave's payloads, named by no record

        hybrid2 = HybridFramework.reopen(root)
        assert dump_snapshot(hybrid2.jcf.db) == before
        hybrid2.recover()
        assert_no_wave_leftovers(hybrid2)
        project2 = hybrid2.jcf.project("chipA")
        library2 = hybrid2.fmcad.library("chiplib")
        result = hybrid2.run_many(schematic_wave(project2, library2, cells))
        assert all(o.ok for o in result.outcomes)
        assert_no_wave_leftovers(hybrid2)
        # the rerun's identical bytes dedup onto the orphan frames,
        # which a record now names and replay reads
        assert not packed_orphans(hybrid2.jcf.wal) & orphans
        assert dump_snapshot(HybridFramework.reopen(root).jcf.db) == (
            dump_snapshot(hybrid2.jcf.db)
        )

    def test_torn_final_frame_then_more_commits(self, tmp_path):
        root = tmp_path / "env"
        hybrid, project, library, cells = build_wave_environment(root)
        result = hybrid.run_many(schematic_wave(project, library, cells[:2]))
        assert all(o.ok for o in result.outcomes)
        committed = dump_snapshot(hybrid.jcf.db)
        pack = hybrid.jcf.wal.pack_path
        whole = pack.stat().st_size
        # a crash mid-append leaves the head of a frame at the pack's end
        with open(pack, "ab") as handle:
            handle.write(FRAME_HEADER.pack(FRAME_MAGIC, bytes(32), 4096))
            handle.write(b"the first bytes of a payload")

        hybrid2 = HybridFramework.reopen(root)
        assert pack.stat().st_size == whole
        assert dump_snapshot(hybrid2.jcf.db) == committed
        hybrid2.recover()
        assert hybrid2.audit().clean
        project2 = hybrid2.jcf.project("chipA")
        library2 = hybrid2.fmcad.library("chiplib")
        result = hybrid2.run_many(
            schematic_wave(project2, library2, cells[2:])
        )
        assert all(o.ok for o in result.outcomes)
        assert pack.stat().st_size > whole
        assert hybrid2.jcf.wal.verify() == []
        # a reopen replays every record, before and after the cut
        hybrid3 = HybridFramework.reopen(root)
        assert dump_snapshot(hybrid3.jcf.db) == dump_snapshot(hybrid2.jcf.db)
        assert_no_wave_leftovers(hybrid3)


class TestMetaAppend:
    """``.meta``'s appended batches across crashes and damage."""

    def two_waves(self, root, n_cells=6):
        """A library whose last wave's ``.meta`` write was an append.

        Returns the hybrid, the library, the file's bytes before that
        append, and the appended batch.
        """
        hybrid, project, library, cells = build_wave_environment(
            root, n_cells
        )
        half = n_cells - 2
        assert all(o.ok for o in hybrid.run_many(
            schematic_wave(project, library, cells[:half])
        ).outcomes)
        before = library.metafile.path.read_bytes()
        assert all(o.ok for o in hybrid.run_many(
            schematic_wave(project, library, cells[half:])
        ).outcomes)
        after = library.metafile.path.read_bytes()
        assert after.startswith(before)
        return hybrid, library, before, after[len(before):]

    def test_torn_append_at_every_offset(self, tmp_path):
        """Each cut reopens to the previous batch; the next flush cuts it."""
        hybrid, library, before, batch = self.two_waves(tmp_path / "env")
        libs = library.directory.parent
        meta = library.metafile.path
        for cut in range(len(batch)):
            meta.write_bytes(before + batch[:cut])
            reopened = Library.open("chiplib", libs)
            # the open reads the batch before, and writes nothing
            assert meta.read_bytes() == before + batch[:cut]
            versions = [
                v for cv in reopened.cellviews() for v in cv.versions
            ]
            assert len(versions) == 8
            assert all(v.properties.get("jcf_oid") for v in versions)
            assert reopened.metafile.verify() == (
                "torn-write" if cut else None
            )
            cellview = reopened.cellview("cell0", "schematic")
            reopened.write_version(cellview, b"next", "alice")
            assert reopened.flush_meta("alice")
            data = meta.read_bytes()
            assert data.startswith(before) and len(data) > len(before)
            assert reopened.metafile.verify() is None
            again = Library.open("chiplib", libs)
            assert again.cellview("cell0", "schematic").version(2) is not None

    def test_torn_append_in_a_crashed_wave(self, tmp_path):
        """The wave's append lands cut short, then the process dies."""
        root = tmp_path / "env"
        hybrid, project, library, cells = build_wave_environment(root, 6)
        assert all(o.ok for o in hybrid.run_many(
            schematic_wave(project, library, cells[:4])
        ).outcomes)
        before = library.metafile.path.read_bytes()
        plan = FaultPlan.corrupt(
            "fmcad.meta", mode=MODE_TRUNCATE, seed=3
        ).add_crash("wal.append")
        with inject(plan):
            with pytest.raises(CrashFault):
                hybrid.run_many(schematic_wave(project, library, cells[4:]))
        torn = library.metafile.path.read_bytes()
        assert torn.startswith(before) and len(torn) > len(before)

        hybrid2 = HybridFramework.reopen(root)
        assert library.metafile.path.read_bytes() == torn
        report = hybrid2.recover()
        # 2 runs x 2 views the WAL never logged
        assert len(report.reclaimed_fmcad_files) == 4
        assert hybrid2.fmcad.library("chiplib").metafile.verify() is None
        assert_no_wave_leftovers(hybrid2)
        assert_no_wave_leftovers(HybridFramework.reopen(root))

    def test_crash_between_compaction_temp_and_rename(self, tmp_path):
        """The old snapshot and its tail stay; recovery drops the temp."""
        root = tmp_path / "env"
        hybrid, project, library, cells = build_wave_environment(root, 12)
        for wave in (cells[:4], cells[4:6]):
            assert all(o.ok for o in hybrid.run_many(
                schematic_wave(project, library, wave)
            ).outcomes)
        meta = library.metafile.path
        old = meta.read_bytes()
        # six more runs: a batch that would pass the snapshot's size
        with inject(FaultPlan.crash("durable.before_rename")) as plan:
            with pytest.raises(CrashFault):
                hybrid.run_many(schematic_wave(project, library, cells[6:]))
        assert plan.crash_fired
        assert meta.read_bytes() == old
        stale = meta.with_name(".meta.tmp")
        assert stale.exists()

        hybrid2 = HybridFramework.reopen(root)
        library2 = hybrid2.fmcad.library("chiplib")
        assert sum(len(cv.versions) for cv in library2.cellviews()) == 12
        assert stale.exists()
        report = hybrid2.recover()
        assert "chiplib/.meta.tmp" in report.reclaimed_fmcad_files
        assert not stale.exists()
        assert_no_wave_leftovers(hybrid2)
        assert_no_wave_leftovers(HybridFramework.reopen(root))

    def test_truncated_batch_of_logged_versions_is_never_reclaimed(
        self, tmp_path
    ):
        """Cut at rest, a logged batch reads like a torn one.

        Its version files are acked checkins: the OMS versions name
        them with the same payload, so recovery records them again
        instead of reclaiming them, and the next wave writes past them.
        """
        root = tmp_path / "env"
        hybrid, library, before, batch = self.two_waves(root)
        meta = library.metafile.path
        meta.write_bytes(before + batch[: len(batch) // 2])
        files = sorted(library.directory.glob("cell[45]/*/v*.dat"))
        assert len(files) == 4

        hybrid2 = HybridFramework.reopen(root)
        report = Scrubber(hybrid2.jcf, hybrid2.fmcad).scrub()
        found = [
            (f.area, f.location, f.classification) for f in report.findings
        ]
        assert ("meta", str(meta), "torn-write") in found
        assert [
            (area, location) for area, location, _ in found
            if area.startswith("fmcad-")
        ] == [("fmcad-record", str(path)) for path in files]
        audit = hybrid2.audit()
        assert len(audit.by_category()["integrity"]) == 5, audit.render()
        recovery = hybrid2.recover()
        assert recovery.reclaimed_fmcad_files == []
        assert len(recovery.repaired_payloads) == 5
        assert all(path.exists() for path in files)
        assert hybrid2.audit().clean
        assert Scrubber(hybrid2.jcf, hybrid2.fmcad).scrub().clean

        library2 = hybrid2.fmcad.library("chiplib")
        project2 = hybrid2.jcf.project("chipA")
        # the edit saves the schematic as it is, once it has ports
        assert all(o.ok for o in hybrid2.run_many([
            RunRequest(
                "alice", project2, library2, cell, "schematic_entry",
                kwargs={"edit_fn": idempotent_schematic_edit},
            )
            for cell in ("cell4", "cell5")
        ]).outcomes)
        assert [
            v.number for v in library2.cellview("cell4", "schematic").versions
        ] == [1, 2]
        paths = [
            obj.get("directory_path")
            for obj in hybrid2.jcf.db.select("DesignObjectVersion")
        ]
        assert len(paths) == len(set(paths)) == 16
        assert_no_wave_leftovers(hybrid2)
        assert_no_wave_leftovers(HybridFramework.reopen(root))

    def test_cut_batch_rolled_forward_under_another_root_spelling(
        self, tmp_path, monkeypatch
    ):
        """The OMS keeps each file's path as the process that checked it
        in spelt the root; a reopen through a relative root still finds
        the cut batch's files named, and never reclaims them."""
        hybrid, library, before, batch = self.two_waves(tmp_path / "env")
        library.metafile.path.write_bytes(before + batch[: len(batch) // 2])
        files = sorted(library.directory.glob("cell[45]/*/v*.dat"))
        monkeypatch.chdir(tmp_path)
        hybrid2 = HybridFramework.reopen(pathlib.Path("env"))
        recovery = hybrid2.recover()
        assert recovery.reclaimed_fmcad_files == []
        assert len(recovery.repaired_payloads) == 5
        assert all(path.exists() for path in files)
        assert hybrid2.audit().clean
        library2 = hybrid2.fmcad.library("chiplib")
        assert all(
            v.properties.get("jcf_oid")
            for cv in library2.cellviews() for v in cv.versions
        )
        assert sum(len(cv.versions) for cv in library2.cellviews()) == 12
