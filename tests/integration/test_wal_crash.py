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
before its WAL record.
"""

import pytest

from repro.core.coupling import HybridFramework
from repro.core.scheduler import RunRequest
from repro.faults import CrashFault, FaultPlan, inject
from repro.oms.snapshot import dump_snapshot
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
    @pytest.mark.parametrize("on_hit", [1, 2, 4, 7])
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
        # the dead wave's version files and tagged sidecars are on disk,
        # named by no .meta record
        assert len(library.orphaned_files()) == 8
        # a checkin that lands on a dead run's version number starts
        # from nothing: it must not load the leftover sidecar's tag
        cellview = library.create_cellview("cell0", "schematic")
        fresh = library.write_version(cellview, b"fresh bytes", "alice")
        assert fresh.number == 1
        assert fresh.properties.get("jcf_oid") is None
        assert library.read_version(cellview) == b"fresh bytes"
        library.drop_version(cellview, 1)

        report = hybrid.recover()
        assert len(report.reclaimed_fmcad_files) == 14
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
