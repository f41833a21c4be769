"""The parallel coupled-run scheduler: waves, determinism, fault paths."""

from __future__ import annotations

import pytest

from tests.conftest import (
    assert_no_wave_leftovers,
    build_inverter_editor_fn,
    build_wave_environment,
    inverter_testbench_fn,
    schematic_wave,
    simple_layout_fn,
)
from repro.core.scheduler import (
    RUN_BLOCKED,
    RUN_CRASHED,
    RUN_DEFERRED,
    RUN_OK,
    BatchScheduler,
    RunRequest,
)
from repro.errors import EncapsulationError, MetaFileError
from repro.faults import FailStop, FaultPlan, inject


@pytest.fixture
def adopted_cells(hybrid):
    """Four independent cells adopted and reserved by alice.

    Returns (hybrid, project, library, cell_names).
    """
    library = hybrid.fmcad.create_library("chiplib")
    cells = [f"cell{i}" for i in range(4)]
    for cell in cells:
        library.create_cell(cell)
    project = hybrid.adopt_library("alice", library, "chipA")
    hybrid.jcf.resources.assign_team_to_project(
        "admin", "team1", project.oid
    )
    for cell in cells:
        hybrid.prepare_cell("alice", project, cell, team_name="team1")
    return hybrid, project, library, cells


def full_flow_batch(project, library, cells):
    """schematic + simulation + layout per cell, interleaved by activity."""
    requests = []
    for cell in cells:
        requests.append(RunRequest(
            "alice", project, library, cell, "schematic_entry",
            kwargs={"edit_fn": build_inverter_editor_fn(2)},
        ))
        requests.append(RunRequest(
            "alice", project, library, cell, "digital_simulation",
            kwargs={"testbench_fn": inverter_testbench_fn(2)},
        ))
        requests.append(RunRequest(
            "alice", project, library, cell, "layout_entry",
            kwargs={"edit_fn": simple_layout_fn()},
        ))
    return requests


class _FakeLibrary:
    def __init__(self, name):
        self.name = name


def request_stub(library, cell, activity="schematic_entry", reads=()):
    return RunRequest(
        "alice", None, _FakeLibrary(library), cell, activity, reads=reads
    )


class TestGraph:
    def test_unknown_activity_rejected(self):
        with pytest.raises(EncapsulationError):
            request_stub("lib", "a", activity="place_and_route")

    def test_independent_runs_share_one_wave(self):
        requests = [request_stub("lib", f"c{i}") for i in range(5)]
        waves = BatchScheduler.build_waves(requests)
        assert waves == [[0, 1, 2, 3, 4]]

    def test_same_cell_chains_in_batch_order(self):
        requests = [
            request_stub("lib", "c0", "schematic_entry"),
            request_stub("lib", "c0", "digital_simulation"),
            request_stub("lib", "c0", "layout_entry"),
        ]
        waves = BatchScheduler.build_waves(requests)
        assert waves == [[0], [1], [2]]

    def test_same_cell_name_in_other_library_is_independent(self):
        requests = [
            request_stub("libA", "c0"),
            request_stub("libB", "c0"),
        ]
        assert BatchScheduler.build_waves(requests) == [[0, 1]]

    def test_declared_read_serialises_against_writer(self):
        requests = [
            request_stub("lib", "sub"),  # writes sub
            request_stub(
                "lib", "top", "digital_simulation",
                reads=(("lib", "sub"),),  # netlists through sub
            ),
        ]
        assert BatchScheduler.build_waves(requests) == [[0], [1]]

    def test_writer_after_reader_also_serialises(self):
        requests = [
            request_stub("lib", "top", reads=(("lib", "sub"),)),
            request_stub("lib", "sub"),
        ]
        assert BatchScheduler.build_waves(requests) == [[0], [1]]

    def test_levels_are_longest_path(self):
        requests = [
            request_stub("lib", "a"),                  # wave 0
            request_stub("lib", "a"),                  # wave 1 (same cell)
            request_stub("lib", "b"),                  # wave 0
            request_stub("lib", "c", reads=(("lib", "a"),)),  # wave 2
        ]
        assert BatchScheduler.build_waves(requests) == [[0, 2], [1], [3]]


class TestExecution:
    def test_full_flow_batch_runs_clean(self, adopted_cells):
        hybrid, project, library, cells = adopted_cells
        requests = full_flow_batch(project, library, cells)
        result = hybrid.run_many(requests, workers=4, seed=1)
        assert [o.status for o in result.outcomes] == [RUN_OK] * len(requests)
        # three waves: the flow chain of each cell
        assert len(result.waves) == 3
        assert hybrid.audit().clean
        assert result.lock_stats["contentions"] == 0

    def test_parallel_matches_sequential_snapshot(self, tmp_path):
        """workers=4 and workers=1 commit byte-identical OMS state."""
        from repro.core.coupling import HybridFramework

        def arm(workers):
            import shutil

            root = tmp_path / "arm"  # same path: snapshots embed it
            if root.exists():
                shutil.rmtree(root)
            hy = HybridFramework(root)
            hy.jcf.resources.define_user("admin", "alice")
            hy.jcf.resources.define_team("admin", "team1")
            hy.jcf.resources.add_member("admin", "alice", "team1")
            hy.setup_standard_flow()
            library = hy.fmcad.create_library("chiplib")
            cells = [f"cell{i}" for i in range(3)]
            for cell in cells:
                library.create_cell(cell)
            project = hy.adopt_library("alice", library, "chipA")
            hy.jcf.resources.assign_team_to_project(
                "admin", "team1", project.oid
            )
            for cell in cells:
                hy.prepare_cell("alice", project, cell, team_name="team1")
            result = hy.run_many(
                full_flow_batch(project, library, cells),
                workers=workers, seed=3,
            )
            assert all(o.ok for o in result.outcomes)
            return hy.jcf.save_snapshot()

        assert arm(1) == arm(4)

    def test_makespan_below_summed_time(self, adopted_cells):
        hybrid, project, library, cells = adopted_cells
        result = hybrid.run_many(
            full_flow_batch(project, library, cells), workers=4
        )
        assert 0 < result.makespan_ms < result.summed_ms

    def test_group_commit_coalesces(self, adopted_cells):
        hybrid, project, library, cells = adopted_cells
        result = hybrid.run_many(
            full_flow_batch(project, library, cells), workers=4
        )
        stats = result.commit_stats
        assert stats["coalesced_commits"] > 0
        assert stats["flush_count"] < stats["commit_count"]

    def test_empty_batch(self, hybrid):
        result = hybrid.run_many([])
        assert result.outcomes == [] and result.waves == []

    def test_workers_must_be_positive(self, hybrid):
        with pytest.raises(ValueError):
            hybrid.run_many([], workers=0)

    def test_seed_changes_turn_order_not_state(self, adopted_cells):
        hybrid, project, library, cells = adopted_cells
        requests = full_flow_batch(project, library, cells)
        r1 = hybrid.run_many(requests[:4:3], workers=2, seed=0)
        assert all(o.ok for o in r1.outcomes)


class TestFaultPaths:
    def test_crash_blocks_flow_successors_only(self, adopted_cells):
        hybrid, project, library, cells = adopted_cells
        requests = full_flow_batch(project, library, cells)
        # on_hit=2 crashes the wave-0 run with turn index 1: one
        # schematic entry dies, its cell's simulation+layout are blocked
        with inject(FaultPlan.crash("run.before_finish", on_hit=2)):
            result = hybrid.run_many(requests, workers=4, seed=7)
        crashed = result.by_status(RUN_CRASHED)
        blocked = result.by_status(RUN_BLOCKED)
        assert len(crashed) == 1
        assert len(blocked) == 2
        crashed_cell = crashed[0].request.cell_name
        assert all(o.request.cell_name == crashed_cell for o in blocked)
        # every other cell's full flow completed
        assert len(result.by_status(RUN_OK)) == len(requests) - 3

    def test_crash_then_recover_restores_clean_audit(self, adopted_cells):
        hybrid, project, library, cells = adopted_cells
        requests = full_flow_batch(project, library, cells)
        with inject(FaultPlan.crash("run.before_finish", on_hit=2)):
            hybrid.run_many(requests, workers=4, seed=7)
        assert not hybrid.audit().clean
        hybrid.recover()
        assert hybrid.audit().clean
        # recovery is a fixpoint: a second pass repairs nothing
        assert hybrid.recover().empty()

    def test_crash_outcome_is_schedule_deterministic(self, tmp_path):
        """The same seed crashes the same run for any worker count."""
        from repro.core.coupling import HybridFramework

        def arm(workers):
            import shutil

            root = tmp_path / "arm"
            if root.exists():
                shutil.rmtree(root)
            hy = HybridFramework(root)
            hy.jcf.resources.define_user("admin", "alice")
            hy.jcf.resources.define_team("admin", "team1")
            hy.jcf.resources.add_member("admin", "alice", "team1")
            hy.setup_standard_flow()
            library = hy.fmcad.create_library("chiplib")
            cells = [f"cell{i}" for i in range(4)]
            for cell in cells:
                library.create_cell(cell)
            project = hy.adopt_library("alice", library, "chipA")
            hy.jcf.resources.assign_team_to_project(
                "admin", "team1", project.oid
            )
            for cell in cells:
                hy.prepare_cell("alice", project, cell, team_name="team1")
            requests = full_flow_batch(project, library, cells)
            with inject(FaultPlan.crash("run.before_finish", on_hit=3)):
                result = hy.run_many(requests, workers=workers, seed=11)
            return [o.status for o in result.outcomes]

        assert arm(1) == arm(4)

    def test_externally_held_lock_defers_run(self, adopted_cells):
        hybrid, project, library, cells = adopted_cells
        requests = full_flow_batch(project, library, cells[:2])
        key = requests[0].write_key
        with hybrid.jcf.db.locks.acquiring(write=(key,)):
            result = hybrid.run_many(requests, workers=2, seed=0)
        deferred = result.by_status(RUN_DEFERRED)
        blocked = result.by_status(RUN_BLOCKED)
        assert len(deferred) == 1
        assert deferred[0].request.write_key == key
        # the deferred cell's flow successors were skipped, the other
        # cell's flow ran to completion
        assert len(blocked) == 2
        assert len(result.by_status(RUN_OK)) == 3
        # nothing half-ran: the audit is still clean
        assert hybrid.audit().clean

    def test_crashed_run_leaves_sandbox_for_recovery(self, adopted_cells):
        hybrid, project, library, cells = adopted_cells
        # schematic entry first so the simulation crash has staged needs
        hybrid.run_schematic_entry(
            "alice", project, library, cells[0],
            build_inverter_editor_fn(2),
        )
        requests = [RunRequest(
            "alice", project, library, cells[0], "digital_simulation",
            kwargs={"testbench_fn": inverter_testbench_fn(2)},
        )]
        with inject(FaultPlan.crash("run.before_finish")):
            result = hybrid.run_many(requests, workers=1)
        assert result.outcomes[0].status == RUN_CRASHED
        staging_root = hybrid.jcf.staging.root
        # the run staged its needs directly in the root, named after it
        leavings = sorted(
            p.name for p in staging_root.iterdir()
            if p.name.startswith("run_000-")
        )
        assert leavings, "crashed run should leave its staged files"
        assert all((staging_root / name).is_file() for name in leavings)
        orphans = sorted(
            f.detail.rpartition(" ")[2] for f in hybrid.audit().findings
            if f.category == "staging-orphan"
        )
        assert orphans == leavings
        report = hybrid.recover()
        assert sorted(report.reclaimed_staging_files) == leavings, (
            "recovery should reclaim the crashed run's files"
        )
        assert list(staging_root.iterdir()) == []
        assert hybrid.audit().clean

    def test_clean_batch_leaves_no_sandboxes(self, adopted_cells):
        hybrid, project, library, cells = adopted_cells
        staging_root = hybrid.jcf.staging.root
        before = sorted(staging_root.iterdir())
        result = hybrid.run_many(
            full_flow_batch(project, library, cells), workers=4
        )
        assert all(o.ok for o in result.outcomes)
        # simulation and layout staged their needs; every run cleared
        # what it staged and made no directory
        assert hybrid.jcf.staging.accounting()["files_exported"] > 0
        assert sorted(staging_root.iterdir()) == before


class TestInLaneBatches:
    """run_many driven from inside a clock lane (the serving path)."""

    def test_batch_inside_lane_reports_makespan(self, adopted_cells):
        """Regression: in-lane batches used to report makespan 0.0 and
        leak their wave ends into the master clock."""
        hybrid, project, library, cells = adopted_cells
        requests = [
            RunRequest(
                "alice", project, library, cell, "schematic_entry",
                kwargs={"edit_fn": build_inverter_editor_fn(2)},
            )
            for cell in cells[:2]
        ]
        master_before = hybrid.clock._now_ms
        lane = hybrid.clock.open_lane("shard0")
        with hybrid.clock.use_lane(lane):
            result = hybrid.run_many(requests, workers=2)
        assert all(o.ok for o in result.outcomes)
        assert result.makespan_ms > 0.0
        assert lane.now_ms == pytest.approx(lane.start_ms + result.makespan_ms)
        # the master clock is only advanced by an explicit outer fold
        assert hybrid.clock._now_ms == master_before

    def test_consecutive_batches_account_independently(self, adopted_cells):
        hybrid, project, library, cells = adopted_cells
        lane = hybrid.clock.open_lane("shard0")
        makespans = []
        for cell in cells[:2]:
            request = RunRequest(
                "alice", project, library, cell, "schematic_entry",
                kwargs={"edit_fn": build_inverter_editor_fn(2)},
            )
            with hybrid.clock.use_lane(lane):
                result = hybrid.run_many([request], workers=1)
            assert result.outcomes[0].ok
            makespans.append(result.makespan_ms)
        # each batch reports its own critical path, and the lane holds
        # their serial sum — nothing leaked between the two batches
        assert all(m > 0.0 for m in makespans)
        assert lane.elapsed_ms == pytest.approx(sum(makespans))


class TestConcurrentBatches:
    """Two schedulers with distinct commit scopes running at once."""

    def test_scoped_batches_run_concurrently(self, hybrid):
        import threading

        resources = hybrid.jcf.resources
        setups = []
        for t in range(2):
            library = hybrid.fmcad.create_library(f"par{t}")
            cells = [f"p{t}c{i}" for i in range(3)]
            for cell in cells:
                library.create_cell(cell)
            project = hybrid.adopt_library("alice", library, f"parproj{t}")
            resources.assign_team_to_project("admin", "team1", project.oid)
            for cell in cells:
                hybrid.prepare_cell("alice", project, cell, team_name="team1")
            setups.append((project, library, cells))

        results = {}
        def run_batch(index):
            project, library, cells = setups[index]
            requests = [
                RunRequest(
                    "alice", project, library, cell, "schematic_entry",
                    kwargs={"edit_fn": build_inverter_editor_fn(2)},
                )
                for cell in cells
            ]
            scheduler = BatchScheduler(
                hybrid, workers=2,
                commit_scope=f"scope{index}",
                sandbox_prefix=f"t{index}_",
            )
            results[index] = scheduler.run(requests)

        threads = [
            threading.Thread(target=run_batch, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index in range(2):
            assert all(o.ok for o in results[index].outcomes), (
                [str(o.error) for o in results[index].outcomes]
            )
        # both scopes coalesced their own commits
        assert hybrid.jcf.db.coalesced_commits > 0
        assert hybrid.audit().clean

    def test_same_scope_concurrent_groups_still_refused(self, hybrid):
        from repro.errors import TransactionError

        db = hybrid.jcf.db
        with db.group_commit("shared"):
            with pytest.raises(TransactionError):
                with db.group_commit("shared"):
                    pass


@pytest.fixture
def meta_writes(monkeypatch):
    """The library name of every ``.meta`` write, in call order."""
    from repro.fmcad.metafile import MetaFile

    writes = []
    original = MetaFile.flush

    def spy(self, *args):
        writes.append(self.path.parent.name)
        return original(self, *args)

    monkeypatch.setattr(MetaFile, "flush", spy)
    return writes


class TestWaveMeta:
    """Each touched library's ``.meta`` is written once per commit unit."""

    def test_wave_writes_meta_once(self, adopted_cells, meta_writes):
        hybrid, project, library, cells = adopted_cells
        result = hybrid.run_many(
            schematic_wave(project, library, cells), workers=4, seed=2
        )
        assert [o.status for o in result.outcomes] == [RUN_OK] * 4
        assert len(result.waves) == 1
        # 4 runs x (schematic + symbol) = 8 view checkins, one .meta
        assert sum(len(cv.versions) for cv in library.cellviews()) == 8
        assert meta_writes == ["chiplib"]
        assert library.verify_meta() == []
        assert hybrid.audit().clean

    def test_each_wave_of_a_batch_writes_once(
        self, adopted_cells, meta_writes
    ):
        hybrid, project, library, cells = adopted_cells
        result = hybrid.run_many(
            full_flow_batch(project, library, cells[:2]), workers=2
        )
        assert all(o.ok for o in result.outcomes)
        assert meta_writes == ["chiplib"] * len(result.waves)
        assert library.verify_meta() == []

    def test_unscheduled_run_writes_meta_once(
        self, adopted_cells, meta_writes
    ):
        hybrid, project, library, cells = adopted_cells
        result = hybrid.run_schematic_entry(
            "alice", project, library, cells[0], build_inverter_editor_fn(2)
        )
        assert result.success
        views = {cv.view.name for cv in library.cell(cells[0]).cellviews()}
        assert views == {"schematic", "symbol"}
        assert meta_writes == ["chiplib"]
        assert library.verify_meta() == []

    def test_refused_wave_meta_stops_and_logs_nothing(self, tmp_path):
        root = tmp_path / "env"
        hybrid, project, library, cells = build_wave_environment(root)
        wal = hybrid.jcf.wal
        before = wal.stats()["records_appended"]
        assert library.metafile.acquire("bob")  # a designer holds .meta
        with pytest.raises(FailStop) as info:
            hybrid.run_many(schematic_wave(project, library, cells))
        assert isinstance(info.value.__cause__, MetaFileError)
        assert wal.stats()["records_appended"] == before
        library.metafile.release("bob")

        from repro.core.coupling import HybridFramework

        reopened = HybridFramework.reopen(root)
        report = reopened.recover()
        assert report.reclaimed_fmcad_files  # the wave's version files
        reopened_library = reopened.fmcad.library("chiplib")
        assert reopened_library.orphaned_files() == []
        assert all(
            not cv.versions for cv in reopened_library.cellviews()
        )
        assert reopened.audit().clean

    def test_process_goes_on_after_refused_wave(self, tmp_path):
        """Nothing builds on a wave that memory holds and the log lacks.

        The refused wave's runs committed in memory; a later wave, an
        unscheduled run or a checkpoint in the same process would log
        ops that point at them, name them in ``.meta`` or make them
        durable.  All are refused until a reopen and ``recover()``.
        """
        root = tmp_path / "env"
        hybrid, project, library, cells = build_wave_environment(root)
        wal = hybrid.jcf.wal
        before = wal.stats()["records_appended"]
        assert library.metafile.acquire("bob")
        with pytest.raises(FailStop):
            hybrid.run_many(schematic_wave(project, library, cells[:2]))
        library.metafile.release("bob")
        meta_before = library.metafile.path.read_bytes()
        with pytest.raises(FailStop):
            hybrid.run_many(schematic_wave(project, library, cells[2:]))
        with pytest.raises(FailStop):
            hybrid.run_schematic_entry(
                "alice", project, library, cells[2],
                build_inverter_editor_fn(2),
            )
        with pytest.raises(FailStop):
            hybrid.save_state()
        assert wal.stats()["records_appended"] == before
        assert library.metafile.path.read_bytes() == meta_before

        from repro.core.coupling import HybridFramework

        reopened = HybridFramework.reopen(root)
        reopened.recover()
        assert_no_wave_leftovers(reopened)
        reopened_library = reopened.fmcad.library("chiplib")
        reopened_project = reopened.jcf.project("chipA")
        result = reopened.run_many(
            schematic_wave(reopened_project, reopened_library, cells)
        )
        assert [o.status for o in result.outcomes] == [RUN_OK] * 4
        assert_no_wave_leftovers(reopened)

    def test_refused_unscheduled_meta_compensates(self, adopted_cells):
        hybrid, project, library, cells = adopted_cells
        assert library.metafile.acquire("bob")
        with pytest.raises(MetaFileError):
            hybrid.run_schematic_entry(
                "alice", project, library, cells[0],
                build_inverter_editor_fn(2),
            )
        library.metafile.release("bob")
        # the harvest transaction aborted and took its checkins with it
        assert all(
            not cv.versions for cv in library.cell(cells[0]).cellviews()
        )
        assert hybrid.audit().clean

    def test_unlogged_unscheduled_run_retracts_its_meta(
        self, adopted_cells, meta_writes
    ):
        """``.meta`` already names the versions when the WAL refuses.

        An unscheduled run writes ``.meta`` as the last step of its
        harvest transaction; if the transaction's WAL append then fails,
        the transaction aborts and compensation must rewrite ``.meta``
        without the dropped versions.
        """
        hybrid, project, library, cells = adopted_cells
        wal = hybrid.jcf.wal
        flush = library.flush_meta

        def flush_then_fail_the_append(user):
            del library.flush_meta  # the compensation flushes for real
            assert flush(user)
            wal.commit = full_disk
            return True

        def full_disk(ops):
            del wal.commit  # one refused append, then the real method
            raise OSError("no space left on device")

        library.flush_meta = flush_then_fail_the_append
        with pytest.raises(OSError):
            hybrid.run_schematic_entry(
                "alice", project, library, cells[0],
                build_inverter_editor_fn(2),
            )
        # written with the versions, then rewritten without them
        assert meta_writes == ["chiplib", "chiplib"]
        assert all(
            not cv.versions for cv in library.cell(cells[0]).cellviews()
        )
        records, _ = library.metafile.read()
        assert [r for r in records if r.cell == cells[0]] == []
        assert library.verify_meta() == []
        assert hybrid.audit().clean
        # the aborted harvest left memory where the log is
        from repro.core.coupling import HybridFramework
        from repro.oms.snapshot import dump_snapshot

        reopened = HybridFramework.reopen(hybrid.root)
        assert dump_snapshot(reopened.jcf.db) == dump_snapshot(hybrid.jcf.db)


@pytest.fixture
def fsyncs(monkeypatch, hybrid):
    """Every fsync, in call order.

    Each entry is ``(path, scheduled, in_transaction)``: the file's path,
    whether the fsyncing thread was inside a scheduled run (a
    :class:`~repro.core.gates.RunGate` installed) and whether it was
    inside an OMS transaction.
    """
    import os

    from repro.core import gates

    events = []
    real = os.fsync

    def spy(fd):
        events.append((
            os.readlink(f"/proc/self/fd/{fd}"),
            isinstance(gates.current_gate(), gates.RunGate),
            hybrid.jcf.db.in_transaction,
        ))
        real(fd)

    monkeypatch.setattr(os, "fsync", spy)
    return events


class TestVersionFileFsync:
    """A scheduled run fsyncs its version files outside its commit turn."""

    def test_wave_fsyncs_versions_after_runs_before_meta(
        self, adopted_cells, fsyncs
    ):
        hybrid, project, library, cells = adopted_cells
        result = hybrid.run_many(
            schematic_wave(project, library, cells), workers=4, seed=2
        )
        assert [o.status for o in result.outcomes] == [RUN_OK] * 4
        paths = [path for path, _, _ in fsyncs]
        versions = [i for i, path in enumerate(paths) if path.endswith(".dat")]
        # 4 runs x (schematic + symbol), each fsynced once, none of them
        # by a thread still inside its run
        assert len(versions) == 8
        assert not any(fsyncs[i][1] for i in versions)
        meta = min(i for i, path in enumerate(paths) if ".meta" in path)
        assert max(versions) < meta
        assert library.verify_meta() == []
        assert hybrid.audit().clean

    def test_unscheduled_run_fsyncs_inline(self, adopted_cells, fsyncs):
        hybrid, project, library, cells = adopted_cells
        result = hybrid.run_schematic_entry(
            "alice", project, library, cells[0], build_inverter_editor_fn(2)
        )
        assert result.success
        versions = [e for e in fsyncs if e[0].endswith(".dat")]
        assert len(versions) == 2
        # written and fsynced inside the harvest transaction
        assert all(in_txn for _, _, in_txn in versions)

    def test_crashed_run_fsyncs_its_versions(self, adopted_cells, fsyncs):
        """A crashed run's version files may stay named: they are synced."""
        hybrid, project, library, cells = adopted_cells
        with inject(FaultPlan.crash("run.before_finish", on_hit=2)):
            result = hybrid.run_many(
                schematic_wave(project, library, cells), workers=4, seed=2
            )
        assert len(result.by_status(RUN_CRASHED)) == 1
        on_disk = {
            str(path) for path in library.directory.rglob("*.dat")
        }
        synced = {path for path, scheduled, _ in fsyncs
                  if path.endswith(".dat") and not scheduled}
        assert len(on_disk) == 8
        assert on_disk <= synced

    def test_failed_version_fsync_stops_the_wave(
        self, tmp_path, monkeypatch
    ):
        import errno
        import os

        from repro.core.coupling import HybridFramework

        root = tmp_path / "env"
        hybrid, project, library, cells = build_wave_environment(root)
        wal = hybrid.jcf.wal
        before = wal.stats()["records_appended"]
        meta_before = library.metafile.path.read_bytes()
        real = os.fsync

        def failing(fd):
            if os.readlink(f"/proc/self/fd/{fd}").endswith(".dat"):
                raise OSError(errno.EIO, "input/output error")
            real(fd)

        monkeypatch.setattr(os, "fsync", failing)
        try:
            with pytest.raises(FailStop) as info:
                hybrid.run_many(schematic_wave(project, library, cells))
        finally:
            monkeypatch.undo()
        assert isinstance(info.value.__cause__, OSError)
        # no .meta names the undurable files, no record logs the wave
        assert library.metafile.path.read_bytes() == meta_before
        assert wal.stats()["records_appended"] == before
        assert hybrid.jcf.db.stopped is not None

        reopened = HybridFramework.reopen(root)
        reopened.recover()
        assert_no_wave_leftovers(reopened)
        assert all(
            not cv.versions
            for cv in reopened.fmcad.library("chiplib").cellviews()
        )
