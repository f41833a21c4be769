"""Recovery: compensation, roll-forward/back of running runs, audit."""

import pytest

from repro.core.coupling import HybridFramework
from repro.core.mapping import WORKING_VARIANT
from repro.core.scheduler import RUN_CRASHED, RUN_OK, RunRequest
from repro.errors import CouplingError
from repro.faults import CrashFault, FaultPlan, TransientFault, inject
from repro.jcf.model import EXEC_DONE, EXEC_FAILED, EXEC_RUNNING
from repro.jcf.model import FLOW_RUNNING
from repro.server.leases import LeaseTable
from repro.tools.schematic.model import Component, Schematic
from tests.conftest import (
    build_inverter_editor_fn,
    build_wave_environment,
    inverter_testbench_fn,
    schematic_wave,
)


def run_schematic(hybrid, project, library, cell):
    return hybrid.run_schematic_entry(
        "alice", project, library, cell, build_inverter_editor_fn()
    )


def execution_states(hybrid):
    return [
        obj.get("status")
        for obj in hybrid.jcf.db.select("ActiveExecVersion")
    ]


def version_state(hybrid, library):
    """``{cellview: [(number, tag is live), ...]}`` over *library*."""
    return {
        cellview.name: [
            (
                version.number,
                hybrid.jcf.db.exists(version.properties.get("jcf_oid") or ""),
            )
            for version in cellview.versions
        ]
        for cellview in library.cellviews()
    }


class TestRunOutcome:
    def test_successful_run_leaves_nothing_in_flight(self, adopted_cell):
        hybrid, project, library, cell = adopted_cell
        result = run_schematic(hybrid, project, library, cell)
        assert result.success
        assert execution_states(hybrid) == [EXEC_DONE]
        assert hybrid.fmcad.sessions() == []
        assert hybrid.audit().clean
        assert hybrid.recover().empty()

    def test_failed_run_fails_execution_and_closes_session(
        self, adopted_cell
    ):
        hybrid, project, library, cell = adopted_cell

        def broken_edit(editor):
            raise RuntimeError("tool died")

        with pytest.raises(RuntimeError):
            hybrid.run_schematic_entry(
                "alice", project, library, cell, broken_edit
            )
        assert execution_states(hybrid) == [EXEC_FAILED]
        assert hybrid.fmcad.sessions() == []
        assert hybrid.fmcad.checkouts.active_tickets() == []
        assert version_state(hybrid, library) == {}
        assert hybrid.audit().clean
        assert hybrid.recover().empty()


class TestTicketLeakRegression:
    """A checkin failure must cancel the ticket, not leak it open."""

    def test_checkin_failure_cancels_ticket_and_drops_version(
        self, adopted_cell
    ):
        hybrid, project, library, cell = adopted_cell
        # a transient at checkout.after_checkin dies after the version
        # file is written but before the ticket closes — the worst spot
        plan = FaultPlan.transient("checkout.after_checkin", times=5)
        with inject(plan):
            with pytest.raises(TransientFault):
                run_schematic(hybrid, project, library, cell)
        assert hybrid.fmcad.checkouts.active_tickets() == []
        # the half-landed version was dropped with the ticket
        assert library.cellview(cell, "schematic").versions == []
        # and the environment is clean enough to rerun immediately
        assert run_schematic(hybrid, project, library, cell).success
        assert hybrid.audit().clean

    def test_failure_after_checkin_compensates_closed_ticket_version(
        self, adopted_cell
    ):
        hybrid, project, library, cell = adopted_cell
        plan = FaultPlan.transient("harvest.after_checkin", times=5)
        with inject(plan):
            with pytest.raises(TransientFault):
                run_schematic(hybrid, project, library, cell)
        assert hybrid.fmcad.checkouts.active_tickets() == []
        assert library.cellview(cell, "schematic").versions == []
        assert hybrid.audit().clean


class TestMultiViewCompensation:
    """Satellite: all views of one run land in one OMS transaction."""

    def test_second_view_failure_rolls_back_first_view(self, adopted_cell):
        hybrid, project, library, cell = adopted_cell
        # schematic entry emits schematic then symbol; fail the symbol's
        # checkin (hit 2) after the schematic's (hit 1) succeeded
        plan = FaultPlan.transient(
            "harvest.after_checkin", on_hit=2, times=5
        )
        with inject(plan):
            with pytest.raises(TransientFault):
                run_schematic(hybrid, project, library, cell)
        # neither view survived: FMCAD checkins compensated, OMS rolled back
        assert library.cellview(cell, "schematic").versions == []
        assert library.cellview(cell, "symbol").versions == []
        variant = (
            project.cell(cell).latest_version().variant(WORKING_VARIANT)
        )
        for dobj in variant.design_objects():
            assert dobj.latest_version() is None
        assert hybrid.audit().clean
        assert run_schematic(hybrid, project, library, cell).success


class TestRollback:
    def test_crash_mid_harvest_rolls_back_fmcad_version(self, adopted_cell):
        hybrid, project, library, cell = adopted_cell
        with inject(FaultPlan.crash("harvest.after_checkin")) as plan:
            with pytest.raises(CrashFault):
                run_schematic(hybrid, project, library, cell)
        assert plan.crash_fired
        # the wreckage: open session, running execution, an FMCAD
        # version with no OMS counterpart (the import aborted)
        assert hybrid.fmcad.sessions() != []
        assert execution_states(hybrid) == [EXEC_RUNNING]
        assert len(library.cellview(cell, "schematic").versions) == 1
        assert not hybrid.audit().clean

        report = hybrid.recover()
        assert report.deleted_fmcad_versions == [
            f"{library.name}:{cell}/schematic v1"
        ]
        assert report.repaired_tags == []
        assert len(report.closed_sessions) == 1
        assert hybrid.fmcad.sessions() == []
        assert len(report.failed_executions) == 1
        assert execution_states(hybrid) == [EXEC_FAILED]
        assert library.cellview(cell, "schematic").versions == []
        assert hybrid.audit().clean
        # the flow is runnable again after recovery
        assert run_schematic(hybrid, project, library, cell).success

    def test_crash_with_ticket_open_cancels_and_rolls_back(
        self, adopted_cell
    ):
        hybrid, project, library, cell = adopted_cell
        # checkout.after_checkin dies after the version file is written
        # but before the ticket closes: the worst of both worlds
        with inject(FaultPlan.crash("checkout.after_checkin")):
            with pytest.raises(CrashFault):
                run_schematic(hybrid, project, library, cell)
        assert hybrid.fmcad.checkouts.active_tickets() != []
        report = hybrid.recover()
        assert report.cancelled_tickets
        assert report.deleted_fmcad_versions
        assert hybrid.fmcad.checkouts.active_tickets() == []
        assert library.cellview(cell, "schematic").versions == []
        assert hybrid.audit().clean
        assert run_schematic(hybrid, project, library, cell).success

    def test_crash_holding_ticket_only(self, adopted_cell):
        hybrid, project, library, cell = adopted_cell
        with inject(FaultPlan.crash("harvest.after_checkout")):
            with pytest.raises(CrashFault):
                run_schematic(hybrid, project, library, cell)
        assert hybrid.fmcad.checkouts.active_tickets() != []
        report = hybrid.recover()
        assert report.cancelled_tickets
        assert not report.deleted_fmcad_versions  # nothing was written
        assert hybrid.audit().clean
        assert run_schematic(hybrid, project, library, cell).success


class TestRollForward:
    def test_crash_before_tag_repairs_cross_tag(self, adopted_cell):
        """A scheduled run commits into its wave, then dies untagged."""
        hybrid, project, library, cell = adopted_cell
        request = RunRequest(
            "alice", project, library, cell, "schematic_entry",
            kwargs={"edit_fn": build_inverter_editor_fn()},
        )
        with inject(FaultPlan.crash("harvest.before_tag")):
            result = hybrid.run_many([request])
        assert result.outcomes[0].status == RUN_CRASHED
        # the wave logged both sides and wrote its .meta; only the
        # cross-tags are missing
        cellview = library.cellview(cell, "schematic")
        assert len(cellview.versions) == 1
        assert cellview.versions[0].properties.get("jcf_oid") is None

        report = hybrid.recover()
        # both views (schematic and symbol) get their tags back
        assert len(report.repaired_tags) == 2
        assert not report.deleted_fmcad_versions
        assert execution_states(hybrid) == [EXEC_FAILED]
        tag = cellview.versions[0].properties.get("jcf_oid")
        assert tag is not None and hybrid.jcf.db.exists(tag)
        assert hybrid.audit().clean

    def test_unscheduled_crash_before_tag_rolls_back(self, adopted_cell):
        """Unscheduled, the tags precede the run's .meta and commit."""
        hybrid, project, library, cell = adopted_cell
        with inject(FaultPlan.crash("harvest.before_tag")):
            with pytest.raises(CrashFault):
                run_schematic(hybrid, project, library, cell)
        assert not library.meta_names(
            library.cellview(cell, "schematic").versions[0]
        )
        report = hybrid.recover()
        assert report.deleted_fmcad_versions
        assert report.repaired_tags == []
        assert library.cellview(cell, "schematic").versions == []
        assert hybrid.audit().clean
        assert run_schematic(hybrid, project, library, cell).success

    def test_crash_before_finish_keeps_outputs(self, adopted_cell):
        hybrid, project, library, cell = adopted_cell
        with inject(FaultPlan.crash("run.before_finish")):
            with pytest.raises(CrashFault):
                run_schematic(hybrid, project, library, cell)
        report = hybrid.recover()
        # outputs were durable and tagged: nothing dropped or retagged
        assert not report.deleted_fmcad_versions
        assert report.repaired_tags == []
        assert report.failed_executions  # the derivation record was lost
        assert len(report.closed_sessions) == 1
        assert len(library.cellview(cell, "schematic").versions) == 1
        assert hybrid.audit().clean


class TestRecoveryIdempotence:
    def crash_and_recover(self, hybrid, project, library, cell, point):
        with inject(FaultPlan.crash(point)):
            with pytest.raises(CrashFault):
                run_schematic(hybrid, project, library, cell)
        return hybrid.recover()

    @pytest.mark.parametrize(
        "point", ["harvest.after_checkin", "harvest.before_tag"]
    )
    def test_second_recovery_is_noop(self, adopted_cell, point):
        hybrid, project, library, cell = adopted_cell
        first = self.crash_and_recover(hybrid, project, library, cell, point)
        assert not first.empty()
        assert hybrid.audit().clean
        before = hybrid.jcf.save_snapshot()
        second = hybrid.recover()
        assert second.empty()
        assert hybrid.jcf.save_snapshot() == before
        assert hybrid.audit().clean

    def test_recovery_on_healthy_store_is_noop(self, adopted_cell):
        hybrid, project, library, cell = adopted_cell
        assert run_schematic(hybrid, project, library, cell).success
        before = hybrid.jcf.save_snapshot()
        report = hybrid.recover()
        assert report.empty()
        assert hybrid.jcf.save_snapshot() == before
        assert hybrid.audit().clean

    def test_recovery_refuses_open_transaction(self, adopted_cell):
        hybrid, _project, _library, _cell = adopted_cell
        with hybrid.jcf.db.transaction():
            with pytest.raises(CouplingError, match="transaction"):
                hybrid.recover()


class TestReservationSweep:
    def test_orphan_reservation_released(self, adopted_cell):
        hybrid, project, library, cell = adopted_cell
        cell_version = project.cell(cell).latest_version()
        # bypass the workspace protocol: publish directly, leaving the
        # 'reserves' link dangling on a published version
        cell_version.publish()
        assert not hybrid.audit().clean
        report = hybrid.recover()
        assert report.released_reservations
        assert hybrid.audit().clean
        assert hybrid.recover().empty()


class TestStagingSweep:
    def test_crashed_staging_write_reclaimed(self, adopted_cell):
        hybrid, project, library, cell = adopted_cell
        assert run_schematic(hybrid, project, library, cell).success
        # a crash in the staging.write window leaves the file on disk
        # but unrecorded
        hybrid.jcf.staging.clear()
        with inject(FaultPlan.crash("staging.write")):
            with pytest.raises(CrashFault):
                hybrid.run_simulation(
                    "alice", project, library, cell,
                    inverter_testbench_fn(),
                )
        orphans = hybrid.jcf.staging.orphan_files()
        assert orphans
        report = hybrid.recover()
        assert report.reclaimed_staging_files
        assert hybrid.jcf.staging.orphan_files() == []
        assert hybrid.audit().clean


class TestAuditDetection:
    def test_audit_names_each_category_of_wreckage(self, adopted_cell):
        hybrid, project, library, cell = adopted_cell
        with inject(FaultPlan.crash("checkout.after_checkin")):
            with pytest.raises(CrashFault):
                run_schematic(hybrid, project, library, cell)
        categories = set(hybrid.audit().by_category())
        assert "dangling-ticket" in categories
        assert "leaked-session" in categories
        assert "stale-execution" in categories
        assert "orphan-version" in categories

    def test_recovery_repairs_each_item_the_audit_lists(self, tmp_path):
        """One repair per audit finding, in every repairable category."""
        hybrid, project, library, cells = build_wave_environment(
            tmp_path / "env", 3
        )
        # a lost tag: an acked version's jcf_oid removed and flushed
        assert run_schematic(hybrid, project, library, cells[1]).success
        acked = library.cellview(cells[1], "schematic").versions[-1]
        acked.properties.delete("jcf_oid")
        library.flush_meta("alice")
        # an unrecorded version file no OMS version names
        stray = library.directory / cells[1] / "schematic" / "v0009.dat"
        stray.write_bytes(b"stray")
        # ticket, session, execution and version: a run dies holding
        # its ticket, after its version file
        with inject(FaultPlan.crash("checkout.after_checkin")):
            with pytest.raises(CrashFault):
                run_schematic(hybrid, project, library, cells[0])
        # reservation: published behind the workspace protocol's back
        project.cell(cells[1]).latest_version().publish()
        # flow: an instance whose driver died
        instance = hybrid.flows_orchestrator.start(
            user="alice", project=project, cell_name=cells[2],
            flow_name="jcf_fmcad_flow", script="inverter_flow",
            library_name="chiplib", team="team1",
        )
        hybrid.jcf.db.set_attr(instance.oid, "status", FLOW_RUNNING)
        # staging file: written, never recorded
        (hybrid.jcf.staging.root / "stray.dat").write_bytes(b"stray")
        # lease: expired, never reclaimed
        leases = LeaseTable(ttl_ms=100.0, now_fn=lambda: 500.0)
        leases.acquire("s1", "alice", "chiplib", cells[2], now_ms=0.0)
        hybrid.jcf.db.lease_table = leases
        # WAL: a torn tail
        with open(hybrid.jcf.wal.log_path, "ab") as handle:
            handle.write(b"half a record")

        repairs_of = {
            "dangling-ticket": ["cancelled_tickets"],
            "leaked-session": ["closed_sessions"],
            "stale-execution": ["failed_executions"],
            "orphan-version": ["deleted_fmcad_versions", "repaired_tags"],
            "orphan-reservation": ["released_reservations"],
            "flow-orphan": ["adopted_flows", "compensated_flows"],
            "staging-orphan": ["reclaimed_staging_files"],
            "stale-lease": ["reclaimed_leases"],
            "wal-integrity": ["wal_repairs"],
            "fmcad-orphan": ["reclaimed_fmcad_files"],
        }
        audit = hybrid.audit()
        listed = {
            category: len(findings)
            for category, findings in audit.by_category().items()
        }
        # the crashed run's version and the lost tag
        assert listed == {
            **dict.fromkeys(repairs_of, 1), "orphan-version": 2
        }, audit.render()
        report = hybrid.recover()
        # the lost tag is given back, the crashed run's version dropped
        assert len(report.repaired_tags) == 1
        assert acked.properties.get("jcf_oid") is not None
        assert {
            category: sum(len(getattr(report, name)) for name in names)
            for category, names in repairs_of.items()
        } == listed, report.summary()
        assert sum(
            len(items) for items in vars(report).values()
        ) == len(audit.findings)
        after = hybrid.audit()
        assert after.clean, after.render()
        assert hybrid.recover().empty()

    def test_audit_render_mentions_counts(self, adopted_cell):
        hybrid, project, library, cell = adopted_cell
        assert hybrid.audit().render() == "audit: clean"
        with inject(FaultPlan.crash("checkout.after_checkin")):
            with pytest.raises(CrashFault):
                run_schematic(hybrid, project, library, cell)
        text = hybrid.audit().render()
        assert "finding(s)" in text
        assert "dangling-ticket" in text

    def test_recovery_republishes_faithful_meta(self, adopted_cell):
        hybrid, project, library, cell = adopted_cell
        with inject(FaultPlan.crash("harvest.after_checkin")):
            with pytest.raises(CrashFault):
                run_schematic(hybrid, project, library, cell)
        hybrid.recover()
        # the dropped version is gone from .meta too — recovery reflushed
        assert library.verify_meta() == []


def adopted_at(root):
    """The ``adopted_cell`` set-up at *root*, with ``.meta`` flushed so a
    reopen finds the cell."""
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
    library.flush_meta("setup")
    return hybrid, project, library, "inv2"


class TestRecoveryAfterReopen:
    """A restarted process settles a crashed run as the crashed one would.

    The reopened library knows only what ``.meta`` names.  A run that
    died before its ``.meta`` flush left a version file no record names,
    so recovery reclaims the file where the same process would drop the
    version; either way the same versions survive with the same tags.
    """

    @pytest.mark.parametrize("point", [
        "checkout.after_checkin",
        "harvest.after_checkin",
        "harvest.before_tag",
        "run.before_finish",
    ])
    def test_reopen_matches_same_process(self, tmp_path, point):
        outcomes = []
        for reopen in (False, True):
            root = tmp_path / f"reopen-{reopen}"
            hybrid, project, library, cell = adopted_at(root)
            with inject(FaultPlan.crash(point)):
                with pytest.raises(CrashFault):
                    run_schematic(hybrid, project, library, cell)
            if reopen:
                hybrid = HybridFramework.reopen(root)
                library = hybrid.fmcad.library("chiplib")
            report = hybrid.recover()
            audit = hybrid.audit()
            assert audit.clean, audit.render()
            assert hybrid.recover().empty()
            assert execution_states(hybrid) == [EXEC_FAILED]
            assert hybrid.fmcad.sessions() == []
            outcomes.append((
                {
                    view: kept
                    for view, kept in version_state(hybrid, library).items()
                    if kept
                },
                len(report.deleted_fmcad_versions)
                + len(report.reclaimed_fmcad_files),
                report.repaired_tags,
            ))
        assert outcomes[0] == outcomes[1]

    def test_scheduled_run_retagged_after_reopen(self, tmp_path):
        """The wave logged both sides; only the dead run's tags are gone."""
        root = tmp_path / "env"
        hybrid, project, library, cells = build_wave_environment(root, 1)
        with inject(FaultPlan.crash("harvest.before_tag")):
            result = hybrid.run_many(schematic_wave(project, library, cells))
        assert result.outcomes[0].status == RUN_CRASHED
        hybrid = HybridFramework.reopen(root)
        library = hybrid.fmcad.library("chiplib")
        report = hybrid.recover()
        assert len(report.repaired_tags) == 2
        assert report.deleted_fmcad_versions == []
        assert version_state(hybrid, library) == {
            f"{cells[0]}/schematic": [(1, True)],
            f"{cells[0]}/symbol": [(1, True)],
        }
        assert hybrid.audit().clean
        assert hybrid.recover().empty()


class TestScheduledRunDeath:
    @pytest.mark.parametrize("reopen", [False, True])
    def test_dead_run_version_named_by_wave_meta_is_dropped(
        self, tmp_path, reopen
    ):
        root = tmp_path / "env"
        hybrid, project, library, cells = build_wave_environment(root, 2)
        with inject(FaultPlan.crash("harvest.after_checkin")):
            result = hybrid.run_many(schematic_wave(project, library, cells))
        statuses = sorted(outcome.status for outcome in result.outcomes)
        assert statuses == sorted([RUN_CRASHED, RUN_OK])
        (dead,) = [
            outcome.index for outcome in result.outcomes
            if outcome.status == RUN_CRASHED
        ]
        dead_cell = cells[dead]
        (version,) = library.cellview(dead_cell, "schematic").versions
        # the wave's .meta names the dead run's version, untagged
        assert library.meta_names(version)
        assert version.properties.get("jcf_oid") is None
        if reopen:
            hybrid = HybridFramework.reopen(root)
            library = hybrid.fmcad.library("chiplib")
        report = hybrid.recover()
        assert report.deleted_fmcad_versions == [
            f"chiplib:{dead_cell}/schematic v1"
        ]
        assert report.repaired_tags == []
        assert library.cellview(dead_cell, "schematic").versions == []
        (live_cell,) = [cell for cell in cells if cell != dead_cell]
        assert version_state(hybrid, library)[f"{live_cell}/schematic"] == [
            (1, True)
        ]
        assert hybrid.audit().clean
        assert hybrid.recover().empty()


class TestRecoveryScope:
    def test_untagged_version_outside_running_cells_left_alone(
        self, adopted_cell
    ):
        hybrid, project, library, cell = adopted_cell
        # written through FMCAD directly, in a cell no run touches
        library.create_cell("buf1")
        cellview = library.create_cellview("buf1", "schematic")
        library.write_version(cellview, b"hand-drawn", author="bob")
        library.flush_meta("bob")
        with inject(FaultPlan.crash("harvest.after_checkin")):
            with pytest.raises(CrashFault):
                run_schematic(hybrid, project, library, cell)
        report = hybrid.recover()
        assert report.deleted_fmcad_versions == [
            f"{library.name}:{cell}/schematic v1"
        ]
        (version,) = library.cellview("buf1", "schematic").versions
        assert version.properties.get("jcf_oid") is None
        assert version.read_data() == b"hand-drawn"
        findings = hybrid.audit().by_category()
        assert list(findings) == ["orphan-version"]
        assert "buf1/schematic v1" in findings["orphan-version"][0].detail

    @pytest.mark.parametrize("reopen", [False, True])
    @pytest.mark.parametrize("point", [
        "run.after_start",
        "harvest.after_checkin",
    ])
    def test_untagged_versions_predating_the_run_left_alone(
        self, tmp_path, point, reopen
    ):
        """A crashed run's cell is settled only above where the run began."""
        root = tmp_path / "env"
        hybrid, project, library, cell = adopted_at(root)
        run_schematic(hybrid, project, library, cell)
        # written through FMCAD directly, in the run's cell: a new head
        # of a view the run writes, and a view the run never touches
        rogue = Schematic(cell)
        rogue.add_port("a", "in")
        rogue.add_port("y", "out")
        rogue.add_component(Component("g", "NOT", ninputs=1))
        rogue.connect("a", "g", "in0")
        rogue.connect("y", "g", "out")
        library.write_version(
            library.cellview(cell, "schematic"), rogue.to_bytes(),
            author="mallory",
        )
        layout = library.create_cellview(cell, "layout")
        library.write_version(layout, b"hand-drawn", author="mallory")
        library.flush_meta("mallory")
        with inject(FaultPlan.crash(point)):
            with pytest.raises(CrashFault):
                hybrid.run_schematic_entry(
                    "alice", project, library, cell,
                    lambda editor: None,  # saves the head as it is
                )
        if reopen:
            hybrid = HybridFramework.reopen(root)
            library = hybrid.fmcad.library("chiplib")
        report = hybrid.recover()
        crashed_late = point == "harvest.after_checkin"
        # the run's own v3: a dropped version in the same process, a
        # file no .meta names after a reopen
        assert report.deleted_fmcad_versions == (
            [f"chiplib:{cell}/schematic v3"]
            if crashed_late and not reopen
            else []
        )
        assert len(report.reclaimed_fmcad_files) == (
            1 if crashed_late and reopen else 0
        )
        assert report.repaired_tags == []
        assert execution_states(hybrid) == [EXEC_DONE, EXEC_FAILED]
        assert version_state(hybrid, library) == {
            f"{cell}/schematic": [(1, True), (2, False)],
            f"{cell}/symbol": [(1, True)],
            f"{cell}/layout": [(1, False)],
        }
        assert library.read_version(
            library.cellview(cell, "schematic")
        ) == rogue.to_bytes()
        assert library.read_version(
            library.cellview(cell, "layout")
        ) == b"hand-drawn"
        findings = hybrid.audit().by_category()
        assert list(findings) == ["orphan-version"]
        details = sorted(
            finding.detail for finding in findings["orphan-version"]
        )
        assert len(details) == 2
        assert f"{cell}/layout v1" in details[0]
        assert f"{cell}/schematic v2" in details[1]
        assert hybrid.recover().empty()
