"""Two-phase recovery: intents, compensation, roll-forward/back, audit."""

import pytest

from repro.core.mapping import WORKING_VARIANT
from repro.core.scheduler import RUN_CRASHED, RunRequest
from repro.errors import CouplingError
from repro.faults import CrashFault, FaultPlan, TransientFault, inject
from repro.jcf.model import (
    INTENT_ABORTED,
    INTENT_DONE,
    INTENT_PENDING,
)
from tests.conftest import (
    build_inverter_editor_fn,
    inverter_testbench_fn,
)


def run_schematic(hybrid, project, library, cell):
    return hybrid.run_schematic_entry(
        "alice", project, library, cell, build_inverter_editor_fn()
    )


class TestIntentJournal:
    def test_begin_finish_lifecycle(self, adopted_cell):
        hybrid, project, library, cell = adopted_cell
        journal = hybrid.intents
        oid = journal.begin(
            "schematic_entry", "alice", library.name, cell,
            fmcad_base=[("schematic", 0)],
        )
        (pending,) = journal.pending()
        assert pending.oid == oid
        assert pending.get("state") == INTENT_PENDING
        assert pending.get("fmcad_base") == [["schematic", 0]]
        journal.finish(oid, INTENT_DONE, note="done")
        assert journal.pending() == []
        assert hybrid.jcf.db.get(oid).get("state") == INTENT_DONE

    def test_begin_refuses_open_transaction(self, adopted_cell):
        hybrid, _project, library, cell = adopted_cell
        with hybrid.jcf.db.transaction():
            with pytest.raises(CouplingError, match="outside transactions"):
                hybrid.intents.begin(
                    "schematic_entry", "alice", library.name, cell
                )

    def test_finish_rejects_non_terminal_state(self, adopted_cell):
        hybrid, _project, library, cell = adopted_cell
        oid = hybrid.intents.begin(
            "schematic_entry", "alice", library.name, cell
        )
        with pytest.raises(CouplingError, match="terminal"):
            hybrid.intents.finish(oid, INTENT_PENDING)

    def test_successful_run_settles_intent_done(self, adopted_cell):
        hybrid, project, library, cell = adopted_cell
        result = run_schematic(hybrid, project, library, cell)
        assert result.success
        assert hybrid.intents.pending() == []
        states = [i.get("state") for i in hybrid.intents.all()]
        assert states == [INTENT_DONE]

    def test_failed_run_settles_intent_aborted(self, adopted_cell):
        hybrid, project, library, cell = adopted_cell

        def broken_edit(editor):
            raise RuntimeError("tool died")

        with pytest.raises(RuntimeError):
            hybrid.run_schematic_entry(
                "alice", project, library, cell, broken_edit
            )
        states = [i.get("state") for i in hybrid.intents.all()]
        assert states == [INTENT_ABORTED]


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
        # the wreckage: open session, running execution, pending intent,
        # an FMCAD version with no OMS counterpart (the import aborted)
        assert hybrid.fmcad.sessions() != []
        assert len(hybrid.intents.pending()) == 1
        assert len(library.cellview(cell, "schematic").versions) == 1
        assert not hybrid.audit().clean

        report = hybrid.recover()
        assert report.deleted_fmcad_versions  # rolled back
        assert report.closed_sessions
        assert report.failed_executions
        assert report.aborted_intents and not report.completed_intents
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
        assert report.repaired_tags
        assert not report.deleted_fmcad_versions
        assert report.completed_intents and not report.aborted_intents
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
        assert report.aborted_intents and not report.completed_intents
        assert library.cellview(cell, "schematic").versions == []
        assert hybrid.audit().clean
        assert run_schematic(hybrid, project, library, cell).success

    def test_crash_before_finish_keeps_outputs(self, adopted_cell):
        hybrid, project, library, cell = adopted_cell
        with inject(FaultPlan.crash("run.before_finish")):
            with pytest.raises(CrashFault):
                run_schematic(hybrid, project, library, cell)
        report = hybrid.recover()
        # outputs were durable and tagged: nothing dropped, intent done
        assert not report.deleted_fmcad_versions
        assert report.completed_intents
        assert report.failed_executions  # the derivation record was lost
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
        assert "pending-intent" in categories
        assert "orphan-version" in categories

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
