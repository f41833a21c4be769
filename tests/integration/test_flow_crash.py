"""Integration: crash a durable flow at every ``flow.*`` window, restart.

The flow extension of the crash matrix: the standard three-activity
flow runs as a persisted :class:`FlowInstance` with a deterministic
crash scheduled at the ``flow.persist`` / ``flow.resume`` /
``flow.trigger`` fault points (plus the pre-existing ``run.*`` and
``harvest.*`` points mid-activity), the process is "restarted"
(``HybridFramework.reopen`` on the same root), recovery adopts the
in-flight instance, and ``resume_pending()`` rolls it forward.  The
resumed run's design output must be byte-identical to an uncrashed
control run; a second ``recover()`` must change nothing (fixpoint).
Flows drained by the flow queue run as scheduler waves, so they also
crash at ``wave.before_meta``: after a wave's version files, before its
one ``.meta`` write.
"""

import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.coupling import HybridFramework
from repro.faults import CrashFault, FaultPlan, inject
from repro.jcf.model import FLOW_DONE, FLOW_QUEUED
from repro.oms.snapshot import dump_snapshot
from tests.conftest import assert_no_wave_leftovers, die_in_child


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


def start_flow(hybrid):
    project = hybrid.jcf.project("chipA")
    return hybrid.flows_orchestrator.start(
        user="alice",
        project=project,
        cell_name="inv2",
        flow_name="jcf_fmcad_flow",
        script="inverter_flow",
        library_name="chiplib",
        team="team1",
    )


def run_flow(hybrid):
    """Start (or adopt) the standard flow instance and drive it home.

    Idempotent on purpose: after a crash + recovery the persisted
    instance is simply resumed, mirroring what an operator (or the
    ``flows resume`` CLI) does.
    """
    library = hybrid.fmcad.library("chiplib")
    if not library.has_cell("inv2"):
        # a crash before the first checkin leaves the empty cell out of
        # .meta (versions never flushed are invisible after reopening —
        # faithfully); re-creating it is part of the idempotent setup
        library.create_cell("inv2")
    orchestrator = hybrid.flows_orchestrator
    pending = [i for i in orchestrator.instances() if not i.terminal]
    if pending:
        return orchestrator.resume_pending()
    instance = start_flow(hybrid)
    return [(instance.oid, orchestrator.run(instance))]


def restart_recover(root):
    """What an operator does after a crash: reopen, repair, re-audit."""
    hybrid = HybridFramework.reopen(root)
    hybrid.recover()
    return hybrid


def design_bytes(hybrid):
    """Every checked-in view version of the cell, by viewtype."""
    library = hybrid.fmcad.library("chiplib")
    cell = library.cell("inv2")
    data = {}
    for viewtype in ("schematic", "symbol", "simulation", "layout"):
        if cell.has_cellview(viewtype):
            view = cell.cellview(viewtype)
            if view.default_version is not None:
                data[viewtype] = library.read_version(view)
    return data


def control_bytes(tmp_path):
    """The design bytes an uncrashed run of the same flow produces."""
    hybrid = build_environment(tmp_path / "control")
    results = run_flow(hybrid)
    assert [state for _, state in results] == [FLOW_DONE]
    return design_bytes(hybrid)


class TestFlowPersistCrashes:
    # a full run commits six flow.persist transitions: start, mark
    # running, one attempt record per activity, and the final mark
    @pytest.mark.parametrize("on_hit", [1, 2, 3, 4, 5, 6])
    def test_crash_at_each_persist_window(self, tmp_path, on_hit):
        control = control_bytes(tmp_path)
        root = tmp_path / "env"
        hybrid = build_environment(root)
        plan = FaultPlan.crash("flow.persist", on_hit=on_hit)
        with inject(plan):
            with pytest.raises(CrashFault):
                run_flow(hybrid)
        assert plan.crash_fired, "flow never reached that transition"

        hybrid2 = restart_recover(root)
        audit = hybrid2.audit()
        assert audit.clean, audit.render()
        results = run_flow(hybrid2)
        assert all(state == FLOW_DONE for _, state in results)
        assert design_bytes(hybrid2) == control
        assert hybrid2.audit().clean

    def test_lost_start_is_lost_whole(self, tmp_path):
        """An instance whose creating commit never landed vanishes."""
        root = tmp_path / "env"
        hybrid = build_environment(root)
        plan = FaultPlan.crash("flow.persist", on_hit=1)
        with inject(plan):
            with pytest.raises(CrashFault):
                start_flow(hybrid)
        hybrid2 = restart_recover(root)
        assert hybrid2.flows_orchestrator.instances() == []


class TestMidActivityCrashes:
    @pytest.mark.parametrize(
        "point,on_hit",
        [
            ("run.after_start", 1),
            ("run.after_start", 2),
            ("run.before_finish", 1),
            ("run.before_finish", 3),
            ("harvest.after_checkout", 1),
            ("harvest.after_checkout", 2),
            ("harvest.after_checkin", 1),
            ("harvest.after_checkin", 2),
            ("harvest.before_import", 1),
            ("harvest.after_import", 2),
            ("harvest.before_tag", 1),
            ("harvest.before_tag", 3),
        ],
    )
    def test_crash_inside_an_activity_resumes_identically(
        self, tmp_path, point, on_hit
    ):
        """Recovery adopts the running instance back to queued and the
        resumed flow re-runs the torn activity idempotently."""
        control = control_bytes(tmp_path)
        root = tmp_path / "env"
        hybrid = build_environment(root)
        plan = FaultPlan.crash(point, on_hit=on_hit)
        with inject(plan):
            with pytest.raises(CrashFault):
                run_flow(hybrid)
        assert plan.crash_fired, "flow never reached that window"

        hybrid2 = restart_recover(root)
        instances = hybrid2.flows_orchestrator.instances()
        assert [i.status for i in instances] == [FLOW_QUEUED]
        results = run_flow(hybrid2)
        assert all(state == FLOW_DONE for _, state in results)
        assert design_bytes(hybrid2) == control
        assert hybrid2.audit().clean


class TestQueuedWaveCrashes:
    # the queue runs the one flow's activities as three one-run waves
    @pytest.mark.parametrize("on_hit", [1, 2, 3])
    def test_crash_before_a_wave_meta_resumes_identically(
        self, tmp_path, on_hit
    ):
        control = control_bytes(tmp_path)
        root = tmp_path / "env"
        hybrid = build_environment(root)
        start_flow(hybrid)
        plan = FaultPlan.crash("wave.before_meta", on_hit=on_hit)
        with inject(plan):
            with pytest.raises(CrashFault):
                hybrid.flow_queue.drain(workers=2)
        assert plan.crash_fired

        hybrid2 = restart_recover(root)
        instances = hybrid2.flows_orchestrator.instances()
        assert [i.status for i in instances] == [FLOW_QUEUED]
        assert_no_wave_leftovers(hybrid2)
        hybrid2.flow_queue.drain(workers=2)
        instances = hybrid2.flows_orchestrator.instances()
        assert [i.status for i in instances] == [FLOW_DONE]
        assert design_bytes(hybrid2) == control
        assert_no_wave_leftovers(hybrid2)

    @pytest.mark.parametrize("on_hit", [1, 3])
    def test_process_exit_before_a_wave_meta_resumes_identically(
        self, tmp_path, on_hit
    ):
        """The same window, hit by a real ``os._exit`` in a child."""
        control = control_bytes(tmp_path)
        root = tmp_path / "env"
        die_in_child(root, "wave.before_meta", """
            from tests.integration.test_flow_crash import (
                build_environment, start_flow,
            )
            hybrid = build_environment(root)
            start_flow(hybrid)
            arm()
            hybrid.flow_queue.drain(workers=2)
        """, on_hit=on_hit)

        hybrid = restart_recover(root)
        assert_no_wave_leftovers(hybrid)
        hybrid.flow_queue.drain(workers=2)
        instances = hybrid.flows_orchestrator.instances()
        assert [i.status for i in instances] == [FLOW_DONE]
        assert design_bytes(hybrid) == control
        assert_no_wave_leftovers(hybrid)


class TestResumeCrashes:
    def test_crash_during_resume_resumes_again(self, tmp_path):
        """flow.resume itself is a crash window: a second restart picks
        the instance up with nothing lost and nothing duplicated."""
        control = control_bytes(tmp_path)
        root = tmp_path / "env"
        hybrid = build_environment(root)
        plan = FaultPlan.crash("harvest.after_checkin", on_hit=2)
        with inject(plan):
            with pytest.raises(CrashFault):
                run_flow(hybrid)

        hybrid2 = restart_recover(root)
        plan2 = FaultPlan.crash("flow.resume", on_hit=1)
        with inject(plan2):
            with pytest.raises(CrashFault):
                hybrid2.flows_orchestrator.resume_pending()
        assert plan2.crash_fired

        hybrid3 = restart_recover(root)
        results = run_flow(hybrid3)
        assert all(state == FLOW_DONE for _, state in results)
        assert design_bytes(hybrid3) == control
        assert hybrid3.audit().clean


class TestTriggerCrashes:
    def define_trigger(self, hybrid):
        hybrid.triggers.define(
            name="resim_on_checkin",
            flow_name="jcf_fmcad_flow",
            user="alice",
            viewtype="schematic",
            script="inverter_flow",
            team="team1",
        )

    def test_crash_mid_dispatch_spawns_exactly_once(self, tmp_path):
        from tests.conftest import build_inverter_editor_fn

        root = tmp_path / "env"
        hybrid = build_environment(root)
        self.define_trigger(hybrid)
        project = hybrid.jcf.project("chipA")
        library = hybrid.fmcad.library("chiplib")
        result = hybrid.schematic_entry.run(
            "alice", project, library, "inv2",
            edit_fn=build_inverter_editor_fn(),
        )
        assert result.success
        assert len(hybrid.triggers.pending_events()) == 1

        plan = FaultPlan.crash("flow.trigger", on_hit=1)
        with inject(plan):
            with pytest.raises(CrashFault):
                hybrid.triggers.dispatch(hybrid.flows_orchestrator)
        assert plan.crash_fired

        # restart: the event is still pending (dispatch rolled back
        # whole) and no half-spawned instance exists
        hybrid2 = restart_recover(root)
        assert len(hybrid2.triggers.pending_events()) == 1
        assert hybrid2.flows_orchestrator.instances() == []
        spawned = hybrid2.triggers.dispatch(hybrid2.flows_orchestrator)
        assert len(spawned) == 1
        assert hybrid2.triggers.pending_events() == []
        report = hybrid2.flow_queue.drain(workers=2)
        assert spawned[0] in report.completed
        assert hybrid2.audit().clean


class TestRecoveryFixpoint:
    FLOW_POINTS = [
        "flow.persist",
        "run.after_start",
        "harvest.after_checkin",
        "harvest.before_tag",
    ]

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        point=st.sampled_from(FLOW_POINTS),
        on_hit=st.integers(min_value=1, max_value=4),
    )
    def test_double_recover_is_identical(self, point, on_hit):
        """recover() is idempotent over flow state: running it twice —
        or once more after another restart — changes nothing."""
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp) / "env"
            hybrid = build_environment(root)
            try:
                with inject(FaultPlan.crash(point, on_hit=on_hit)):
                    run_flow(hybrid)
            except CrashFault:
                pass
            else:
                return  # this schedule never reached the window

            hybrid2 = HybridFramework.reopen(root)
            hybrid2.recover()
            first = dump_snapshot(hybrid2.jcf.db)
            hybrid2.recover()
            assert dump_snapshot(hybrid2.jcf.db) == first
            hybrid3 = HybridFramework.reopen(root)
            hybrid3.recover()
            assert dump_snapshot(hybrid3.jcf.db) == first
