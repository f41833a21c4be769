"""Unit tests for event-driven flow triggers."""

import pytest

from tests.conftest import build_inverter_editor_fn

from repro.errors import FlowError
from repro.faults import CrashFault, FaultPlan, inject
from repro.jcf.model import (
    EVENT_DISPATCHED,
    EVENT_PENDING,
    FLOW_DONE,
    FLOW_QUEUED,
)


@pytest.fixture
def env(hybrid):
    library = hybrid.fmcad.create_library("chiplib")
    library.create_cell("inv2")
    project = hybrid.adopt_library("alice", library, "chipA")
    hybrid.jcf.resources.assign_team_to_project(
        "admin", "team1", project.oid
    )
    hybrid.prepare_cell("alice", project, "inv2", team_name="team1")
    return hybrid, project, library


def define_trigger(hybrid, **overrides):
    kwargs = dict(
        name="resim_on_checkin",
        flow_name="jcf_fmcad_flow",
        user="alice",
        viewtype="schematic",
        script="inverter_flow",
        team="team1",
    )
    kwargs.update(overrides)
    return hybrid.triggers.define(**kwargs)


class TestDefinitions:
    def test_define_persists_and_find(self, env):
        hybrid, project, library = env
        define_trigger(hybrid)
        trigger = hybrid.triggers.find("resim_on_checkin")
        assert trigger is not None
        assert trigger.get("flow_name") == "jcf_fmcad_flow"
        assert trigger.get("enabled") is True

    def test_duplicate_name_rejected(self, env):
        hybrid, project, library = env
        define_trigger(hybrid)
        with pytest.raises(FlowError):
            define_trigger(hybrid)


class TestEventRecording:
    def test_checkin_records_a_pending_event(self, env):
        hybrid, project, library = env
        define_trigger(hybrid)
        result = hybrid.schematic_entry.run(
            "alice", project, library, "inv2",
            edit_fn=build_inverter_editor_fn(),
        )
        assert result.success
        pending = hybrid.triggers.pending_events()
        assert len(pending) == 1
        event = pending[0]
        assert event.get("event") == "checkin"
        assert event.get("cell") == "inv2"
        assert event.get("state") == EVENT_PENDING

    def test_no_trigger_means_no_event(self, env):
        hybrid, project, library = env
        hybrid.schematic_entry.run(
            "alice", project, library, "inv2",
            edit_fn=build_inverter_editor_fn(),
        )
        assert hybrid.triggers.pending_events() == []

    def test_identical_pending_events_dedupe(self, env):
        hybrid, project, library = env
        define_trigger(hybrid)
        oid = hybrid.triggers.record_event(
            "checkin", "chiplib", "inv2", "schematic"
        )
        assert oid is not None
        assert hybrid.triggers.record_event(
            "checkin", "chiplib", "inv2", "schematic"
        ) is None
        assert len(hybrid.triggers.pending_events()) == 1
        assert hybrid.triggers.deduped_events == 1

    def test_disabled_trigger_does_not_match(self, env):
        hybrid, project, library = env
        define_trigger(hybrid)
        hybrid.triggers.set_enabled("resim_on_checkin", False)
        assert hybrid.triggers.record_event(
            "checkin", "chiplib", "inv2", "schematic"
        ) is None

    def test_pattern_mismatch_does_not_match(self, env):
        hybrid, project, library = env
        define_trigger(hybrid, cell="other_cell")
        assert hybrid.triggers.record_event(
            "checkin", "chiplib", "inv2", "schematic"
        ) is None

    def test_unchanged_checkin_does_not_rerecord(self, env):
        """An idempotent re-run harvests identical bytes — no event, so
        resumed flows cannot re-trigger themselves forever."""
        hybrid, project, library = env
        define_trigger(hybrid)

        def idempotent(editor):
            if editor.schematic.ports():
                return
            build_inverter_editor_fn()(editor)

        hybrid.schematic_entry.run(
            "alice", project, library, "inv2", edit_fn=idempotent
        )
        assert len(hybrid.triggers.pending_events()) == 1
        # consume the event, then re-run the identical edit
        hybrid.triggers.dispatch(hybrid.flows_orchestrator)
        hybrid.schematic_entry.run(
            "alice", project, library, "inv2", edit_fn=idempotent
        )
        assert hybrid.triggers.pending_events() == []


class TestDispatch:
    def test_dispatch_spawns_one_instance_and_marks_event(self, env):
        hybrid, project, library = env
        define_trigger(hybrid)
        hybrid.triggers.record_event(
            "checkin", "chiplib", "inv2", "schematic"
        )
        spawned = hybrid.triggers.dispatch(hybrid.flows_orchestrator)
        assert len(spawned) == 1
        instance = hybrid.flows_orchestrator.instance(spawned[0])
        assert instance.status == FLOW_QUEUED
        assert instance.flow_name == "jcf_fmcad_flow"
        assert instance.script_name == "inverter_flow"
        assert hybrid.triggers.pending_events() == []
        events = hybrid.jcf.db.select("TriggerEvent")
        assert [e.get("state") for e in events] == [EVENT_DISPATCHED]

    def test_dispatch_skips_duplicate_live_instance(self, env):
        hybrid, project, library = env
        define_trigger(hybrid)
        hybrid.triggers.record_event(
            "checkin", "chiplib", "inv2", "schematic"
        )
        first = hybrid.triggers.dispatch(hybrid.flows_orchestrator)
        hybrid.triggers.record_event(
            "checkin", "chiplib", "inv2", "schematic"
        )
        second = hybrid.triggers.dispatch(hybrid.flows_orchestrator)
        assert len(first) == 1 and second == []

    def test_dispatch_after_completion_spawns_again(self, env):
        hybrid, project, library = env
        define_trigger(hybrid)
        hybrid.triggers.record_event(
            "checkin", "chiplib", "inv2", "schematic"
        )
        first = hybrid.triggers.dispatch(hybrid.flows_orchestrator)
        instance = hybrid.flows_orchestrator.instance(first[0])
        assert hybrid.flows_orchestrator.run(instance) == FLOW_DONE
        hybrid.triggers.record_event(
            "checkin", "chiplib", "inv2", "schematic"
        )
        second = hybrid.triggers.dispatch(hybrid.flows_orchestrator)
        assert len(second) == 1

    def test_crash_mid_dispatch_is_exactly_once(self, env):
        """A crash inside dispatch rolls the whole step back: the event
        stays pending, no instance exists, and the post-recovery
        re-dispatch spawns exactly one."""
        hybrid, project, library = env
        define_trigger(hybrid)
        hybrid.triggers.record_event(
            "checkin", "chiplib", "inv2", "schematic"
        )
        plan = FaultPlan.crash("flow.trigger")
        with inject(plan):
            with pytest.raises(CrashFault):
                hybrid.triggers.dispatch(hybrid.flows_orchestrator)
        assert plan.crash_fired
        assert len(hybrid.triggers.pending_events()) == 1
        assert hybrid.flows_orchestrator.instances() == []
        spawned = hybrid.triggers.dispatch(hybrid.flows_orchestrator)
        assert len(spawned) == 1
        assert len(hybrid.flows_orchestrator.instances()) == 1


class TestProjectOfCell:
    def test_resolves_the_owning_project(self, env):
        hybrid, project, library = env
        assert hybrid.triggers._project_of_cell("inv2") == project
        assert hybrid.triggers._project_of_cell("ghost") is None

    def test_shared_cell_name_resolves_to_the_lowest_id_project(self, env):
        hybrid, project, library = env
        later = hybrid.jcf.desktop.create_project("alice", "chipB")
        later.create_cell("nand2")
        project.create_cell("nand2")  # newer cell, older project
        assert hybrid.triggers._project_of_cell("nand2") == project
