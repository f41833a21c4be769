"""Event-driven flow triggers.

A trigger is persisted metadata: "when *event* happens on a matching
(library, cell, viewtype), enqueue flow *flow_name*" — the classic ECAD
automation of re-running downstream simulation after a cell checkin,
expressed as JCF resources so it survives the process like every other
piece of flow state.

The pending-trigger set is durable too: the wrappers record a
:class:`TriggerEvent` the moment a checkin lands, and ``dispatch()``
later consumes it *exactly once* — the enqueue of the spawned
:class:`FlowInstance`, the event's ``dispatched`` mark and the
``flow.trigger`` fault point all commit in one OMS transaction, so a
crash mid-dispatch rolls the whole step back and the event is simply
dispatched again after recovery (while a crash after the commit changes
nothing: the event is no longer pending).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import FlowError
from repro.faults import fault_point
from repro.ids import sort_key
from repro.jcf.model import (
    EVENT_DISPATCHED,
    EVENT_PENDING,
    FLOW_TERMINAL_STATES,
)
from repro.jcf.project import JCFProject
from repro.oms.database import OMSDatabase
from repro.oms.objects import OMSObject

#: the event the tool wrappers raise after every successful harvest
CHECKIN_EVENT = "checkin"


class TriggerRegistry:
    """Persisted trigger definitions plus the durable pending-event set."""

    def __init__(self, database: OMSDatabase) -> None:
        self._db = database
        #: events recorded / dispatched this process (bench counters)
        self.recorded_events = 0
        self.dispatched_events = 0
        self.deduped_events = 0

    # -- trigger definitions --------------------------------------------------

    def define(
        self,
        name: str,
        flow_name: str,
        user: str,
        event: str = CHECKIN_EVENT,
        library: str = "*",
        cell: str = "*",
        viewtype: str = "*",
        script: str = "",
        team: str = "",
        priority: int = 0,
    ) -> OMSObject:
        """Persist a trigger definition; names are unique."""
        if self.find(name) is not None:
            raise FlowError(f"trigger {name!r} is already defined")
        with self._db.transaction():
            obj = self._db.create(
                "FlowTrigger",
                {
                    "name": name,
                    "event": event,
                    "library": library,
                    "cell": cell,
                    "viewtype": viewtype,
                    "flow_name": flow_name,
                    "script": script,
                    "user": user,
                    "team": team,
                    "priority": priority,
                    "enabled": True,
                },
            )
        return obj

    def find(self, name: str) -> Optional[OMSObject]:
        found = self._db.by_name("FlowTrigger", name)
        return found[0] if found else None

    def triggers(self) -> List[OMSObject]:
        return self._db.select("FlowTrigger")

    def set_enabled(self, name: str, enabled: bool) -> None:
        trigger = self.find(name)
        if trigger is None:
            raise FlowError(f"no trigger {name!r}")
        with self._db.transaction():
            self._db.set_attr(trigger.oid, "enabled", bool(enabled))

    @staticmethod
    def _matches(trigger: OMSObject, event: str, library: str,
                 cell: str, viewtype: str) -> bool:
        if not trigger.get("enabled"):
            return False
        if trigger.get("event") != event:
            return False
        for pattern, value in (
            (trigger.get("library"), library),
            (trigger.get("cell"), cell),
            (trigger.get("viewtype"), viewtype),
        ):
            if pattern not in ("*", value):
                return False
        return True

    def _matching_triggers(
        self, event: str, library: str, cell: str, viewtype: str
    ) -> List[OMSObject]:
        return [
            t
            for t in self.triggers()
            if self._matches(t, event, library, cell, viewtype)
        ]

    # -- the durable pending set ----------------------------------------------

    def record_event(
        self, event: str, library: str, cell: str, viewtype: str
    ) -> Optional[str]:
        """Durably note that *event* happened; return the event oid.

        No-ops (returns ``None``) when no enabled trigger matches — the
        pending set only holds events somebody asked to react to — and
        when an identical event is already pending (one checkin burst
        wants one downstream re-run, not one per save).
        """
        if not self._matching_triggers(event, library, cell, viewtype):
            return None
        for pending in self.pending_events():
            if (
                pending.get("event") == event
                and pending.get("library") == library
                and pending.get("cell") == cell
                and pending.get("viewtype") == viewtype
            ):
                self.deduped_events += 1
                return None
        obj = self._db.create(
            "TriggerEvent",
            {
                "event": event,
                "library": library,
                "cell": cell,
                "viewtype": viewtype,
                "state": EVENT_PENDING,
                "created_ms": self._db.clock.now_ms,
            },
        )
        self.recorded_events += 1
        return obj.oid

    def pending_events(self) -> List[OMSObject]:
        return self._db.select(
            "TriggerEvent", lambda o: o.get("state") == EVENT_PENDING
        )

    # -- dispatch -------------------------------------------------------------

    def _project_of_cell(self, cell_name: str) -> Optional[JCFProject]:
        # the lowest-id project owning a cell of that name
        owners = [
            oid
            for cell in self._db.by_name("Cell", cell_name)
            for oid in self._db.target_oids("cell_in_project", cell.oid)
        ]
        if not owners:
            return None
        return JCFProject(self._db, self._db.get(min(owners, key=sort_key)))

    def _duplicate_instance(
        self, orchestrator, flow_name: str, cell: str, script: str
    ) -> bool:
        for instance in orchestrator.instances():
            if (
                instance.flow_name == flow_name
                and instance.cell_name == cell
                and instance.script_name == script
                and instance.status not in FLOW_TERMINAL_STATES
            ):
                return True
        return False

    def dispatch(self, orchestrator) -> List[str]:
        """Consume every pending event; return spawned instance oids.

        Each event is processed in its own transaction carrying the
        ``flow.trigger`` fault point, so a crash leaves it pending and
        the *next* dispatch (after recovery) redoes it — at-least-once
        attempts, exactly-once effects.
        """
        spawned: List[str] = []
        for event in self.pending_events():
            cell = event.get("cell") or ""
            matches = self._matching_triggers(
                event.get("event"),
                event.get("library") or "",
                cell,
                event.get("viewtype") or "",
            )
            project = self._project_of_cell(cell)
            with self._db.transaction():
                fault_point("flow.trigger")
                self._db.set_attr(event.oid, "state", EVENT_DISPATCHED)
                self._db.set_attr(
                    event.oid, "dispatched_ms", self._db.clock.now_ms
                )
                if project is None:
                    continue  # event about a cell JCF no longer maps
                for trigger in matches:
                    flow_name = trigger.get("flow_name")
                    script = trigger.get("script") or ""
                    if self._duplicate_instance(
                        orchestrator, flow_name, cell, script
                    ):
                        continue
                    instance = orchestrator.start(
                        user=trigger.get("user"),
                        project=project,
                        cell_name=cell,
                        flow_name=flow_name,
                        script=script,
                        library_name=event.get("library") or "",
                        team=trigger.get("team") or "",
                        priority=int(trigger.get("priority") or 0),
                    )
                    self._db.link(
                        "trigger_spawned", trigger.oid, instance.oid
                    )
                    spawned.append(instance.oid)
            self.dispatched_events += 1
        return spawned
