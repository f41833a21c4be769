"""Flow definitions.

Flows are JCF resources: "each design flow has to be defined in advance,
and therefore, it will become part of the resources and can be regarded
as metadata" (Section 2.1).  A flow is a DAG of activities; each activity
is executed by one tool, consumes design data of some viewtypes and
produces others.  Once materialised into the database a flow is frozen —
"Flows are fixed and cannot be modified".
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Set, Tuple

from repro.errors import FlowError, FlowFrozenError
from repro.oms.database import OMSDatabase
from repro.oms.objects import OMSObject


@dataclasses.dataclass(frozen=True)
class ActivityDef:
    """Definition of one flow step.

    ``needs``/``creates`` list viewtype names (Figure 1 'Needs'/'Creates');
    ``predecessors`` lists activity names that must complete first.
    """

    name: str
    tool_name: str
    needs: Tuple[str, ...] = ()
    creates: Tuple[str, ...] = ()
    predecessors: Tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class FlowDef:
    """A validated DAG of activity definitions."""

    name: str
    activities: Tuple[ActivityDef, ...]

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check name uniqueness, predecessor resolution and acyclicity."""
        names = [a.name for a in self.activities]
        if len(names) != len(set(names)):
            raise FlowError(f"flow {self.name!r}: duplicate activity names")
        known = set(names)
        for activity in self.activities:
            for pred in activity.predecessors:
                if pred not in known:
                    raise FlowError(
                        f"flow {self.name!r}: activity {activity.name!r} "
                        f"references unknown predecessor {pred!r}"
                    )
        self._topological_order()  # raises on cycles

    def activity(self, name: str) -> ActivityDef:
        for activity in self.activities:
            if activity.name == name:
                return activity
        raise FlowError(f"flow {self.name!r} has no activity {name!r}")

    def _topological_order(self) -> List[str]:
        order: List[str] = []
        visiting: Set[str] = set()
        done: Set[str] = set()

        def visit(name: str) -> None:
            if name in done:
                return
            if name in visiting:
                raise FlowError(f"flow {self.name!r}: cycle through {name!r}")
            visiting.add(name)
            for pred in self.activity(name).predecessors:
                visit(pred)
            visiting.discard(name)
            done.add(name)
            order.append(name)

        for activity in self.activities:
            visit(activity.name)
        return order

    def topological_order(self) -> List[str]:
        """Activity names in a valid execution order."""
        return self._topological_order()

    def successors_of(self, name: str) -> List[str]:
        self.activity(name)
        return [
            a.name for a in self.activities if name in a.predecessors
        ]


#: The flow used by the 1995 encapsulation scenario (Section 2.4): three
#: FMCAD tools, each modelled by one JCF activity.  The simulator needs a
#: finished schematic; the layout derives from the simulated schematic.
def standard_encapsulation_flow(name: str = "jcf_fmcad_flow") -> FlowDef:
    """Schematic entry -> digital simulation -> layout entry."""
    return FlowDef(
        name=name,
        activities=(
            ActivityDef(
                name="schematic_entry",
                tool_name="schematic_editor",
                needs=(),
                creates=("schematic",),
            ),
            ActivityDef(
                name="digital_simulation",
                tool_name="digital_simulator",
                needs=("schematic",),
                creates=("simulation",),
                predecessors=("schematic_entry",),
            ),
            ActivityDef(
                name="layout_entry",
                tool_name="layout_editor",
                needs=("schematic",),
                creates=("layout",),
                predecessors=("digital_simulation",),
            ),
        ),
    )


def fpga_flow(name: str = "fpga_flow") -> FlowDef:
    """The FPGA design flow of [Seep94b], modelled in JCF.

    Schematic entry is white-box; the downstream FPGA vendor tools are
    black boxes (see :mod:`repro.core.integration`): synthesis consumes
    the schematic, place-and-route consumes the netlist, bitstream
    generation consumes the placement.
    """
    return FlowDef(
        name=name,
        activities=(
            ActivityDef(
                name="schematic_entry",
                tool_name="schematic_editor",
                creates=("schematic",),
            ),
            ActivityDef(
                name="synthesis",
                tool_name="synthesis_tool",
                needs=("schematic",),
                creates=("netlist",),
                predecessors=("schematic_entry",),
            ),
            ActivityDef(
                name="place_and_route",
                tool_name="place_route_tool",
                needs=("netlist",),
                creates=("placement",),
                predecessors=("synthesis",),
            ),
            ActivityDef(
                name="bitstream_generation",
                tool_name="bitstream_tool",
                needs=("placement",),
                creates=("bitstream",),
                predecessors=("place_and_route",),
            ),
        ),
    )


class FlowRegistry:
    """Materialises :class:`FlowDef` objects into the OMS database.

    Materialised flows are frozen; re-registration or post-hoc edits raise
    :class:`FlowFrozenError`.  Only the project manager (or administrator)
    may define flows — "These flows can only be defined and changed by
    the project manager" (Section 3.5).
    """

    def __init__(self, database: OMSDatabase) -> None:
        self._db = database
        self._defs: Dict[str, FlowDef] = {}
        #: callbacks invoked with the flow name after every mutation of
        #: the definition table (register or rehydrate).  The flow
        #: engine subscribes its state-cache invalidation here: a cached
        #: per-variant status map is keyed by activity names taken from
        #: the definition, so any change to the definition table must
        #: drop it — even for a flow of the same name, whose materialised
        #: activity set may differ from what the cache was computed
        #: against (the classic case: rehydrate() after a restore
        #: replacing a stale in-memory definition table).
        self._listeners: List = []

    def add_listener(self, callback) -> None:
        """Call *callback(flow_name)* after every definition mutation."""
        self._listeners.append(callback)

    def _notify(self, name: str) -> None:
        for callback in self._listeners:
            callback(name)

    def register(self, flow_def: FlowDef) -> OMSObject:
        """Store the flow and its activities as frozen metadata."""
        if flow_def.name in self._defs:
            raise FlowFrozenError(
                f"flow {flow_def.name!r} is already registered and fixed"
            )
        with self._db.transaction():
            flow_obj = self._db.create(
                "Flow", {"name": flow_def.name, "frozen": True}
            )
            activity_oids: Dict[str, str] = {}
            for activity in flow_def.activities:
                act_obj = self._db.create("Activity", {"name": activity.name})
                self._db.link("flow_has_activity", flow_obj.oid, act_obj.oid)
                activity_oids[activity.name] = act_obj.oid
                tool = self._db.find_or_create("Tool", activity.tool_name)
                self._db.link("activity_uses_tool", act_obj.oid, tool.oid)
                for needs in activity.needs:
                    vt = self._db.find_or_create("ViewType", needs)
                    self._db.link("activity_needs", act_obj.oid, vt.oid)
                for creates in activity.creates:
                    vt = self._db.find_or_create("ViewType", creates)
                    self._db.link("activity_creates", act_obj.oid, vt.oid)
            for activity in flow_def.activities:
                for pred in activity.predecessors:
                    self._db.link(
                        "activity_precedes",
                        activity_oids[pred],
                        activity_oids[activity.name],
                    )
        self._defs[flow_def.name] = flow_def
        self._notify(flow_def.name)
        return flow_obj

    # -- lookup -------------------------------------------------------------

    def definition(self, name: str) -> FlowDef:
        try:
            return self._defs[name]
        except KeyError:
            raise FlowError(f"no registered flow {name!r}") from None

    def flow_object(self, name: str) -> OMSObject:
        found = self._db.by_name("Flow", name)
        if not found:
            raise FlowError(f"no registered flow {name!r}")
        return found[0]

    def names(self) -> List[str]:
        return sorted(self._defs)

    def modify(self, name: str) -> None:
        """Flows are fixed: any modification attempt raises."""
        self.definition(name)
        raise FlowFrozenError(
            f"flow {name!r} is fixed; JCF flows cannot be modified after "
            "definition (Section 2.1)"
        )

    def rehydrate(self) -> List[str]:
        """Rebuild Python-side flow definitions from database metadata.

        Everything a :class:`FlowDef` needs is materialised in OMS, so a
        framework restored from a snapshot recovers its flows without
        re-registration.  Returns the recovered flow names.
        """
        recovered: List[str] = []
        for flow_obj in self._db.select("Flow"):
            name = flow_obj.get("name")
            if name in self._defs:
                continue
            activities = []
            activity_objs = self._db.targets(
                "flow_has_activity", flow_obj.oid
            )
            for activity in activity_objs:
                tools = self._db.targets(
                    "activity_uses_tool", activity.oid
                )
                needs = tuple(
                    vt.get("name")
                    for vt in self._db.targets(
                        "activity_needs", activity.oid
                    )
                )
                creates = tuple(
                    vt.get("name")
                    for vt in self._db.targets(
                        "activity_creates", activity.oid
                    )
                )
                predecessors = tuple(
                    pred.get("name")
                    for pred in self._db.sources(
                        "activity_precedes", activity.oid
                    )
                    if pred.oid in {a.oid for a in activity_objs}
                )
                activities.append(
                    ActivityDef(
                        name=activity.get("name"),
                        tool_name=tools[0].get("name") if tools else "",
                        needs=needs,
                        creates=creates,
                        predecessors=predecessors,
                    )
                )
            self._defs[name] = FlowDef(name, tuple(activities))
            self._notify(name)
            recovered.append(name)
        return recovered
