"""Flow execution: activities run in the prescribed order, and only there.

Section 3.5: "the specified order in which tools can be executed is
prescribed and fixed for the designer", and every execution records which
design-object versions it needed and created, so derivation relations and
what-belongs-to-what information are always available — the capability
standard FMCAD lacks entirely.

The engine also supports the coupling's supervised early start (Section
2.4: wrappers "enabled activity execution when its predecessor was not
yet finished"), which marks the execution ``forced_early`` so the
consistency guard can show its extra windows.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import FlowError, FlowOrderError
from repro.jcf.flows import FlowRegistry
from repro.jcf.model import (
    EXEC_DONE,
    EXEC_FAILED,
    EXEC_NOT_STARTED,
    EXEC_RUNNING,
)
from repro.jcf.project import JCFDesignObjectVersion, JCFVariant, _Wrapper
from repro.oms.database import OMSDatabase


class JCFExecution(_Wrapper):
    """One ActiveExecVersion: an activity run on a variant."""

    @property
    def status(self) -> str:
        return self._db.get(self.oid).get("status")

    @property
    def forced_early(self) -> bool:
        return bool(self._db.get(self.oid).get("forced_early"))

    @property
    def activity_name(self) -> str:
        owners = self._db.sources("exec_of_activity", self.oid)
        if not owners:
            raise FlowError(f"execution {self.oid} has no activity")
        return owners[0].get("name")

    @property
    def variant(self) -> JCFVariant:
        owners = self._db.sources("exec_in_variant", self.oid)
        if not owners:
            raise FlowError(f"execution {self.oid} has no variant")
        return JCFVariant(self._db, owners[0])

    def needed_versions(self) -> List[JCFDesignObjectVersion]:
        return [
            JCFDesignObjectVersion(self._db, obj)
            for obj in self._db.targets("needs_of_version", self.oid)
        ]

    def created_versions(self) -> List[JCFDesignObjectVersion]:
        return [
            JCFDesignObjectVersion(self._db, obj)
            for obj in self._db.targets("creates_version", self.oid)
        ]


@dataclasses.dataclass(frozen=True)
class FlowExecutionState:
    """Snapshot of one variant's progress through its flow."""

    variant_name: str
    flow_name: str
    status_by_activity: Dict[str, str]

    @property
    def complete(self) -> bool:
        return all(s == EXEC_DONE for s in self.status_by_activity.values())

    def runnable(self, flow_registry: FlowRegistry) -> List[str]:
        """Activities whose predecessors are all done and that have not run."""
        flow_def = flow_registry.definition(self.flow_name)
        names = []
        for activity in flow_def.activities:
            if self.status_by_activity.get(activity.name) not in (
                EXEC_NOT_STARTED,
                EXEC_FAILED,
            ):
                continue
            if all(
                self.status_by_activity.get(pred) == EXEC_DONE
                for pred in activity.predecessors
            ):
                names.append(activity.name)
        return names


class FlowEngine:
    """Runs flow activities against variants, enforcing the fixed order."""

    def __init__(self, database: OMSDatabase, flows: FlowRegistry) -> None:
        self._db = database
        self._flows = flows
        #: out-of-order invocation attempts rejected (bench_flow)
        self.rejected_starts = 0
        #: early starts forced through by the coupling wrappers
        self.forced_starts = 0
        #: variant oid -> (flow name, status-by-activity) — the
        #: materialised index behind :meth:`state_of`.  Maintained by
        #: start/finish_activity; a transaction that aborts pops its
        #: variant's entry via a journalled undo, so the cache can never
        #: serve state a rollback took back.  Concurrent runs touch
        #: disjoint variants (scheduler conflict graph), so plain dict
        #: operations suffice.
        self._state_cache: Dict[str, tuple] = {}
        #: cache effectiveness counters (bench_flow / regression tests)
        self.state_cache_hits = 0
        self.state_cache_misses = 0
        # the cache's activity-name sets come from the registry's
        # definitions; a definition-table mutation (register of a new
        # flow, rehydrate replacing a stale table after restore) must
        # drop the affected entries or state_of would keep serving a
        # status map computed against the superseded definition
        flows.add_listener(self._on_registry_mutation)

    def _on_registry_mutation(self, flow_name: str) -> None:
        """Drop cached state computed against a superseded definition."""
        stale = [
            variant_oid
            for variant_oid, cached in self._state_cache.items()
            if cached[0] == flow_name
        ]
        for variant_oid in stale:
            self._state_cache.pop(variant_oid, None)

    # -- state inspection -------------------------------------------------------

    def _flow_name_of(self, variant: JCFVariant) -> str:
        flow_obj = variant.cell_version.attached_flow()
        if flow_obj is None:
            raise FlowError(
                f"variant {variant.name!r}: its cell version has no attached "
                "flow; attach one before starting activities"
            )
        return flow_obj.get("name")

    def executions_of(self, variant: JCFVariant) -> List[JCFExecution]:
        return [
            JCFExecution(self._db, obj)
            for obj in self._db.targets("exec_in_variant", variant.oid)
        ]

    def state_of(self, variant: JCFVariant) -> FlowExecutionState:
        """Latest status per activity of the variant's flow.

        Served from the per-variant index when possible — O(activities)
        instead of rescanning every ``exec_in_variant`` execution.  The
        cached entry remembers which flow it was computed against, so a
        re-attached flow forces a rescan rather than serving stale
        activity names.
        """
        flow_name = self._flow_name_of(variant)
        cached = self._state_cache.get(variant.oid)
        if cached is not None and cached[0] == flow_name:
            self.state_cache_hits += 1
            return FlowExecutionState(
                variant_name=variant.name,
                flow_name=flow_name,
                status_by_activity=dict(cached[1]),
            )
        self.state_cache_misses += 1
        flow_def = self._flows.definition(flow_name)
        status = {a.name: EXEC_NOT_STARTED for a in flow_def.activities}
        for execution in self.executions_of(variant):
            # executions come back id-ordered == chronological
            status[execution.activity_name] = execution.status
        self._state_cache[variant.oid] = (flow_name, dict(status))
        return FlowExecutionState(
            variant_name=variant.name,
            flow_name=flow_name,
            status_by_activity=status,
        )

    def invalidate_state_cache(self, variant_oid: Optional[str] = None) -> None:
        """Drop the materialised state index (for one variant or all).

        Needed only by callers that mutate executions behind the
        engine's back; start/finish_activity maintain the index
        themselves.
        """
        if variant_oid is None:
            self._state_cache.clear()
        else:
            self._state_cache.pop(variant_oid, None)

    def _cache_status(
        self, variant_oid: str, activity_name: str, status: str
    ) -> None:
        """Fold one status change into the index (entry may be absent)."""
        cached = self._state_cache.get(variant_oid)
        if cached is not None:
            cached[1][activity_name] = status

    # -- execution protocol ----------------------------------------------------------

    def start_activity(
        self,
        variant: JCFVariant,
        activity_name: str,
        force_early: bool = False,
        context: Optional[Dict[str, Any]] = None,
    ) -> JCFExecution:
        """Begin one activity on *variant*.

        Raises :class:`FlowOrderError` when a predecessor has not finished,
        unless *force_early* — the coupling's supervised early start.
        *context* holds the coupled run's FMCAD attributes (``library``,
        ``fmcad_base``); they ride in the execution's own create.
        """
        flow_name = self._flow_name_of(variant)
        flow_def = self._flows.definition(flow_name)
        activity_def = flow_def.activity(activity_name)
        state = self.state_of(variant)
        if state.status_by_activity[activity_name] == EXEC_RUNNING:
            raise FlowError(
                f"activity {activity_name!r} is already running on variant "
                f"{variant.name!r}"
            )
        unfinished = [
            pred
            for pred in activity_def.predecessors
            if state.status_by_activity.get(pred) != EXEC_DONE
        ]
        if unfinished and not force_early:
            self.rejected_starts += 1
            raise FlowOrderError(
                f"activity {activity_name!r} cannot start: predecessors "
                f"{unfinished} not finished (fixed flow {flow_name!r})"
            )
        forced = bool(unfinished)
        if forced:
            self.forced_starts += 1
        activity_obj = self._activity_object(flow_name, activity_name)
        with self._db.transaction():
            exec_obj = self._db.create(
                "ActiveExecVersion",
                {
                    "status": EXEC_RUNNING,
                    "started_ms": self._db.clock.now_ms,
                    "forced_early": forced,
                    **(context or {}),
                },
            )
            self._db.link("exec_of_activity", activity_obj.oid, exec_obj.oid)
            self._db.link("exec_in_variant", variant.oid, exec_obj.oid)
            # if this transaction (or an outer one it joined) aborts, the
            # execution vanishes — the journalled undo drops the index
            # entry so the cache cannot keep reporting it as running
            self._db._journal(
                lambda: self._state_cache.pop(variant.oid, None)
            )
        self._cache_status(variant.oid, activity_name, EXEC_RUNNING)
        return JCFExecution(self._db, exec_obj)

    def finish_activity(
        self,
        execution: JCFExecution,
        needs: Sequence[JCFDesignObjectVersion] = (),
        creates: Sequence[JCFDesignObjectVersion] = (),
        success: bool = True,
    ) -> None:
        """Complete an execution, recording its derivation relations.

        Every created version is linked ``derived`` from every needed
        version — this is how JCF "records all derivation relationships
        between schematic and layout versions" (Section 2.4).
        """
        if execution.status != EXEC_RUNNING:
            raise FlowError(
                f"execution {execution.oid} is {execution.status}; only "
                "running executions can finish"
            )
        variant_oid = execution.variant.oid
        activity_name = execution.activity_name
        with self._db.transaction():
            for needed in needs:
                self._db.link("needs_of_version", execution.oid, needed.oid)
            for created in creates:
                self._db.link("creates_version", execution.oid, created.oid)
                for needed in needs:
                    if not self._db.linked("derived", needed.oid, created.oid):
                        self._db.link("derived", needed.oid, created.oid)
            self._db.set_attr(
                execution.oid, "status", EXEC_DONE if success else EXEC_FAILED
            )
            self._db.set_attr(
                execution.oid, "finished_ms", self._db.clock.now_ms
            )
            self._db._journal(
                lambda: self._state_cache.pop(variant_oid, None)
            )
        self._cache_status(
            variant_oid, activity_name, EXEC_DONE if success else EXEC_FAILED
        )

    # -- derivation queries (Section 3.5) ------------------------------------------------

    def derivation_chain(
        self, version: JCFDesignObjectVersion
    ) -> List[JCFDesignObjectVersion]:
        """All ancestors this version was (transitively) derived from."""
        seen = {version.oid}
        chain: List[JCFDesignObjectVersion] = []
        frontier = [version]
        while frontier:
            current = frontier.pop()
            for source in current.derivation_sources():
                if source.oid not in seen:
                    seen.add(source.oid)
                    chain.append(source)
                    frontier.append(source)
        return chain

    def what_belongs_to_what(
        self, variant: JCFVariant
    ) -> Dict[str, Dict[str, List[str]]]:
        """Per execution: which versions it needed and created.

        This is exactly the record Section 3.5 says FMCAD cannot provide.
        """
        report: Dict[str, Dict[str, List[str]]] = {}
        for execution in self.executions_of(variant):
            key = f"{execution.activity_name}@{execution.oid}"
            report[key] = {
                "needs": [v.oid for v in execution.needed_versions()],
                "creates": [v.oid for v in execution.created_versions()],
            }
        return report

    # -- reporting ---------------------------------------------------------------------------

    def render_state(self, variant: JCFVariant) -> str:
        """A one-screen textual flow-status report (desktop display).

        Example::

            flow jcf_fmcad_flow on variant fmcad_main
              [done]        schematic_entry
              [running]     digital_simulation
              [not_started] layout_entry      (blocked by digital_simulation)
        """
        state = self.state_of(variant)
        flow_def = self._flows.definition(state.flow_name)
        lines = [
            f"flow {state.flow_name} on variant {state.variant_name}"
        ]
        for activity in flow_def.activities:
            status = state.status_by_activity[activity.name]
            blockers = [
                pred
                for pred in activity.predecessors
                if state.status_by_activity.get(pred) != EXEC_DONE
            ]
            suffix = (
                f"  (blocked by {', '.join(blockers)})"
                if blockers and status == EXEC_NOT_STARTED
                else ""
            )
            lines.append(f"  [{status}] {activity.name}{suffix}")
        return "\n".join(lines)

    # -- internals --------------------------------------------------------------------------

    def _activity_object(self, flow_name: str, activity_name: str):
        flow_obj = self._flows.flow_object(flow_name)
        for activity in self._db.targets("flow_has_activity", flow_obj.oid):
            if activity.get("name") == activity_name:
                return activity
        raise FlowError(
            f"flow {flow_name!r} has no materialised activity "
            f"{activity_name!r}"
        )
