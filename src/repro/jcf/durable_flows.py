"""Durable, crash-resumable flow orchestration.

The 1995 coupling made single tool runs recoverable (recovery settles
the cell of each execution a crash left running); a *flow* — the fixed
activity DAG of Section 2.1 — still lived only in the head of whichever
designer was driving it.  This
module persists the flow execution itself as first-class OMS objects
(:class:`FlowInstance` plus per-activity :class:`FlowAttempt` records),
so a crash-killed flow rolls forward from its last durably-completed
activity after ``reopen()`` + ``recover()`` instead of being restarted
by hand.

Robustness policy is per activity: a :class:`TransientFault`-raising
activity is retried under a configurable budget with simulated-clock
backoff; budget exhaustion parks the instance in ``dead_letter`` state
(typed :class:`FlowStuckError`, visible to ``audit()`` and the ``flows
list`` CLI) instead of wedging the queue; an *optional* activity whose
tool is quarantined is skipped and the flow completes ``degraded`` with
a recorded finding, its successors started through the paper's
supervised early start.

Crash points: every state-machine transition commits behind the
``flow.persist`` fault point; resume traverses ``flow.resume`` per
instance.  Both join the crash matrix next to the ``harvest.*`` and
``run.*`` points.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import FlowError, FlowStuckError, QuarantinedError
from repro.faults import CrashFault, TransientFault, fault_point
from repro.jcf.model import (
    ATTEMPT_FAILED,
    ATTEMPT_OK,
    ATTEMPT_SKIPPED,
    ATTEMPT_TRANSIENT,
    EXEC_DONE,
    EXEC_RUNNING,
    FLOW_DEAD_LETTER,
    FLOW_DEGRADED,
    FLOW_DONE,
    FLOW_QUEUED,
    FLOW_RUNNING,
    FLOW_TERMINAL_STATES,
)
from repro.jcf.project import JCFProject, JCFVariant, _Wrapper
from repro.oms.objects import OMSObject

#: HybridFramework wrapper attribute per orchestrated activity.  Defined
#: here (not imported from repro.core.scheduler) so repro.jcf stays free
#: of upward imports; the scheduler's ACTIVITIES tuple must stay in sync
#: and a test asserts it does.
WRAPPER_ACTIVITIES = (
    "schematic_entry",
    "digital_simulation",
    "layout_entry",
)


@dataclasses.dataclass(frozen=True)
class ActivityPolicy:
    """Robustness budget of one activity.

    ``attempts`` bounds executed attempts per budget epoch (transient
    *and* hard failures count; skips do not).  ``timeout_ms`` bounds the
    simulated wall time from the first attempt's start; ``None`` means
    unbounded.  ``optional`` activities degrade away (skip + finding)
    when their tool is quarantined instead of dead-lettering the flow.
    """

    attempts: int = 3
    timeout_ms: Optional[float] = None
    optional: bool = False

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")


@dataclasses.dataclass(frozen=True)
class FlowPolicy:
    """Per-flow robustness policy: a default plus per-activity overrides."""

    default: ActivityPolicy = ActivityPolicy()
    overrides: Mapping[str, ActivityPolicy] = dataclasses.field(
        default_factory=dict
    )

    def for_activity(self, name: str) -> ActivityPolicy:
        return self.overrides.get(name, self.default)


class JCFFlowInstance(_Wrapper):
    """Typed view onto one persisted FlowInstance object."""

    def _get(self, name: str):
        return self._db.get(self.oid).get(name)

    @property
    def flow_name(self) -> str:
        return self._get("flow_name")

    @property
    def status(self) -> str:
        return self._get("status")

    @property
    def user(self) -> str:
        return self._get("user")

    @property
    def library_name(self) -> str:
        return self._get("library") or ""

    @property
    def cell_name(self) -> str:
        return self._get("cell") or ""

    @property
    def team(self) -> str:
        return self._get("team") or ""

    @property
    def priority(self) -> int:
        return int(self._get("priority") or 0)

    @property
    def script_name(self) -> str:
        return self._get("script") or ""

    @property
    def variant_oid(self) -> str:
        return self._get("variant_oid") or ""

    @property
    def epoch(self) -> int:
        return int(self._get("epoch") or 0)

    @property
    def findings(self) -> List[str]:
        return list(self._get("findings") or [])

    @property
    def note(self) -> str:
        return self._get("note") or ""

    @property
    def terminal(self) -> bool:
        return self.status in FLOW_TERMINAL_STATES

    def variant(self) -> JCFVariant:
        return JCFVariant(self._db, self._db.get(self.variant_oid))

    def attempts(
        self, activity: Optional[str] = None, current_epoch_only: bool = True
    ) -> List[OMSObject]:
        """Durably-recorded attempts, id-ordered (== chronological)."""
        epoch = self.epoch
        records = []
        for obj in self._db.targets("instance_attempt", self.oid):
            if activity is not None and obj.get("activity") != activity:
                continue
            if current_epoch_only and int(obj.get("epoch") or 0) != epoch:
                continue
            records.append(obj)
        return records

    def skipped_activities(self) -> List[str]:
        return [
            obj.get("activity")
            for obj in self.attempts()
            if obj.get("outcome") == ATTEMPT_SKIPPED
        ]


@dataclasses.dataclass(frozen=True)
class StepPlan:
    """The next activity a flow instance should execute."""

    activity: str
    #: a skipped-optional predecessor means the successor starts through
    #: the coupling's supervised early start (extra consistency window)
    force_early: bool


class DurableFlowOrchestrator:
    """Drives persisted flow instances through their activity DAGs.

    Owns the script registry (named parameter providers — callables
    cannot persist, so instances store a *name* and the provider is
    re-registered after restart, exactly like crash tests re-supply
    their edit functions), the per-flow robustness policies, and the
    tool quarantine set used for graceful degradation.
    """

    def __init__(self, hybrid) -> None:
        self.hybrid = hybrid
        self._db = hybrid.jcf.db
        self._scripts: Dict[str, Callable[[str], dict]] = {}
        self._policies: Dict[str, FlowPolicy] = {}
        self._default_policy = FlowPolicy()
        self._quarantined_tools: set = set()
        #: counters (bench_flows / tests)
        self.resumed_flows = 0
        self.retried_attempts = 0
        self.degraded_flows = 0
        self.dead_lettered_flows = 0
        self._register_builtin_scripts()

    def _register_builtin_scripts(self) -> None:
        # late import: repro.workloads imports tool modules only
        from repro.workloads.scripts import inverter_flow_script

        self.register_script("inverter_flow", inverter_flow_script())

    # -- scripts --------------------------------------------------------------

    def register_script(
        self, name: str, provider: Callable[[str], dict]
    ) -> None:
        """Register *provider* (activity name -> tool kwargs) as *name*."""
        self._scripts[name] = provider

    def script_names(self) -> List[str]:
        return sorted(self._scripts)

    def _script(self, name: str) -> Callable[[str], dict]:
        try:
            return self._scripts[name]
        except KeyError:
            raise FlowError(
                f"no registered flow script {name!r}; register_script() it "
                "before running (scripts are process-level and must be "
                "re-registered after a restart)"
            ) from None

    # -- policies -------------------------------------------------------------

    def set_policy(self, flow_name: str, policy: FlowPolicy) -> None:
        self._policies[flow_name] = policy

    def policy_for(self, flow_name: str) -> FlowPolicy:
        return self._policies.get(flow_name, self._default_policy)

    # -- tool quarantine (graceful degradation) -------------------------------

    def quarantine_tool(self, tool_name: str) -> None:
        """Mark *tool_name* unavailable; optional activities skip it."""
        self._quarantined_tools.add(tool_name)

    def restore_tool(self, tool_name: str) -> None:
        self._quarantined_tools.discard(tool_name)

    def tool_quarantined(self, tool_name: str) -> bool:
        return tool_name in self._quarantined_tools

    # -- instance lifecycle ---------------------------------------------------

    def start(
        self,
        user: str,
        project: JCFProject,
        cell_name: str,
        flow_name: str,
        script: str,
        library_name: str = "",
        team: str = "",
        priority: int = 0,
    ) -> JCFFlowInstance:
        """Persist a new queued flow instance for *cell_name*.

        Joins an enclosing transaction when one is open (trigger
        dispatch relies on this for its exactly-once guarantee).
        """
        self.hybrid.jcf.flows.definition(flow_name)  # must be registered
        variant = self.hybrid.schematic_entry.working_variant(
            project, cell_name
        )
        now = self._db.clock.now_ms
        with self._db.transaction():
            fault_point("flow.persist")
            obj = self._db.create(
                "FlowInstance",
                {
                    "flow_name": flow_name,
                    "status": FLOW_QUEUED,
                    "user": user,
                    "library": library_name,
                    "cell": cell_name,
                    "team": team,
                    "priority": priority,
                    "script": script,
                    "variant_oid": variant.oid,
                    "created_ms": now,
                    "updated_ms": now,
                },
            )
        return JCFFlowInstance(self._db, obj)

    def instances(
        self, status: Optional[str] = None
    ) -> List[JCFFlowInstance]:
        """All persisted instances, id-ordered; optionally by status."""
        return [
            JCFFlowInstance(self._db, obj)
            for obj in self._db.select(
                "FlowInstance",
                (lambda o: o.get("status") == status)
                if status is not None
                else None,
            )
        ]

    def instance(self, oid: str) -> JCFFlowInstance:
        return JCFFlowInstance(self._db, self._db.get(oid))

    # -- persisted state transitions ------------------------------------------

    def _mark(
        self, instance: JCFFlowInstance, status: str, note: str = ""
    ) -> None:
        with self._db.transaction():
            fault_point("flow.persist")
            self._db.set_attr(instance.oid, "status", status)
            self._db.set_attr(
                instance.oid, "updated_ms", self._db.clock.now_ms
            )
            if note:
                self._db.set_attr(instance.oid, "note", note)

    def _record_attempt(
        self,
        instance: JCFFlowInstance,
        activity: str,
        attempt: int,
        outcome: str,
        error: str,
        started_ms: float,
    ) -> None:
        with self._db.transaction():
            fault_point("flow.persist")
            obj = self._db.create(
                "FlowAttempt",
                {
                    "activity": activity,
                    "attempt": attempt,
                    "epoch": instance.epoch,
                    "outcome": outcome,
                    "error": error,
                    "started_ms": started_ms,
                    "finished_ms": self._db.clock.now_ms,
                },
            )
            self._db.link("instance_attempt", instance.oid, obj.oid)
            self._db.set_attr(
                instance.oid, "updated_ms", self._db.clock.now_ms
            )

    def _record_skip(
        self, instance: JCFFlowInstance, activity: str, reason: str
    ) -> None:
        finding = f"{activity}: {reason}"
        with self._db.transaction():
            fault_point("flow.persist")
            obj = self._db.create(
                "FlowAttempt",
                {
                    "activity": activity,
                    "attempt": 0,
                    "epoch": instance.epoch,
                    "outcome": ATTEMPT_SKIPPED,
                    "error": reason,
                    "started_ms": self._db.clock.now_ms,
                    "finished_ms": self._db.clock.now_ms,
                },
            )
            self._db.link("instance_attempt", instance.oid, obj.oid)
            self._db.set_attr(
                instance.oid, "findings", instance.findings + [finding]
            )
            self._db.set_attr(
                instance.oid, "updated_ms", self._db.clock.now_ms
            )

    def _dead_letter(
        self,
        instance: JCFFlowInstance,
        activity: str,
        reason: str,
        raise_stuck: bool,
    ) -> None:
        self.dead_lettered_flows += 1
        self._mark(
            instance, FLOW_DEAD_LETTER, note=f"{activity}: {reason}"
        )
        if raise_stuck:
            raise FlowStuckError(
                f"flow instance {instance.oid} dead-lettered at "
                f"{activity!r}: {reason}",
                instance_oid=instance.oid,
                activity=activity,
            )

    # -- planning -------------------------------------------------------------

    def plan_step(
        self, instance: JCFFlowInstance, raise_stuck: bool = True
    ) -> Optional[StepPlan]:
        """Next activity to run, or ``None`` once the instance is terminal.

        Applies quarantine skips (degradation) and robustness-budget
        checks synchronously: calling this may itself finalize,
        degrade or dead-letter the instance.
        """
        if instance.terminal:
            return None
        flow_def = self.hybrid.jcf.flows.definition(instance.flow_name)
        policy = self.policy_for(instance.flow_name)
        variant = instance.variant()
        state = self.hybrid.jcf.engine.state_of(variant)
        while True:
            skipped = set(instance.skipped_activities())
            candidate = None
            for name in flow_def.topological_order():
                status = state.status_by_activity.get(name)
                if status == EXEC_DONE or name in skipped:
                    continue
                if status == EXEC_RUNNING:
                    raise FlowError(
                        f"activity {name!r} of instance {instance.oid} has "
                        "a running execution; run recover() before "
                        "resuming flows"
                    )
                candidate = name
                break
            if candidate is None:
                self._finalize(instance)
                return None
            activity_policy = policy.for_activity(candidate)
            tool_name = flow_def.activity(candidate).tool_name
            if self.tool_quarantined(tool_name):
                if activity_policy.optional:
                    self._record_skip(
                        instance, candidate, f"tool {tool_name!r} quarantined"
                    )
                    continue  # rescan with the skip applied
                self._dead_letter(
                    instance,
                    candidate,
                    f"required tool {tool_name!r} quarantined",
                    raise_stuck,
                )
                return None
            budget_failure = self._budget_exhausted(
                instance, candidate, activity_policy
            )
            if budget_failure:
                self._dead_letter(
                    instance, candidate, budget_failure, raise_stuck
                )
                return None
            preds = flow_def.activity(candidate).predecessors
            return StepPlan(
                activity=candidate,
                force_early=any(p in skipped for p in preds),
            )

    def _budget_exhausted(
        self,
        instance: JCFFlowInstance,
        activity: str,
        policy: ActivityPolicy,
    ) -> str:
        """Non-empty reason string when *activity* may not run again."""
        attempts = [
            a
            for a in instance.attempts(activity)
            if a.get("outcome") != ATTEMPT_SKIPPED
        ]
        if len(attempts) >= policy.attempts:
            return (
                f"retry budget exhausted ({len(attempts)}/{policy.attempts} "
                f"attempts; last error: {attempts[-1].get('error') or '?'})"
            )
        if policy.timeout_ms is not None and attempts:
            first_start = attempts[0].get("started_ms") or 0.0
            elapsed = self._db.clock.now_ms - first_start
            if elapsed > policy.timeout_ms:
                return (
                    f"timeout budget exhausted ({elapsed:.0f}ms elapsed "
                    f"> {policy.timeout_ms:.0f}ms)"
                )
        return ""

    def _finalize(self, instance: JCFFlowInstance) -> str:
        skipped = instance.skipped_activities()
        status = FLOW_DEGRADED if skipped else FLOW_DONE
        if status == FLOW_DEGRADED:
            self.degraded_flows += 1
        self._mark(instance, status)
        return status

    # -- synchronous execution ------------------------------------------------

    def _context(
        self, instance: JCFFlowInstance
    ) -> Tuple[JCFProject, "object", JCFVariant]:
        """Resolve (project, fmcad library, variant) from persisted attrs."""
        variant = instance.variant()
        project = JCFProject(
            self._db,
            self._db.get(variant.cell_version.cell.project_oid),
        )
        name = instance.library_name or project.name
        try:
            library = self.hybrid.fmcad.library(name)
        except Exception:
            library = self.hybrid.fmcad.open_library(name)
        return project, library, variant

    def run(self, instance: JCFFlowInstance) -> str:
        """Drive *instance* to a terminal state; return that state.

        Raises :class:`FlowStuckError` when the instance dead-letters
        and :class:`CrashFault` when a fault plan kills the process
        mid-flow (the instance then resumes after recovery).
        """
        if instance.terminal:
            return instance.status
        self._script(instance.script_name)  # fail fast before mutating
        self._mark(instance, FLOW_RUNNING)
        while True:
            plan = self.plan_step(instance, raise_stuck=True)
            if plan is None:
                return instance.status
            self._execute_attempt(instance, plan)

    def _execute_attempt(
        self, instance: JCFFlowInstance, plan: StepPlan
    ) -> None:
        """Run ONE attempt of the planned activity and record its outcome."""
        project, library, _variant = self._context(instance)
        provider = self._script(instance.script_name)
        kwargs = dict(provider(plan.activity) or {})
        wrapper = getattr(self.hybrid, plan.activity, None)
        if wrapper is None:
            raise FlowError(
                f"activity {plan.activity!r} has no tool wrapper; "
                f"orchestratable activities are {WRAPPER_ACTIVITIES}"
            )
        attempt_no = len(
            [
                a
                for a in instance.attempts(plan.activity)
                if a.get("outcome") != ATTEMPT_SKIPPED
            ]
        ) + 1
        started = self._db.clock.now_ms
        try:
            result = wrapper.run(
                instance.user,
                project,
                library,
                instance.cell_name,
                force_early=plan.force_early,
                **kwargs,
            )
        except CrashFault:
            raise  # a dead process records nothing; recovery takes over
        except TransientFault as exc:
            # the wrapper's inner retry loop gave up: charge backoff and
            # let the budget decide whether another attempt happens
            self._record_attempt(
                instance, plan.activity, attempt_no,
                ATTEMPT_TRANSIENT, str(exc), started,
            )
            self.retried_attempts += 1
            self._db.clock.charge_retry_backoff(attempt_no - 1)
        except QuarantinedError as exc:
            policy = self.policy_for(instance.flow_name).for_activity(
                plan.activity
            )
            if policy.optional:
                # input quarantined mid-run: degrade exactly like an
                # unavailable tool
                self._record_skip(
                    instance, plan.activity, f"quarantined input: {exc}"
                )
            else:
                self._record_attempt(
                    instance, plan.activity, attempt_no,
                    ATTEMPT_FAILED, str(exc), started,
                )
        except Exception as exc:
            self._record_attempt(
                instance, plan.activity, attempt_no,
                ATTEMPT_FAILED, str(exc), started,
            )
        else:
            if result.success:
                self._record_attempt(
                    instance, plan.activity, attempt_no,
                    ATTEMPT_OK, "", started,
                )
            else:
                self._record_attempt(
                    instance, plan.activity, attempt_no,
                    ATTEMPT_FAILED, result.details, started,
                )

    # -- resume ---------------------------------------------------------------

    def resume_pending(
        self, raise_stuck: bool = False
    ) -> List[Tuple[str, str]]:
        """Roll every non-terminal instance forward; return (oid, state).

        Called after ``reopen()`` + ``recover()``: recovery has already
        adopted stale ``running`` instances back to ``queued`` and
        failed their interrupted executions, so each instance simply
        re-plans from its durable state and re-runs its interrupted
        activity (idempotent scripts make that a delta-harvest no-op
        when the crashed attempt's output already landed).
        """
        results: List[Tuple[str, str]] = []
        for instance in self.instances():
            if instance.terminal:
                continue
            if instance.script_name not in self._scripts:
                # whoever restarts the process must re-register the
                # script before this instance can move; leave it queued
                results.append((instance.oid, "skipped:script-missing"))
                continue
            fault_point("flow.resume")
            self.resumed_flows += 1
            try:
                final = self.run(instance)
            except FlowStuckError:
                if raise_stuck:
                    raise
                final = FLOW_DEAD_LETTER
            results.append((instance.oid, final))
        return results

    # -- dead-letter operations -----------------------------------------------

    def retry_dead_letter(self, instance: JCFFlowInstance) -> None:
        """Re-queue a dead-lettered instance with a fresh budget epoch.

        Prior attempts stay on record (they belong to older epochs and
        no longer count against the budget); the instance goes back to
        ``queued`` for the next ``resume_pending()`` or queue drain.
        """
        if instance.status != FLOW_DEAD_LETTER:
            raise FlowError(
                f"instance {instance.oid} is {instance.status!r}; only "
                "dead_letter instances can be retried"
            )
        with self._db.transaction():
            fault_point("flow.persist")
            self._db.set_attr(instance.oid, "epoch", instance.epoch + 1)
            self._db.set_attr(instance.oid, "status", FLOW_QUEUED)
            self._db.set_attr(instance.oid, "note", "")
            self._db.set_attr(
                instance.oid, "updated_ms", self._db.clock.now_ms
            )

    # -- reporting ------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        by_status: Dict[str, int] = {}
        for instance in self.instances():
            by_status[instance.status] = by_status.get(instance.status, 0) + 1
        return {
            "instances": sum(by_status.values()),
            "by_status": by_status,
            "resumed_flows": self.resumed_flows,
            "retried_attempts": self.retried_attempts,
            "degraded_flows": self.degraded_flows,
            "dead_lettered_flows": self.dead_lettered_flows,
        }
