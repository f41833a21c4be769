"""The JCF 3.0 information model (Figure 1) as an OMS schema.

Figure 1 of the paper (OTO-D notation) partitions the model into Team,
Flows/Activities, Project structure, Variants, Configurations and Design
data.  Every box and edge of the figure appears here as an entity or
relationship type; ``bench_models.py`` regenerates the figure's inventory
from this schema by introspection.
"""

from __future__ import annotations

from repro.oms.schema import AttributeDef, Schema

#: Cell-version / variant / execution status values.
STATUS_IN_WORK = "in_work"
STATUS_PUBLISHED = "published"

EXEC_NOT_STARTED = "not_started"
EXEC_RUNNING = "running"
EXEC_DONE = "done"
EXEC_FAILED = "failed"

#: Durable flow-instance lifecycle (DESIGN.md §15).
FLOW_QUEUED = "queued"            # persisted, waiting for a worker
FLOW_RUNNING = "running"          # a process is (was) driving it
FLOW_DONE = "done"                # every activity completed
FLOW_DEGRADED = "degraded"        # completed, optional activities skipped
FLOW_DEAD_LETTER = "dead_letter"  # robustness budget exhausted; parked
FLOW_ABORTED = "aborted"          # compensated: its context is gone
FLOW_TERMINAL_STATES = (
    FLOW_DONE, FLOW_DEGRADED, FLOW_DEAD_LETTER, FLOW_ABORTED
)

#: Per-activity attempt outcomes (FlowAttempt.outcome).
ATTEMPT_OK = "ok"
ATTEMPT_TRANSIENT = "transient"   # TransientFault; retryable
ATTEMPT_FAILED = "failed"         # hard failure (tool error, DRC gate)
ATTEMPT_SKIPPED = "skipped"       # optional activity degraded away

#: Trigger-event lifecycle (jcf/triggers.py).
EVENT_PENDING = "pending"
EVENT_DISPATCHED = "dispatched"


def build_jcf_schema() -> Schema:
    """Construct the Figure 1 schema.

    Returns a fresh :class:`~repro.oms.schema.Schema` named ``JCF-3.0``.
    """
    schema = Schema("JCF-3.0")

    # -- Team partition (resources) ----------------------------------------
    schema.define_entity(
        "User",
        [
            AttributeDef("name", "str", required=True),
            AttributeDef("full_name", "str"),
        ],
        doc="A registered framework user (resource, administrator-defined)",
    )
    schema.define_entity(
        "Team",
        [AttributeDef("name", "str", required=True)],
        doc="A team of users; teams support projects (Section 2.1)",
    )

    # -- Flows / Activities partition (resources, metadata) ------------------
    schema.define_entity(
        "Flow",
        [
            AttributeDef("name", "str", required=True),
            AttributeDef("frozen", "bool", default=False),
        ],
        doc="A design flow, defined in advance; fixed once frozen",
    )
    schema.define_entity(
        "Activity",
        [AttributeDef("name", "str", required=True)],
        doc="One step of a flow; modelled 1:1 with an encapsulated tool",
    )
    schema.define_entity(
        "ActivityProxy",
        [AttributeDef("name", "str", required=True)],
        doc="Stand-in for an activity inside flow definitions (Figure 1)",
    )
    schema.define_entity(
        "Tool",
        [AttributeDef("name", "str", required=True)],
        doc="An integrated or encapsulated design tool",
    )
    schema.define_entity(
        "ViewType",
        [AttributeDef("name", "str", required=True)],
        doc="Representation type consumed/produced by activities",
    )

    # -- Project structure partition ------------------------------------------
    schema.define_entity(
        "Project",
        [AttributeDef("name", "str", required=True)],
        doc="Top-level container; FMCAD libraries map onto projects (Table 1)",
    )
    schema.define_entity(
        "Cell",
        [AttributeDef("name", "str", required=True)],
        doc="Logical building block of the project structure",
    )
    schema.define_entity(
        "CellVersion",
        [
            AttributeDef("number", "int", required=True),
            AttributeDef("status", "str", default=STATUS_IN_WORK),
        ],
        doc="Instantiation of a cell; carries its own flow and team",
    )

    # -- Variants partition ---------------------------------------------------
    schema.define_entity(
        "Variant",
        [
            AttributeDef("name", "str", required=True),
            AttributeDef("status", "str", default=STATUS_IN_WORK),
        ],
        doc="Second-level versioning inside a cell version (Section 2.1)",
    )

    # -- Design data partition ---------------------------------------------------
    schema.define_entity(
        "DesignObject",
        [AttributeDef("name", "str", required=True)],
        doc="A named piece of design data of one viewtype, within a variant",
    )
    schema.define_entity(
        "DesignObjectVersion",
        [
            AttributeDef("number", "int", required=True),
            AttributeDef("directory_path", "str"),
        ],
        doc="Versioned design data; payload stored as an OMS blob",
    )
    schema.define_entity(
        "ActiveExecVersion",
        [
            AttributeDef("status", "str", default=EXEC_NOT_STARTED),
            AttributeDef("started_ms", "float"),
            AttributeDef("finished_ms", "float"),
            AttributeDef("forced_early", "bool", default=False),
            # a coupled run's FMCAD side: its library and, per view, the
            # newest version number when it started (views absent had no
            # cellview yet); recovery settles nothing at or below it
            AttributeDef("library", "str"),
            AttributeDef("fmcad_base", "list"),
        ],
        doc="One execution of an activity on a variant",
    )

    # -- Configurations partition ---------------------------------------------------
    schema.define_entity(
        "ConfigVersion",
        [
            AttributeDef("name", "str", required=True),
            AttributeDef("number", "int", required=True),
        ],
        doc="A consistent set of design-object versions",
    )

    schema.define_entity(
        "Workspace",
        [AttributeDef("owner", "str", required=True)],
        doc="A user's private workspace (the multi-user kernel, Section 2.1)",
    )

    # -- Durable flow orchestration (DESIGN.md §15) -----------------------------
    schema.define_entity(
        "FlowInstance",
        [
            AttributeDef("flow_name", "str", required=True),
            AttributeDef("status", "str", default=FLOW_QUEUED),
            AttributeDef("user", "str", required=True),
            AttributeDef("library", "str"),
            AttributeDef("cell", "str"),
            AttributeDef("team", "str"),
            AttributeDef("priority", "int", default=0),
            # name of the registered parameter script that supplies each
            # activity's tool arguments; re-registered after restart
            AttributeDef("script", "str"),
            AttributeDef("variant_oid", "str"),
            # robustness-budget epoch: `flows retry` bumps it, and only
            # attempts of the current epoch count against the budget
            AttributeDef("epoch", "int", default=0),
            # degradation findings: ["activity: reason", ...]
            AttributeDef("findings", "list"),
            AttributeDef("created_ms", "float"),
            AttributeDef("updated_ms", "float"),
            AttributeDef("note", "str"),
        ],
        doc="One persisted flow execution: the durable state machine "
            "crash recovery rolls forward (or compensates)",
    )
    schema.define_entity(
        "FlowAttempt",
        [
            AttributeDef("activity", "str", required=True),
            AttributeDef("attempt", "int", required=True),
            AttributeDef("epoch", "int", default=0),
            AttributeDef("outcome", "str", required=True),
            AttributeDef("error", "str"),
            AttributeDef("started_ms", "float"),
            AttributeDef("finished_ms", "float"),
        ],
        doc="One durably-recorded attempt of one activity of a flow "
            "instance (retry accounting survives the process)",
    )
    schema.define_entity(
        "FlowTrigger",
        [
            AttributeDef("name", "str", required=True),
            AttributeDef("event", "str", required=True),
            AttributeDef("library", "str", default="*"),
            AttributeDef("cell", "str", default="*"),
            AttributeDef("viewtype", "str", default="*"),
            AttributeDef("flow_name", "str", required=True),
            AttributeDef("script", "str"),
            AttributeDef("user", "str"),
            AttributeDef("team", "str"),
            AttributeDef("priority", "int", default=0),
            AttributeDef("enabled", "bool", default=True),
        ],
        doc="Event-driven flow trigger: a matching event enqueues a "
            "downstream flow instance (checkin -> re-simulation)",
    )
    schema.define_entity(
        "TriggerEvent",
        [
            AttributeDef("event", "str", required=True),
            AttributeDef("library", "str"),
            AttributeDef("cell", "str"),
            AttributeDef("viewtype", "str"),
            AttributeDef("state", "str", default=EVENT_PENDING),
            AttributeDef("created_ms", "float"),
            AttributeDef("dispatched_ms", "float"),
        ],
        doc="The durable pending-trigger set: events wait here until "
            "dispatch consumes them exactly once",
    )

    # -- Team relations ------------------------------------------------------------
    schema.define_relationship(
        "member_of", "User", "Team", "M:N", doc="team membership"
    )
    schema.define_relationship(
        "team_supports", "Team", "Project", "M:N",
        doc="teams can be used to support projects",
    )
    schema.define_relationship(
        "manages", "User", "Project", "M:N", doc="project-manager role"
    )

    # -- Flow relations ----------------------------------------------------------------
    schema.define_relationship(
        "flow_has_activity", "Flow", "Activity", "1:N",
        doc="flow decomposes into activities",
    )
    schema.define_relationship(
        "proxy_for", "ActivityProxy", "Activity", "N:1",
        doc="activity proxy inside a flow definition",
    )
    schema.define_relationship(
        "activity_precedes", "Activity", "Activity", "M:N",
        doc="prescribed execution order (Figure 1 'precedes')",
    )
    schema.define_relationship(
        "activity_uses_tool", "Activity", "Tool", "N:1",
        doc="which tool executes the activity (Figure 1 'uses')",
    )
    schema.define_relationship(
        "activity_needs", "Activity", "ViewType", "M:N",
        doc="viewtypes an activity consumes (Figure 1 'Needs')",
    )
    schema.define_relationship(
        "activity_creates", "Activity", "ViewType", "M:N",
        doc="viewtypes an activity produces (Figure 1 'Creates')",
    )

    # -- Project structure relations ---------------------------------------------------
    schema.define_relationship(
        "has_entry", "Project", "Cell", "1:N",
        doc="project has entry cells (Figure 1 'has entry')",
    )
    schema.define_relationship(
        "cell_in_project", "Cell", "Project", "N:1",
        doc="ownership: every cell belongs to exactly one project; data "
            "sharing between projects is not possible (Section 3.1)",
    )
    schema.define_relationship(
        "comp_of", "Cell", "Cell", "M:N",
        doc="CompOf hierarchy between cells — separate metadata, submitted "
            "manually via the desktop (Sections 2.3/3.3)",
    )
    schema.define_relationship(
        "cell_version_of", "Cell", "CellVersion", "1:N",
        doc="cell instantiation (first-level versioning)",
    )
    schema.define_relationship(
        "cv_precedes", "CellVersion", "CellVersion", "M:N",
        doc="cell-version history (Figure 1 'precedes')",
    )
    schema.define_relationship(
        "cv_flow", "CellVersion", "Flow", "N:1",
        doc="the attached flow; each cell version may carry a modified flow",
    )
    schema.define_relationship(
        "cv_team", "CellVersion", "Team", "N:1",
        doc="the attached team; may differ per cell version",
    )

    # -- Variant relations -------------------------------------------------------------
    schema.define_relationship(
        "variant_of", "CellVersion", "Variant", "1:N",
        doc="variants derived within one cell version",
    )
    schema.define_relationship(
        "variant_derived_from", "Variant", "Variant", "M:N",
        doc="variant derivation inside the cell version",
    )

    # -- Design data relations -----------------------------------------------------------
    schema.define_relationship(
        "dobj_in_variant", "Variant", "DesignObject", "1:N",
        doc="design objects carried by a variant",
    )
    schema.define_relationship(
        "dobj_viewtype", "DesignObject", "ViewType", "N:1",
        doc="the design object's representation type",
    )
    schema.define_relationship(
        "dov_of", "DesignObject", "DesignObjectVersion", "1:N",
        doc="design-object versioning (second-level versioning)",
    )
    schema.define_relationship(
        "derived", "DesignObjectVersion", "DesignObjectVersion", "M:N",
        doc="derivation relation (Figure 1 'derived'); source derives target",
    )
    schema.define_relationship(
        "equivalent", "DesignObjectVersion", "DesignObjectVersion", "M:N",
        doc="equivalence relation (Figure 1 'equivalent')",
    )

    # -- Execution relations ---------------------------------------------------------------
    schema.define_relationship(
        "exec_of_activity", "Activity", "ActiveExecVersion", "1:N",
        doc="executions of one activity",
    )
    schema.define_relationship(
        "exec_in_variant", "Variant", "ActiveExecVersion", "1:N",
        doc="execution happens in the context of a variant",
    )
    schema.define_relationship(
        "needs_of_version", "ActiveExecVersion", "DesignObjectVersion", "M:N",
        doc="input versions of an execution (Figure 1 'Needs of Version')",
    )
    schema.define_relationship(
        "creates_version", "ActiveExecVersion", "DesignObjectVersion", "M:N",
        doc="output versions of an execution (Figure 1 'Creates')",
    )

    # -- Configuration relations --------------------------------------------------------------
    schema.define_relationship(
        "config_of", "CellVersion", "ConfigVersion", "1:N",
        doc="configurations belong to a cell version",
    )
    schema.define_relationship(
        "config_precedes", "ConfigVersion", "ConfigVersion", "M:N",
        doc="configuration history (Figure 1 'Configu-Precedes')",
    )
    schema.define_relationship(
        "config_contains", "ConfigVersion", "DesignObjectVersion", "M:N",
        doc="the design-object versions a configuration pins",
    )

    # -- Durable flow relations ------------------------------------------------------------------
    schema.define_relationship(
        "instance_attempt", "FlowInstance", "FlowAttempt", "1:N",
        doc="durably-recorded attempts of one flow instance",
    )
    schema.define_relationship(
        "trigger_spawned", "FlowTrigger", "FlowInstance", "1:N",
        doc="flow instances a trigger dispatch enqueued",
    )

    # -- Workspace relations -------------------------------------------------------------------
    schema.define_relationship(
        "workspace_of", "User", "Workspace", "1:1",
        doc="each user owns one private workspace",
    )
    schema.define_relationship(
        "reserves", "Workspace", "CellVersion", "1:N",
        doc="exclusive reservation: a cell version sits in at most one "
            "workspace at a time",
    )

    return schema
