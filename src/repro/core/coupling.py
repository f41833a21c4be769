"""``HybridFramework`` — the wired-up JCF-FMCAD coupling.

The main entry point of the library.  One shared simulated clock drives
both frameworks; JCF is the master (design management, concurrency,
flows, configurations), FMCAD the slave (libraries, tools, extension
language, ITC).  See ``examples/quickstart.py`` for a guided tour.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, Optional

from repro.clock import SimClock
from repro.core.consistency import ConsistencyGuard
from repro.core.desktop import CombinedDesktop
from repro.core.encapsulation import (
    DigitalSimulatorWrapper,
    LayoutEntryWrapper,
    SchematicEntryWrapper,
    ToolRunResult,
)
from repro.core.hierarchy import HierarchyManager
from repro.core.mapping import DataModelMapper
from repro.core.recovery import CouplingRecovery, IntentJournal, RecoveryReport
from repro.core.scheduler import BatchResult, BatchScheduler, RunRequest
from repro.fmcad.framework import FMCADFramework
from repro.fmcad.library import Library
from repro.jcf.durable_flows import DurableFlowOrchestrator
from repro.jcf.flow_queue import FlowQueue
from repro.jcf.flows import FlowDef, standard_encapsulation_flow
from repro.jcf.triggers import TriggerRegistry
from repro.jcf.framework import JCFFramework
from repro.jcf.project import JCFCellVersion, JCFProject
from repro.oms.readcache import MaterializationCache
from repro.oms.wal import WriteAheadLog

#: the WAL directory lives inside the JCF subtree, next to staging
WAL_DIR_NAME = "wal"


class HybridFramework:
    """One coupled JCF-FMCAD environment rooted at a directory.

    Parameters
    ----------
    root:
        Directory under which both frameworks keep their file trees; a
        workspace already there is recovered, as :meth:`reopen` does.
    clock:
        Shared :class:`~repro.clock.SimClock`; a fresh one by default.
    jcf3_strict:
        Keep the JCF 3.0 restrictions (non-isomorphic hierarchies
        rejected).  Set False to simulate the paper's future release.
    enable_procedural_interface:
        Open the OMS procedural interface (the Section 3.6 ablation);
        JCF 3.0 keeps it closed.
    enable_hierarchy_procedural_interface:
        Let the design tools pass hierarchy information to JCF directly
        (the Section 3.3 future work) instead of relying on manual
        desktop submission.
    allow_cross_project_sharing:
        Permit CompOf references to cells of other projects (the Section
        3.1 future work); JCF 3.0 forbids them.
    persistence:
        Only ``"wal"`` is accepted: every commit is durable in the
        write-ahead log under ``<root>/jcf/wal`` and :meth:`save_state`
        compacts it.  The keyword remains for existing callers.

    Every durable write fsyncs its file and the directory naming it
    (see :mod:`repro.oms.durable`); no setting skips them.
    """

    def __init__(
        self,
        root: pathlib.Path,
        clock: Optional[SimClock] = None,
        jcf3_strict: bool = True,
        enable_procedural_interface: bool = False,
        enable_hierarchy_procedural_interface: bool = False,
        allow_cross_project_sharing: bool = False,
        administrator: str = "admin",
        persistence: str = "wal",
    ) -> None:
        if persistence != "wal":
            raise ValueError(
                f"persistence must be 'wal' (the write-ahead log is the "
                f"only persistence mode): {persistence!r}"
            )
        self.root = pathlib.Path(root)
        self.clock = clock or SimClock()
        self.jcf = JCFFramework(
            self.root / "jcf",
            clock=self.clock,
            administrator=administrator,
            enable_procedural_interface=enable_procedural_interface,
            allow_cross_project_sharing=allow_cross_project_sharing,
            wal=WriteAheadLog(self.root / "jcf" / WAL_DIR_NAME),
        )
        self.fmcad = FMCADFramework(self.root / "fmcad", clock=self.clock)
        # wire the read path before opening any library so each one
        # picks up the shared cache
        self._wire_read_path()
        for library_name in self.fmcad.known_library_names():
            self.fmcad.open_library(library_name)
        self.mapper = DataModelMapper(self.jcf, self.fmcad)
        self.hierarchy = HierarchyManager(
            self.jcf.desktop,
            jcf3_strict=jcf3_strict,
            procedural_interface=enable_hierarchy_procedural_interface,
        )
        self.guard = ConsistencyGuard(
            self.jcf, self.fmcad, self.mapper, self.hierarchy
        )
        self.guard.install_itc_interceptor()
        self.desktop = CombinedDesktop(self.clock)
        self.schematic_entry = SchematicEntryWrapper(
            self.jcf, self.fmcad, self.mapper, self.guard
        )
        self.digital_simulation = DigitalSimulatorWrapper(
            self.jcf, self.fmcad, self.mapper, self.guard
        )
        self.layout_entry = LayoutEntryWrapper(
            self.jcf, self.fmcad, self.mapper, self.guard
        )
        self.intents = IntentJournal(self.jcf.db)
        self.recovery = CouplingRecovery(self.jcf, self.fmcad)
        self._wire_flow_orchestration()
        # staged files from a previous process are a durable CoW cache:
        # re-adopt the ones that still match a live payload, leave true
        # crash leavings for recover() to reclaim
        self.jcf.staging.adopt_existing()

    def _wire_flow_orchestration(self) -> None:
        """Stand up durable flows, triggers and the fair queue.

        All three are stateless over the OMS store (plus process-level
        script/policy registries), so the same wiring serves both a
        fresh environment and one rebuilt by :meth:`reopen` — persisted
        instances, trigger definitions and pending events are simply
        there when the new objects look.
        """
        self.triggers = TriggerRegistry(self.jcf.db)
        self.flows_orchestrator = DurableFlowOrchestrator(self)
        self.flow_queue = FlowQueue(
            self, self.flows_orchestrator, self.triggers
        )
        # tool wrappers raise durable checkin events after every
        # successful harvest, feeding the event-driven triggers
        for wrapper in (
            self.schematic_entry,
            self.digital_simulation,
            self.layout_entry,
        ):
            wrapper.triggers = self.triggers

    # -- read path ----------------------------------------------------------------

    def _wire_read_path(self) -> None:
        """Attach the shared read cache to both frameworks.

        One digest-keyed :class:`MaterializationCache` serves both
        frameworks — blob materializations and FMCAD version reads
        address bytes by the same SHA-256, so a byte proven once is a
        hit everywhere.  Must run before any FMCAD library is opened so
        every library picks the cache up.
        """
        self.read_cache = MaterializationCache()
        self.jcf.db.attach_read_cache(self.read_cache)
        self.fmcad.read_cache = self.read_cache

    # -- environment setup --------------------------------------------------------

    def setup_standard_flow(self, name: str = "jcf_fmcad_flow"):
        """Register the three-tool encapsulation flow of Section 2.4."""
        return self.jcf.register_flow(standard_encapsulation_flow(name))

    def register_flow(self, flow_def: FlowDef):
        return self.jcf.register_flow(flow_def)

    # -- library adoption (Table 1 + hierarchy submission) ---------------------------

    def adopt_library(
        self,
        user: str,
        library: Library,
        project_name: Optional[str] = None,
        submit_hierarchy: bool = True,
    ) -> JCFProject:
        """Bring an FMCAD library under JCF control.

        Applies the Table 1 mapping and then — before any design work —
        performs the manual hierarchy submission of Section 2.3.  With
        ``jcf3_strict`` a non-isomorphic library raises
        :class:`~repro.errors.NonIsomorphicHierarchyError` here.
        """
        project = self.mapper.import_library(library, user, project_name)
        # the import tagged every version with its JCF oid: append the
        # tags to .meta now rather than at the library's next flush
        library.flush_properties(user)
        if submit_hierarchy:
            self.hierarchy.submit_from_library(user, project, library)
        return project

    def prepare_cell(
        self,
        user: str,
        project: JCFProject,
        cell_name: str,
        flow_name: str = "jcf_fmcad_flow",
        team_name: Optional[str] = None,
    ) -> JCFCellVersion:
        """Attach flow (and team) to the cell's latest version, reserve it."""
        cell = project.cell(cell_name)
        cell_version = cell.latest_version()
        if cell_version is None:
            cell_version = cell.create_version()
        if cell_version.published:
            cell_version = cell.create_version()
        cell_version.attach_flow(self.jcf.flows.flow_object(flow_name))
        if team_name is not None:
            cell_version.attach_team(self.jcf.resources.team(team_name))
        from repro.core.mapping import WORKING_VARIANT

        if not any(
            v.name == WORKING_VARIANT for v in cell_version.variants()
        ):
            cell_version.create_variant(WORKING_VARIANT)
        self.jcf.desktop.reserve_cell_version(user, cell_version)
        return cell_version

    # -- coupled tool runs -------------------------------------------------------------

    def run_schematic_entry(
        self, user: str, project: JCFProject, library: Library,
        cell_name: str, edit_fn, force_early: bool = False,
    ) -> ToolRunResult:
        return self.schematic_entry.run(
            user, project, library, cell_name,
            force_early=force_early, edit_fn=edit_fn,
        )

    def run_simulation(
        self, user: str, project: JCFProject, library: Library,
        cell_name: str, testbench_fn, force_early: bool = False,
        grade_coverage: bool = False,
    ) -> ToolRunResult:
        return self.digital_simulation.run(
            user, project, library, cell_name,
            force_early=force_early, testbench_fn=testbench_fn,
            grade_coverage=grade_coverage,
        )

    def run_layout_entry(
        self, user: str, project: JCFProject, library: Library,
        cell_name: str, edit_fn, force_early: bool = False,
        drc_gate: bool = True,
    ) -> ToolRunResult:
        return self.layout_entry.run(
            user, project, library, cell_name,
            force_early=force_early, edit_fn=edit_fn, drc_gate=drc_gate,
        )

    # -- batched parallel runs ---------------------------------------------------------

    def run_many(
        self,
        requests,
        workers: int = 4,
        seed: int = 0,
        commit_scope: str = "",
        sandbox_prefix: str = "",
    ) -> BatchResult:
        """Execute a batch of coupled runs on a worker pool.

        Builds the conflict/dependency graph over *requests* (a sequence
        of :class:`~repro.core.scheduler.RunRequest`), executes
        independent runs concurrently in waves, and returns a
        :class:`~repro.core.scheduler.BatchResult`.  Given the same batch
        and *seed*, the final OMS snapshot is byte-identical for any
        worker count — ``workers=1`` is the sequential baseline.

        *commit_scope* and *sandbox_prefix* exist for callers running
        several batches concurrently (the design server's shards): each
        concurrent batch needs its own commit-group scope and a distinct
        prefix for its runs' staged file names.  Single-batch callers
        leave the defaults.
        """
        scheduler = BatchScheduler(
            self,
            workers=workers,
            seed=seed,
            commit_scope=commit_scope,
            sandbox_prefix=sandbox_prefix,
        )
        return scheduler.run(requests)

    # -- persistence ----------------------------------------------------------------------

    def save_state(self) -> pathlib.Path:
        """Checkpoint the write-ahead log; returns the checkpoint path.

        Every commit is already durable in the log, so this only bounds
        restart replay: the log is compacted into ``wal/checkpoint.json``
        and truncated, the previous checkpoint retained until the new one
        re-verifies from disk (see
        :meth:`repro.oms.wal.WriteAheadLog.checkpoint`).  FMCAD state
        lives on disk already (libraries, version files, ``.meta``, the
        property journals); open ``.meta`` flushes are the caller's
        responsibility, exactly as they were the designer's.
        """
        return self.jcf.checkpoint()

    @classmethod
    def reopen(cls, root: pathlib.Path, **settings: Any) -> "HybridFramework":
        """Restart a hybrid environment from its on-disk state: recover
        the JCF state from the write-ahead log, reopen every FMCAD
        library from its ``.meta``, rehydrate flows.  *settings* are the
        constructor's keywords.  Raises :class:`FileNotFoundError` when
        *root* holds no WAL."""
        wal_root = pathlib.Path(root) / "jcf" / WAL_DIR_NAME
        if not WriteAheadLog.present_at(wal_root):
            raise FileNotFoundError(
                f"no saved state at {wal_root}: not a hybrid workspace"
            )
        return cls(root, **settings)

    # -- crash recovery ---------------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Repair the leavings of crashed coupled runs (see
        :mod:`repro.core.recovery`).  Run on a quiesced environment —
        typically right after :meth:`reopen`."""
        return self.recovery.recover()

    def audit(self):
        """Cross-framework crash-consistency audit; clean means healthy."""
        return self.guard.audit()

    # -- statistics ------------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        wrappers = (
            self.schematic_entry, self.digital_simulation, self.layout_entry
        )
        stats = {
            "clock_ms": self.clock.now_ms,
            "by_category": self.clock.elapsed_by_category(),
            "jcf": self.jcf.stats(),
            "fmcad": self.fmcad.stats(),
            "mapping_coverage": self.mapper.coverage(),
            "hierarchy_rejections": self.hierarchy.rejections,
            "flows": self.flows_orchestrator.stats(),
            "harvest": {
                "delta_hits": sum(w.harvest_delta_hits for w in wrappers),
                "full_imports": sum(w.harvest_full_imports for w in wrappers),
            },
            "read_path": self.read_path_stats(),
        }
        stats["wal"] = self.jcf.wal.stats()
        return stats

    def read_path_stats(self) -> Dict[str, Any]:
        """Read-path effectiveness: cache, memo, reflink clones."""
        return {
            "query_memo": self.jcf.query.memo_stats(),
            "staging_reflinks": (
                self.jcf.staging.accounting()["export_reflinks"]
            ),
            "checkout_clones": (
                self.fmcad.checkouts.stats()["cloned_working_files"]
            ),
            "library_cache_reads": sum(
                library.cache_reads
                for library in self.fmcad._libraries.values()
            ),
            "cache": self.read_cache.stats(),
        }
