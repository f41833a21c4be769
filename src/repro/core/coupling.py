"""``HybridFramework`` — the wired-up JCF-FMCAD coupling.

The main entry point of the library.  One shared simulated clock drives
both frameworks; JCF is the master (design management, concurrency,
flows, configurations), FMCAD the slave (libraries, tools, extension
language, ITC).  See ``examples/quickstart.py`` for a guided tour.
"""

from __future__ import annotations

import os
import pathlib
from typing import Any, Dict, Optional

from repro.clock import SimClock
from repro.errors import SnapshotIntegrityError
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
from repro.oms import durable
from repro.oms.readcache import DEFAULT_BUDGET_BYTES, MaterializationCache
from repro.oms.snapshot import verify_snapshot_bytes
from repro.oms.wal import WriteAheadLog

#: the WAL directory lives inside the JCF subtree, next to staging
WAL_DIR_NAME = "wal"


class HybridFramework:
    """One coupled JCF-FMCAD environment rooted at a directory.

    Parameters
    ----------
    root:
        Directory under which both frameworks keep their file trees.
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
        ``"snapshot"`` (the paper-faithful whole-graph save the seed
        reproduced) or ``"wal"`` (write-ahead log + periodic compaction;
        commit durability cost is O(change set) — the ROADMAP item 2
        engineering fix).
    durability:
        ``"full"`` (fsync files and directories on every durable write),
        ``"relaxed"`` (same write sequence, fsyncs skipped) or ``None``
        to follow the process default (see :mod:`repro.oms.durable`).
    read_cache_bytes:
        Byte budget of the shared materialization cache serving verified
        payload and version reads.  ``None`` (default) consults the
        ``REPRO_READ_CACHE_BYTES`` environment knob and falls back to
        64 MiB; ``0`` disables the cache.
    """

    PERSISTENCE_MODES = ("snapshot", "wal")

    def __init__(
        self,
        root: pathlib.Path,
        clock: Optional[SimClock] = None,
        jcf3_strict: bool = True,
        enable_procedural_interface: bool = False,
        enable_hierarchy_procedural_interface: bool = False,
        allow_cross_project_sharing: bool = False,
        administrator: str = "admin",
        persistence: str = "snapshot",
        durability: Optional[str] = None,
        read_cache_bytes: Optional[int] = None,
    ) -> None:
        if persistence not in self.PERSISTENCE_MODES:
            raise ValueError(
                f"persistence must be one of {self.PERSISTENCE_MODES}: "
                f"{persistence!r}"
            )
        self.root = pathlib.Path(root)
        self.clock = clock or SimClock()
        self.persistence = persistence
        self.durability = durability
        wal = None
        if persistence == "wal":
            wal = WriteAheadLog(
                self.root / "jcf" / WAL_DIR_NAME, durability_mode=durability
            )
        self.jcf = JCFFramework(
            self.root / "jcf",
            clock=self.clock,
            administrator=administrator,
            enable_procedural_interface=enable_procedural_interface,
            allow_cross_project_sharing=allow_cross_project_sharing,
            wal=wal,
        )
        self.fmcad = FMCADFramework(self.root / "fmcad", clock=self.clock)
        self._wire_read_path(read_cache_bytes)
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

    @staticmethod
    def _resolve_cache_budget(read_cache_bytes: Optional[int]) -> int:
        if read_cache_bytes is not None:
            return read_cache_bytes
        env = os.environ.get("REPRO_READ_CACHE_BYTES", "")
        if env:
            try:
                return int(env)
            except ValueError:
                pass
        return DEFAULT_BUDGET_BYTES

    def _wire_read_path(self, read_cache_bytes: Optional[int]) -> None:
        """Attach the shared read cache to both frameworks.

        One digest-keyed :class:`MaterializationCache` serves both
        frameworks — blob materializations and FMCAD version reads
        address bytes by the same SHA-256, so a byte proven once is a
        hit everywhere.  Must run before any FMCAD library is opened so
        every library picks the cache up.
        """
        budget = self._resolve_cache_budget(read_cache_bytes)
        self.read_cache = (
            MaterializationCache(budget) if budget > 0 else None
        )
        if self.read_cache is not None:
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
        sandbox namespace.  Single-batch callers leave the defaults.
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

    SNAPSHOT_NAME = "jcf_snapshot.json"
    PREV_SNAPSHOT_NAME = "jcf_snapshot.json.prev"

    def save_state(self) -> pathlib.Path:
        """Persist everything needed to reopen this environment.

        FMCAD state already lives on disk (libraries, version files,
        ``.meta``, property sidecars); the JCF/OMS state goes through the
        configured persistence mode.  Open ``.meta`` flushes are the
        caller's responsibility, exactly as they were the designer's.

        In ``"wal"`` mode this is a checkpoint: the log is compacted
        into ``wal/checkpoint.json`` and truncated, with the previous
        checkpoint retained until the new one re-verifies from disk
        (see :meth:`repro.oms.wal.WriteAheadLog.checkpoint`).

        In ``"snapshot"`` mode the whole graph is serialised, verified
        **before** publication, durably written, and the previous
        snapshot is kept as ``jcf_snapshot.json.prev`` — the old state
        file is never destroyed by an unverified successor, and
        :meth:`reopen` falls back to it when the current file is
        damaged at rest.
        """
        if self.persistence == "wal":
            return self.jcf.checkpoint()
        path = self.root / self.SNAPSHOT_NAME
        data = self.jcf.save_snapshot()
        problem = verify_snapshot_bytes(data)
        if problem is not None:
            # a snapshot that cannot prove itself must not replace the
            # previous good state file
            raise SnapshotIntegrityError(
                f"save_state aborted: fresh snapshot fails verification "
                f"({problem})",
                location=str(path),
                classification=problem,
            )
        # durable temp write + atomic rename, previous snapshot demoted
        # to .prev (not deleted) until its successor has proven itself
        tmp = path.with_name(path.name + ".tmp")
        durable.write_bytes(tmp, data, mode=self.durability)
        if path.exists():
            durable.replace(
                path, self.root / self.PREV_SNAPSHOT_NAME,
                mode=self.durability,
            )
        durable.replace(tmp, path, mode=self.durability)
        problem = verify_snapshot_bytes(path.read_bytes())
        if problem is not None:  # pragma: no cover - needs hostile fs
            raise SnapshotIntegrityError(
                f"save_state readback failed verification ({problem}); "
                f"previous state retained as {self.PREV_SNAPSHOT_NAME}",
                location=str(path),
                classification=problem,
            )
        return path

    @classmethod
    def _load_snapshot_bytes(cls, root: pathlib.Path) -> bytes:
        """Read the state snapshot, falling back to the retained ``.prev``.

        The current file wins when it verifies; at-rest damage (or a
        crash window that left only the demoted previous snapshot)
        falls back.  Both missing is a hard error; both damaged raises
        the current file's failure rather than silently starting empty.
        """
        current = root / cls.SNAPSHOT_NAME
        previous = root / cls.PREV_SNAPSHOT_NAME
        if not current.exists() and not previous.exists():
            raise FileNotFoundError(
                f"no saved state at {current}; call save_state() "
                "before reopening"
            )
        if current.exists():
            data = current.read_bytes()
            if verify_snapshot_bytes(data) is None:
                return data
            if previous.exists():
                fallback = previous.read_bytes()
                if verify_snapshot_bytes(fallback) is None:
                    return fallback
            raise SnapshotIntegrityError(
                f"state snapshot {current} fails verification "
                f"({verify_snapshot_bytes(data)}) and no verified "
                f"previous snapshot exists",
                location=str(current),
                classification=verify_snapshot_bytes(data) or "bit-rot",
            )
        data = previous.read_bytes()
        if verify_snapshot_bytes(data) is not None:
            raise SnapshotIntegrityError(
                f"only snapshot on disk ({previous}) fails verification",
                location=str(previous),
                classification=verify_snapshot_bytes(data) or "bit-rot",
            )
        return data

    @classmethod
    def reopen(
        cls,
        root: pathlib.Path,
        clock: Optional[SimClock] = None,
        jcf3_strict: bool = True,
        enable_hierarchy_procedural_interface: bool = False,
        administrator: str = "admin",
        durability: Optional[str] = None,
        read_cache_bytes: Optional[int] = None,
    ) -> "HybridFramework":
        """Restart a hybrid environment previously saved with
        :meth:`save_state`: restore the JCF state (auto-detecting WAL
        versus snapshot persistence), reopen every on-disk FMCAD
        library from its ``.meta``, rehydrate flows."""
        root = pathlib.Path(root)
        wal_root = root / "jcf" / WAL_DIR_NAME
        instance = cls.__new__(cls)
        instance.root = root
        instance.clock = clock or SimClock()
        instance.durability = durability
        if WriteAheadLog.present_at(wal_root):
            instance.persistence = "wal"
            instance.jcf = JCFFramework(
                root / "jcf",
                clock=instance.clock,
                administrator=administrator,
                wal=WriteAheadLog(wal_root, durability_mode=durability),
            )
        else:
            instance.persistence = "snapshot"
            instance.jcf = JCFFramework(
                root / "jcf",
                clock=instance.clock,
                administrator=administrator,
                snapshot=cls._load_snapshot_bytes(root),
            )
        instance.fmcad = FMCADFramework(
            root / "fmcad", clock=instance.clock
        )
        # wire the read path before opening any library so each one
        # picks up the shared cache
        instance._wire_read_path(read_cache_bytes)
        for library_name in instance.fmcad.known_library_names():
            instance.fmcad.open_library(library_name)
        instance.mapper = DataModelMapper(instance.jcf, instance.fmcad)
        instance.hierarchy = HierarchyManager(
            instance.jcf.desktop,
            jcf3_strict=jcf3_strict,
            procedural_interface=enable_hierarchy_procedural_interface,
        )
        instance.guard = ConsistencyGuard(
            instance.jcf, instance.fmcad, instance.mapper,
            instance.hierarchy,
        )
        instance.guard.install_itc_interceptor()
        instance.desktop = CombinedDesktop(instance.clock)
        instance.schematic_entry = SchematicEntryWrapper(
            instance.jcf, instance.fmcad, instance.mapper, instance.guard
        )
        instance.digital_simulation = DigitalSimulatorWrapper(
            instance.jcf, instance.fmcad, instance.mapper, instance.guard
        )
        instance.layout_entry = LayoutEntryWrapper(
            instance.jcf, instance.fmcad, instance.mapper, instance.guard
        )
        instance.intents = IntentJournal(instance.jcf.db)
        instance.recovery = CouplingRecovery(instance.jcf, instance.fmcad)
        instance._wire_flow_orchestration()
        # staged files from the previous process are a durable CoW cache:
        # re-adopt the ones that still match a live payload, leave true
        # crash leavings for recover() to reclaim
        instance.jcf.staging.adopt_existing()
        return instance

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
            "persistence": self.persistence,
            "flows": self.flows_orchestrator.stats(),
            "harvest": {
                "delta_hits": sum(w.harvest_delta_hits for w in wrappers),
                "full_imports": sum(w.harvest_full_imports for w in wrappers),
            },
            "read_path": self.read_path_stats(),
        }
        if self.jcf.wal is not None:
            stats["wal"] = self.jcf.wal.stats()
        return stats

    def read_path_stats(self) -> Dict[str, Any]:
        """Read-path effectiveness: cache, memo, reflink clones."""
        report: Dict[str, Any] = {
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
        }
        if self.read_cache is not None:
            report["cache"] = self.read_cache.stats()
        return report
