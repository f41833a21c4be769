"""Integration: a hybrid environment survives a framework restart.

JCF state persists as an OMS snapshot, FMCAD state as the on-disk
library (version files, ``.meta``, the property journal).  After
``HybridFramework.reopen`` the flow continues exactly where it stopped:
reservations hold, flow progress is remembered, derivation recording
resumes, and the consistency scan still cross-checks both sides.
"""

import pytest

from repro.core import HybridFramework
from repro.core.mapping import WORKING_VARIANT
from repro.errors import FlowOrderError
from repro.workloads.scripts import (
    inverter_chain_bench,
    inverter_chain_editor,
    labelled_strap_layout,
)


@pytest.fixture
def saved_environment(tmp_path):
    """Run half a flow, save state, return the root for reopening."""
    root = tmp_path / "site"
    hybrid = HybridFramework(root)
    hybrid.jcf.resources.define_user("admin", "alice")
    hybrid.jcf.resources.define_team("admin", "team")
    hybrid.jcf.resources.add_member("admin", "alice", "team")
    hybrid.setup_standard_flow()
    library = hybrid.fmcad.create_library("lib")
    library.create_cell("buf2")
    project = hybrid.adopt_library("alice", library, "proj")
    hybrid.jcf.resources.assign_team_to_project("admin", "team",
                                                project.oid)
    hybrid.prepare_cell("alice", project, "buf2", team_name="team")
    hybrid.run_schematic_entry(
        "alice", project, library, "buf2", inverter_chain_editor(2)
    )
    hybrid.run_simulation(
        "alice", project, library, "buf2", inverter_chain_bench(2)
    )
    hybrid.save_state()
    return root


class TestReopen:
    def test_reopen_requires_saved_state(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            HybridFramework.reopen(tmp_path / "never_saved")

    def test_reopen_takes_the_constructor_settings(self, tmp_path):
        root = tmp_path / "ablated"
        built = HybridFramework(root, enable_procedural_interface=True)
        built.fmcad.create_library("lib")
        built.adopt_library("admin", built.fmcad.library("lib"), "proj")
        reopened = HybridFramework.reopen(
            root, enable_procedural_interface=True
        )
        reopened.jcf.db.procedural_interface()  # must not raise
        assert reopened.jcf.project("proj") is not None

    def test_reopen_rejects_unknown_settings(self, saved_environment):
        with pytest.raises(TypeError):
            HybridFramework.reopen(saved_environment, bogus=1)

    def test_metadata_survives(self, saved_environment):
        hybrid = HybridFramework.reopen(saved_environment)
        project = hybrid.jcf.project("proj")
        cell_version = project.cell("buf2").latest_version()
        assert cell_version is not None
        assert hybrid.jcf.workspaces.reserved_by(cell_version) == "alice"
        assert cell_version.attached_flow().get("name") == "jcf_fmcad_flow"

    def test_flow_progress_remembered(self, saved_environment):
        hybrid = HybridFramework.reopen(saved_environment)
        project = hybrid.jcf.project("proj")
        variant = (
            project.cell("buf2").latest_version().variant(WORKING_VARIANT)
        )
        state = hybrid.jcf.engine.state_of(variant)
        assert state.status_by_activity["schematic_entry"] == "done"
        assert state.status_by_activity["digital_simulation"] == "done"
        assert state.status_by_activity["layout_entry"] == "not_started"

    def test_fmcad_library_reopened_from_meta(self, saved_environment):
        hybrid = HybridFramework.reopen(saved_environment)
        library = hybrid.fmcad.library("lib")
        cell = library.cell("buf2")
        assert cell.has_cellview("schematic")
        assert cell.has_cellview("simulation")
        assert cell.cellview("schematic").default_version is not None

    def test_property_journal_restores_jcf_tags(self, saved_environment):
        hybrid = HybridFramework.reopen(saved_environment)
        library = hybrid.fmcad.library("lib")
        version = library.cellview("buf2", "schematic").version(1)
        oid = version.properties.get("jcf_oid")
        assert oid is not None
        assert hybrid.jcf.db.exists(oid)
        # the tags live in .meta: no other metadata file, none per version
        assert [p.name for p in library.directory.iterdir() if p.is_file()] \
            == [".meta"]
        assert list(library.directory.glob("*/*/*.props")) == []

    def test_design_payloads_match_after_restart(self, saved_environment):
        hybrid = HybridFramework.reopen(saved_environment)
        project = hybrid.jcf.project("proj")
        library = hybrid.fmcad.library("lib")
        assert hybrid.guard.scan(project, library) == []

    def test_flow_continues_after_restart(self, saved_environment):
        hybrid = HybridFramework.reopen(saved_environment)
        project = hybrid.jcf.project("proj")
        library = hybrid.fmcad.library("lib")
        result = hybrid.run_layout_entry(
            "alice", project, library, "buf2",
            labelled_strap_layout(["a", "y"]),
        )
        assert result.success
        variant = (
            project.cell("buf2").latest_version().variant(WORKING_VARIANT)
        )
        assert hybrid.jcf.engine.state_of(variant).complete

    def test_flow_order_still_enforced_after_restart(self, tmp_path):
        """A half-run flow cannot be skipped ahead post-restart."""
        root = tmp_path / "site2"
        hybrid = HybridFramework(root)
        hybrid.jcf.resources.define_user("admin", "alice")
        hybrid.jcf.resources.define_team("admin", "team")
        hybrid.jcf.resources.add_member("admin", "alice", "team")
        hybrid.setup_standard_flow()
        library = hybrid.fmcad.create_library("lib")
        library.create_cell("c")
        project = hybrid.adopt_library("alice", library, "p")
        hybrid.jcf.resources.assign_team_to_project("admin", "team",
                                                    project.oid)
        hybrid.prepare_cell("alice", project, "c", team_name="team")
        hybrid.run_schematic_entry(
            "alice", project, library, "c", inverter_chain_editor(2)
        )
        hybrid.save_state()

        reopened = HybridFramework.reopen(root)
        project = reopened.jcf.project("p")
        library = reopened.fmcad.library("lib")
        with pytest.raises(FlowOrderError):
            reopened.run_layout_entry(
                "alice", project, library, "c",
                labelled_strap_layout(["a", "y"]),
            )

    def test_unflushed_versions_lost_on_restart(self, saved_environment):
        """The faithful failure mode: no flush, no memory of the file."""
        hybrid = HybridFramework.reopen(saved_environment)
        library = hybrid.fmcad.library("lib")
        cellview = library.cellview("buf2", "schematic")
        library.write_version(cellview, b"rogue unflushed", "mallory")
        # NO flush_meta before the "crash"
        again = HybridFramework.reopen(saved_environment)
        library2 = again.fmcad.library("lib")
        assert len(library2.cellview("buf2", "schematic").versions) == 1
        assert library2.orphaned_files()  # the file is still on disk
    def test_prepared_cell_without_versions_runs_after_restart(
        self, tmp_path
    ):
        """A cell whose .meta has no record yet still reopens.

        ``.meta`` only records versions; a prepared cell that never got
        one used to vanish on reopen, so its first post-restart run
        failed with "library has no cell".
        """
        root = tmp_path / "site3"
        hybrid = HybridFramework(root)
        hybrid.jcf.resources.define_user("admin", "alice")
        hybrid.jcf.resources.define_team("admin", "team")
        hybrid.jcf.resources.add_member("admin", "alice", "team")
        hybrid.setup_standard_flow()
        library = hybrid.fmcad.create_library("lib")
        library.create_cell("used")
        library.create_cell("spare")
        project = hybrid.adopt_library("alice", library, "p")
        hybrid.jcf.resources.assign_team_to_project("admin", "team",
                                                    project.oid)
        for cell in ("used", "spare"):
            hybrid.prepare_cell("alice", project, cell, team_name="team")
        # flushes .meta with records for "used" only
        hybrid.run_schematic_entry(
            "alice", project, library, "used", inverter_chain_editor(2)
        )
        hybrid.save_state()

        reopened = HybridFramework.reopen(root)
        result = reopened.run_schematic_entry(
            "alice", reopened.jcf.project("p"),
            reopened.fmcad.library("lib"), "spare",
            inverter_chain_editor(2),
        )
        assert result.success
        assert reopened.guard.audit().clean


class TestLibraryDefault:
    def test_commits_after_last_save_survive_a_crash(self, tmp_path):
        """The default environment loses no commit to a crash.

        Every commit is durable in the write-ahead log the moment it
        returns; ``save_state()`` only compacts.  A commit made after
        the last save must therefore survive an instance that is
        dropped without saving.
        """
        root = tmp_path / "site4"
        hybrid = HybridFramework(root)
        hybrid.jcf.resources.define_user("admin", "before_save")
        hybrid.save_state()
        hybrid.jcf.resources.define_user("admin", "after_save")
        del hybrid  # the "crash": no save, no close

        reopened = HybridFramework.reopen(root)
        reopened.recover()
        users = {user.get("name") for user in reopened.jcf.resources.users()}
        assert {"before_save", "after_save"} <= users
        assert reopened.audit().clean


class TestCrashedRunStagingAcrossRestart:
    """A scheduled run's staging names repeat after a restart.

    The design server numbers its batches from 1 again after a restart,
    so a crashed run's prefix comes back: its leftover files must stay
    orphans until ``recover()`` reclaims them, and the run that reuses
    the prefix must still succeed.
    """

    def test_crashed_simulation_files_are_reclaimed_not_adopted(
        self, tmp_path
    ):
        from repro.core.scheduler import RUN_CRASHED
        from repro.faults import FaultPlan, inject
        from tests.conftest import (
            build_wave_environment,
            schematic_wave,
            simulation_wave,
        )

        root = tmp_path / "env"
        hybrid, project, library, cells = build_wave_environment(root, 2)
        entered = hybrid.run_many(schematic_wave(project, library, cells))
        assert all(outcome.ok for outcome in entered.outcomes)
        prefix = "s0b0001_"
        with inject(FaultPlan.crash("run.before_finish")):
            crashed = hybrid.run_many(
                simulation_wave(project, library, cells[:1]),
                sandbox_prefix=prefix,
            )
        assert crashed.outcomes[0].status == RUN_CRASHED
        staging_root = hybrid.jcf.staging.root
        leavings = sorted(
            p for p in staging_root.iterdir()
            if p.name.startswith(f"{prefix}run_000-")
        )
        assert leavings

        reopened = HybridFramework.reopen(root)
        staging = reopened.jcf.staging
        # reopen already tried adopting; a second pass adopts nothing
        # either, because a prefixed name maps to no object id
        assert staging.staged() == []
        assert staging.adopt_existing() == []
        assert staging.orphan_files() == leavings
        findings = [
            f for f in reopened.audit().findings
            if f.category == "staging-orphan"
        ]
        assert len(findings) == len(leavings)

        report = reopened.recover()
        assert sorted(report.reclaimed_staging_files) == [
            p.name for p in leavings
        ]
        assert reopened.audit().clean

        library = reopened.fmcad.library(library.name)
        project = reopened.jcf.project(project.name)
        again = reopened.run_many(
            simulation_wave(project, library, cells), sandbox_prefix=prefix
        )
        assert all(outcome.ok for outcome in again.outcomes), [
            str(outcome.error) for outcome in again.outcomes
        ]
        assert list(staging_root.iterdir()) == []
        assert reopened.audit().clean

