"""Integration: a hybrid environment survives a framework restart.

JCF state persists as an OMS snapshot, FMCAD state as the on-disk
library (version files, ``.meta``, property sidecars).  After
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

    def test_property_sidecars_restore_jcf_tags(self, saved_environment):
        hybrid = HybridFramework.reopen(saved_environment)
        library = hybrid.fmcad.library("lib")
        version = library.cellview("buf2", "schematic").version(1)
        oid = version.properties.get("jcf_oid")
        assert oid is not None
        assert hybrid.jcf.db.exists(oid)

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
