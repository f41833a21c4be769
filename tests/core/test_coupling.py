"""Unit tests for the HybridFramework facade."""

import pytest

from repro.core.coupling import HybridFramework
from repro.errors import NonIsomorphicHierarchyError


class TestConstruction:
    def test_shared_clock(self, hybrid):
        assert hybrid.jcf.clock is hybrid.clock
        assert hybrid.fmcad.clock is hybrid.clock

    def test_itc_interceptor_installed(self, hybrid):
        assert hybrid.fmcad.bus._interceptors

    def test_strict_mode_default(self, hybrid):
        assert hybrid.hierarchy.jcf3_strict

    def test_future_mode_flag(self, tmp_path):
        future = HybridFramework(tmp_path / "f", jcf3_strict=False)
        assert not future.hierarchy.jcf3_strict

    def test_procedural_interface_flag(self, tmp_path):
        ablated = HybridFramework(
            tmp_path / "a", enable_procedural_interface=True
        )
        ablated.jcf.db.procedural_interface()  # must not raise

    def test_write_ahead_log_always_attached(self, hybrid):
        assert hybrid.jcf.db.wal is hybrid.jcf.wal is not None
        assert hybrid.save_state() == hybrid.jcf.wal.checkpoint_path

    def test_only_wal_persistence_accepted(self, tmp_path):
        HybridFramework(tmp_path / "w", persistence="wal")
        with pytest.raises(ValueError):
            HybridFramework(tmp_path / "s", persistence="snapshot")


class TestAdoptLibrary:
    def test_adopt_maps_and_submits(self, hybrid):
        library = hybrid.fmcad.create_library("lib")
        library.create_cell("c1")
        project = hybrid.adopt_library("alice", library, "proj")
        assert project.name == "proj"
        assert project.cell("c1")

    def test_adopt_without_hierarchy_submission(self, hybrid):
        library = hybrid.fmcad.create_library("lib")
        library.create_cell("c1")
        project = hybrid.adopt_library(
            "alice", library, submit_hierarchy=False
        )
        assert hybrid.jcf.desktop.declared_hierarchy(project) == []


class TestPrepareCell:
    def make_adopted(self, hybrid):
        library = hybrid.fmcad.create_library("lib")
        library.create_cell("c1")
        project = hybrid.adopt_library("alice", library)
        hybrid.jcf.resources.assign_team_to_project(
            "admin", "team1", project.oid
        )
        return project

    def test_prepare_attaches_and_reserves(self, hybrid):
        project = self.make_adopted(hybrid)
        cell_version = hybrid.prepare_cell(
            "alice", project, "c1", team_name="team1"
        )
        assert cell_version.attached_flow().get("name") == "jcf_fmcad_flow"
        assert cell_version.attached_team().get("name") == "team1"
        assert hybrid.jcf.workspaces.can_write("alice", cell_version)

    def test_prepare_published_cell_creates_new_version(self, hybrid):
        project = self.make_adopted(hybrid)
        first = hybrid.prepare_cell("alice", project, "c1",
                                    team_name="team1")
        hybrid.jcf.workspaces.publish("alice", first)
        second = hybrid.prepare_cell("alice", project, "c1",
                                     team_name="team1")
        assert second.number == first.number + 1

    def test_prepare_cell_without_versions_creates_one(self, hybrid):
        project = self.make_adopted(hybrid)
        extra = project.create_cell("freshcell")
        assert extra.latest_version() is None
        cell_version = hybrid.prepare_cell(
            "alice", project, "freshcell", team_name="team1"
        )
        assert cell_version.number == 1


class TestStats:
    def test_stats_shape(self, hybrid):
        stats = hybrid.stats()
        assert "clock_ms" in stats
        assert "mapping_coverage" in stats
        assert stats["hierarchy_rejections"] == 0
