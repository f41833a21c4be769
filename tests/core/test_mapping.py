"""Unit tests for the Table 1 data-model mapping."""

import pytest

from repro.core.mapping import (
    TABLE1_MAPPING,
    DataModelMapper,
    MappingRecord,
    WORKING_VARIANT,
)
from repro.errors import MappingError
from repro.tools.schematic.model import Schematic


@pytest.fixture
def library(hybrid):
    """An FMCAD library with two cells and real version data."""
    library = hybrid.fmcad.create_library("asiclib")
    for cell_name in ("alu", "decoder"):
        library.create_cell(cell_name)
        cellview = library.create_cellview(cell_name, "schematic")
        schematic = Schematic(cell_name)
        schematic.add_port("a", "in")
        schematic.add_port("y", "out")
        from repro.tools.schematic.model import Component

        schematic.add_component(Component("g", "NOT", ninputs=1))
        schematic.connect("a", "g", "in0")
        schematic.connect("y", "g", "out")
        library.write_version(cellview, schematic.to_bytes(), "setup")
        library.write_version(cellview, schematic.to_bytes(), "setup")
    library.flush_meta("setup")
    return library


class TestTable1:
    def test_table_rows_verbatim(self):
        assert TABLE1_MAPPING == (
            ("Project", "Library"),
            ("CellVersion", "Cell"),
            ("ViewType", "View"),
            ("DesignObject", "Cellview"),
            ("DesignObjectVersion", "Cellview Version"),
        )

    def test_mapping_table_accessor(self):
        assert DataModelMapper.mapping_table() == list(TABLE1_MAPPING)


class TestImport:
    def test_import_creates_project(self, hybrid, library):
        project = hybrid.mapper.import_library(library, "alice")
        assert project.name == "asiclib"
        assert {c.name for c in project.cells()} == {"alu", "decoder"}

    def test_fmcad_cell_becomes_cell_version(self, hybrid, library):
        project = hybrid.mapper.import_library(library, "alice")
        cell = project.cell("alu")
        assert len(cell.versions()) == 1

    def test_cellviews_become_design_objects(self, hybrid, library):
        project = hybrid.mapper.import_library(library, "alice")
        variant = (
            project.cell("alu").latest_version().variant(WORKING_VARIANT)
        )
        dobjs = variant.design_objects()
        assert [d.name for d in dobjs] == ["alu/schematic"]
        assert dobjs[0].viewtype_name == "schematic"

    def test_every_version_imported_with_payload(self, hybrid, library):
        project = hybrid.mapper.import_library(library, "alice")
        variant = (
            project.cell("alu").latest_version().variant(WORKING_VARIANT)
        )
        dobj = variant.design_objects()[0]
        assert len(dobj.versions()) == 2
        original = library.read_version(library.cellview("alu", "schematic"), 1)
        assert hybrid.jcf.db.get(dobj.version(1).oid).payload == original

    def test_import_charges_copy_costs(self, hybrid, library):
        before = hybrid.clock.elapsed_by_category().get("copy", 0.0)
        hybrid.mapper.import_library(library, "alice")
        assert hybrid.clock.elapsed_by_category()["copy"] > before

    def test_fmcad_versions_tagged_with_jcf_oid(self, hybrid, library):
        hybrid.mapper.import_library(library, "alice")
        version = library.cellview("alu", "schematic").version(1)
        oid = version.properties.get("jcf_oid")
        assert oid is not None and hybrid.jcf.db.exists(oid)

    def test_reimport_rejected(self, hybrid, library):
        hybrid.mapper.import_library(library, "alice")
        with pytest.raises(MappingError):
            hybrid.mapper.import_library(library, "alice")

    def test_coverage_counts_all_rows(self, hybrid, library):
        hybrid.mapper.import_library(library, "alice")
        coverage = hybrid.mapper.coverage()
        assert coverage["Project"] == 1
        assert coverage["CellVersion"] == 2
        assert coverage["DesignObject"] == 2
        assert coverage["DesignObjectVersion"] == 4

    def test_record_membership_does_not_scan(self, hybrid, monkeypatch):
        """Recording a correspondence costs O(1), not O(records)."""
        budget = 8
        comparisons = []
        original_eq = MappingRecord.__eq__

        def counting_eq(record, other):
            comparisons.append(record)
            if len(comparisons) > budget:  # fail fast on a linear scan
                raise AssertionError("MappingRecord compared per record")
            return original_eq(record, other)

        monkeypatch.setattr(MappingRecord, "__eq__", counting_eq)
        mapper = hybrid.mapper
        before = len(mapper.records)
        for i in range(5000):
            mapper._record("CellVersion", f"oid{i}", "Cell", f"cell{i}")
        mapper._record("CellVersion", "oid4999", "Cell", "cell4999")
        assert len(mapper.records) == before + 5000
        assert len(comparisons) <= budget
        monkeypatch.undo()
        # insertion order is kept for the per-kind listings
        assert [r.jcf_oid for r in mapper.records_of_kind("CellVersion")][
            -3:
        ] == ["oid4997", "oid4998", "oid4999"]
        assert mapper.coverage()["CellVersion"] >= 5000

    def test_jcf_oid_lookup(self, hybrid, library):
        project = hybrid.mapper.import_library(library, "alice")
        oid = hybrid.mapper.jcf_oid_for("Library", "asiclib")
        assert oid == project.oid


class TestExport:
    def test_round_trip_preserves_structure_and_data(self, hybrid, library):
        project = hybrid.mapper.import_library(library, "alice")
        exported = hybrid.mapper.export_project(project)
        assert {c.name for c in exported.cells()} == {"alu", "decoder"}
        original = library.read_version(
            library.cellview("alu", "schematic")
        )
        round_tripped = exported.read_version(
            exported.cellview("alu", "schematic")
        )
        assert round_tripped == original

    def test_export_keeps_version_count(self, hybrid, library):
        project = hybrid.mapper.import_library(library, "alice")
        exported = hybrid.mapper.export_project(project)
        assert len(exported.cellview("alu", "schematic").versions) == 2

    def test_export_drops_non_working_variants(self, hybrid, library):
        """FMCAD's one-level model cannot hold extra variants (§3.2)."""
        project = hybrid.mapper.import_library(library, "alice")
        cell_version = project.cell("alu").latest_version()
        extra = cell_version.create_variant("experiment")
        dobj = extra.create_design_object("alu/layout", "layout")
        dobj.new_version(b"experimental layout")
        exported = hybrid.mapper.export_project(project)
        assert not exported.cell("alu").has_cellview("layout")

    def test_export_custom_name(self, hybrid, library):
        project = hybrid.mapper.import_library(library, "alice")
        exported = hybrid.mapper.export_project(project, "backup")
        assert exported.name == "backup"


class TestConfigurationMirroring:
    def make_flowed(self, hybrid):
        from tests.conftest import (
            build_inverter_editor_fn,
            inverter_testbench_fn,
            simple_layout_fn,
        )

        library = hybrid.fmcad.create_library("cfglib")
        library.create_cell("cell")
        project = hybrid.adopt_library("alice", library, "cfgproj")
        hybrid.jcf.resources.assign_team_to_project(
            "admin", "team1", project.oid
        )
        hybrid.prepare_cell("alice", project, "cell", team_name="team1")
        hybrid.run_schematic_entry(
            "alice", project, library, "cell", build_inverter_editor_fn(2)
        )
        hybrid.run_simulation(
            "alice", project, library, "cell", inverter_testbench_fn(2)
        )
        hybrid.run_layout_entry(
            "alice", project, library, "cell", simple_layout_fn()
        )
        return project, library

    def test_jcf_configuration_mirrors_into_fmcad(self, hybrid):
        from repro.core.mapping import WORKING_VARIANT

        project, library = self.make_flowed(hybrid)
        cell_version = project.cell("cell").latest_version()
        config = hybrid.jcf.configurations.create(cell_version, "tapeout")
        variant = cell_version.variant(WORKING_VARIANT)
        for dobj in variant.design_objects():
            hybrid.jcf.configurations.pin(config, dobj.latest_version())

        fmcad_config = hybrid.mapper.export_configuration(config, library)
        assert fmcad_config.name == "tapeout"
        # one pin per design object (schematic, symbol, simulation, layout)
        assert len(fmcad_config) == 4
        assert fmcad_config.validate() == []
        # the pinned versions are exactly the byte-identical mirrors
        for pinned in fmcad_config.resolve():
            oid = pinned.properties.get("jcf_oid")
            assert hybrid.jcf.db.get(oid).payload == pinned.read_data()

    def test_unmirrored_version_rejected(self, hybrid):
        from repro.core.mapping import WORKING_VARIANT
        from repro.errors import MappingError

        project, library = self.make_flowed(hybrid)
        cell_version = project.cell("cell").latest_version()
        config = hybrid.jcf.configurations.create(cell_version, "broken")
        variant = cell_version.variant(WORKING_VARIANT)
        # a design object created purely on the JCF side has no mirror
        orphan = variant.create_design_object("jcf_only", "netlist")
        orphan_version = orphan.new_version(b"jcf only data")
        hybrid.jcf.configurations.pin(config, orphan_version)
        with pytest.raises(MappingError, match="no FMCAD mirror"):
            hybrid.mapper.export_configuration(config, library)
