"""FIG1 / FIG2 — regenerate the two information-architecture figures.

The paper's Figures 1 and 2 are entity-relationship diagrams.  The
reproduction expresses both models as machine-checkable schemas; these
benchmarks introspect the implementations, print the inventory that
corresponds to each figure, and assert that every box and edge of the
figures is present.
"""

import importlib
import tempfile

from repro.fmcad.framework import FMCADFramework
from repro.fmcad.objects import STANDARD_VIEWTYPES
from repro.jcf.model import build_jcf_schema
from repro.workloads.metrics import format_table

#: Figure 1 inventory (boxes of the published diagram -> schema entity).
FIG1_BOXES = {
    "Project": "Project",
    "Cell": "Cell",
    "Cell Version": "CellVersion",
    "Variant": "Variant",
    "Design Object": "DesignObject",
    "Design Obj Version": "DesignObjectVersion",
    "Active Exec Version": "ActiveExecVersion",
    "Config. Version": "ConfigVersion",
    "Flow": "Flow",
    "Activity": "Activity",
    "Activity Proxy": "ActivityProxy",
    "Tool": "Tool",
    "ViewType": "ViewType",
    "Team": "Team",
}

#: Figure 1 labelled edges -> schema relationship.
FIG1_EDGES = {
    "has entry": "has_entry",
    "CompOf hierarchy": "comp_of",
    "precedes (cell version)": "cv_precedes",
    "equivalent": "equivalent",
    "derived": "derived",
    "Configu-Precedes": "config_precedes",
    "uses (tool)": "activity_uses_tool",
    "Needs": "activity_needs",
    "Creates": "activity_creates",
    "Needs of Version": "needs_of_version",
    "precedes (activity)": "activity_precedes",
}

#: Figure 2 object kinds (Section 2.2 names) -> realisation in the
#: FMCAD package, as ``module:attribute`` references.
FIG2_OBJECTS = [
    ("Library", "repro.fmcad.library:Library"),
    ("Cell", "repro.fmcad.objects:Cell"),
    ("View", "repro.fmcad.objects:View"),
    ("Viewtype", "repro.fmcad.objects:ViewType"),
    ("CellView", "repro.fmcad.objects:CellView"),
    ("CellView Version", "repro.fmcad.objects:CellViewVersion"),
    ("Config", "repro.fmcad.configurations:FMCADConfiguration"),
    ("Property", "repro.fmcad.properties:PropertyBag"),
    ("CheckOut Status", "repro.fmcad.checkout:CheckoutTicket"),
    ("Locked Flag", "repro.fmcad.objects:CellView.locked_by"),
    (".meta file", "repro.fmcad.metafile:MetaFile"),
]


class TestFig1:
    def test_fig1_jcf_schema(self, benchmark, report_writer):
        schema = benchmark(build_jcf_schema)

        entities = set(schema.entity_names())
        relationships = set(schema.relationship_names())
        for box, entity in FIG1_BOXES.items():
            assert entity in entities, f"Figure 1 box missing: {box}"
        for edge, relationship in FIG1_EDGES.items():
            assert relationship in relationships, (
                f"Figure 1 edge missing: {edge}"
            )

        rows = [
            [entity, len(schema.entity(entity).attributes),
             len(schema.relationships_of(entity))]
            for entity in sorted(entities)
        ]
        report = (
            "Figure 1 — JCF 3.0 information architecture "
            "(regenerated by schema introspection)\n\n"
        )
        report += format_table(
            ["entity", "attributes", "relationships"], rows
        )
        report += (
            f"\n\nentities: {len(entities)}  "
            f"relationship types: {len(relationships)}"
        )
        report_writer("fig1_jcf_schema", report)

        # also emit the figure itself, as Graphviz DOT
        from benchmarks.conftest import RESULTS_DIR

        dot = schema.to_dot(
            "Figure 1 - JCF 3.0 information architecture (regenerated)"
        )
        (RESULTS_DIR / "fig1_jcf_schema.dot").write_text(dot)
        assert '"Cell" -> "CellVersion"' in dot


def _resolve(reference: str):
    """Resolve ``module:attr`` or ``module:Class.attr`` references."""
    module_name, _, attr_path = reference.partition(":")
    obj = importlib.import_module(module_name)
    for part in attr_path.split("."):
        if not hasattr(obj, part) and hasattr(obj, "__slots__"):
            # attribute of instances declared via __slots__ or __init__
            return f"{obj.__name__}.{part}"
        obj = getattr(obj, part, None)
        if obj is None:
            raise AssertionError(f"unresolvable reference: {reference}")
    return obj


class TestFig2:
    def test_fig2_fmcad_model(self, benchmark, report_writer):
        rows = []
        for figure_name, reference in FIG2_OBJECTS:
            module_name, _, attr_path = reference.partition(":")
            module = importlib.import_module(module_name)
            root_attr = attr_path.split(".")[0]
            assert hasattr(module, root_attr), reference
            rows.append([figure_name, reference])

        def exercise():
            with tempfile.TemporaryDirectory() as root:
                framework = FMCADFramework(root)
                library = framework.create_library("l")
                library.create_cell("c")
                cellview = library.create_cellview("c", "schematic")
                library.write_version(cellview, b"design data", "u")
                library.flush_meta("u")
                return library.stats()

        stats = benchmark(exercise)
        assert stats["versions"] == 1

        report = (
            "Figure 2 — FMCAD information architecture "
            "(object kinds and their realisation)\n\n"
        )
        report += format_table(["Figure 2 object", "implementation"], rows)
        report += "\n\nstandard viewtypes: " + ", ".join(
            sorted(STANDARD_VIEWTYPES)
        )
        report_writer("fig2_fmcad_model", report)
