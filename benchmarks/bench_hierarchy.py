"""E33 — Section 3.3: handling of design hierarchies.

Three measurements:

1. **Manual submission cost** — hierarchy information must be passed to
   JCF by hand via the desktop before design work starts; the cost is
   one interaction per CompOf edge and grows with design size.
2. **JCF 3.0 strict mode** — non-isomorphic designs (layout hierarchy
   differs from schematic hierarchy) are rejected.
3. **Future-release ablation** — the same designs are accepted when
   non-isomorphic support is enabled, with conflicts recorded.
"""

import pathlib
import shutil
import tempfile
import weakref

import pytest

from repro.core import HybridFramework
from repro.core.hierarchy import (
    HierarchyManager,
    extract_children_map,
)
from repro.errors import HierarchyError
from repro.errors import NonIsomorphicHierarchyError
from repro.workloads.designs import (
    DesignSpec,
    generate_design,
    generate_layout_for,
    populate_library,
)
from repro.workloads.metrics import format_table

SIZES = [
    DesignSpec(name="d", depth=1, fanout=2, seed=5),    # 3 cells
    DesignSpec(name="d", depth=2, fanout=2, seed=5),    # 7 cells
    DesignSpec(name="d", depth=2, fanout=3, seed=5),    # 13 cells
    DesignSpec(name="d", depth=3, fanout=3, seed=5),    # 40 cells
]


def fresh_env(strict=True):
    root = tempfile.mkdtemp()
    hybrid = HybridFramework(pathlib.Path(root), jcf3_strict=strict)
    # the workspace goes with the framework (or at exit)
    weakref.finalize(hybrid, shutil.rmtree, root, True)
    hybrid.jcf.resources.define_user("admin", "alice")
    hybrid.jcf.resources.define_team("admin", "team")
    hybrid.jcf.resources.add_member("admin", "alice", "team")
    hybrid.setup_standard_flow()
    return hybrid


class TestSubmissionCost:
    def test_e33_manual_submission_cost(self, benchmark, report_writer):
        rows = []
        for spec in SIZES:
            hybrid = fresh_env()
            design = generate_design(spec)
            library = populate_library(hybrid.fmcad, "lib", design)
            interactions_before = hybrid.jcf.desktop.total_interactions()
            hybrid.adopt_library("alice", library, "proj")
            submission = hybrid.hierarchy.submissions[-1]
            rows.append([
                spec.num_cells,
                len(design.hierarchy),
                submission.desktop_interactions,
                hybrid.jcf.desktop.total_interactions()
                - interactions_before,
            ])
            # cost is exactly one desktop interaction per edge
            assert submission.desktop_interactions == len(design.hierarchy)

        # monotone growth with design size
        submission_costs = [row[2] for row in rows]
        assert submission_costs == sorted(submission_costs)
        assert submission_costs[-1] > submission_costs[0]

        # time hierarchy extraction on the largest design
        hybrid = fresh_env()
        design = generate_design(SIZES[-1])
        library = populate_library(hybrid.fmcad, "lib", design)
        benchmark(lambda: extract_children_map(library, "schematic"))

        report = (
            "E33a (Section 3.3) — manual hierarchy submission before "
            "design start\n\n"
        )
        report += format_table(
            ["cells", "hierarchy edges", "submission interactions",
             "total desktop interactions"],
            rows,
        )
        report += (
            "\n\npaper claim reproduced: all hierarchical manipulations "
            "must be done\nmanually via the JCF desktop — a per-edge cost "
            "that grows with the design."
        )
        report_writer("e33a_submission_cost", report)


class TestIsomorphismRule:
    def test_e33_strict_vs_future(self, benchmark, report_writer):
        spec = DesignSpec(name="d", depth=2, fanout=2, seed=9)
        rows = []

        scenarios = [
            ("isomorphic", True, True),
            ("non-isomorphic", True, False),
            ("non-isomorphic (future mode)", False, False),
        ]
        for label, strict, isomorphic in scenarios:
            hybrid = fresh_env(strict=strict)
            design = generate_design(spec)
            if not isomorphic:
                design.layouts["d"] = generate_layout_for(
                    design.schematics["d"], isomorphic=False
                )
            library = populate_library(hybrid.fmcad, "lib", design)
            project = hybrid.mapper.import_library(library, "alice", "p")
            manager = HierarchyManager(
                hybrid.jcf.desktop, jcf3_strict=strict
            )
            try:
                submission = manager.submit_from_library(
                    "alice", project, library
                )
                rows.append([
                    label, "accepted", len(submission.conflicts),
                    submission.desktop_interactions,
                ])
                accepted = True
            except NonIsomorphicHierarchyError:
                rows.append([label, "REJECTED", len(
                    manager.submissions[-1].conflicts
                ), 0])
                accepted = False
            if label == "isomorphic":
                assert accepted
            elif strict:
                assert not accepted, (
                    "JCF 3.0 must reject non-isomorphic hierarchies"
                )
            else:
                assert accepted, "future mode must accept"

        # time the isomorphism decision itself
        hybrid = fresh_env()
        design = generate_design(spec)
        library = populate_library(hybrid.fmcad, "lib", design)

        def decide():
            functional = extract_children_map(library, "schematic")
            physical = extract_children_map(library, "layout")
            from repro.core.hierarchy import hierarchies_isomorphic

            return hierarchies_isomorphic(functional, physical)

        assert benchmark(decide) is True

        report = (
            "E33b (Section 3.3) — non-isomorphic hierarchies: JCF 3.0 "
            "vs future release\n\n"
        )
        report += format_table(
            ["design", "outcome", "conflicts", "interactions paid"], rows
        )
        report += (
            "\n\npaper claim reproduced: the current hybrid framework "
            "cannot support\nnon-isomorphic hierarchies (JCF 3.0); the "
            "announced future release accepts\nthem, recording the "
            "viewtype conflicts."
        )
        report_writer("e33b_isomorphism", report)


def leaf_edit(editor):
    editor.add_port("a", "in")
    editor.add_port("y", "out")
    editor.place_gate("g", "NOT", 1)
    editor.wire("a", "g", "in0")
    editor.wire("y", "g", "out")


def parent_edit_placing(children):
    def edit(editor):
        editor.add_port("x", "in")
        editor.add_port("z", "out")
        previous = "x"
        for index, child in enumerate(children):
            editor.place_cell(f"u{index}", child)
            out_net = "z" if index == len(children) - 1 else f"m{index}"
            editor.wire(previous, f"u{index}", "a")
            editor.wire(out_net, f"u{index}", "y")
            previous = out_net
    return edit


def build_incrementally(procedural: bool, n_leaves: int = 4):
    """Grow a design cell-by-cell through the wrappers.

    Returns (hybrid, project, library, manual_interactions, drift).
    In manual mode the designer must re-submit hierarchy edges via the
    desktop after the parent save; in procedural mode the schematic tool
    passes them to JCF automatically (Section 3.3 future work).
    """
    root = tempfile.mkdtemp()
    hybrid = HybridFramework(
        pathlib.Path(root), enable_hierarchy_procedural_interface=procedural
    )
    # the workspace goes with the framework (or at exit)
    weakref.finalize(hybrid, shutil.rmtree, root, True)
    hybrid.jcf.resources.define_user("admin", "alice")
    hybrid.jcf.resources.define_team("admin", "team")
    hybrid.jcf.resources.add_member("admin", "alice", "team")
    hybrid.setup_standard_flow()
    library = hybrid.fmcad.create_library("lib")
    leaves = [f"leaf{i}" for i in range(n_leaves)]
    for cell in leaves + ["top"]:
        library.create_cell(cell)
    project = hybrid.adopt_library("alice", library, "proj")
    hybrid.jcf.resources.assign_team_to_project("admin", "team",
                                                project.oid)
    for cell in leaves + ["top"]:
        hybrid.prepare_cell("alice", project, cell, team_name="team")
    for cell in leaves:
        hybrid.run_schematic_entry("alice", project, library, cell,
                                   leaf_edit)

    before = hybrid.jcf.desktop.total_interactions()
    hybrid.run_schematic_entry(
        "alice", project, library, "top", parent_edit_placing(leaves)
    )
    manual_interactions = 0
    if not procedural:
        # the designer must notice and re-submit by hand
        edges = [("top", leaf) for leaf in leaves]
        hybrid.jcf.desktop.submit_hierarchy("alice", project, edges)
        manual_interactions = (
            hybrid.jcf.desktop.total_interactions() - before
        )
    drift = len(hybrid.hierarchy.verify_against_library(project, library))
    return hybrid, manual_interactions, drift


class TestProceduralInterfaceAblation:
    def test_e33_procedural_interface_ablation(self, benchmark,
                                               report_writer):
        """E33c: manual desktop submission vs the future-work interface."""
        manual_hybrid, manual_cost, manual_drift = build_incrementally(
            procedural=False
        )
        proc_hybrid, proc_cost, proc_drift = build_incrementally(
            procedural=True
        )

        # shapes: procedural mode costs no designer interactions and
        # never drifts; manual mode pays per edge
        assert proc_cost == 0
        assert manual_cost >= 4
        assert proc_drift == 0 and manual_drift == 0
        assert proc_hybrid.hierarchy.procedural_edges == 4
        # and JCF 3.0 (the manual arm) refuses the procedural call
        project = manual_hybrid.jcf.desktop.find_project("proj")
        try:
            manual_hybrid.hierarchy.submit_procedurally(
                project, [("top", "leaf0")]
            )
            raise AssertionError("JCF 3.0 must refuse the procedural call")
        except HierarchyError:
            pass

        benchmark.pedantic(
            lambda: build_incrementally(procedural=True),
            rounds=2, iterations=1,
        )

        from repro.workloads.metrics import format_table

        rows = [
            ["manual desktop submission (JCF 3.0)", manual_cost,
             manual_drift, "designer must remember"],
            ["procedural interface (future work)", proc_cost,
             proc_drift, "tools feed JCF automatically"],
        ]
        report = (
            "E33c (Section 3.3 ablation) — hierarchy maintenance while "
            "growing a design\n(4 subcells placed into a new parent "
            "through the schematic tool)\n\n"
        )
        report += format_table(
            ["mode", "designer interactions", "drift findings", "notes"],
            rows,
        )
        report += (
            "\n\npaper outlook reproduced: 'this drawback could be "
            "overcome by a JCF\nprocedural interface which might be used "
            "by the design tools to pass the\nhierarchy information to "
            "JCF' — implemented, it eliminates the manual cost."
        )
        report_writer("e33c_procedural_ablation", report)
