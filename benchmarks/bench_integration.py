"""ABL — ablation: integration levels (white box vs black box).

The paper's introduction notes JCF supports integration levels "ranging
from simple black-box integration up to very tight white-box
integration".  This ablation runs the same logical step — produce a
simulation result for a schematic — once through the white-box simulator
wrapper and once through a black-box stand-in, and compares what each
level buys:

* identical on both: staging, FMCAD/OMS dual versioning, derivation
  recording, flow enforcement;
* white-box only: guarded menu points (the extension-language
  consistency mechanism) and tool-level verdicts (the black box is
  trusted blindly).
"""

import pathlib
import shutil
import tempfile
import weakref

from repro.core import BlackBoxToolWrapper, HybridFramework
from repro.core.mapping import WORKING_VARIANT
from repro.workloads.metrics import format_table
from repro.workloads.scripts import (
    inverter_chain_bench,
    inverter_chain_editor,
)


def fresh_env():
    root = tempfile.mkdtemp()
    hybrid = HybridFramework(pathlib.Path(root))
    # the workspace goes with the framework (or at exit)
    weakref.finalize(hybrid, shutil.rmtree, root, True)
    hybrid.jcf.resources.define_user("admin", "alice")
    hybrid.jcf.resources.define_team("admin", "team")
    hybrid.jcf.resources.add_member("admin", "alice", "team")
    hybrid.setup_standard_flow()
    library = hybrid.fmcad.create_library("lib")
    library.create_cell("cell")
    project = hybrid.adopt_library("alice", library, "proj")
    hybrid.jcf.resources.assign_team_to_project("admin", "team",
                                                project.oid)
    hybrid.prepare_cell("alice", project, "cell", team_name="team")
    hybrid.run_schematic_entry(
        "alice", project, library, "cell", inverter_chain_editor(2)
    )
    return hybrid, project, library


def run_white_box(hybrid, project, library, session_probe):
    original_open = hybrid.fmcad.open_session

    def spy(tool_name, user):
        session = original_open(tool_name, user)
        session_probe["session"] = session
        return session

    hybrid.fmcad.open_session = spy
    try:
        return hybrid.run_simulation(
            "alice", project, library, "cell", inverter_chain_bench(2)
        )
    finally:
        hybrid.fmcad.open_session = original_open


def run_black_box(hybrid, project, library, session_probe):
    def opaque_simulator(inputs):
        # an external simulator binary: consumes the schematic file,
        # reports success without the framework seeing inside
        assert "schematic" in inputs
        return True, b"SIM-LOG: 0 errors", "external simulator passed"

    wrapper = BlackBoxToolWrapper(
        hybrid.jcf, hybrid.fmcad, hybrid.mapper, hybrid.guard,
        activity_name="digital_simulation",
        tool_name="digital_simulator",
        output_viewtype="simulation",
        tool_fn=opaque_simulator,
    )
    original_open = hybrid.fmcad.open_session

    def spy(tool_name, user):
        session = original_open(tool_name, user)
        session_probe["session"] = session
        return session

    hybrid.fmcad.open_session = spy
    try:
        return wrapper.run("alice", project, library, "cell")
    finally:
        hybrid.fmcad.open_session = original_open


def locked_menus(session):
    return sum(
        1 for name in session.menu_names() if session.menu(name).locked
    )


class TestIntegrationLevels:
    def test_ablation_integration_levels(self, benchmark, report_writer):
        rows = []
        outcomes = {}
        for label, runner in (
            ("white box", run_white_box),
            ("black box", run_black_box),
        ):
            hybrid, project, library = fresh_env()
            probe = {}
            result = runner(hybrid, project, library, probe)
            session = probe["session"]
            variant = (
                project.cell("cell").latest_version()
                .variant(WORKING_VARIANT)
            )
            record = hybrid.jcf.engine.what_belongs_to_what(variant)
            sim_entry = next(
                entry for key, entry in record.items()
                if "digital_simulation" in key
            )
            outcomes[label] = {
                "guarded": locked_menus(session),
                "derivations": len(sim_entry["needs"]),
                "fmcad_version": result.fmcad_version,
                "success": result.success,
            }
            rows.append([
                label,
                outcomes[label]["guarded"],
                len(sim_entry["needs"]),
                len(sim_entry["creates"]),
                result.fmcad_version,
            ])

        # identical design management either way
        assert outcomes["white box"]["derivations"] == \
            outcomes["black box"]["derivations"] == 1
        assert outcomes["white box"]["fmcad_version"] == \
            outcomes["black box"]["fmcad_version"] == 1
        # the consistency gap: only the white box locks menus
        assert outcomes["white box"]["guarded"] >= 4
        assert outcomes["black box"]["guarded"] == 0

        def timed():
            hybrid, project, library = fresh_env()
            return run_black_box(hybrid, project, library, {})

        benchmark.pedantic(timed, rounds=2, iterations=1)

        report = (
            "ABL (intro) — integration levels: the same simulation step "
            "at two depths\n\n"
        )
        report += format_table(
            ["integration", "guarded menus", "needs recorded",
             "creates recorded", "FMCAD version"],
            rows,
        )
        report += (
            "\n\nreading: black-box integration keeps the full design-"
            "management benefit\n(staging, dual versioning, derivation "
            "record, flow order) but loses the\nextension-language menu "
            "guard — the paper's motivation for tight coupling."
        )
        report_writer("abl_integration_levels", report)
