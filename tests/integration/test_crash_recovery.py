"""Integration: crash at every fault point, recover, carry on.

The crash matrix drives a two-activity coupled workload (schematic entry
then digital simulation) with a deterministic crash scheduled at each
registered fault point the workload traverses, then asserts the acceptance
criterion of the fault model: after ``CouplingRecovery.recover()`` the
cross-framework audit is clean and the workload completes when rerun.

A hypothesis suite does the same under seeded random schedules (crash or
transient, random point, random hit) over a three-activity workload.
"""

import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coupling import HybridFramework
from repro.core.exchange import export_archive, import_archive
from repro.errors import ReproError
from repro.faults import (
    CrashFault,
    FaultError,
    FaultPlan,
    TransientFault,
    inject,
)
from tests.conftest import (
    build_inverter_editor_fn,
    inverter_testbench_fn,
    simple_layout_fn,
)

#: every registered fault point the schematic+simulation workload crosses
WORKLOAD_POINTS = [
    "run.after_start",
    "run.before_finish",
    "harvest.after_checkout",
    "harvest.after_checkin",
    "harvest.before_import",
    "harvest.after_import",
    "harvest.before_tag",
    "checkout.after_grant",
    "checkout.after_checkin",
    "staging.write",
    "blobs.intern",
]


def build_environment(root):
    hybrid = HybridFramework(pathlib.Path(root))
    resources = hybrid.jcf.resources
    resources.define_user("admin", "alice")
    resources.define_team("admin", "team1")
    resources.add_member("admin", "alice", "team1")
    hybrid.setup_standard_flow()
    library = hybrid.fmcad.create_library("chiplib")
    library.create_cell("inv2")
    project = hybrid.adopt_library("alice", library, "chipA")
    resources.assign_team_to_project("admin", "team1", project.oid)
    hybrid.prepare_cell("alice", project, "inv2", team_name="team1")
    return hybrid, project, library


def idempotent_schematic_edit(editor):
    """Safe to rerun on a schematic that already has the design."""
    if not editor.schematic.ports():
        build_inverter_editor_fn()(editor)


def run_workload(hybrid, project, library, with_layout=False):
    results = [
        hybrid.run_schematic_entry(
            "alice", project, library, "inv2", idempotent_schematic_edit
        ),
        hybrid.run_simulation(
            "alice", project, library, "inv2", inverter_testbench_fn()
        ),
    ]
    if with_layout:
        results.append(
            hybrid.run_layout_entry(
                "alice", project, library, "inv2", simple_layout_fn()
            )
        )
    return results


class TestCrashMatrix:
    @pytest.mark.parametrize("point", WORKLOAD_POINTS)
    def test_crash_recover_rerun(self, tmp_path, point):
        hybrid, project, library = build_environment(tmp_path / "env")
        plan = FaultPlan.crash(point)
        with inject(plan):
            with pytest.raises(CrashFault):
                run_workload(hybrid, project, library)
        assert plan.crash_fired, f"workload never traversed {point}"

        report = hybrid.recover()
        audit = hybrid.audit()
        assert audit.clean, (
            f"audit dirty after recovering crash at {point}:\n"
            f"{audit.render()}\n{report.summary()}"
        )
        # the workload completes on a recovered environment
        results = run_workload(hybrid, project, library)
        assert all(result.success for result in results)
        assert hybrid.audit().clean
        # and nothing further to repair
        assert hybrid.recover().empty()

    @pytest.mark.parametrize("point", WORKLOAD_POINTS)
    def test_crash_on_second_traversal(self, tmp_path, point):
        """Crashing later in the run must be just as recoverable."""
        hybrid, project, library = build_environment(tmp_path / "env")
        plan = FaultPlan.crash(point, on_hit=2)
        with inject(plan):
            try:
                run_workload(hybrid, project, library, with_layout=True)
            except CrashFault:
                pass
        # some points are traversed once only — then the workload simply
        # succeeded and there is nothing to recover; both ends are valid
        hybrid.recover()
        assert hybrid.audit().clean
        assert all(
            r.success for r in run_workload(hybrid, project, library)
        )


class TestTransientFaults:
    @pytest.mark.parametrize(
        "point", ["staging.write", "blobs.intern", "harvest.after_checkout"]
    )
    def test_single_transient_is_survived_or_cleaned(self, tmp_path, point):
        """One glitch either retries to success or fails the run cleanly."""
        hybrid, project, library = build_environment(tmp_path / "env")
        with inject(FaultPlan.transient(point)):
            try:
                run_workload(hybrid, project, library)
            except TransientFault:
                pass
        assert hybrid.audit().clean
        assert all(
            r.success for r in run_workload(hybrid, project, library)
        )

    def test_retried_transient_charges_backoff(self, tmp_path):
        hybrid, project, library = build_environment(tmp_path / "env")
        # staging.write sits inside the _stage_needs retry boundary: the
        # simulation's export glitches once, retries, and succeeds
        with inject(FaultPlan.transient("staging.write")) as plan:
            results = run_workload(hybrid, project, library)
        assert all(r.success for r in results)
        assert plan.fired and not plan.crash_fired
        backoff = hybrid.clock.elapsed_by_category().get("retry_backoff", 0)
        assert backoff > 0


class TestExchangeFaults:
    def export_ready(self, root):
        hybrid, project, library = build_environment(root)
        assert all(r.success for r in run_workload(hybrid, project, library))
        return hybrid, project, library

    def test_export_crash_leaves_partial_not_archive(self, tmp_path):
        hybrid, project, _library = self.export_ready(tmp_path / "env")
        target = tmp_path / "design.tar"
        with inject(FaultPlan.crash("exchange.write")):
            with pytest.raises(CrashFault):
                export_archive(hybrid.jcf, project, target)
        assert not target.exists()
        partial = target.with_name(target.name + ".partial")
        assert partial.exists()  # the wreckage a real crash would leave
        # a later clean export replaces it
        export_archive(hybrid.jcf, project, target)
        assert target.exists() and not partial.exists()

    def test_export_transient_retries_to_success(self, tmp_path):
        hybrid, project, _library = self.export_ready(tmp_path / "env")
        target = tmp_path / "design.tar"
        with inject(FaultPlan.transient("exchange.write")):
            export_archive(hybrid.jcf, project, target)
        assert target.exists()
        assert not target.with_name(target.name + ".partial").exists()

    def test_import_crash_rolls_back_whole_project(self, tmp_path):
        hybrid, project, _library = self.export_ready(tmp_path / "env")
        target = tmp_path / "design.tar"
        export_archive(hybrid.jcf, project, target)
        with inject(FaultPlan.crash("blobs.intern")):
            with pytest.raises(CrashFault):
                import_archive(hybrid.jcf, target, "alice", "copyA")
        # the transaction aborted: no half-imported project
        assert hybrid.jcf.desktop.find_project("copyA") is None
        assert hybrid.audit().clean
        imported = import_archive(hybrid.jcf, target, "alice", "copyA")
        assert imported.name == "copyA"

    def test_import_crash_before_anything_changes_nothing(self, tmp_path):
        hybrid, project, _library = self.export_ready(tmp_path / "env")
        target = tmp_path / "design.tar"
        export_archive(hybrid.jcf, project, target)
        snapshot = hybrid.jcf.save_snapshot()
        with inject(FaultPlan.crash("exchange.before_import")):
            with pytest.raises(CrashFault):
                import_archive(hybrid.jcf, target, "alice", "copyA")
        assert hybrid.jcf.save_snapshot() == snapshot


class TestRandomFaultSchedules:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_seeded_chaos_always_recoverable(self, seed):
        with tempfile.TemporaryDirectory(prefix="crash_hyp_") as root:
            hybrid, project, library = build_environment(root)
            plan = FaultPlan.random_plan(
                seed,
                points=WORKLOAD_POINTS,
                max_hit=3,
                transient_probability=0.3,
            )
            with inject(plan):
                try:
                    run_workload(hybrid, project, library, with_layout=True)
                except FaultError:
                    pass
                except ReproError:
                    pass  # a transient surfacing as an ordinary tool failure
            hybrid.recover()
            audit = hybrid.audit()
            assert audit.clean, (
                f"seed {seed} (plan {plan.points}) left a dirty audit:\n"
                f"{audit.render()}"
            )
            results = run_workload(hybrid, project, library, with_layout=True)
            assert all(result.success for result in results)
            assert hybrid.recover().empty()

    def test_seeded_chaos_leaves_temp_dir_empty(self, tmp_path):
        """Every example's workspace is removed, crashed or not."""
        repo = pathlib.Path(__file__).resolve().parents[2]
        env = dict(
            os.environ,
            TMPDIR=str(tmp_path),
            PYTHONPATH=os.pathsep.join(
                [str(repo / "src"), os.environ.get("PYTHONPATH", "")]
            ),
        )
        test_id = (
            "tests/integration/test_crash_recovery.py::"
            "TestRandomFaultSchedules::test_seeded_chaos_always_recoverable"
        )
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             test_id],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
            cwd=repo,
        )
        assert result.returncode == 0, result.stdout[-2000:]
        assert sorted(p.name for p in tmp_path.iterdir()) == []
