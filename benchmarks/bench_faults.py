"""Fault harness overhead and two-phase recovery latency.

The fault-injection points are woven permanently through the coupling's
hot paths (staging writes, payload interning, the checkout protocol), so
the harness is only acceptable if the *disabled* points cost nothing
measurable.  This benchmark

1. **disabled overhead** — microbenchmarks a disabled ``fault_point``
   call, counts how many times a full three-activity coupled run
   traverses fault points, and bounds the harness's share of the run's
   real wall time (**must stay under 2%**);
2. **recovery latency** — crashes a coupled run at each representative
   fault point, then measures the wall time of
   ``CouplingRecovery.recover()`` and reports what it repaired, with the
   cross-framework audit asserting the repair was complete.

Run standalone (``python benchmarks/bench_faults.py [--smoke]``) or via
``pytest benchmarks/bench_faults.py --benchmark-only -s``; full runs
persist ``benchmarks/results/fault_recovery.txt``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import pathlib
import sys
import tempfile
import time
from typing import Dict, Iterator, List, Tuple

if __name__ == "__main__":  # standalone: make src/ importable without install
    _SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
    if _SRC.is_dir() and str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.core.coupling import HybridFramework
from repro.faults import CrashFault, FaultPlan, fault_point, inject
from repro.workloads.metrics import format_table

#: microbench loop for the disabled fault_point call
MICRO_CALLS = 2_000_000
#: repetitions of the coupled run when timing it
RUN_REPEATS = 3
#: crash points measured in the recovery-latency experiment
RECOVERY_POINTS = [
    "harvest.after_checkout",
    "checkout.after_checkin",
    "harvest.after_checkin",
    "harvest.before_tag",
    "run.before_finish",
]
#: the acceptance bound on the harness's share of a coupled run
OVERHEAD_BUDGET_PCT = 2.0

if os.environ.get("REPRO_BENCH_SMOKE"):
    MICRO_CALLS = 200_000
    RECOVERY_POINTS = ["checkout.after_checkin", "harvest.before_tag"]

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "fault_recovery.txt"
)


@contextlib.contextmanager
def build_environment() -> Iterator[Tuple[HybridFramework, object, object]]:
    """A coupled environment in a workspace removed when the block ends."""
    with tempfile.TemporaryDirectory(prefix="bench_faults_") as root:
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
        yield hybrid, project, library


def schematic_edit(editor):
    if editor.schematic.ports():
        return
    editor.add_port("a", "in")
    editor.add_port("y", "out")
    previous = "a"
    for i in range(2):
        editor.place_gate(f"i{i}", "NOT", 1)
        editor.wire(previous, f"i{i}", "in0")
        out_net = "y" if i == 1 else f"n{i}"
        editor.wire(out_net, f"i{i}", "out")
        previous = out_net


def sim_testbench(tb):
    tb.drive(0, "a", "0")
    tb.expect(30, "y", "0")
    tb.drive(50, "a", "1")
    tb.expect(80, "y", "1")


def layout_edit(editor):
    editor.draw_rect("metal1", 0, 0, 40, 4)
    editor.add_label("a", "metal1", 1, 1)
    editor.draw_rect("metal1", 0, 10, 40, 14)
    editor.add_label("y", "metal1", 1, 11)


def run_workload(hybrid, project, library) -> None:
    hybrid.run_schematic_entry(
        "alice", project, library, "inv2", schematic_edit
    )
    hybrid.run_simulation("alice", project, library, "inv2", sim_testbench)
    hybrid.run_layout_entry(
        "alice", project, library, "inv2", layout_edit
    )


# -- experiment 1: disabled fault points cost nothing measurable -------------


def micro_disabled_ns(calls: int = MICRO_CALLS) -> float:
    """Real nanoseconds per disabled fault_point call (best of 3)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            fault_point("blobs.intern")
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e9


def count_run_traversals() -> int:
    """Fault-point hits of one full coupled run (counted, none fired)."""
    with build_environment() as (hybrid, project, library), \
            inject(FaultPlan()) as plan:  # no rules: pure hit counting
        run_workload(hybrid, project, library)
    return sum(plan.hits.values())


def timed_run_seconds() -> float:
    """Real wall seconds of one full coupled run (best of RUN_REPEATS)."""
    best = float("inf")
    for _ in range(RUN_REPEATS):
        with build_environment() as (hybrid, project, library):
            start = time.perf_counter()
            run_workload(hybrid, project, library)
            best = min(best, time.perf_counter() - start)
    return best


def run_overhead() -> Dict[str, float]:
    per_call_ns = micro_disabled_ns()
    hits = count_run_traversals()
    run_s = timed_run_seconds()
    harness_s = hits * per_call_ns * 1e-9
    return {
        "per_call_ns": per_call_ns,
        "hits_per_run": float(hits),
        "run_ms": run_s * 1e3,
        "harness_us": harness_s * 1e6,
        "overhead_pct": 100.0 * harness_s / run_s,
    }


# -- experiment 2: recovery latency ------------------------------------------


def run_recovery_latency() -> Tuple[List[List[str]], Dict[str, float]]:
    rows: List[List[str]] = []
    worst_ms = 0.0
    for point in RECOVERY_POINTS:
        with build_environment() as (hybrid, project, library):
            try:
                with inject(FaultPlan.crash(point)):
                    run_workload(hybrid, project, library)
            except CrashFault:
                pass
            start = time.perf_counter()
            report = hybrid.recovery.recover()
            recover_ms = (time.perf_counter() - start) * 1e3
            worst_ms = max(worst_ms, recover_ms)
            audit = hybrid.guard.audit()
            assert audit.clean, (
                f"recovery after crash at {point} left a dirty audit:\n"
                f"{audit.render()}"
            )
            repaired = sum(
                len(items)
                for items in (
                    report.cancelled_tickets,
                    report.deleted_fmcad_versions,
                    report.repaired_tags,
                    report.closed_sessions,
                    report.failed_executions,
                    report.reclaimed_staging_files,
                )
            )
            rows.append([
                point,
                f"{len(report.cancelled_tickets)}",
                f"{len(report.deleted_fmcad_versions)}",
                f"{len(report.repaired_tags)}",
                f"{repaired}",
                f"{recover_ms:.2f}",
                "clean",
            ])
    return rows, {"worst_recover_ms": worst_ms}


# -- report + assertions ------------------------------------------------------


def run_bench() -> Tuple[str, Dict[str, float]]:
    overhead = run_overhead()
    recovery_rows, recovery = run_recovery_latency()

    report = (
        "Fault harness overhead and two-phase recovery latency\n\n"
        "1. disabled fault points — harness share of one coupled run\n"
        "   (schematic entry + simulation + layout entry, real time)\n\n"
    )
    report += format_table(
        ["per call", "hits/run", "run wall", "harness share", "overhead"],
        [[
            f"{overhead['per_call_ns']:.1f} ns",
            f"{overhead['hits_per_run']:.0f}",
            f"{overhead['run_ms']:.1f} ms",
            f"{overhead['harness_us']:.1f} us",
            f"{overhead['overhead_pct']:.4f}%",
        ]],
    )
    report += (
        "\n\n2. recovery latency — crash a coupled run at each point,\n"
        "   then time CouplingRecovery.recover() (audit must end clean)\n\n"
    )
    report += format_table(
        ["crash point", "tickets", "dropped", "retagged", "total repairs",
         "recover ms", "audit"],
        recovery_rows,
    )
    report += (
        f"\n\nreading: a disabled fault point costs "
        f"{overhead['per_call_ns']:.0f} ns, so the woven harness consumes "
        f"{overhead['overhead_pct']:.4f}% of a coupled run — far inside "
        f"the {OVERHEAD_BUDGET_PCT}% budget — while recovery repairs any "
        "crash's wreckage in milliseconds and always restores a clean "
        "audit."
    )

    metrics = dict(overhead)
    metrics.update(recovery)

    # -- shape assertions ---------------------------------------------------
    assert overhead["overhead_pct"] < OVERHEAD_BUDGET_PCT, (
        f"disabled harness overhead {overhead['overhead_pct']:.3f}% "
        f"exceeds the {OVERHEAD_BUDGET_PCT}% budget"
    )
    assert overhead["hits_per_run"] > 0  # the run really crosses the points
    # recovery is interactive-grade, not a batch job
    assert recovery["worst_recover_ms"] < 5_000.0

    return report, metrics


class TestFaultBench:
    def test_fault_overhead_and_recovery(self, benchmark, report_writer):
        report, metrics = run_bench()
        report_writer("fault_recovery", report)
        assert metrics["overhead_pct"] < OVERHEAD_BUDGET_PCT
        # real wall time of the hot-path check itself
        benchmark(lambda: fault_point("blobs.intern"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer crash points and microbench calls, no results file (CI)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        global MICRO_CALLS, RECOVERY_POINTS
        MICRO_CALLS = 200_000
        RECOVERY_POINTS = ["checkout.after_checkin", "harvest.before_tag"]
    report, metrics = run_bench()
    print(report)
    if not args.smoke:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(report + "\n", encoding="utf-8")
        print(f"\nwrote {RESULTS_PATH}")
    print(
        f"OK: disabled overhead {metrics['overhead_pct']:.4f}% "
        f"(< {OVERHEAD_BUDGET_PCT}%), worst recovery "
        f"{metrics['worst_recover_ms']:.1f} ms"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
