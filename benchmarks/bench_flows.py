"""E35b — durable flow orchestration: throughput and crash-resume.

The Section 3.5 flow-control evaluation was qualitative; E35 made the
activity ordering measurable and this extension measures the *durable*
flow layer on top of it.  Two experiments:

1. **queue throughput at N teams** — T teams each enqueue flows for
   their own cells; one ``FlowQueue.drain`` runs them through the batch
   scheduler with per-team fair waves.  Reported as whole flows per
   second at each team count; every flow must complete and no team may
   be starved (each team's flows all finish in every configuration);
2. **resume latency after a crash-kill** — a flow is crash-killed
   mid-simulation, the environment is reopened, and recovery + resume
   roll it forward.  The resumed run must complete while re-running
   only the interrupted tail of the activity DAG, never the whole flow
   — crash recovery costs the torn activities, not the finished ones.

Run standalone (``python benchmarks/bench_flows.py [--smoke]``) or via
``pytest benchmarks/bench_flows.py --benchmark-only -s``; full runs
persist ``benchmarks/results/e35b_durable_flows.txt``.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import tempfile
import time
from typing import Dict, List, Tuple

if __name__ == "__main__":  # standalone: make src/ importable without install
    _SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
    if _SRC.is_dir() and str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.core.coupling import HybridFramework
from repro.faults import CrashFault, FaultPlan, inject
from repro.jcf.model import FLOW_DONE
from repro.workloads.metrics import format_table, percentiles

#: team counts for the throughput experiment
TEAM_COUNTS = [1, 2, 4]
#: flows (one per cell) each team enqueues
FLOWS_PER_TEAM = 3
if os.environ.get("REPRO_BENCH_SMOKE"):
    TEAM_COUNTS = [1, 2]
    FLOWS_PER_TEAM = 2

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "e35b_durable_flows.txt"
)


def build_environment(root: pathlib.Path, teams: int, cells_per_team: int):
    """A hybrid with *teams* teams, each owning its own prepared cells."""
    hybrid = HybridFramework(root)
    resources = hybrid.jcf.resources
    library = hybrid.fmcad.create_library("chiplib")
    cells: List[Tuple[str, str, str]] = []  # (cell, user, team)
    for t in range(teams):
        user, team = f"u{t}", f"team{t}"
        resources.define_user("admin", user)
        resources.define_team("admin", team)
        resources.add_member("admin", user, team)
        for c in range(cells_per_team):
            cell = f"t{t}c{c}"
            library.create_cell(cell)
            cells.append((cell, user, team))
    hybrid.setup_standard_flow()
    project = hybrid.adopt_library("u0", library, "chipA")
    for t in range(teams):
        resources.assign_team_to_project("admin", f"team{t}", project.oid)
    for cell, user, team in cells:
        hybrid.prepare_cell(user, project, cell, team_name=team)
    library.flush_meta("setup")
    return hybrid, project, cells


def enqueue_flows(hybrid, project, cells) -> List[str]:
    return [
        hybrid.flows_orchestrator.start(
            user=user,
            project=project,
            cell_name=cell,
            flow_name="jcf_fmcad_flow",
            script="inverter_flow",
            library_name="chiplib",
            team=team,
        ).oid
        for cell, user, team in cells
    ]


# -- experiment 1: queue throughput at N teams ------------------------------


def run_throughput(
    team_counts: List[int], flows_per_team: int
) -> Tuple[List[List[str]], Dict[int, float]]:
    rows = []
    flows_per_sec: Dict[int, float] = {}
    for teams in team_counts:
        with tempfile.TemporaryDirectory() as workdir:
            root = pathlib.Path(workdir) / "env"
            hybrid, project, cells = build_environment(
                root, teams, flows_per_team
            )
            enqueue_flows(hybrid, project, cells)
            started = time.perf_counter()
            report = hybrid.flow_queue.drain(workers=4)
            elapsed = time.perf_counter() - started
            completed = len(report.completed)
            assert completed == teams * flows_per_team, (
                f"{completed}/{teams * flows_per_team} flows completed"
            )
            assert not report.dead_lettered and not report.still_queued
            flows_per_sec[teams] = completed / elapsed
            rows.append(
                [
                    teams,
                    completed,
                    report.waves,
                    report.activities_run,
                    f"{elapsed * 1000:.0f}",
                    f"{flows_per_sec[teams]:.1f}",
                ]
            )
    return rows, flows_per_sec


def run_flow_latency(samples: int) -> Tuple[List[List[str]], Dict[str, float]]:
    """Wall latency of whole single flows, reported as a p50/p95/p99
    tail — the per-designer view of the queue-throughput numbers."""
    with tempfile.TemporaryDirectory() as workdir:
        root = pathlib.Path(workdir) / "env"
        hybrid, project, cells = build_environment(root, 1, samples)
        oids = enqueue_flows(hybrid, project, cells)
        latencies_ms: List[float] = []
        for oid in oids:
            started = time.perf_counter()
            state = hybrid.flows_orchestrator.run(
                hybrid.flows_orchestrator.instance(oid)
            )
            latencies_ms.append((time.perf_counter() - started) * 1000)
            assert state == FLOW_DONE
    tail = percentiles(latencies_ms)
    rows = [[label, f"{value:.0f}"] for label, value in tail.items()]
    return rows, tail


# -- experiment 2: resume latency after a crash-kill ------------------------


def run_resume(flows_per_team: int) -> Tuple[List[List[str]], Dict[str, float]]:
    # control: an uncrashed flow, timed end to end
    with tempfile.TemporaryDirectory() as workdir:
        root = pathlib.Path(workdir) / "env"
        hybrid, project, cells = build_environment(root, 1, 1)
        cell, user, team = cells[0]
        oid = enqueue_flows(hybrid, project, [cells[0]])[0]
        started = time.perf_counter()
        state = hybrid.flows_orchestrator.run(
            hybrid.flows_orchestrator.instance(oid)
        )
        fresh_ms = (time.perf_counter() - started) * 1000
        assert state == FLOW_DONE

    # crash-kill mid-simulation, then reopen + recover + resume
    with tempfile.TemporaryDirectory() as workdir:
        root = pathlib.Path(workdir) / "env"
        hybrid, project, cells = build_environment(root, 1, 1)
        oid = enqueue_flows(hybrid, project, [cells[0]])[0]
        # hits 1+2 are the schematic+symbol checkins of activity one; hit 3
        # tears the flow in the middle of digital simulation
        plan = FaultPlan.crash("harvest.after_checkin", on_hit=3)
        try:
            with inject(plan):
                hybrid.flows_orchestrator.run(
                    hybrid.flows_orchestrator.instance(oid)
                )
        except CrashFault:
            pass
        assert plan.crash_fired

        started = time.perf_counter()
        hybrid2 = HybridFramework.reopen(root)
        hybrid2.recover()
        reopen_ms = (time.perf_counter() - started) * 1000
        durable_attempts = len(
            hybrid2.flows_orchestrator.instance(oid).attempts()
        )
        started = time.perf_counter()
        results = hybrid2.flows_orchestrator.resume_pending()
        resume_ms = (time.perf_counter() - started) * 1000
        assert results and all(s == FLOW_DONE for _, s in results)
        instance = hybrid2.flows_orchestrator.instance(results[0][0])
        resumed_attempts = len(instance.attempts()) - durable_attempts

    metrics = {
        "fresh_ms": fresh_ms,
        "reopen_ms": reopen_ms,
        "resume_ms": resume_ms,
        "resumed_attempts": resumed_attempts,
    }
    rows = [
        ["fresh run", f"{fresh_ms:.0f}", 3],
        ["reopen+recover", f"{reopen_ms:.0f}", "-"],
        ["resume (tail only)", f"{resume_ms:.0f}", resumed_attempts],
    ]
    return rows, metrics


# -- report -----------------------------------------------------------------


def run_bench(team_counts: List[int], flows_per_team: int):
    throughput_rows, flows_per_sec = run_throughput(
        team_counts, flows_per_team
    )
    latency_rows, flow_tail = run_flow_latency(max(flows_per_team, 3))
    resume_rows, resume = run_resume(flows_per_team)

    report = "\n".join(
        [
            "E35b: durable flow orchestration",
            "",
            f"queue throughput ({flows_per_team} flows/team, 4 workers):",
            format_table(
                ["teams", "flows", "waves", "activities", "ms", "flows/s"],
                throughput_rows,
            ),
            "",
            "single-flow wall latency tail:",
            format_table(["percentile", "ms"], latency_rows),
            "",
            "crash-kill mid-simulation, reopen, resume:",
            format_table(
                ["phase", "ms", "activities run"], resume_rows
            ),
        ]
    )

    # -- shape assertions ---------------------------------------------------
    # resume re-runs only the interrupted tail: the crashed schematic
    # attempt is already durable, so the resumed epoch records fewer
    # activity attempts than a fresh three-activity run
    assert resume["resumed_attempts"] < 3, (
        f"resume re-ran the whole flow: {resume['resumed_attempts']} attempts"
    )
    assert flow_tail["p50"] <= flow_tail["p95"] <= flow_tail["p99"]
    metrics = {"flows_per_sec": flows_per_sec, "flow_tail": flow_tail, **resume}
    return report, metrics


class TestFlowBench:
    def test_e35b_durable_flows(self, benchmark, report_writer):
        report, metrics = run_bench(TEAM_COUNTS, FLOWS_PER_TEAM)
        report_writer("e35b_durable_flows", report)
        # real wall time of the hot path: enqueueing one durable flow
        with tempfile.TemporaryDirectory() as workdir:
            root = pathlib.Path(workdir) / "env"
            hybrid, project, cells = build_environment(root, 1, 1)
            cell, user, team = cells[0]

            def enqueue():
                hybrid.flows_orchestrator.start(
                    user=user,
                    project=project,
                    cell_name=cell,
                    flow_name="jcf_fmcad_flow",
                    script="inverter_flow",
                    library_name="chiplib",
                    team=team,
                )

            benchmark(enqueue)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes, no results file (CI)",
    )
    args = parser.parse_args(argv)
    team_counts = [1, 2] if args.smoke else TEAM_COUNTS
    flows_per_team = 2 if args.smoke else FLOWS_PER_TEAM
    report, metrics = run_bench(team_counts, flows_per_team)
    print(report)
    if not args.smoke:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(report + "\n", encoding="utf-8")
        print(f"\nwrote {RESULTS_PATH}")
    best = max(metrics["flows_per_sec"].values())
    print(
        f"OK: drained up to {best:.1f} flows/s; crash resume re-ran "
        f"{metrics['resumed_attempts']}/3 activities in "
        f"{metrics['resume_ms']:.0f}ms after a "
        f"{metrics['reopen_ms']:.0f}ms reopen+recover"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
