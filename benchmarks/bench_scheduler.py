"""Parallel coupled-run scheduler: wall-clock speedup and determinism.

The paper's coupling executed one encapsulated tool at a time; the
batch scheduler (``repro.core.scheduler``) runs independent coupled
runs concurrently while keeping the committed OMS state byte-identical
to a sequential execution.  This benchmark drives a batch of
``N_RUNS`` independent schematic-entry runs whose tool step sleeps for
``TOOL_SLEEP_S`` real seconds — the external-EDA-tool latency the
scheduler exists to overlap — through three arms:

1. **plain loop** — the pre-scheduler API, one ``run_schematic_entry``
   after another (reference wall time, summed simulated time);
2. **run_many(workers=1)** — the scheduler's sequential baseline: the
   same wave/gate/lane protocol, executed serially;
3. **run_many(workers=WORKERS)** — the parallel arm.

The two scheduler arms run as interleaved trial pairs that alternate
which arm goes first, and every pair's ratio is printed.

Asserted shape:

* parallel wall time beats the sequential scheduler arm by at least
  ``MIN_SPEEDUP``x in the median pair (the external latencies really
  overlap);
* the workers=1 and workers=WORKERS arms end in **byte-identical** OMS
  snapshots (both environments are rebuilt at the same directory, since
  snapshots embed absolute tool paths);
* both scheduler arms end with a clean cross-framework audit;
* group-commit coalesces the parallel arm's per-run metadata
  transactions into fewer flushes than commits.

The simulated clock reports *critical-path makespan* (every wave run
charges a private lane; the master clock advances to the latest lane
end), so the report also shows simulated makespan against the summed
per-run cost — the contention-free speedup the batch admits.

Run standalone (``python benchmarks/bench_scheduler.py [--smoke]``) or
via ``pytest benchmarks/bench_scheduler.py --benchmark-only -s``; full
runs persist ``benchmarks/results/scheduler_parallel.txt``.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Tuple

if __name__ == "__main__":  # standalone: make src/ importable without install
    _SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
    if _SRC.is_dir() and str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.core.coupling import HybridFramework
from repro.core.scheduler import RunRequest
from repro.workloads.metrics import format_table

#: independent coupled runs in the benchmark batch
N_RUNS = 8
#: worker threads in the parallel arm
WORKERS = 4
#: real seconds each tool step blocks (external tool latency)
TOOL_SLEEP_S = 0.25
#: required wall-clock speedup of workers=WORKERS over workers=1
MIN_SPEEDUP = 3.0
#: interleaved sequential/parallel trial pairs; the speedup bound is
#: asserted on the median of their ratios
TRIALS = 3
#: pairs at smoke size.  A smoke pair's parallel arm lasts ~140 ms, so
#: one 40 ms stall sinks its ratio: single pairs on a 2-vCPU VM read
#: 1.9x-4.6x, and one pair (the former gate) failed now and then.  The
#: median of 7 pairs passed 19 of 20 runs (the miss, 2.89x, fell in a
#: spell of slow pairs); the median of 15 read 3.26x-3.67x in 20 of 20
SMOKE_TRIALS = 15
#: the fixed schedule seed both scheduler arms share
SEED = 7

if os.environ.get("REPRO_BENCH_SMOKE"):
    TOOL_SLEEP_S = 0.06
    TRIALS = SMOKE_TRIALS

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "scheduler_parallel.txt"
)


def build_environment(root: pathlib.Path):
    """A hybrid environment with N_RUNS prepared cells at *root*."""
    if root.exists():
        shutil.rmtree(root)
    hybrid = HybridFramework(root)
    resources = hybrid.jcf.resources
    resources.define_user("admin", "alice")
    resources.define_team("admin", "team1")
    resources.add_member("admin", "alice", "team1")
    hybrid.setup_standard_flow()
    library = hybrid.fmcad.create_library("chiplib")
    cells = [f"block{i}" for i in range(N_RUNS)]
    for cell in cells:
        library.create_cell(cell)
    project = hybrid.adopt_library("alice", library, "chipA")
    resources.assign_team_to_project("admin", "team1", project.oid)
    for cell in cells:
        hybrid.prepare_cell("alice", project, cell, team_name="team1")
    return hybrid, project, library, cells


def slow_schematic_edit(editor):
    """A two-inverter schematic whose entry blocks for TOOL_SLEEP_S.

    The sleep stands in for the real EDA tool's runtime — the part of a
    coupled run that holds no OMS state and therefore overlaps.
    """
    time.sleep(TOOL_SLEEP_S)
    editor.add_port("a", "in")
    editor.add_port("y", "out")
    previous = "a"
    for i in range(2):
        editor.place_gate(f"i{i}", "NOT", 1)
        editor.wire(previous, f"i{i}", "in0")
        out_net = "y" if i == 1 else f"n{i}"
        editor.wire(out_net, f"i{i}", "out")
        previous = out_net


def batch_requests(project, library, cells):
    return [
        RunRequest(
            "alice", project, library, cell, "schematic_entry",
            kwargs={"edit_fn": slow_schematic_edit},
        )
        for cell in cells
    ]


# -- the three arms ----------------------------------------------------------


def run_plain_loop(root: pathlib.Path) -> Dict[str, float]:
    hybrid, project, library, cells = build_environment(root)
    sim_before = hybrid.clock.now_ms
    start = time.perf_counter()
    for cell in cells:
        hybrid.run_schematic_entry(
            "alice", project, library, cell, slow_schematic_edit
        )
    return {
        "wall_s": time.perf_counter() - start,
        "sim_ms": hybrid.clock.now_ms - sim_before,
    }


def run_scheduled(root: pathlib.Path, workers: int):
    hybrid, project, library, cells = build_environment(root)
    result = hybrid.run_many(
        batch_requests(project, library, cells), workers=workers, seed=SEED
    )
    assert all(o.ok for o in result.outcomes), (
        f"scheduled batch (workers={workers}) had failures: "
        f"{[(o.index, o.status, o.error) for o in result.outcomes if not o.ok]}"
    )
    audit = hybrid.audit()
    assert audit.clean, (
        f"workers={workers} arm left a dirty audit:\n{audit.render()}"
    )
    snapshot = hybrid.jcf.save_snapshot()
    return result, snapshot


# -- report + assertions ------------------------------------------------------


def run_bench(trials: int = TRIALS) -> Tuple[str, Dict[str, float]]:
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench_scheduler_"))
    root = workdir / "env"
    arms: Dict[int, List] = {1: [], WORKERS: []}
    try:
        plain = run_plain_loop(root)
        for trial in range(trials):
            # interleaved so drift hits both arms alike, and alternating
            # which arm runs first so neither always follows the other
            for workers in ((1, WORKERS) if trial % 2 == 0 else (WORKERS, 1)):
                arms[workers].append(run_scheduled(root, workers))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # each back-to-back pair shares ambient conditions; the median
    # paired ratio survives a scheduler hiccup in either arm
    ratios = [
        seq.wall_s / par.wall_s
        for (seq, _), (par, _) in zip(arms[1], arms[WORKERS])
    ]
    speedup = statistics.median(ratios)
    pairs = " ".join(f"{ratio:.2f}x" for ratio in ratios)
    snapshots = {snapshot for _, snapshot in arms[1] + arms[WORKERS]}
    sequential = arms[1][0][0]
    parallel = arms[WORKERS][0][0]
    sim_speedup = (
        parallel.summed_ms / parallel.makespan_ms
        if parallel.makespan_ms
        else 1.0
    )
    commits = parallel.commit_stats

    def median_wall(workers: int) -> float:
        return statistics.median(result.wall_s for result, _ in arms[workers])

    rows = [
        ["plain loop", "-", f"{plain['wall_s']:.2f} s",
         f"{plain['sim_ms']:.0f} ms", "-", "-"],
        ["run_many", "1", f"{median_wall(1):.2f} s",
         f"{sequential.makespan_ms:.0f} ms",
         f"{sequential.summed_ms:.0f} ms", f"{len(sequential.waves)}"],
        ["run_many", f"{WORKERS}", f"{median_wall(WORKERS):.2f} s",
         f"{parallel.makespan_ms:.0f} ms",
         f"{parallel.summed_ms:.0f} ms", f"{len(parallel.waves)}"],
    ]

    report = (
        "Parallel coupled-run scheduler: wall-clock speedup, determinism\n\n"
        f"batch: {N_RUNS} independent schematic-entry runs, each tool\n"
        f"step blocking {TOOL_SLEEP_S:.2f} s (external tool latency);\n"
        f"schedule seed {SEED}; wall times are medians of {trials} "
        "interleaved trial pairs\n\n"
    )
    report += format_table(
        ["arm", "workers", "wall", "sim makespan", "sim summed", "waves"],
        rows,
    )
    report += (
        f"\n\nwall-clock speedup (workers={WORKERS} vs workers=1): "
        f"{speedup:.2f}x, median pair (required >= {MIN_SPEEDUP:.1f}x)\n"
        f"each pair, workers=1 / workers={WORKERS}: {pairs}\n"
        f"simulated makespan vs summed cost: {sim_speedup:.2f}x "
        "(critical-path accounting)\n"
        f"snapshots byte-identical across arms and trials: "
        f"{len(snapshots) == 1}\n"
        f"group-commit: {commits['commit_count']} commits -> "
        f"{commits['flush_count']} flushes "
        f"({commits['coalesced_commits']} coalesced)\n"
        f"lock manager: {parallel.lock_stats['acquisitions']} acquisitions, "
        f"{parallel.lock_stats['contentions']} contentions"
    )
    report += (
        "\n\nreading: the scheduler overlaps the runs' external tool\n"
        "latency for a real wall-clock speedup while the gate protocol\n"
        "keeps the committed OMS state byte-identical to the sequential\n"
        "execution, and the simulated clock reports the batch's\n"
        "contention-free critical path instead of summed time."
    )

    metrics = {
        "plain_wall_s": plain["wall_s"],
        "seq_wall_s": median_wall(1),
        "par_wall_s": median_wall(WORKERS),
        "speedup": speedup,
        "sim_speedup": sim_speedup,
        "makespan_ms": parallel.makespan_ms,
        "summed_ms": parallel.summed_ms,
        "coalesced_commits": float(commits["coalesced_commits"]),
    }

    # -- shape assertions ---------------------------------------------------
    assert len(snapshots) == 1, (
        "parallel execution changed the committed OMS state: snapshots "
        "of the workers=1 and workers=%d arms differ" % WORKERS
    )
    assert speedup >= MIN_SPEEDUP, (
        f"wall-clock speedup {speedup:.2f}x below the required "
        f"{MIN_SPEEDUP:.1f}x ({N_RUNS} runs, {WORKERS} workers; median "
        f"of {trials} pairs: {pairs})"
    )
    # independent runs: one wave, makespan ~= the longest single run
    assert len(parallel.waves) == 1
    assert parallel.makespan_ms < parallel.summed_ms
    assert commits["coalesced_commits"] > 0
    assert parallel.lock_stats["contentions"] == 0

    return report, metrics


class TestSchedulerBench:
    def test_parallel_speedup_and_determinism(self, benchmark, report_writer):
        report, metrics = run_bench()
        report_writer("scheduler_parallel", report)
        assert metrics["speedup"] >= MIN_SPEEDUP
        # real wall time of building the dependency waves themselves
        from repro.core.scheduler import BatchScheduler

        class _Key:
            def __init__(self, name):
                self.name = name

        lib = _Key("chiplib")
        requests = [
            RunRequest.__new__(RunRequest) for _ in range(64)
        ]
        for i, request in enumerate(requests):
            request.user = "alice"
            request.project = None
            request.library = lib
            request.cell_name = f"block{i % 16}"
            request.activity = "schematic_entry"
            request.kwargs = {}
            request.reads = ()
            request.label = f"r{i}"
        benchmark(lambda: BatchScheduler.build_waves(requests))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shorter tool sleeps, no results file (CI)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        global TOOL_SLEEP_S
        TOOL_SLEEP_S = 0.06
    report, metrics = run_bench(SMOKE_TRIALS if args.smoke else TRIALS)
    print(report)
    if not args.smoke:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(report + "\n", encoding="utf-8")
        print(f"\nwrote {RESULTS_PATH}")
    print(
        f"OK: {metrics['speedup']:.2f}x median wall speedup "
        f"(>= {MIN_SPEEDUP:.1f}x), snapshots identical, "
        f"{metrics['coalesced_commits']:.0f} commits coalesced"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
