"""Smoke tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs once at its smoke size with every correctness check;
the printed metrics must match ``BENCHMARK.json`` by name and unit.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from client import RunRecord  # noqa: E402
from workloads import SMOKE, WORKLOADS, make_plan  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_names_every_metric_and_workload():
    assert units("end_to_end") == run.END_TO_END
    assert units("per_layer") == run.PER_LAYER
    for workload in BENCHMARK["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_workload_checks_and_prints_every_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", "0", "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == units("end_to_end")
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    # the post-restart runs on reserve cells fail while Library.open
    # drops cells without versions, so ok_ratio stays below 1
    assert result["metrics"]["ok_ratio"]["value"] <= 1.0


def test_traced_smoke_prints_every_per_layer_metric():
    result = result_of(bench("--workload", "design_cycle", "--seed", "3",
                             "--seconds", "1", "--trace", "1", "--smoke"))
    assert result["correct"] is True
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == units("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # design_cycle stages what it wrote back out, and batches hold one run
    assert metrics["oms.storage.export_ms"] > 0
    assert metrics["oms.blobs.materialize_ms"] > 0
    assert metrics["oms.readcache.hit_ratio"] > 0
    assert metrics["server.batch_runs"] == pytest.approx(1.0)


def test_plan_is_a_function_of_the_seed():
    shape = SMOKE["steady_commit"]
    assert make_plan(shape, 5) == make_plan(shape, 5)
    other = make_plan(shape, 6)
    assert other != make_plan(shape, 5)

    def stages(plan):
        return sorted(
            run_[3]["stages"]
            for connection in plan["connections"]
            for session in connection["sessions"]
            for run_ in session["runs"]
        )

    # the seed reorders a fixed multiset of design sizes
    assert stages(other) == stages(make_plan(shape, 5))


def test_version_check_flags_lost_and_double_commits():
    plan = make_plan(SMOKE["steady_commit"], 1)
    cells = [r[0] for r in plan["connections"][0]["sessions"][0]["runs"]]
    library = plan["connections"][0]["sessions"][0]["library"]
    records = [
        RunRecord(cell=c, activity="schematic_entry", latency_ms=1.0,
                  ok=True, status="ok")
        for c in cells[:3]
    ]
    versions = {f"{library}/{cells[0]}/schematic": 1,
                f"{library}/{cells[0]}/symbol": 1,
                f"{library}/{cells[1]}/schematic": 2,
                f"{library}/{cells[1]}/symbol": 1}
    problems = run.check_versions(plan, records, versions)
    assert sum("double-committed" in p for p in problems) == 1
    assert sum("lost" in p for p in problems) == 2
    assert not any(cells[0] in p for p in problems)


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "steady_commit", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
