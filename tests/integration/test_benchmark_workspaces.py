"""Benchmark scripts remove the workspaces they create.

The smoke runs of the benchmark scripts are CI steps, run back to back
and over and over; a script that leaves its temporary workspace behind
grows the system temp directory by one environment per run.  Each
script here runs as a real subprocess with ``TMPDIR`` pointed at a
private directory, which must be empty once the script exits.
"""

import os
import pathlib
import subprocess
import sys

import pytest

BENCHMARKS_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"

#: quick smoke mains covering each cleanup idiom the scripts use: a
#: self-removing environment block, workspaces tied to their framework
#: objects, and try/finally removal
SMOKE_SCRIPTS = ["bench_faults.py", "bench_staging.py", "bench_wal.py"]


@pytest.mark.parametrize("script", SMOKE_SCRIPTS)
def test_smoke_run_leaves_temp_dir_empty(tmp_path, script):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    result = subprocess.run(
        [sys.executable, str(BENCHMARKS_DIR / script), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert result.returncode == 0, (
        f"{script} exited {result.returncode}:\n{result.stderr[-2000:]}"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == []
