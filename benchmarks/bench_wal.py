"""E36e — write-ahead-log persistence and delta harvest.

The Section 3.6 durability tax: the seed persisted the whole OMS
snapshot on every save, so making a checkin durable cost O(database),
however small the change.  The write-ahead log makes durability cost
O(change set), and delta harvest stops unchanged tool outputs from
crossing the OMS boundary at all.  Two experiments:

1. **per-checkin persistence cost** — grow the database 10x and persist
   one identical small checkin at each size.  In WAL mode the bytes
   written (and the wall time) stay flat; making the same checkin
   durable via a snapshot rewrite grows linearly with the database;
2. **delta vs full harvest** — run the E36 design-entry flow twice
   (the rerun reproduces the schematic byte-identically).  With delta
   harvest the rerun's boundary crossing is a metadata operation, not a
   copy, so the simulated copy-in/copy-out time drops while the stored
   state stays equivalent.

Run standalone (``python benchmarks/bench_wal.py [--smoke]``) or via
``pytest benchmarks/bench_wal.py --benchmark-only -s``; full runs
persist ``benchmarks/results/e36e_wal_persistence.txt``.
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
from repro.oms import durable
from repro.oms.database import OMSDatabase
from repro.oms.schema import AttributeDef, Schema
from repro.oms.snapshot import dump_snapshot
from repro.oms.wal import WriteAheadLog
from repro.workloads.metrics import format_table

#: database sizes (design objects) for the per-checkin cost experiment;
#: the span is the acceptance criterion's 10x growth
DB_SIZES = [200, 600, 2_000]
PAYLOAD_BYTES = 2_000
#: identical small checkins persisted (and timed) at each size
CHECKINS = 30
SMOKE_DB_SIZES = [50, 500]
SMOKE_CHECKINS = 10
if os.environ.get("REPRO_BENCH_SMOKE"):
    DB_SIZES = SMOKE_DB_SIZES
    CHECKINS = SMOKE_CHECKINS

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "e36e_wal_persistence.txt"
)


def _schema() -> Schema:
    schema = Schema("walbench")
    schema.define_entity(
        "Design", [AttributeDef("name", "str", required=True)]
    )
    return schema


def _grow(db: OMSDatabase, start: int, stop: int) -> None:
    for index in range(start, stop):
        db.create(
            "Design",
            {"name": f"d{index}"},
            payload=index.to_bytes(4, "big") * (PAYLOAD_BYTES // 4),
        )


# -- experiment 1: per-checkin persistence cost vs database size ------------


def run_persistence_cost(
    sizes: List[int],
) -> Tuple[List[List[str]], Dict[str, List[float]]]:
    """Persist one identical checkin at each database size, both modes."""
    rows = []
    wal_ms: List[float] = []
    wal_bytes: List[float] = []
    snap_ms: List[float] = []
    snap_bytes: List[float] = []
    root = pathlib.Path(tempfile.mkdtemp())
    try:
        wal = WriteAheadLog(root / "wal")
        db, _ = wal.recover(_schema())
        db.attach_wal(wal)
        grown = 0
        for size in sizes:
            _grow(db, grown, size)
            grown = size
            target = db.select("Design")[0].oid

            # WAL mode: durability per checkin is one appended record;
            # median per-checkin wall time after an untimed warm-up
            for index in range(5):
                db.set_payload(target, b"warm" + index.to_bytes(4, "big"))
            before_bytes = wal.stats()["bytes_appended"]
            samples = []
            for index in range(CHECKINS):
                start = time.perf_counter()
                db.set_payload(target, b"edit" + index.to_bytes(4, "big"))
                samples.append((time.perf_counter() - start) * 1000)
            wal_checkin_ms = statistics.median(samples)
            wal_checkin_bytes = (
                wal.stats()["bytes_appended"] - before_bytes
            ) / CHECKINS

            # baseline: the same checkin is durable only after a
            # whole-database rewrite (what the seed's save_state did)
            snapshot_path = root / "snapshot.json"
            samples = []
            for index in range(CHECKINS):
                start = time.perf_counter()
                db.set_payload(target, b"snap" + index.to_bytes(4, "big"))
                durable.atomic_replace(snapshot_path, dump_snapshot(db))
                samples.append((time.perf_counter() - start) * 1000)
            snap_checkin_ms = statistics.median(samples)
            snap_checkin_bytes = float(snapshot_path.stat().st_size)

            wal_ms.append(wal_checkin_ms)
            wal_bytes.append(wal_checkin_bytes)
            snap_ms.append(snap_checkin_ms)
            snap_bytes.append(snap_checkin_bytes)
            rows.append([
                f"{size:>6,}",
                f"{wal_checkin_bytes:,.0f}",
                f"{wal_checkin_ms:.3f}",
                f"{snap_checkin_bytes:,.0f}",
                f"{snap_checkin_ms:.3f}",
            ])
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return rows, {
        "wal_ms": wal_ms,
        "wal_bytes": wal_bytes,
        "snap_ms": snap_ms,
        "snap_bytes": snap_bytes,
    }


# -- experiment 2: delta vs full harvest on the design-entry flow -----------


def _inverter_editor(editor) -> None:
    if editor.schematic.ports():
        return  # rerun: reproduce the entered design byte-identically
    editor.add_port("a", "in")
    editor.add_port("y", "out")
    previous = "a"
    for index in range(2):
        editor.place_gate(f"i{index}", "NOT", 1)
        editor.wire(previous, f"i{index}", "in0")
        out_net = "y" if index == 1 else f"n{index}"
        editor.wire(out_net, f"i{index}", "out")
        previous = out_net


def run_harvest_arm(delta_harvest: bool) -> Dict[str, float]:
    root = pathlib.Path(tempfile.mkdtemp())
    try:
        hybrid = HybridFramework(root / "env")
        for wrapper in (
            hybrid.schematic_entry,
            hybrid.digital_simulation,
            hybrid.layout_entry,
        ):
            wrapper.delta_harvest = delta_harvest
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
        for _ in range(4):  # entry, then three byte-identical reruns
            result = hybrid.run_schematic_entry(
                "alice", project, library, "inv2", _inverter_editor
            )
            assert result.success
        harvest = hybrid.stats()["harvest"]
        return {
            "copy_ms": hybrid.clock.elapsed_by_category().get("copy", 0.0),
            "delta_hits": float(harvest["delta_hits"]),
            "full_imports": float(harvest["full_imports"]),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


# -- report + assertions ------------------------------------------------------


def run_bench(sizes: List[int]) -> Tuple[str, Dict[str, float]]:
    cost_rows, cost = run_persistence_cost(sizes)
    full = run_harvest_arm(delta_harvest=False)
    delta = run_harvest_arm(delta_harvest=True)

    snap_growth = cost["snap_bytes"][-1] / cost["snap_bytes"][0]
    wal_growth = cost["wal_bytes"][-1] / cost["wal_bytes"][0]
    report = (
        "E36e (Section 3.6) — write-ahead-log persistence and delta "
        "harvest\n\n"
        "1. persisting one identical small checkin as the database "
        "grows\n   (bytes written to disk and wall ms, per checkin, "
        f"median of {CHECKINS})\n\n"
    )
    report += format_table(
        [
            "objects",
            "WAL bytes",
            "WAL ms",
            "snapshot bytes",
            "snapshot ms",
        ],
        cost_rows,
    )
    report += (
        f"\n\ngrowth across the {sizes[0]:,} -> {sizes[-1]:,} object "
        f"span: WAL {wal_growth:.2f}x, snapshot {snap_growth:.1f}x\n\n"
        "2. delta vs full harvest — design entry plus three reruns that\n"
        "   reproduce the schematic byte-identically\n\n"
    )
    report += format_table(
        ["harvest", "simulated copy ms", "delta hits", "full imports"],
        [
            [
                "full (seed)",
                f"{full['copy_ms']:,.1f}",
                f"{full['delta_hits']:.0f}",
                f"{full['full_imports']:.0f}",
            ],
            [
                "delta",
                f"{delta['copy_ms']:,.1f}",
                f"{delta['delta_hits']:.0f}",
                f"{delta['full_imports']:.0f}",
            ],
        ],
    )
    report += (
        "\n\nreading: with the WAL, the cost of making a checkin durable "
        "is the size of\nthe change, not the size of the database — flat "
        "as the database grows 10x,\nwhere the seed's snapshot rewrite "
        "grows linearly.  Delta harvest removes the\nre-intern copy for "
        "tool runs whose output bytes did not change."
    )

    metrics = {
        "wal_growth": wal_growth,
        "snap_growth": snap_growth,
        "delta_copy_ms": delta["copy_ms"],
        "full_copy_ms": full["copy_ms"],
    }

    # -- shape assertions ---------------------------------------------------
    # (1) WAL: identical checkins append the same bytes at every size
    # (flat to within the LSN's digit width), and wall time stays flat
    # within the ±20% acceptance band while the snapshot arm grows with
    # the database
    assert abs(wal_growth - 1.0) < 0.01, (
        f"WAL bytes per checkin grew {wal_growth:.2f}x with database size"
    )
    assert cost["wal_ms"][-1] <= 1.2 * cost["wal_ms"][0] or (
        cost["wal_ms"][-1] < 1.0  # sub-ms jitter floor on tiny commits
    ), f"WAL per-checkin wall time grew with database size: {cost['wal_ms']}"
    size_span = sizes[-1] / sizes[0]
    assert snap_growth > 0.5 * size_span, (
        f"snapshot bytes should track database size: {snap_growth:.1f}x"
    )
    # (2) delta harvest: reruns hit, and the boundary-crossing time drops
    assert delta["delta_hits"] >= 3.0
    assert full["delta_hits"] == 0.0
    assert delta["copy_ms"] < full["copy_ms"]

    return report, metrics


class TestWALBench:
    def test_e36e_wal_persistence(self, benchmark, report_writer):
        report, metrics = run_bench(DB_SIZES)
        report_writer("e36e_wal_persistence", report)
        assert abs(metrics["wal_growth"] - 1.0) < 0.01
        # real wall time of the hot path: one logged checkin
        with tempfile.TemporaryDirectory() as root:
            wal = WriteAheadLog(pathlib.Path(root))
            db, _ = wal.recover(_schema())
            db.attach_wal(wal)
            _grow(db, 0, DB_SIZES[0])
            target = db.select("Design")[0].oid
            counter = [0]

            def checkin():
                counter[0] += 1
                db.set_payload(target, counter[0].to_bytes(8, "big"))

            benchmark(checkin)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes, no results file (CI)",
    )
    args = parser.parse_args(argv)
    sizes = SMOKE_DB_SIZES if args.smoke else DB_SIZES
    report, metrics = run_bench(sizes)
    print(report)
    if not args.smoke:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(report + "\n", encoding="utf-8")
        print(f"\nwrote {RESULTS_PATH}")
    print(
        f"OK: WAL per-checkin bytes flat ({metrics['wal_growth']:.2f}x) "
        f"while snapshots grew {metrics['snap_growth']:.1f}x; delta "
        f"harvest cut boundary copy time "
        f"{metrics['full_copy_ms'] / metrics['delta_copy_ms']:.1f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
