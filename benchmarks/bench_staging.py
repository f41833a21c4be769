"""E36d — copy-on-write staging and delta version chains.

The Section 3.6 problem: design-data access copies files through the
UNIX file system even for read-only use, so its cost grows with design
size.  The content-addressed payload store attacks this on three fronts,
each measured here on the simulated cost model:

1. **re-export flatness** — after the first export, a repeated read-only
   ``export_object`` of unchanged data is a digest probe: its cost is
   flat across design sizes and no further bytes are copied;
2. **multi-user workload** — a re-export-heavy team workload (several
   users repeatedly staging the same cells, occasional edits) moves an
   order of magnitude fewer bytes than the naive always-copy staging the
   seed implemented (``copy_on_write=False`` is that baseline, bit for
   bit);
3. **delta version chains** — a 50-version design object with small
   edits stores roughly one full payload plus small deltas, not 50 full
   copies.

Run standalone (``python benchmarks/bench_staging.py [--smoke]``) or via
``pytest benchmarks/bench_staging.py --benchmark-only -s``; full runs
persist ``benchmarks/results/e36d_cow_staging.txt``.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import sys
import tempfile
import weakref
from typing import Dict, List, Tuple

if __name__ == "__main__":  # standalone: make src/ importable without install
    _SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
    if _SRC.is_dir() and str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.jcf.framework import JCFFramework
from repro.oms.blobs import BlobStore
from repro.oms.storage import StagingArea
from repro.workloads.metrics import format_table

#: design-data sizes (bytes) for the re-export flatness experiment
SIZES = [1_000, 10_000, 100_000, 1_000_000]
#: payload size per design object in the multi-user workload
WORKLOAD_BYTES = 200_000
#: CI smoke mode — endpoints keep every shape assertion meaningful
SMOKE_SIZES = [1_000, 1_000_000]
SMOKE_WORKLOAD_BYTES = 20_000
if os.environ.get("REPRO_BENCH_SMOKE"):
    SIZES = SMOKE_SIZES
    WORKLOAD_BYTES = SMOKE_WORKLOAD_BYTES

#: multi-user workload shape: a small team re-staging the same cells
USERS = 4
OBJECTS = 3
ROUNDS = 24
#: rounds in which one designer actually edits an object
MUTATION_ROUNDS = (8, 16)

RE_EXPORTS = 5
CHAIN_VERSIONS = 50
CHAIN_PAYLOAD = 50_000

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "e36d_cow_staging.txt"
)


def fresh_jcf() -> JCFFramework:
    root = tempfile.mkdtemp()
    jcf = JCFFramework(pathlib.Path(root))
    # the workspace goes with the framework (or at exit)
    weakref.finalize(jcf, shutil.rmtree, root, True)
    return jcf


def setup_design_objects(jcf: JCFFramework, payloads: List[bytes]):
    """One variant holding one design object version per payload."""
    project = jcf.desktop.create_project("alice", "bench")
    variant = project.create_cell("c").create_version().create_variant("v")
    versions = []
    for index, payload in enumerate(payloads):
        dobj = variant.create_design_object(f"c/view{index}", "schematic")
        versions.append(dobj.new_version(payload))
    return versions


# -- experiment 1: repeated read-only export is size-independent ------------


def run_reexport(sizes: List[int]) -> Tuple[List[List[str]], Dict[str, List[float]]]:
    rows = []
    first_costs: List[float] = []
    reexport_costs: List[float] = []
    reexport_bytes: List[int] = []
    for size in sizes:
        jcf = fresh_jcf()
        version = setup_design_objects(jcf, [b"x" * size])[0]
        before = jcf.clock.now_ms
        jcf.staging.export_object(version.oid)
        first_ms = jcf.clock.now_ms - before
        before = jcf.clock.now_ms
        for _ in range(RE_EXPORTS):
            jcf.staging.export_object(version.oid)
        reexport_ms = (jcf.clock.now_ms - before) / RE_EXPORTS
        accounting = jcf.staging.accounting()
        first_costs.append(first_ms)
        reexport_costs.append(reexport_ms)
        reexport_bytes.append(accounting["bytes_exported"])
        rows.append([
            f"{size:>9,}",
            f"{first_ms:.1f}",
            f"{reexport_ms:.1f}",
            f"{accounting['bytes_exported']:,}",
            f"{accounting['export_hits']}",
        ])
    return rows, {
        "first": first_costs,
        "reexport": reexport_costs,
        "bytes": [float(b) for b in reexport_bytes],
    }


# -- experiment 2: multi-user re-export-heavy workload, CoW vs naive --------


def run_workload_arm(copy_on_write: bool, obj_bytes: int) -> Dict[str, float]:
    """USERS users re-staging OBJECTS cells for ROUNDS rounds."""
    jcf = fresh_jcf()
    payloads = [bytes([65 + i]) * obj_bytes for i in range(OBJECTS)]
    versions = setup_design_objects(jcf, payloads)
    areas = [
        StagingArea(
            jcf.db,
            jcf.root / "staging" / f"user{u}",
            copy_on_write=copy_on_write,
        )
        for u in range(USERS)
    ]
    clock_start = jcf.clock.now_ms
    for round_no in range(ROUNDS):
        if round_no in MUTATION_ROUNDS:
            # user 0 edits object 0 and checks the change back in
            staged = areas[0].export_object(versions[0].oid)
            edited = f"edit{round_no}".encode() + staged.path.read_bytes()[8:]
            staged.path.write_bytes(edited)
            areas[0].import_object(versions[0].oid)
        for area in areas:  # everyone (re-)stages every cell this round
            area.export_objects([v.oid for v in versions])
    bytes_copied = sum(
        a.bytes_exported + a.bytes_imported for a in areas
    )
    files_copied = sum(
        a.files_exported + a.files_imported for a in areas
    )
    hits = sum(a.export_hits + a.import_hits for a in areas)
    return {
        "bytes": float(bytes_copied),
        "files": float(files_copied),
        "hits": float(hits),
        "clock_ms": jcf.clock.now_ms - clock_start,
    }


# -- experiment 3: delta version chains -------------------------------------


def run_version_chain() -> Dict[str, int]:
    jcf = fresh_jcf()
    payload = bytearray(b"d" * CHAIN_PAYLOAD)
    project = jcf.desktop.create_project("alice", "chain")
    variant = project.create_cell("c").create_version().create_variant("v")
    dobj = variant.create_design_object("c/schematic", "schematic")
    dobj.new_version(bytes(payload))
    for i in range(CHAIN_VERSIONS - 1):  # small edit per successor version
        payload[(i * 17) % CHAIN_PAYLOAD] = ord("e")
        dobj.new_version(bytes(payload))
    return jcf.versioning.chain_storage(dobj)


# -- report + assertions ------------------------------------------------------


def run_bench(
    sizes: List[int], obj_bytes: int
) -> Tuple[str, Dict[str, float]]:
    reexport_rows, reexport = run_reexport(sizes)
    naive = run_workload_arm(copy_on_write=False, obj_bytes=obj_bytes)
    cow = run_workload_arm(copy_on_write=True, obj_bytes=obj_bytes)
    chain = run_version_chain()

    byte_reduction = naive["bytes"] / cow["bytes"]
    report = (
        "E36d (Section 3.6) — copy-on-write staging and delta version "
        "chains\n\n"
        "1. repeated read-only export (simulated ms; bytes copied is the\n"
        f"   cumulative total after 1 export + {RE_EXPORTS} re-exports)\n\n"
    )
    report += format_table(
        [
            "design bytes",
            "first export",
            "re-export",
            "bytes copied",
            "CoW hits",
        ],
        reexport_rows,
    )
    report += (
        f"\n\n2. multi-user workload — {USERS} users re-staging "
        f"{OBJECTS} cells of {obj_bytes:,} bytes\n"
        f"   for {ROUNDS} rounds, {len(MUTATION_ROUNDS)} actual edits\n\n"
    )
    report += format_table(
        ["staging", "bytes copied", "files copied", "CoW hits",
         "simulated ms"],
        [
            [
                "naive (seed)",
                f"{naive['bytes']:,.0f}",
                f"{naive['files']:,.0f}",
                f"{naive['hits']:,.0f}",
                f"{naive['clock_ms']:,.1f}",
            ],
            [
                "copy-on-write",
                f"{cow['bytes']:,.0f}",
                f"{cow['files']:,.0f}",
                f"{cow['hits']:,.0f}",
                f"{cow['clock_ms']:,.1f}",
            ],
            [
                "reduction",
                f"{byte_reduction:.1f}x",
                f"{naive['files'] / cow['files']:.1f}x",
                "",
                f"{naive['clock_ms'] / cow['clock_ms']:.1f}x",
            ],
        ],
    )
    report += (
        f"\n\n3. delta version chain — {chain['versions']} versions of a "
        f"{CHAIN_PAYLOAD:,}-byte design object\n\n"
    )
    report += format_table(
        ["versions", "logical bytes", "stored bytes", "full payloads",
         "delta payloads", "max depth"],
        [[
            f"{chain['versions']}",
            f"{chain['logical_bytes']:,}",
            f"{chain['stored_bytes']:,}",
            f"{chain['full_payloads']}",
            f"{chain['delta_payloads']}",
            f"{chain['max_depth']}",
        ]],
    )
    report += (
        "\n\nreading: after the first copy, read-only access to unchanged "
        "design data is\na size-independent digest probe, so the "
        "re-export-heavy team workload moves\nan order of magnitude fewer "
        "bytes than the seed's always-copy staging; and a\nlong chain of "
        "small edits costs one full payload plus small deltas instead\nof "
        "one full copy per version."
    )

    metrics: Dict[str, float] = {
        "byte_reduction": byte_reduction,
        "chain_stored": float(chain["stored_bytes"]),
        "chain_logical": float(chain["logical_bytes"]),
        "chain_full": float(chain["full_payloads"]),
        "chain_max_depth": float(chain["max_depth"]),
    }

    # -- shape assertions ---------------------------------------------------
    # (1) re-export cost is flat across design sizes while the first
    # export grows; the cumulative bytes copied equal exactly one export
    assert max(reexport["reexport"]) == min(reexport["reexport"])
    assert reexport["first"][-1] > 10 * reexport["first"][0]
    assert reexport["bytes"] == [float(s) for s in sizes]
    # (2) the CoW workload copies >=10x fewer bytes than the naive one
    assert byte_reduction >= 10.0, (
        f"CoW staging only reduced bytes copied {byte_reduction:.1f}x"
    )
    assert cow["clock_ms"] < naive["clock_ms"]
    # (3) N versions cost O(first payload + sum of deltas): one full
    # payload, every other version a small delta, depth bounded
    assert chain["full_payloads"] == 1
    assert chain["delta_payloads"] == CHAIN_VERSIONS - 1
    assert chain["stored_bytes"] < CHAIN_PAYLOAD + (CHAIN_VERSIONS - 1) * 1_000
    assert chain["max_depth"] <= BlobStore.MAX_CHAIN_DEPTH

    return report, metrics


class TestStagingBench:
    def test_e36d_cow_staging(self, benchmark, report_writer):
        report, metrics = run_bench(SIZES, WORKLOAD_BYTES)
        report_writer("e36d_cow_staging", report)
        assert metrics["byte_reduction"] >= 10.0
        # real wall time of the hot path: a digest-validated re-export
        jcf = fresh_jcf()
        version = setup_design_objects(jcf, [b"x" * SIZES[-1]])[0]
        jcf.staging.export_object(version.oid)
        benchmark(lambda: jcf.staging.export_object(version.oid))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes, no results file (CI)",
    )
    args = parser.parse_args(argv)
    sizes = SMOKE_SIZES if args.smoke else SIZES
    obj_bytes = SMOKE_WORKLOAD_BYTES if args.smoke else WORKLOAD_BYTES
    report, metrics = run_bench(sizes, obj_bytes)
    print(report)
    if not args.smoke:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(report + "\n", encoding="utf-8")
        print(f"\nwrote {RESULTS_PATH}")
    print(
        f"OK: {metrics['byte_reduction']:.1f}x fewer bytes copied; "
        f"{CHAIN_VERSIONS} versions stored in "
        f"{metrics['chain_stored']:,.0f} bytes "
        f"({metrics['chain_logical']:,.0f} logical)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
