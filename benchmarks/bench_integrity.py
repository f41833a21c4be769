"""Storage integrity overhead — verified reads and scrub throughput.

The integrity layer re-digests payload bytes against their content
address on every read path (OMS materialize, staged tool input, FMCAD
``read_version``).  This benchmark quantifies what that costs:

1. **verified-read overhead** — the multi-user copy-on-write staging
   workload of ``bench_staging`` run with verification on vs off
   (wall clock, interleaved paired trials that alternate which arm runs
   first; every pair's ratio is printed).  The acceptance bound is
   <= 5% median paired overhead: the verified-once fast path means
   steady-state re-reads of an already-proven blob skip the re-hash
   entirely;
2. **materialize cost** — per-read cost of a cold verified read (pays
   one SHA-256 over the payload), a warm verified read (fast path) and
   an unverified read, across payload sizes;
3. **scrub throughput** — how fast the background scrubber sweeps a
   store, in payload-MB per second, and that it detects 100% of
   injected corruptions while doing so.

Run standalone (``python benchmarks/bench_integrity.py [--smoke]``) or
via ``pytest benchmarks/bench_integrity.py --benchmark-only -s``; full
runs persist ``benchmarks/results/integrity.txt``.
"""

from __future__ import annotations

import argparse
import gc
import os
import pathlib
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Tuple

if __name__ == "__main__":  # standalone: make src/ importable without install
    _SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
    if _SRC.is_dir() and str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.faults import FaultPlan, MODE_FLIP, inject
from repro.jcf.framework import JCFFramework
from repro.oms.blobs import BlobStore, digest_bytes
from repro.oms.storage import StagingArea
from repro.workloads.metrics import format_table

#: overhead bound asserted on the staging workload (acceptance criterion)
MAX_OVERHEAD_PCT = 5.0

#: staging workload shape (mirrors bench_staging's multi-user arm)
USERS = 4
OBJECTS = 3
ROUNDS = 24
OBJ_BYTES = 200_000
#: interleaved trial pairs; the bound is asserted on their median ratio
TRIALS = 11
#: pairs at smoke size.  On a 2-vCPU VM one ~30 ms smoke pair reads
#: anywhere from -30% to +50% around a ~2.5% median, so the quietest of
#: three pairs (the former gate) failed about 1 run in 6 while the
#: quietest of 15 missed a ~10% overhead 4 runs in 5; the median of 31
#: pairs read 1.2-4.4% in 20 runs with the verified-once flag and
#: 5.4-10.6% in 6 runs without it
SMOKE_TRIALS = 31

#: materialize microbench payload sizes
SIZES = [10_000, 100_000, 1_000_000]
MATERIALIZE_REPEATS = 50

#: scrub throughput store shape
SCRUB_PAYLOADS = 64
SCRUB_BYTES = 100_000
SCRUB_CORRUPTIONS = 5

if os.environ.get("REPRO_BENCH_SMOKE"):
    ROUNDS = 8
    TRIALS = SMOKE_TRIALS
    SIZES = [10_000, 100_000]
    MATERIALIZE_REPEATS = 10
    SCRUB_PAYLOADS = 16

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "integrity.txt"


def setup_design_objects(jcf: JCFFramework, payloads: List[bytes]):
    project = jcf.desktop.create_project("alice", "bench")
    variant = project.create_cell("c").create_version().create_variant("v")
    versions = []
    for index, payload in enumerate(payloads):
        dobj = variant.create_design_object(f"c/view{index}", "schematic")
        versions.append(dobj.new_version(payload))
    return versions


# -- experiment 1: verified-read overhead on the staging workload -----------


def _staging_workload(verify: bool) -> float:
    with tempfile.TemporaryDirectory() as root:
        jcf = JCFFramework(pathlib.Path(root))
        jcf.db._blobs.verify_reads = verify
        payloads = [bytes([65 + i]) * OBJ_BYTES for i in range(OBJECTS)]
        versions = setup_design_objects(jcf, payloads)
        areas = [
            StagingArea(jcf.db, jcf.root / "staging" / f"user{u}")
            for u in range(USERS)
        ]
        # the previous trial's garbage is collected outside the timing
        gc.collect()
        start = time.perf_counter()
        for _ in range(ROUNDS):
            for area in areas:
                area.export_objects([v.oid for v in versions])
        return time.perf_counter() - start


def run_overhead() -> Tuple[Dict[str, float], List[float]]:
    """Overhead figures, and each pair's on/off overhead in percent."""
    _staging_workload(True)  # warmup: imports, allocator, page cache
    off_times: List[float] = []
    on_times: List[float] = []
    for trial in range(TRIALS):
        # interleaved so drift hits both arms alike, and alternating
        # which arm runs first so neither always follows the other
        for verify in (trial % 2 == 1, trial % 2 == 0):
            (on_times if verify else off_times).append(
                _staging_workload(verify)
            )
    # each back-to-back pair shares ambient conditions; the median paired
    # ratio survives scheduler hiccups in either arm without the
    # optimistic bias a min (or pessimistic bias a mean) would carry
    ratios = [on / off for off, on in zip(off_times, on_times)]
    pair_pcts = [(ratio - 1.0) * 100.0 for ratio in ratios]
    return {
        "off_ms": min(off_times) * 1000.0,
        "on_ms": min(on_times) * 1000.0,
        "overhead_pct": (statistics.median(ratios) - 1.0) * 100.0,
    }, pair_pcts


# -- experiment 2: materialize cost (cold / warm / unverified) ---------------


def run_materialize() -> List[List[str]]:
    rows = []
    for size in SIZES:
        payload = os.urandom(size)
        digest = digest_bytes(payload)

        cold_total = 0.0
        for _ in range(MATERIALIZE_REPEATS):
            store = BlobStore()
            store.intern(payload)
            start = time.perf_counter()
            store.materialize(digest)  # pays the re-hash
            cold_total += time.perf_counter() - start

        store = BlobStore()
        store.intern(payload)
        store.materialize(digest)  # prove it once
        start = time.perf_counter()
        for _ in range(MATERIALIZE_REPEATS):
            store.materialize(digest)  # fast path
        warm_total = time.perf_counter() - start
        assert store.verification_hits == MATERIALIZE_REPEATS

        store = BlobStore(verify_reads=False)
        store.intern(payload)
        start = time.perf_counter()
        for _ in range(MATERIALIZE_REPEATS):
            store.materialize(digest)
        off_total = time.perf_counter() - start

        scale = 1_000_000.0 / MATERIALIZE_REPEATS  # seconds -> us/read
        rows.append([
            f"{size:>9,}",
            f"{cold_total * scale:.1f}",
            f"{warm_total * scale:.1f}",
            f"{off_total * scale:.1f}",
        ])
    return rows


# -- experiment 3: scrub throughput + detection rate -------------------------


def run_scrub() -> Dict[str, float]:
    from repro.fmcad.framework import FMCADFramework
    from repro.integrity import Scrubber

    with tempfile.TemporaryDirectory() as workdir:
        root = pathlib.Path(workdir)
        jcf = JCFFramework(root / "jcf")
        fmcad = FMCADFramework(root / "fmcad")
        payloads = [
            os.urandom(SCRUB_BYTES) for _ in range(SCRUB_PAYLOADS)
        ]
        # corrupt a deterministic subset of the interns as they land
        plan = FaultPlan([])
        for i in range(SCRUB_CORRUPTIONS):
            hit = 1 + i * (SCRUB_PAYLOADS // SCRUB_CORRUPTIONS)
            plan.add_corrupt(
                "blobs.payload", mode=MODE_FLIP, on_hit=hit, seed=i
            )
        with inject(plan):
            setup_design_objects(jcf, payloads)
        injected = len(plan.fired)

        scrubber = Scrubber(jcf, fmcad)
        start = time.perf_counter()
        report = scrubber.scrub()
        elapsed = time.perf_counter() - start
    detected = sum(1 for f in report.findings if f.area == "blob")
    swept_mb = SCRUB_PAYLOADS * SCRUB_BYTES / 1e6
    return {
        "injected": float(injected),
        "detected": float(detected),
        "mb": swept_mb,
        "ms": elapsed * 1000.0,
        "mb_per_s": swept_mb / elapsed,
    }


# -- report + assertions ------------------------------------------------------


def run_bench() -> Tuple[str, Dict[str, float]]:
    overhead, pair_pcts = run_overhead()
    materialize_rows = run_materialize()
    scrub = run_scrub()

    report = (
        "Storage integrity — verified-read overhead and scrub "
        "throughput\n\n"
        f"1. verified reads on the {USERS}-user CoW staging workload "
        f"({OBJECTS} cells x {OBJ_BYTES:,} B,\n"
        f"   {ROUNDS} rounds; wall clock, overhead is the median of "
        f"{TRIALS} interleaved paired trials)\n\n"
    )
    pairs = " ".join(f"{pct:+.1f}%" for pct in pair_pcts)
    report += format_table(
        ["verification", "wall ms", "overhead"],
        [
            ["off (baseline)", f"{overhead['off_ms']:.1f}", ""],
            [
                "on (default)",
                f"{overhead['on_ms']:.1f}",
                f"{overhead['overhead_pct']:+.1f}%",
            ],
        ],
    )
    report += f"\n   each pair, on vs off: {pairs}"
    report += (
        "\n\n2. single materialize cost (us/read; cold pays one SHA-256, "
        "warm is the\n   verified-once fast path)\n\n"
    )
    report += format_table(
        ["payload bytes", "verified cold", "verified warm", "unverified"],
        materialize_rows,
    )
    report += (
        f"\n\n3. scrub throughput — {SCRUB_PAYLOADS} payloads x "
        f"{SCRUB_BYTES:,} B, {int(scrub['injected'])} corruptions "
        "injected at intern\n\n"
    )
    report += format_table(
        ["swept MB", "wall ms", "MB/s", "injected", "detected"],
        [[
            f"{scrub['mb']:.1f}",
            f"{scrub['ms']:.1f}",
            f"{scrub['mb_per_s']:.0f}",
            f"{int(scrub['injected'])}",
            f"{int(scrub['detected'])}",
        ]],
    )
    report += (
        "\n\nreading: the verified-once fast path keeps steady-state "
        "verified reads at\nunverified cost, so the end-to-end staging "
        "workload pays well under the 5%\nacceptance bound; a cold "
        "verified read costs one SHA-256 pass; the scrubber\nsweeps at "
        "memory-hash speed and reports every injected corruption."
    )

    # acceptance: the overhead bound, and 100% detection while sweeping
    assert overhead["overhead_pct"] <= MAX_OVERHEAD_PCT, (
        f"verified reads cost {overhead['overhead_pct']:.1f}% on "
        f"the staging workload, median of {TRIALS} trial pairs "
        f"(bound: {MAX_OVERHEAD_PCT}%; pairs: {pairs})"
    )
    assert scrub["detected"] == scrub["injected"] > 0, (
        f"scrub detected {scrub['detected']:.0f} of "
        f"{scrub['injected']:.0f} injected corruptions"
    )
    return report, {**overhead, **scrub}


class TestIntegrityBench:
    def test_integrity_overhead(self, benchmark, report_writer):
        report, metrics = run_bench()
        report_writer("integrity", report)
        # real wall time of the hot path: a warm verified materialize
        store = BlobStore()
        payload = os.urandom(SIZES[-1])
        digest = store.intern(payload)
        store.materialize(digest)
        benchmark(lambda: store.materialize(digest))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes, no results file (CI)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        global ROUNDS, TRIALS, SIZES, MATERIALIZE_REPEATS, SCRUB_PAYLOADS
        ROUNDS, TRIALS = 8, SMOKE_TRIALS
        SIZES = [10_000, 100_000]
        MATERIALIZE_REPEATS = 10
        SCRUB_PAYLOADS = 16
    report, metrics = run_bench()
    print(report)
    if not args.smoke:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(report + "\n", encoding="utf-8")
        print(f"\nwrote {RESULTS_PATH}")
    print(
        f"OK: {metrics['overhead_pct']:+.1f}% verified-read overhead; "
        f"{metrics['detected']:.0f}/{metrics['injected']:.0f} "
        f"corruptions detected at {metrics['mb_per_s']:.0f} MB/s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
