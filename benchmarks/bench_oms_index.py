"""OMS index microbenchmarks — naive scans vs the kernel's indexes.

Links: the seed kernel answered ``targets()``/``sources()`` by scanning
every ``(source, target)`` pair of the relation, so each metadata query
on the JCF desktop hot path cost O(E).  The adjacency-indexed
:class:`~repro.oms.links.LinkStore` answers the same queries in
O(degree).  This benchmark builds relations of 10k–100k links and probes
random sources with both implementations (the naive scan reproduces the
seed code on the very same data).

Lookups: the seed ``select()`` sorted every object of the database on
each call, so a name lookup (``find_user``, ``find_cell``) cost
O(N log N) in the database size.  The kernel now walks one per-type
extent, and ``by_name()`` answers from the name index in O(result).
Databases of 10³–10⁵ objects (half of them the probed type) are probed
with all three.  Both reports go to
``benchmarks/results/oms_index_microbench.txt``.

Run standalone (``python benchmarks/bench_oms_index.py [--smoke]``) or
via ``pytest benchmarks/bench_oms_index.py --benchmark-only -s``.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time
from typing import Dict, List, Tuple

if __name__ == "__main__":  # standalone: make src/ importable without install
    _SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
    if _SRC.is_dir() and str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.ids import sort_key
from repro.oms.database import OMSDatabase
from repro.oms.objects import OMSObject
from repro.oms.schema import AttributeDef, Schema

#: full-run relation sizes (number of links)
SIZES = [10_000, 100_000]
#: CI smoke sizes — seconds, not minutes
SMOKE_SIZES = [1_000, 5_000]
FANOUT = 10
PROBES = 200
#: database sizes (objects) of the lookup experiment
LOOKUP_SIZES = [1_000, 10_000, 100_000]
SMOKE_LOOKUP_SIZES = [1_000, 10_000]
#: indexed lookups are ~µs, so they take many probes; the naive scan few
LOOKUP_PROBES = 2_000
NAIVE_PROBES = 5
#: by_name may grow at most this much from the smallest to the largest
#: database (flat up to timer and cache noise)
FLAT_BOUND = 3.0

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "oms_index_microbench.txt"
)


def build_db(
    n_links: int, fanout: int = FANOUT
) -> Tuple[OMSDatabase, List[str], List[str]]:
    """A database with *n_links* edges, out- and in-degree == *fanout*."""
    schema = Schema("bench")
    schema.define_entity(
        "Node", [AttributeDef("name", "str", required=True)]
    )
    schema.define_relationship("edge", "Node", "Node", "M:N")
    db = OMSDatabase(schema)
    n_each = n_links // fanout
    sources = [
        db.create("Node", {"name": f"s{i}"}).oid for i in range(n_each)
    ]
    targets = [
        db.create("Node", {"name": f"t{i}"}).oid for i in range(n_each)
    ]
    for i, src in enumerate(sources):
        for j in range(fanout):
            db.link("edge", src, targets[(i + j) % n_each])
    return db, sources, targets


def naive_targets(db: OMSDatabase, rel_name: str, source_oid: str) -> List[OMSObject]:
    """The seed implementation: full scan of the relation's pair set."""
    oids = sorted(
        (
            dst
            for src, dst in db._link_index.iter_pairs(rel_name)
            if src == source_oid
        ),
        key=sort_key,
    )
    return [db.get(oid) for oid in oids]


def naive_sources(db: OMSDatabase, rel_name: str, target_oid: str) -> List[OMSObject]:
    oids = sorted(
        (
            src
            for src, dst in db._link_index.iter_pairs(rel_name)
            if dst == target_oid
        ),
        key=sort_key,
    )
    return [db.get(oid) for oid in oids]


def _time_per_op(fn, probes: List[str]) -> float:
    """Wall-clock microseconds per call, averaged over all probes."""
    start = time.perf_counter()
    for oid in probes:
        fn(oid)
    return (time.perf_counter() - start) / len(probes) * 1e6


def run_microbench(
    sizes: List[int], probes: int = PROBES, seed: int = 7
) -> Tuple[str, Dict[int, float]]:
    """Benchmark every size; returns (report text, size -> targets speedup)."""
    rows = []
    speedups: Dict[int, float] = {}
    for n_links in sizes:
        db, sources, targets = build_db(n_links)
        rng = random.Random(seed)
        probe_oids = [rng.choice(sources) for _ in range(probes)]
        probe_targets = [rng.choice(targets) for _ in range(probes)]
        # correctness guard: both paths must answer identically
        for oid in probe_oids[:5]:
            assert [o.oid for o in db.targets("edge", oid)] == [
                o.oid for o in naive_targets(db, "edge", oid)
            ]
        naive_us = _time_per_op(
            lambda oid: naive_targets(db, "edge", oid), probe_oids
        )
        indexed_us = _time_per_op(
            lambda oid: db.targets("edge", oid), probe_oids
        )
        naive_src_us = _time_per_op(
            lambda oid: naive_sources(db, "edge", oid), probe_targets
        )
        indexed_src_us = _time_per_op(
            lambda oid: db.sources("edge", oid), probe_targets
        )
        speedups[n_links] = naive_us / indexed_us
        rows.append(
            f"{n_links:>8,}  {naive_us:>15.1f}  {indexed_us:>17.1f}  "
            f"{naive_us / indexed_us:>11.1f}x  {naive_src_us:>15.1f}  "
            f"{indexed_src_us:>17.1f}  {naive_src_us / indexed_src_us:>11.1f}x"
        )
    header = (
        "OMS link-index microbenchmark — naive O(E) scan vs adjacency index\n"
        f"fanout {FANOUT}, {probes} random probes per size, wall-clock µs/op\n"
        "\n"
        f"{'links':>8}  {'naive tgt (µs)':>15}  {'indexed tgt (µs)':>17}  "
        f"{'tgt speedup':>12}  {'naive src (µs)':>15}  "
        f"{'indexed src (µs)':>17}  {'src speedup':>12}\n"
    )
    footer = (
        "\nreading: the naive scan grows linearly with relation size while\n"
        "the indexed store stays flat at O(degree) — the metadata cost the\n"
        "paper's Section 3.6 requires to be independent of design size."
    )
    return header + "\n".join(rows) + footer, speedups


def build_lookup_db(n_objects: int) -> Tuple[OMSDatabase, List[str]]:
    """*n_objects* objects: half named Cells, half unnamed Nets."""
    schema = Schema("lookup")
    schema.define_entity(
        "Cell", [AttributeDef("name", "str", required=True)]
    )
    schema.define_entity("Net", [AttributeDef("width", "int", default=1)])
    db = OMSDatabase(schema)
    names = []
    for i in range(n_objects // 2):
        names.append(f"cell{i}")
        db.create("Cell", {"name": names[-1]})
        db.create("Net")
    return db, names


def naive_select(db: OMSDatabase, type_name: str, predicate) -> List[OMSObject]:
    """The seed implementation: sort the whole database, then filter."""
    return [
        obj
        for oid, obj in sorted(
            db._objects.items(), key=lambda kv: sort_key(kv[0])
        )
        if obj.type_name == type_name and predicate(obj)
    ]


def run_lookup_bench(
    sizes: List[int], seed: int = 7
) -> Tuple[str, Dict[int, Dict[str, float]]]:
    """Time one Cell name lookup three ways at every database size."""
    rows = []
    timings: Dict[int, Dict[str, float]] = {}
    for n_objects in sizes:
        db, names = build_lookup_db(n_objects)
        rng = random.Random(seed)
        probes = [rng.choice(names) for _ in range(LOOKUP_PROBES)]

        def named(name):
            return lambda o: o.get("name") == name

        # correctness guard: all three paths answer identically
        for name in probes[:3]:
            expected = naive_select(db, "Cell", named(name))
            assert db.select("Cell", named(name)) == expected
            assert db.by_name("Cell", name) == expected
        naive_us = _time_per_op(
            lambda name: naive_select(db, "Cell", named(name)),
            probes[:NAIVE_PROBES],
        )
        # the extent walk is O(N): scale its probe count down with N so
        # every size takes about the same time
        extent_probes = probes[: max(NAIVE_PROBES, LOOKUP_PROBES * 1_000
                                     // n_objects)]
        extent_us = _time_per_op(
            lambda name: db.select("Cell", named(name)), extent_probes
        )
        by_name_us = _time_per_op(
            lambda name: db.by_name("Cell", name), probes
        )
        timings[n_objects] = {
            "naive": naive_us, "extent": extent_us, "by_name": by_name_us,
        }
        rows.append(
            f"{n_objects:>8,}  {naive_us:>17.1f}  {extent_us:>18.1f}  "
            f"{by_name_us:>13.2f}  {naive_us / by_name_us:>15.0f}x"
        )
    header = (
        "OMS lookup microbenchmark — name lookup of one Cell\n"
        "half of the objects are Cells, half unnamed Nets; wall-clock "
        "µs/op\n"
        "\n"
        f"{'objects':>8}  {'naive select (µs)':>17}  "
        f"{'extent select (µs)':>18}  {'by_name (µs)':>13}  "
        f"{'by_name speedup':>16}\n"
    )
    footer = (
        "\nreading: the seed select sorts the whole database (O(N log N)),\n"
        "the extent select walks only the Cells (O(N/2)), and by_name\n"
        "stays flat — the lookup cost no longer depends on design size."
    )
    return header + "\n".join(rows) + footer, timings


def check_lookup_shape(timings: Dict[int, Dict[str, float]]) -> List[str]:
    """Shape failures: by_name must stay flat and beat the naive scan."""
    small, large = min(timings), max(timings)
    failures = []
    growth = timings[large]["by_name"] / timings[small]["by_name"]
    if growth > FLAT_BOUND:
        failures.append(
            f"by_name grew {growth:.1f}x from {small:,} to {large:,} "
            f"objects (bound {FLAT_BOUND}x)"
        )
    if timings[large]["naive"] < 10 * timings[large]["by_name"]:
        failures.append(
            f"by_name only {timings[large]['naive'] / timings[large]['by_name']:.1f}x "
            f"faster than the naive scan at {large:,} objects"
        )
    return failures


class TestOMSIndexBench:
    def test_index_vs_naive_scan(self, benchmark, report_writer):
        report, speedups = run_microbench(SIZES)
        report_writer("oms_index_microbench", report)
        db, sources, _ = build_db(SIZES[0])
        benchmark(db.targets, "edge", sources[0])
        assert speedups[max(SIZES)] >= 10, (
            f"indexed targets() only {speedups[max(SIZES)]:.1f}x faster "
            f"than the naive scan at {max(SIZES):,} links"
        )

    def test_lookup_vs_naive_select(self, benchmark, report_writer):
        link_report, _ = run_microbench(SIZES)
        lookup_report, timings = run_lookup_bench(LOOKUP_SIZES)
        report_writer("oms_index_microbench",
                      link_report + "\n\n" + lookup_report)
        db, names = build_lookup_db(LOOKUP_SIZES[0])
        benchmark(db.by_name, "Cell", names[0])
        assert check_lookup_shape(timings) == []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes, relaxed threshold, no results file (CI)",
    )
    args = parser.parse_args(argv)
    sizes = SMOKE_SIZES if args.smoke else SIZES
    report, speedups = run_microbench(sizes)
    lookup_report, timings = run_lookup_bench(
        SMOKE_LOOKUP_SIZES if args.smoke else LOOKUP_SIZES
    )
    print(report + "\n\n" + lookup_report)
    top = max(sizes)
    threshold = 3.0 if args.smoke else 10.0
    if not args.smoke:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(
            report + "\n\n" + lookup_report + "\n", encoding="utf-8"
        )
        print(f"\nwrote {RESULTS_PATH}")
    failures = check_lookup_shape(timings)
    if speedups[top] < threshold:
        failures.append(
            f"speedup {speedups[top]:.1f}x at {top:,} links "
            f"(threshold {threshold}x)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"OK: {speedups[top]:.1f}x speedup at {top:,} links; by_name "
          f"flat from {min(timings):,} to {max(timings):,} objects")
    return 0


if __name__ == "__main__":
    sys.exit(main())
