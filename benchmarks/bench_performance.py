"""E36 — Section 3.6: performance of the hybrid environment.

The paper's performance statements, reproduced on the simulated cost
model (deterministic) plus real wall time of the in-memory code paths:

1. **metadata operations** go through the JCF desktop and are fast and
   independent of design size;
2. **design-data operations** copy files to and from the OMS database
   via the UNIX file system — even for read-only access — so their
   simulated latency grows linearly with design size and dominates for
   complex, realistic designs;
3. **ablation**: the procedural interface the paper lists as future
   work removes the copy entirely, making read access size-independent —
   and copy-on-write staging closes most of that gap *without* opening
   the OMS interface: a re-export of unchanged data is validated by
   digest and priced like a metadata operation.
"""

import os
import pathlib
import shutil
import tempfile
import weakref

from repro.jcf.framework import JCFFramework
from repro.workloads.metrics import format_table

#: design-data sizes (bytes): small academic -> complex realistic design
SIZES = [1_000, 10_000, 100_000, 1_000_000]
if os.environ.get("REPRO_BENCH_SMOKE"):
    # CI smoke mode: keep the endpoints so every shape assertion
    # (flatness, linearity, >10x growth) still exercises the full range
    SIZES = [1_000, 1_000_000]


def fresh_jcf(procedural=False):
    root = tempfile.mkdtemp()
    jcf = JCFFramework(
        pathlib.Path(root), enable_procedural_interface=procedural
    )
    # the workspace goes with the framework (or at exit)
    weakref.finalize(jcf, shutil.rmtree, root, True)
    return jcf


def setup_design_object(jcf, size):
    project = jcf.desktop.create_project("alice", f"p{size}")
    variant = project.create_cell("c").create_version().create_variant("v")
    dobj = variant.create_design_object("c/schematic", "schematic")
    version = dobj.new_version(b"x" * size)
    return version


class TestPerformance:
    def test_e36_metadata_vs_design_data(self, benchmark, report_writer):
        rows = []
        metadata_costs = []
        copy_costs = []
        cow_costs = []
        native_costs = []
        direct_costs = []
        for size in SIZES:
            # -- metadata operation (desktop) -------------------------------
            jcf = fresh_jcf()
            version = setup_design_object(jcf, size)
            before = jcf.clock.now_ms
            jcf.db.set_attr(version.oid, "directory_path", "/tmp/x")
            metadata_ms = jcf.clock.now_ms - before
            metadata_costs.append(metadata_ms)

            # -- read-only design-data access through staging ----------------
            before = jcf.clock.now_ms
            jcf.staging.export_object(version.oid)
            copy_ms = jcf.clock.now_ms - before
            copy_costs.append(copy_ms)

            # -- the same read-only access repeated: CoW digest hit ----------
            before = jcf.clock.now_ms
            jcf.staging.export_object(version.oid)
            cow_ms = jcf.clock.now_ms - before
            cow_costs.append(cow_ms)

            # -- the same bytes accessed natively in FMCAD -------------------
            before = jcf.clock.now_ms
            jcf.clock.charge_native_io(size, files=1)
            native_ms = jcf.clock.now_ms - before
            native_costs.append(native_ms)

            # -- ablation: procedural interface (paper future work) ----------
            ablated = fresh_jcf(procedural=True)
            ablated_version = setup_design_object(ablated, size)
            before = ablated.clock.now_ms
            ablated.db.procedural_interface().read_payload(
                ablated_version.oid
            )
            direct_ms = ablated.clock.now_ms - before
            direct_costs.append(direct_ms)

            rows.append([
                f"{size:>9,}",
                f"{metadata_ms:.1f}",
                f"{copy_ms:.1f}",
                f"{cow_ms:.1f}",
                f"{native_ms:.1f}",
                f"{copy_ms / native_ms:.1f}x",
                f"{direct_ms:.1f}",
            ])

        # -- shape assertions -----------------------------------------------
        # metadata cost is flat across design sizes
        assert max(metadata_costs) == min(metadata_costs)
        # staging cost grows strictly and linearly in the bytes moved:
        # the marginal cost between the largest and smallest design
        # matches the per-byte rate exactly (fixed per-file overhead
        # cancels out)
        assert copy_costs == sorted(copy_costs)
        per_byte = (copy_costs[-1] - copy_costs[0]) / (SIZES[-1] - SIZES[0])
        from repro.clock import CostModel

        assert abs(per_byte - CostModel().copy_byte_ms) < 1e-9
        assert copy_costs[-1] > 10 * copy_costs[0]
        # even read-only access pays: staging beats native by a growing gap
        for copy_ms, native_ms in zip(copy_costs, native_costs):
            assert copy_ms > native_ms
        assert (copy_costs[-1] / native_costs[-1]) > (
            copy_costs[0] / native_costs[0]
        )
        # small designs acceptable: staging under one UI interaction...
        assert copy_costs[0] < 1500.0
        # ...large designs problematic: staging dwarfs a metadata op
        assert copy_costs[-1] > 100 * metadata_costs[-1]
        # ablation: direct access is flat and metadata-priced
        assert max(direct_costs) == min(direct_costs)
        assert direct_costs[-1] < copy_costs[-1] / 10
        # CoW staging closes most of the gap without opening OMS: a
        # repeated read-only export is flat, size-independent and priced
        # exactly like the future-work procedural read
        assert max(cow_costs) == min(cow_costs)
        assert cow_costs[-1] < copy_costs[-1] / 10
        assert cow_costs == direct_costs

        # real wall time of the staging copy path on the largest design
        jcf = fresh_jcf()
        version = setup_design_object(jcf, SIZES[-1])
        benchmark(lambda: jcf.staging.export_object(version.oid))

        report = (
            "E36 (Section 3.6) — performance (simulated ms per "
            "operation)\n\n"
        )
        report += format_table(
            [
                "design bytes",
                "metadata op",
                "first staged read (hybrid)",
                "re-export (CoW hit)",
                "native read (FMCAD)",
                "hybrid penalty",
                "procedural read (ablation)",
            ],
            rows,
        )
        report += (
            "\n\npaper claims reproduced: metadata performance is "
            "sufficiently high and\nflat; design-data operations copy "
            "through the file system even for read-only\naccess, "
            "acceptable for small designs but dominant for complex ones. "
            "The\nfuture-work procedural interface eliminates the copy — "
            "and copy-on-write\nstaging closes most of that gap while "
            "keeping OMS closed: after the first\nexport, repeated "
            "read-only access is a digest probe, flat and metadata-"
            "priced,\nidentical in cost to the procedural read."
        )
        report_writer("e36_performance", report)

    def test_e36_end_to_end_cost_breakdown(self, benchmark, hybrid_env,
                                           report_writer):
        """Where a full coupled flow actually spends its simulated time."""
        hybrid = hybrid_env
        library = hybrid.fmcad.create_library("lib")
        library.create_cell("cell")
        project = hybrid.adopt_library("alice", library, "proj")
        hybrid.jcf.resources.assign_team_to_project("admin", "team",
                                                    project.oid)
        hybrid.prepare_cell("alice", project, "cell", team_name="team")

        def schematic_fn(editor):
            editor.add_port("a", "in")
            editor.add_port("y", "out")
            editor.place_gate("g", "NOT", 1)
            editor.wire("a", "g", "in0")
            editor.wire("y", "g", "out")

        def bench_fn(testbench):
            testbench.drive(0, "a", "0")
            testbench.expect(30, "y", "1")

        def layout_fn(editor):
            editor.draw_rect("metal1", 0, 0, 40, 4)
            editor.add_label("a", "metal1", 1, 1)
            editor.draw_rect("metal1", 0, 10, 40, 14)
            editor.add_label("y", "metal1", 1, 11)

        def full_flow():
            hybrid.run_schematic_entry("alice", project, library, "cell",
                                       schematic_fn)
            hybrid.run_simulation("alice", project, library, "cell",
                                  bench_fn)
            hybrid.run_layout_entry("alice", project, library, "cell",
                                    layout_fn)

        benchmark.pedantic(full_flow, rounds=1, iterations=1)

        by_category = hybrid.clock.elapsed_by_category()
        total = sum(by_category.values())
        rows = [
            [category, f"{ms:,.0f}", f"{ms / total:.0%}"]
            for category, ms in sorted(
                by_category.items(), key=lambda kv: -kv[1]
            )
        ]
        # the designer-facing costs (UI, tools) dominate; the framework's
        # own metadata work is comparatively cheap — "performance ... is
        # of less importance since the main aspect is functionality"
        assert by_category["ui"] + by_category["tool"] > by_category[
            "metadata"
        ]
        report = (
            "E36b (Section 3.6) — simulated cost breakdown of one full "
            "coupled flow\n\n"
        )
        report += format_table(["category", "ms", "share"], rows)
        report_writer("e36b_cost_breakdown", report)


class TestRealIO:
    def test_e36_real_io_staged_vs_native(self, benchmark, report_writer):
        """Wall-clock confirmation of the simulated E36 shape.

        The simulated clock encodes the *cost model*; this test measures
        the reproduction's real file I/O on the same 1 MB design: the
        staged path (OMS blob -> staging file -> read back) does strictly
        more work than a native library read, on any machine.
        """
        import time

        size = 1_000_000
        jcf = fresh_jcf()
        version = setup_design_object(jcf, size)

        # native arm: an FMCAD library holding the same bytes
        import tempfile

        from repro.fmcad.library import Library

        native_root = tempfile.mkdtemp()
        library = Library("lib", pathlib.Path(native_root))
        weakref.finalize(library, shutil.rmtree, native_root, True)
        library.create_cell("c")
        cellview = library.create_cellview("c", "schematic")
        library.write_version(cellview, b"x" * size, "u")

        def staged_read():
            staged = jcf.staging.export_object(version.oid)
            data = staged.path.read_bytes()
            jcf.staging.release(version.oid)
            return len(data)

        def native_read():
            return len(library.read_version(cellview))

        # warm both paths, then sample the native arm manually
        staged_read(), native_read()
        native_samples = []
        for _ in range(20):
            start = time.perf_counter()
            native_read()
            native_samples.append(time.perf_counter() - start)
        native_best = min(native_samples)

        result = benchmark(staged_read)
        assert result == size

        staged_best = benchmark.stats.stats.min
        rows = [
            ["staged read (OMS copy path)", f"{staged_best * 1e3:.3f}"],
            ["native read (FMCAD library)", f"{native_best * 1e3:.3f}"],
            ["ratio", f"{staged_best / native_best:.1f}x"],
        ]
        report = (
            "E36c (Section 3.6) — real wall-clock I/O on a 1 MB design "
            "(best of N, this machine)\n\n"
        )
        report += format_table(["path", "best ms"], rows)
        report += (
            "\n\nreading: independent of the calibrated cost model, the "
            "staged path\nphysically writes and re-reads the design file, "
            "so read-only access through\nthe closed OMS interface does "
            "strictly more I/O than a native library read."
        )
        report_writer("e36c_real_io", report)
