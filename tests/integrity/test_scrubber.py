"""The background scrubber end-to-end on a real coupled workspace.

Runs an actual coupled flow (schematic entry + simulation), damages
artifacts at rest, and asserts the scrubber's contract: detection with
classification, peer repair across the framework boundary in both
directions (OMS blob <-> FMCAD version file), quarantine of artifacts
with no surviving verified copy, and the wiring into
``CouplingRecovery.recover()`` / ``ConsistencyGuard.audit()``.
"""

import hashlib
import io
import random

import pytest

from repro.cli import main
from repro.core.coupling import HybridFramework
from repro.errors import (
    FMCADError,
    IntegrityError,
    QuarantinedError,
    WALIntegrityError,
)
from repro.faults import FaultPlan, MODE_ZERO, damage_bytes, inject
from repro.fmcad.framework import FMCADFramework
from repro.integrity import Scrubber
from tests.conftest import (
    build_inverter_editor_fn,
    inverter_testbench_fn,
    simple_layout_fn,
)


def run_flow(hybrid, project, library):
    results = [
        hybrid.run_schematic_entry(
            "alice", project, library, "inv2", build_inverter_editor_fn()
        ),
        hybrid.run_simulation(
            "alice", project, library, "inv2", inverter_testbench_fn()
        ),
    ]
    assert all(r.success for r in results)
    return results


def damaged_copy(data: bytes, seed: int = 0) -> bytes:
    return damage_bytes(data, MODE_ZERO, random.Random(seed))


class TestDetectAndRepair:
    def test_clean_workspace_scrubs_clean(self, adopted_cell):
        hybrid, project, library, _ = adopted_cell
        run_flow(hybrid, project, library)
        report = Scrubber(hybrid.jcf, hybrid.fmcad).scrub()
        assert report.clean and report.ok

    def test_version_file_repaired_from_oms_blob(self, adopted_cell):
        hybrid, project, library, _ = adopted_cell
        run_flow(hybrid, project, library)
        cellview = library.cell("inv2").cellview("schematic")
        path = cellview.default_version.path
        pristine = path.read_bytes()
        path.write_bytes(damaged_copy(pristine))

        scrubber = Scrubber(hybrid.jcf, hybrid.fmcad)
        report = scrubber.scrub()
        assert not report.ok
        assert any(
            f.area == "fmcad-version" and f.location == str(path)
            for f in report.findings
        )
        repaired = scrubber.scrub(repair=True)
        assert repaired.ok
        assert path.read_bytes() == pristine
        assert Scrubber(hybrid.jcf, hybrid.fmcad).scrub().ok

    def test_blob_repaired_from_fmcad_version_file(self, adopted_cell):
        hybrid, project, library, _ = adopted_cell
        run_flow(hybrid, project, library)
        # corrupt the next OMS intern: the layout activity checks its
        # design file into FMCAD first, so the damaged blob has a
        # verified peer on the other side of the coupling
        plan = FaultPlan.corrupt("blobs.payload", mode=MODE_ZERO, seed=17)
        with inject(plan):
            try:
                hybrid.run_layout_entry(
                    "alice", project, library, "inv2", simple_layout_fn()
                )
            except IntegrityError:
                pass  # a verified read caught the damage mid-run: fine
        assert plan.corruption_fired

        damaged = hybrid.jcf.db.scrub_payloads()
        scrubber = Scrubber(hybrid.jcf, hybrid.fmcad)
        if not damaged:
            # the damaged intern never survived to rest (the run died
            # before recording it); nothing at rest may be corrupt then
            assert scrubber.scrub().ok
            return
        report = scrubber.scrub(repair=True)
        assert report.ok
        assert hybrid.jcf.db.scrub_payloads() == {}
        for digest in damaged:
            data = hybrid.jcf.db.materialize_payload(digest, verify=True)
            assert hashlib.sha256(data).hexdigest() == digest

    def test_staged_file_repaired_from_oms(self, adopted_cell):
        hybrid, project, library, _ = adopted_cell
        run_flow(hybrid, project, library)
        staged = hybrid.jcf.staging.staged()
        assert staged
        target = staged[0]
        target.path.write_bytes(damaged_copy(target.path.read_bytes()))

        scrubber = Scrubber(hybrid.jcf, hybrid.fmcad)
        report = scrubber.scrub(repair=True)
        assert report.ok
        assert (
            hashlib.sha256(target.path.read_bytes()).hexdigest()
            == target.digest
        )

    def test_meta_file_reflushed_from_live_records(self, adopted_cell):
        hybrid, project, library, _ = adopted_cell
        run_flow(hybrid, project, library)
        library.flush_meta("alice")
        meta_path = library.metafile.path
        meta_path.write_bytes(damaged_copy(meta_path.read_bytes()))

        scrubber = Scrubber(hybrid.jcf, hybrid.fmcad)
        report = scrubber.scrub(repair=True)
        assert report.ok
        assert library.metafile.verify() is None

    def test_wal_checkpoint_repaired_from_live_database(self, adopted_cell):
        hybrid, project, library, _ = adopted_cell
        run_flow(hybrid, project, library)
        checkpoint = hybrid.save_state()
        live = hybrid.jcf.save_snapshot()
        checkpoint.write_bytes(damaged_copy(checkpoint.read_bytes()))

        scrubber = Scrubber(hybrid.jcf, hybrid.fmcad)
        report = scrubber.scrub()
        assert not report.ok
        assert [(f.area, f.location) for f in report.findings] == [
            ("wal", str(checkpoint))
        ]
        report = scrubber.scrub(repair=True)
        assert report.ok
        assert [f.action for f in report.findings] == ["repaired"]
        assert hybrid.jcf.wal.verify() == []
        assert checkpoint.read_bytes() == live
        # the healed checkpoint is what a restart recovers from
        reopened = HybridFramework.reopen(hybrid.root)
        assert reopened.jcf.save_snapshot() == live

    def test_torn_wal_log_repaired_from_live_database(self, adopted_cell):
        hybrid, project, library, _ = adopted_cell
        run_flow(hybrid, project, library)
        with open(hybrid.jcf.wal.log_path, "ab") as handle:
            handle.write(b'{"torn":')

        scrubber = Scrubber(hybrid.jcf, hybrid.fmcad)
        assert [
            (f.area, f.classification) for f in scrubber.scrub().findings
        ] == [("wal", "torn-tail")]
        assert scrubber.scrub(repair=True).ok
        assert hybrid.jcf.wal.verify() == []

    def test_rotted_pack_frame_repaired_from_live_database(
        self, adopted_cell
    ):
        from repro.oms.wal import FRAME_HEADER

        hybrid, project, library, _ = adopted_cell
        run_flow(hybrid, project, library)
        pack = hybrid.jcf.wal.pack_path
        data = bytearray(pack.read_bytes())
        data[FRAME_HEADER.size] ^= 0x01  # first payload byte, first frame
        pack.write_bytes(bytes(data))
        live = hybrid.jcf.save_snapshot()

        scrubber = Scrubber(hybrid.jcf, hybrid.fmcad)
        assert [
            (f.area, f.location, f.classification)
            for f in scrubber.scrub().findings
        ] == [("wal", f"{pack}@0", "bit-rot")]
        report = scrubber.scrub(repair=True)
        assert report.ok
        assert [f.action for f in report.findings] == ["repaired"]
        assert hybrid.jcf.wal.verify() == []
        reopened = HybridFramework.reopen(hybrid.root)
        assert reopened.jcf.save_snapshot() == live

    def test_rotted_frame_length_survives_recovery_and_is_repaired(
        self, adopted_cell
    ):
        """A length field rotted past the end of the pack looks like a
        torn append; recovery must not cut it but heal it by scrubbing."""
        hybrid, project, library, _ = adopted_cell
        run_flow(hybrid, project, library)
        pack = hybrid.jcf.wal.pack_path
        data = bytearray(pack.read_bytes())
        data[1 + 32] ^= 0x01  # high byte of the first frame's length
        pack.write_bytes(bytes(data))
        live = hybrid.jcf.save_snapshot()
        scrubber = Scrubber(hybrid.jcf, hybrid.fmcad)
        assert [
            (f.area, f.location, f.classification)
            for f in scrubber.scrub().findings
        ] == [("wal", f"{pack}@0", "bit-rot")]

        report = hybrid.recover()
        assert report.wal_repairs == []  # the sweep cut nothing
        [repaired] = report.repaired_payloads
        assert f"wal {pack}@0" in repaired
        assert hybrid.jcf.wal.verify() == []
        reopened = HybridFramework.reopen(hybrid.root)
        assert reopened.jcf.save_snapshot() == live


class TestQuarantine:
    def test_version_file_with_no_peer_is_quarantined(self, adopted_cell):
        hybrid, project, library, _ = adopted_cell
        run_flow(hybrid, project, library)
        # a version written outside the coupling: no OMS copy, no
        # staged copy — unrepairable once damaged
        library.create_cell("loner")
        cellview = library.create_cellview("loner", "schematic")
        version = library.write_version(cellview, b"only copy", "alice")
        version.path.write_bytes(b"rotted beyond recognition")

        scrubber = Scrubber(hybrid.jcf, hybrid.fmcad)
        report = scrubber.scrub(repair=True)
        assert report.ok
        quarantined = [
            f for f in report.findings if f.action == "quarantined"
        ]
        assert [f.location for f in quarantined] == [str(version.path)]
        # taken out of service: the bytes are gone from the library...
        assert not version.path.exists()
        # ...and preserved under quarantine for forensics
        assert scrubber.quarantine_dir.is_dir()
        moved = [
            p for p in scrubber.quarantine_dir.iterdir()
            if p.name != "MANIFEST"
        ]
        assert len(moved) == 1
        assert moved[0].read_bytes() == b"rotted beyond recognition"
        # the manifest makes it a known loss, so a fresh scrubber
        # converges instead of rediscovering the corpse
        fresh = Scrubber(hybrid.jcf, hybrid.fmcad)
        assert str(version.path) in fresh.quarantined()
        assert fresh.scrub().ok

    def test_blob_with_no_peer_is_quarantined_never_served(self, adopted_cell):
        hybrid, project, library, _ = adopted_cell
        run_flow(hybrid, project, library)
        # corrupt the next intern of a payload nothing else mirrors:
        # the new digest has no FMCAD file and no staged copy, so the
        # damage is unrepairable by construction
        db = hybrid.jcf.db
        plan = FaultPlan.corrupt("blobs.payload", mode=MODE_ZERO, seed=23)
        staged = hybrid.jcf.staging.staged()
        with inject(plan):
            # re-intern a brand-new payload for a staged object; the
            # old blob stays clean, the new one is born corrupt
            target = staged[0]
            db.set_payload(target.oid, b"fresh bytes nobody mirrors")
        assert plan.corruption_fired
        damaged = db.scrub_payloads()
        assert damaged
        # its staged file still holds the OLD content, so there is no
        # verified peer for the new digest anywhere
        report = Scrubber(hybrid.jcf, hybrid.fmcad).scrub(repair=True)
        assert report.ok
        for digest in damaged:
            assert digest in db.quarantined_payloads()
            with pytest.raises(QuarantinedError):
                db.materialize_payload(digest)

    def test_quarantined_version_is_not_served_from_the_read_cache(
        self, adopted_cell
    ):
        """Cache coherence across the integrity machinery.

        A version's bytes enter the shared read cache on the first
        verified read; when the scrubber later quarantines that version
        the cached bytes must be dropped too — a read after quarantine
        fails instead of resurrecting the artifact from the cache.
        """
        hybrid, project, library, _ = adopted_cell
        assert hybrid.read_cache is not None
        library.create_cell("loner")
        cellview = library.create_cellview("loner", "schematic")
        version = library.write_version(cellview, b"only copy", "alice")
        digest = version.content_digest()
        # the verified read parks the bytes in the shared cache
        assert library.read_version(cellview) == b"only copy"
        assert digest in hybrid.read_cache
        assert library.read_version(cellview) == b"only copy"
        assert library.cache_reads == 1

        version.path.write_bytes(b"rotted beyond recognition")
        report = Scrubber(hybrid.jcf, hybrid.fmcad).scrub(repair=True)
        assert report.ok
        # quarantine evicted the cached bytes; the read cannot fall back
        # to them and fails like any read of a missing artifact
        assert digest not in hybrid.read_cache
        with pytest.raises(FMCADError):
            library.read_version(cellview)

    def test_unhealable_wal_checkpoint_stays_in_place(
        self, adopted_cell, monkeypatch
    ):
        """Moving a checkpoint away would let recovery replay a log that
        does not reach back to an empty database: it stays reported."""
        hybrid, project, library, _ = adopted_cell
        run_flow(hybrid, project, library)
        checkpoint = hybrid.save_state()
        checkpoint.write_bytes(damaged_copy(checkpoint.read_bytes()))

        def failing_checkpoint(database):
            raise WALIntegrityError("disk refuses", classification="bit-rot")

        monkeypatch.setattr(hybrid.jcf.wal, "checkpoint", failing_checkpoint)
        scrubber = Scrubber(hybrid.jcf, hybrid.fmcad)
        report = scrubber.scrub(repair=True)
        assert not report.ok
        assert [(f.area, f.action) for f in report.findings] == [
            ("wal", "detected")
        ]
        assert checkpoint.exists()
        assert scrubber.quarantined() == {}
        assert any(
            f.category == "wal-integrity" for f in hybrid.audit().findings
        )

    def test_closed_library_with_ruined_meta_is_quarantined(self, jcf, tmp_path):
        fmcad = FMCADFramework(tmp_path / "fmcad")
        library = fmcad.create_library("coldstore")
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        library.write_version(cellview, b"design", "alice")
        library.flush_meta("alice")
        meta_path = library.metafile.path
        meta_path.write_bytes(damaged_copy(meta_path.read_bytes(), seed=4))
        # a fresh framework over the same root has no in-memory records
        # to reflush from — the .meta is unrepairable
        reopened = FMCADFramework(tmp_path / "fmcad")
        scrubber = Scrubber(jcf, reopened)
        report = scrubber.scrub(repair=True)
        assert report.ok
        assert not meta_path.exists()
        assert str(meta_path) in scrubber.quarantined()


class TestRecoveryAndAuditWiring:
    def test_audit_reports_integrity_findings(self, adopted_cell):
        hybrid, project, library, _ = adopted_cell
        run_flow(hybrid, project, library)
        cellview = library.cell("inv2").cellview("schematic")
        path = cellview.default_version.path
        path.write_bytes(damaged_copy(path.read_bytes()))
        report = hybrid.audit()
        assert not report.clean
        assert any(f.category == "integrity" for f in report.findings)

    def test_audit_reports_an_unopenable_closed_library(self, adopted_cell):
        """A closed library too damaged to open is a finding, not a raise."""
        hybrid, _project, _library, _ = adopted_cell
        cold = FMCADFramework(hybrid.fmcad.root).create_library("coldstore")
        cold.create_cell("alu")
        cold.write_version(
            cold.create_cellview("alu", "schematic"), b"design", "alice"
        )
        cold.flush_meta("alice")
        meta_path = cold.metafile.path
        meta_path.write_bytes(damaged_copy(meta_path.read_bytes(), seed=4))
        findings = hybrid.audit().by_category()
        assert list(findings) == ["integrity"]
        assert str(meta_path) in findings["integrity"][0].detail

    def test_recover_leaves_a_verified_store(self, adopted_cell):
        hybrid, project, library, _ = adopted_cell
        run_flow(hybrid, project, library)
        cellview = library.cell("inv2").cellview("schematic")
        path = cellview.default_version.path
        pristine = path.read_bytes()
        path.write_bytes(damaged_copy(pristine))

        report = hybrid.recover()
        assert str(path) in " ".join(report.repaired_payloads)
        assert path.read_bytes() == pristine
        assert hybrid.audit().clean
        assert Scrubber(hybrid.jcf, hybrid.fmcad).scrub().ok

    def test_recover_quarantines_the_unrepairable(self, adopted_cell):
        hybrid, project, library, _ = adopted_cell
        run_flow(hybrid, project, library)
        library.create_cell("loner")
        cellview = library.create_cellview("loner", "schematic")
        version = library.write_version(cellview, b"only copy", "alice")
        version.path.write_bytes(b"garbage")

        report = hybrid.recover()
        assert str(version.path) in " ".join(report.quarantined_payloads)
        # the loss is recorded, not silently served — no *integrity*
        # findings remain because it is now a known loss (the version
        # written outside the coupling still audits as an orphan, which
        # is a coupling-protocol matter, not a storage one)
        assert not any(
            f.category == "integrity" for f in hybrid.audit().findings
        )
        assert Scrubber(hybrid.jcf, hybrid.fmcad).scrub().ok


class TestScrubCLI:
    def _saved_workspace(self, tmp_path):
        out = io.StringIO()
        workspace = tmp_path / "ws"
        assert main(["demo", "--workspace", str(workspace)], out=out) == 0
        return workspace

    def test_exit_codes_detect_repair_clean(self, tmp_path):
        workspace = self._saved_workspace(tmp_path)
        victim = next(
            p for p in sorted((workspace / "fmcad" / "libs").rglob("*.dat"))
        )
        victim.write_bytes(damaged_copy(victim.read_bytes()))

        out = io.StringIO()
        assert main(["scrub", "--workspace", str(workspace)], out=out) == 1
        assert "bit-rot" in out.getvalue() or "torn-write" in out.getvalue()
        out = io.StringIO()
        assert (
            main(["scrub", "--workspace", str(workspace), "--repair"], out=out)
            == 0
        )
        out = io.StringIO()
        assert main(["scrub", "--workspace", str(workspace)], out=out) == 0
        assert "verify clean" in out.getvalue()

    def test_exit_code_2_for_unopenable_workspace(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["scrub", "--workspace", str(tmp_path / "nowhere")], out=out
        )
        assert code == 2
        assert "error:" in out.getvalue()

    def test_clean_default_environment_exits_zero(self):
        out = io.StringIO()
        assert main(["scrub"], out=out) == 0
