"""Corruption matrix: every corruption point x damage mode.

For each registered corruption point (``blobs.payload``,
``staging.file``, ``fmcad.version_file``, ``fmcad.meta``,
``oms.snapshot``) and each damage mode (flip / truncate / zero) the
matrix asserts the three-step contract of the integrity layer:

* **detect** — the damage is classified by the matching scrub sweep and
  every read of the damaged artifact raises a typed
  :class:`~repro.errors.IntegrityError` instead of serving garbage;
* **repair** — rewriting from a verified source restores the artifact
  byte-for-byte and the sweep comes back clean;
* **quarantine** — when no verified source exists, the artifact is taken
  out of service and is never served afterwards.
"""

import hashlib

import pytest

from repro.errors import (
    IntegrityError,
    MetaFileError,
    MetaIntegrityError,
    OMSError,
    QuarantinedError,
    SnapshotIntegrityError,
)
from repro.faults import (
    CORRUPTION_MODES,
    CORRUPTION_POINTS,
    CorruptionFault,
    FaultPlan,
    FaultRule,
    KIND_CORRUPT,
    MODE_TRUNCATE,
    damage_bytes,
    inject,
)
from repro.oms.snapshot import (
    dump_snapshot,
    restore_snapshot,
    verify_snapshot_bytes,
)
from repro.oms.storage import StagingArea

PAYLOAD = b"module inv(input a, output y); assign y = !a; endmodule\n" * 8


# -- the fault machinery itself -----------------------------------------------


class TestCorruptionMachinery:
    def test_damage_bytes_always_changes(self):
        import random

        for mode in CORRUPTION_MODES:
            for seed in range(20):
                data = bytes(range(256)) * 2
                damaged = damage_bytes(data, mode, random.Random(seed))
                assert damaged != data, (mode, seed)

    def test_damage_bytes_empty_payload_grows_poison_byte(self):
        import random

        for mode in CORRUPTION_MODES:
            assert damage_bytes(b"", mode, random.Random(0)) == b"\x00"

    def test_damage_is_deterministic_per_seed(self):
        plan_a = FaultPlan.corrupt("blobs.payload", seed=42)
        plan_b = FaultPlan.corrupt("blobs.payload", seed=42)
        assert (
            plan_a.hit_with_data("blobs.payload", PAYLOAD)
            == plan_b.hit_with_data("blobs.payload", PAYLOAD)
        )

    def test_random_corruption_plan_is_seeded(self):
        for seed in range(10):
            a = FaultPlan.random_corruption_plan(seed)
            b = FaultPlan.random_corruption_plan(seed)
            assert a.points == b.points
            assert a.points[0] in CORRUPTION_POINTS

    def test_corrupt_rule_rejected_at_non_corruption_point(self):
        with pytest.raises(ValueError):
            FaultRule("blobs.intern", KIND_CORRUPT)

    def test_corrupt_rule_at_dataless_traversal_fails_loudly(self):
        # a corruption point may also be traversed via plain hit() by
        # mistake; the plan must not silently never-corrupt
        plan = FaultPlan.corrupt("blobs.payload")
        with pytest.raises(CorruptionFault):
            plan.hit("blobs.payload")

    def test_no_active_plan_is_identity(self):
        from repro.faults import corruption_point

        assert corruption_point("blobs.payload", PAYLOAD) is PAYLOAD


# -- blobs.payload ------------------------------------------------------------


@pytest.mark.parametrize("mode", CORRUPTION_MODES)
class TestBlobPayloadPoint:
    def _corrupted_object(self, db, mode):
        with inject(FaultPlan.corrupt("blobs.payload", mode=mode, seed=3)) as plan:
            obj = db.create("Thing", {"name": "x"}, payload=PAYLOAD)
        assert plan.corruption_fired
        digest = db.payload_digest_of(obj.oid)
        assert digest == hashlib.sha256(PAYLOAD).hexdigest()
        return obj, digest

    def test_detected_and_never_served(self, db, mode):
        obj, digest = self._corrupted_object(db, mode)
        findings = db.scrub_payloads()
        assert list(findings) == [digest]
        assert findings[digest] in ("bit-rot", "truncation", "torn-write")
        with pytest.raises(IntegrityError) as exc_info:
            db.materialize_payload(digest, verify=True)
        assert exc_info.value.location == f"blob:{digest}"
        assert exc_info.value.classification == findings[digest]
        # the default object read path verifies too
        with pytest.raises(IntegrityError):
            obj.payload

    def test_repair_restores_bytes(self, db, mode):
        obj, digest = self._corrupted_object(db, mode)
        db.repair_payload(digest, PAYLOAD)
        assert obj.payload == PAYLOAD
        assert db.scrub_payloads() == {}

    def test_repair_rejects_wrong_bytes(self, db, mode):
        obj, digest = self._corrupted_object(db, mode)
        with pytest.raises(IntegrityError):
            db.repair_payload(digest, PAYLOAD + b"tampered")

    def test_quarantined_blob_is_never_served(self, db, mode):
        obj, digest = self._corrupted_object(db, mode)
        db.quarantine_payload(digest)
        assert digest in db.quarantined_payloads()
        with pytest.raises(QuarantinedError):
            obj.payload
        with pytest.raises(QuarantinedError):
            db.materialize_payload(digest, verify=True)
        # a known loss is not re-reported as fresh damage
        assert digest not in db.scrub_payloads()


# -- staging.file -------------------------------------------------------------


@pytest.mark.parametrize("mode", CORRUPTION_MODES)
class TestStagingFilePoint:
    def _corrupted_export(self, db, tmp_path, mode):
        staging = StagingArea(db, tmp_path / "stage")
        obj = db.create("Thing", {"name": "x"}, payload=PAYLOAD)
        with inject(FaultPlan.corrupt("staging.file", mode=mode, seed=5)) as plan:
            staged = staging.export_object(obj.oid)
        assert plan.corruption_fired
        return staging, obj, staged

    def test_detected(self, db, tmp_path, mode):
        staging, obj, staged = self._corrupted_export(db, tmp_path, mode)
        findings = staging.verify_staged()
        assert [(f[0], f[1]) for f in findings] == [(obj.oid, staged.path)]
        if mode == MODE_TRUNCATE:
            assert findings[0][2] == "truncation"

    def test_repaired_from_verified_oms_payload(self, db, tmp_path, mode):
        staging, obj, staged = self._corrupted_export(db, tmp_path, mode)
        assert staging.repair_staged(obj.oid)
        assert staging.verify_staged() == []
        assert staged.path.read_bytes() == PAYLOAD

    def test_missing_file_detected_and_record_dropped(self, db, tmp_path, mode):
        staging, obj, staged = self._corrupted_export(db, tmp_path, mode)
        staged.path.unlink()
        findings = staging.verify_staged()
        assert findings[0][2] == "missing"
        # repair rewrites the file from OMS
        assert staging.repair_staged(obj.oid)
        assert staged.path.read_bytes() == PAYLOAD


# -- staging.reflink ----------------------------------------------------------


@pytest.mark.parametrize("mode", CORRUPTION_MODES)
@pytest.mark.usefixtures("fake_reflink")
class TestStagingReflinkPoint:
    """Damage landing on bytes staged via a reflink clone.

    A writable export that reflinked a peer's bytes is covered by the
    same verify/repair contract as a plainly written one:
    ``verify_staged`` classifies the damage and ``repair_staged``
    restores the bytes from the verified OMS payload.  A copying
    stand-in for FICLONE makes the reflink branch run on every
    filesystem.
    """

    def _staging(self, db, tmp_path):
        staging = StagingArea(db, tmp_path / "stage")
        peer = db.create("Thing", {"name": "peer"}, payload=PAYLOAD)
        target = db.create("Thing", {"name": "target"}, payload=PAYLOAD)
        staging.export_object(peer.oid)  # seeds the digest index
        return staging, target

    def test_detected_and_repaired(self, db, tmp_path, mode):
        staging, target = self._staging(db, tmp_path)
        with inject(
            FaultPlan.corrupt("staging.reflink", mode=mode, seed=19)
        ) as plan:
            staged = staging.export_object(target.oid, writable=True)
        assert staging.export_reflinks == 1
        assert plan.corruption_fired
        findings = staging.verify_staged()
        assert [(f[0], f[1]) for f in findings] == [(target.oid, staged.path)]
        if mode == MODE_TRUNCATE:
            assert findings[0][2] == "truncation"
        # the peer's staged file is a private inode — undamaged
        assert staging.read_staged(
            staging.staged()[0].oid
        ) == PAYLOAD
        assert staging.repair_staged(target.oid)
        assert staging.verify_staged() == []
        assert staged.path.read_bytes() == PAYLOAD

    def test_read_staged_never_serves_the_damage(self, db, tmp_path, mode):
        staging, target = self._staging(db, tmp_path)
        with inject(
            FaultPlan.corrupt("staging.reflink", mode=mode, seed=19)
        ) as plan:
            staging.export_object(target.oid, writable=True)
        assert plan.corruption_fired
        with pytest.raises(IntegrityError):
            staging.read_staged(target.oid)


# -- fmcad.version_file -------------------------------------------------------


@pytest.mark.parametrize("mode", CORRUPTION_MODES)
class TestVersionFilePoint:
    def _corrupted_version(self, fmcad, mode):
        library = fmcad.create_library("chiplib")
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        with inject(
            FaultPlan.corrupt("fmcad.version_file", mode=mode, seed=9)
        ) as plan:
            version = library.write_version(cellview, PAYLOAD, "alice")
        assert plan.corruption_fired
        return library, cellview, version

    def test_read_raises_typed_error(self, fmcad, mode):
        library, cellview, version = self._corrupted_version(fmcad, mode)
        with pytest.raises(IntegrityError) as exc_info:
            library.read_version(cellview)
        assert exc_info.value.location == str(version.path)
        assert exc_info.value.classification in (
            "bit-rot", "truncation", "torn-write"
        )

    def test_scrub_versions_finds_it(self, fmcad, mode):
        library, cellview, version = self._corrupted_version(fmcad, mode)
        findings = library.scrub_versions()
        assert [v.path for v, _ in findings] == [version.path]
        # a damaged file is not a valid peer-repair source
        digest = hashlib.sha256(PAYLOAD).hexdigest()
        assert library.verified_version_bytes(digest) is None

    def test_repair_version_restores_bytes(self, fmcad, mode):
        library, cellview, version = self._corrupted_version(fmcad, mode)
        library.repair_version(version, PAYLOAD)
        assert library.read_version(cellview) == PAYLOAD
        assert library.scrub_versions() == []
        digest = hashlib.sha256(PAYLOAD).hexdigest()
        assert library.verified_version_bytes(digest) == PAYLOAD

    def test_repair_rejects_wrong_bytes(self, fmcad, mode):
        library, cellview, version = self._corrupted_version(fmcad, mode)
        with pytest.raises(IntegrityError):
            library.repair_version(version, b"not the original")

    def test_dedup_never_links_onto_rot(self, fmcad, mode):
        """A checkin of identical bytes must not hard-link a rotted file."""
        library, cellview, version = self._corrupted_version(fmcad, mode)
        clean = library.write_version(cellview, PAYLOAD, "alice")
        assert library.read_version(cellview, clean.number) == PAYLOAD


# -- fmcad.meta ---------------------------------------------------------------


@pytest.mark.parametrize("mode", CORRUPTION_MODES)
class TestMetaFilePoint:
    def _corrupted_meta(self, fmcad, mode):
        library = fmcad.create_library("chiplib")
        library.create_cell("alu")
        cellview = library.create_cellview("alu", "schematic")
        library.write_version(cellview, PAYLOAD, "alice")
        with inject(FaultPlan.corrupt("fmcad.meta", mode=mode, seed=11)) as plan:
            assert library.flush_meta("alice")
        assert plan.corruption_fired
        return library

    def test_detected_and_read_raises_typed_error(self, fmcad, mode):
        library = self._corrupted_meta(fmcad, mode)
        assert library.metafile.verify() is not None
        with pytest.raises(MetaIntegrityError) as exc_info:
            library.metafile.read()
        # the typed error keeps both contracts: it is the .meta parse
        # error existing handlers catch AND an integrity error
        assert isinstance(exc_info.value, MetaFileError)
        assert isinstance(exc_info.value, IntegrityError)

    def test_reflush_from_live_records_repairs(self, fmcad, mode):
        library = self._corrupted_meta(fmcad, mode)
        assert library.flush_meta("alice")
        assert library.metafile.verify() is None
        records, _tick = library.metafile.read()
        assert [r.cell for r in records] == ["alu"]
        # the v2 format carries the content digest per version record
        assert records[0].digest == hashlib.sha256(PAYLOAD).hexdigest()


# -- oms.snapshot -------------------------------------------------------------


@pytest.mark.parametrize("mode", CORRUPTION_MODES)
class TestSnapshotPoint:
    def _corrupted_dump(self, db, mode):
        db.create("Thing", {"name": "x"}, payload=PAYLOAD)
        with inject(FaultPlan.corrupt("oms.snapshot", mode=mode, seed=13)) as plan:
            data = dump_snapshot(db)
        assert plan.corruption_fired
        return data

    def test_verify_classifies_damage(self, db, mode):
        data = self._corrupted_dump(db, mode)
        assert verify_snapshot_bytes(data) in ("bit-rot", "torn-write")

    def test_restore_raises_typed_error(self, db, simple_schema, mode):
        data = self._corrupted_dump(db, mode)
        with pytest.raises(OMSError) as exc_info:
            restore_snapshot(simple_schema, data)
        assert isinstance(exc_info.value, SnapshotIntegrityError)
        assert isinstance(exc_info.value, IntegrityError)

    def test_clean_dump_verifies_and_round_trips(self, db, simple_schema, mode):
        obj = db.create("Thing", {"name": "x"}, payload=PAYLOAD)
        data = dump_snapshot(db)
        assert verify_snapshot_bytes(data) is None
        restored = restore_snapshot(simple_schema, data)
        assert restored.get(obj.oid).payload == PAYLOAD
