"""Property tests: copy-on-write staging is indistinguishable from the
naive always-copy path.

Two staging areas — one CoW, one naive — are driven through identical
random interleavings of export (single and batched, writable and
read-only) / tool-mutate / import (single and batched) / release /
direct payload writes.  After every step the payload bytes in both databases and
the staged file bytes on both sides must match byte-for-byte, blob
refcounts must satisfy every store invariant (never negative, delta
chains reconstructing exactly), and at the end the dedup side must never
have copied *more* than the naive side.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oms.database import OMSDatabase
from repro.oms.schema import AttributeDef, Schema
from repro.oms.storage import StagingArea

N_OBJECTS = 3

# ops: (kind, object index, payload seed)
_ops = st.lists(
    st.tuples(
        st.sampled_from([
            "export", "export_ro", "export_many", "export_many_ro",
            "mutate", "import", "import_many", "release", "set_payload",
        ]),
        st.integers(min_value=0, max_value=N_OBJECTS - 1),
        st.integers(min_value=0, max_value=5),
    ),
    max_size=30,
)


def _fresh_db() -> OMSDatabase:
    schema = Schema("staging-prop")
    schema.define_entity(
        "Thing", [AttributeDef("name", "str", required=True)]
    )
    return OMSDatabase(schema)


def _payload(seed: int) -> bytes:
    # a few distinct payloads, some sharing content, one empty
    if seed == 0:
        return b""
    return bytes([seed % 3]) * (100 * seed)


class _Arm:
    """One database + staging area driven by the op sequence."""

    def __init__(self, tmp_path, name: str, copy_on_write: bool) -> None:
        self.db = _fresh_db()
        self.staging = StagingArea(
            self.db, tmp_path / name, copy_on_write=copy_on_write
        )
        self.oids = [
            self.db.create("Thing", {"name": str(i)}, payload=b"init").oid
            for i in range(N_OBJECTS)
        ]
        #: oids whose staged file came from a read-only export
        self.read_only = set()

    def _export(self, oids, writable: bool) -> None:
        if len(oids) == 1:
            self.staging.export_object(oids[0], writable=writable)
        else:
            self.staging.export_objects(oids, writable=writable)
        for oid in oids:
            if writable:
                self.read_only.discard(oid)
            else:
                self.read_only.add(oid)

    def apply(self, kind: str, index: int, seed: int) -> None:
        oid = self.oids[index]
        # a batch: this object and the next one
        pair = [oid, self.oids[(index + 1) % N_OBJECTS]]
        if kind == "export":
            self._export([oid], writable=True)
        elif kind == "export_ro":
            self._export([oid], writable=False)
        elif kind == "export_many":
            self._export(pair, writable=True)
        elif kind == "export_many_ro":
            self._export(pair, writable=False)
        elif kind == "mutate":
            staged = self.staging._staged.get(oid)
            if staged is not None and staged.path.exists():
                if self.read_only:
                    # read-only exports may share inodes, so a tool
                    # saves to a new file instead of writing in place
                    staged.path.unlink()
                staged.path.write_bytes(_payload(seed))
        elif kind == "import":
            if self.staging.is_staged(oid):
                self.staging.import_object(oid)
        elif kind == "import_many":
            staged = [o for o in pair if self.staging.is_staged(o)]
            self.staging.import_objects(staged)
        elif kind == "release":
            self.staging.release(oid)
            self.read_only.discard(oid)
        elif kind == "set_payload":
            self.db.set_payload(oid, _payload(seed))

    def observable(self):
        """Everything a tool or reader could see."""
        state = []
        for oid in self.oids:
            payload = self.db.get(oid).payload
            staged = self.staging._staged.get(oid)
            on_disk = (
                staged.path.read_bytes()
                if staged is not None and staged.path.exists()
                else None
            )
            state.append((payload, on_disk))
        return state


class TestCowEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops)
    def test_cow_matches_naive_byte_for_byte(self, tmp_path_factory, ops):
        tmp_path = tmp_path_factory.mktemp("staging-prop")
        cow = _Arm(tmp_path, "cow", copy_on_write=True)
        naive = _Arm(tmp_path, "naive", copy_on_write=False)
        for step, (kind, index, seed) in enumerate(ops):
            cow.apply(kind, index, seed)
            naive.apply(kind, index, seed)
            assert cow.observable() == naive.observable(), (
                f"divergence after step {step}: {kind} #{index} seed={seed}"
            )
            # refcounts never negative, delta chains reconstruct exactly
            cow.db.check_blobs()
            naive.db.check_blobs()
        # the whole point: dedup never copies more than the naive path
        cow_acc = cow.staging.accounting()
        naive_acc = naive.staging.accounting()
        assert cow_acc["bytes_exported"] <= naive_acc["bytes_exported"]
        assert cow_acc["bytes_imported"] <= naive_acc["bytes_imported"]


class TestRollbackKeepsBlobsConsistent:
    @settings(max_examples=40, deadline=None)
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=5), min_size=1, max_size=8
        )
    )
    def test_aborted_payload_writes_restore_store(self, seeds):
        db = _fresh_db()
        oid = db.create("Thing", {"name": "x"}, payload=b"committed").oid

        class _Rollback(Exception):
            pass

        with pytest.raises(_Rollback):
            with db.transaction():
                for seed in seeds:
                    db.set_payload(oid, _payload(seed))
                raise _Rollback()
        assert db.get(oid).payload == b"committed"
        db.check_blobs()
        # nothing from the aborted writes may linger in the store
        assert db.blob_stats()["blobs"] == 1
