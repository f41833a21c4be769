"""Property tests: WAL replay reconstructs the exact database state.

The central equivalence the tentpole rests on: for any sequence of
committed mutations, ``recover(wal directory)`` yields a database whose
``dump_snapshot`` is byte-identical to the live one — with or without an
interleaved checkpoint — and replay is a fixpoint (recovering twice
yields the same bytes as recovering once).
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oms.blobs import digest_bytes
from repro.oms.database import OMSDatabase
from repro.oms.schema import AttributeDef, Schema
from repro.oms.snapshot import dump_snapshot
from repro.oms.wal import WriteAheadLog


def _schema() -> Schema:
    schema = Schema("walprop")
    schema.define_entity(
        "Node",
        [
            AttributeDef("name", "str", required=True),
            AttributeDef("size", "int", default=0),
        ],
    )
    schema.define_relationship("edge", "Node", "Node", "M:N")
    return schema


@dataclasses.dataclass
class Op:
    kind: str
    arg: int = 0
    payload: bytes = b""


#: a small payload alphabet maximises digest collisions, which is what
#: exercises sidecar dedup and the delete/re-intern pinning path
_PAYLOADS = st.sampled_from([b"", b"aa", b"bb", b"shared", b"x" * 64])

_OPS = st.lists(
    st.one_of(
        st.builds(Op, kind=st.just("create"), payload=_PAYLOADS),
        st.builds(Op, kind=st.just("create_plain")),
        st.builds(
            Op, kind=st.just("set_payload"), arg=st.integers(0, 7),
            payload=_PAYLOADS,
        ),
        st.builds(
            Op, kind=st.just("set_attr"), arg=st.integers(0, 7),
        ),
        st.builds(Op, kind=st.just("delete"), arg=st.integers(0, 7)),
        st.builds(
            Op, kind=st.just("link"), arg=st.integers(0, 48),
        ),
        st.builds(
            Op, kind=st.just("unlink"), arg=st.integers(0, 48),
        ),
        st.builds(Op, kind=st.just("txn"), arg=st.integers(0, 3)),
        st.builds(Op, kind=st.just("checkpoint")),
    ),
    min_size=1,
    max_size=24,
)


def _apply(db, live, counter, op) -> None:
    """Apply one mutation through the public (WAL-logged) primitives."""
    if op.kind in ("create", "create_plain"):
        payload = op.payload if op.kind == "create" else None
        obj = db.create(
            "Node", {"name": f"n{counter[0]}"}, payload=payload
        )
        counter[0] += 1
        live.append(obj.oid)
    elif not live:
        return
    elif op.kind == "set_payload":
        db.set_payload(live[op.arg % len(live)], op.payload)
    elif op.kind == "set_attr":
        db.set_attr(live[op.arg % len(live)], "size", op.arg)
    elif op.kind == "delete":
        oid = live.pop(op.arg % len(live))
        db.delete(oid)
    elif op.kind == "link":
        src = live[op.arg % len(live)]
        dst = live[(op.arg // 7) % len(live)]
        if not db.linked("edge", src, dst):
            db.link("edge", src, dst)
    elif op.kind == "unlink":
        src = live[op.arg % len(live)]
        dst = live[(op.arg // 7) % len(live)]
        if db.linked("edge", src, dst):
            db.unlink("edge", src, dst)
    elif op.kind == "txn":
        with db.transaction():
            for i in range(op.arg + 1):
                obj = db.create("Node", {"name": f"t{counter[0]}"},
                                payload=b"txn")
                counter[0] += 1
                live.append(obj.oid)


class TestReplayEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(ops=_OPS)
    def test_recover_equals_live_state(self, tmp_path_factory, ops):
        root = tmp_path_factory.mktemp("walprop") / "wal"
        schema = _schema()
        wal = WriteAheadLog(root)
        db, _ = wal.recover(schema)
        db.attach_wal(wal)
        live, counter = [], [0]
        for op in ops:
            if op.kind == "checkpoint":
                wal.checkpoint(db)
            else:
                _apply(db, live, counter, op)
        expected = dump_snapshot(db)

        recovered, _ = WriteAheadLog(root).recover(schema)
        assert dump_snapshot(recovered) == expected

        # the fixpoint: recovery is repeatable (nothing it wrote back —
        # truncations, completed renames — changes the answer)
        again, _ = WriteAheadLog(root).recover(schema)
        assert dump_snapshot(again) == expected

    @settings(max_examples=30, deadline=None)
    @given(ops=_OPS, torn=st.binary(min_size=1, max_size=96), data=st.data())
    def test_torn_pack_append_converges(
        self, tmp_path_factory, ops, torn, data
    ):
        """A commit that died mid-way through its pack append.

        Its frames are cut at any byte offset, from none of them to all
        of them; no record names them.  Recovery returns the committed
        state and leaves the pack on a frame boundary, so the next
        commit and a reopen agree with the live database.
        """
        root = tmp_path_factory.mktemp("walpack") / "wal"
        schema = _schema()
        wal = WriteAheadLog(root)
        db, _ = wal.recover(schema)
        db.attach_wal(wal)
        live, counter = [], [0]
        for op in ops:
            if op.kind == "checkpoint":
                wal.checkpoint(db)
            else:
                _apply(db, live, counter, op)
        expected = dump_snapshot(db)
        start = wal.pack_path.stat().st_size if wal.pack_path.exists() else 0
        # the dead commit's frames: two new payloads in one append
        wal._pack_payloads({
            digest_bytes(payload): payload for payload in (torn, b"2" + torn)
        })
        end = wal.pack_path.stat().st_size
        cut = data.draw(st.integers(start, end), label="cut")
        with open(wal.pack_path, "r+b") as handle:
            handle.truncate(cut)

        wal2 = WriteAheadLog(root)
        recovered, _ = wal2.recover(schema)
        assert dump_snapshot(recovered) == expected
        recovered.attach_wal(wal2)
        recovered.create("Node", {"name": "next"}, payload=b"3" + torn)
        assert wal2.verify() == []
        again, _ = WriteAheadLog(root).recover(schema)
        assert dump_snapshot(again) == dump_snapshot(recovered)

    @settings(max_examples=15, deadline=None)
    @given(ops=_OPS)
    def test_wal_mode_equals_snapshot_of_same_ops(
        self, tmp_path_factory, ops
    ):
        """A WAL-backed database diverges in no observable way."""
        root = tmp_path_factory.mktemp("walpair") / "wal"
        schema = _schema()
        wal = WriteAheadLog(root)
        walled, _ = wal.recover(schema)
        walled.attach_wal(wal)
        plain = OMSDatabase(_schema())
        for target in (walled, plain):
            live, counter = [], [0]
            for op in ops:
                if op.kind == "checkpoint":
                    continue
                _apply(target, live, counter, op)
        assert dump_snapshot(walled) == dump_snapshot(plain)
