"""Property tests: the indexed link store, the per-type extents and the
name index behave exactly like naive full scans under random
create/link/unlink/delete/rename/rollback interleavings, WAL replay and
snapshot restore rebuild them, and an aborted transaction restores the
database bit-for-bit.
"""

from typing import Dict, List, Optional, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ids import sort_key
from repro.oms.database import OMSDatabase
from repro.oms.schema import AttributeDef, Schema
from repro.oms.snapshot import dump_snapshot, restore_snapshot
from repro.oms.wal import WriteAheadLog

RELATIONS = ("edge", "owns")  # M:N and 1:N — both cardinality code paths
#: entity types: two name-indexed, one without a name attribute
TYPES = ("Node", "Tag", "Mark")
#: a small name pool, so names collide and buckets hold several objects
NAMES = ("n", "x", "y")


class _Rollback(Exception):
    """Raised inside a transaction block to force an abort."""


def _schema() -> Schema:
    schema = Schema("prop")
    schema.define_entity(
        "Node", [AttributeDef("name", "str", required=True)]
    )
    schema.define_entity("Tag", [AttributeDef("name", "str", required=True)])
    schema.define_entity("Mark", [AttributeDef("weight", "int", default=0)])
    schema.define_relationship("edge", "Node", "Node", "M:N")
    schema.define_relationship("owns", "Node", "Node", "1:N")
    return schema


def _fresh_db() -> OMSDatabase:
    return OMSDatabase(_schema())


Model = Dict[str, Set[Tuple[str, str]]]


def _naive_targets(model: Model, rel: str, src: str) -> List[str]:
    return sorted(
        (d for s, d in model[rel] if s == src), key=sort_key
    )


def _naive_sources(model: Model, rel: str, dst: str) -> List[str]:
    return sorted(
        (s for s, d in model[rel] if d == dst), key=sort_key
    )


def _link_allowed(model: Model, rel: str, src: str, dst: str) -> bool:
    """Naive-model cardinality prediction (owns is 1:N)."""
    if rel != "owns":
        return True
    return not any(d == dst and s != src for s, d in model[rel])


#: naive object model: oid -> name (``None`` for types without one); the
#: type is the oid's kind, since the allocator numbers ids per type
Names = Dict[str, Optional[str]]


def _apply_op(
    db, model: Model, live: List[str], names: Names, op: str, data
) -> None:
    """Apply one mutation to both the database and the naive model.

    Ops are pre-validated against the model so they never raise — a
    raising op inside a transaction block would abort the whole block.
    *live* lists the Node oids (the link endpoints); *names* tracks
    every live object for the extent/name-index checks.
    """
    if op in ("create_tag", "create_mark"):
        if op == "create_tag":
            name = data.draw(st.sampled_from(NAMES))
            names[db.create("Tag", {"name": name}).oid] = name
        else:
            names[db.create("Mark").oid] = None
    elif op == "rename":
        named = sorted(
            (oid for oid, name in names.items() if name is not None),
            key=sort_key,
        )
        if not named:
            return
        oid = data.draw(st.sampled_from(named))
        name = data.draw(st.sampled_from(NAMES))
        db.set_attr(oid, "name", name)
        names[oid] = name
    elif op == "delete_other":
        others = sorted(
            (oid for oid in names if not oid.startswith("Node:")),
            key=sort_key,
        )
        if not others:
            return
        victim = data.draw(st.sampled_from(others))
        db.delete(victim)
        del names[victim]
    elif op == "create" or not live:
        oid = db.create("Node", {"name": "n"}).oid
        live.append(oid)
        names[oid] = "n"
    elif op == "link":
        src = data.draw(st.sampled_from(live))
        dst = data.draw(st.sampled_from(live))
        rel = data.draw(st.sampled_from(RELATIONS))
        if _link_allowed(model, rel, src, dst):
            db.link(rel, src, dst)
            model[rel].add((src, dst))
    elif op == "unlink":
        candidates = [
            (rel, pair) for rel in RELATIONS for pair in sorted(model[rel])
        ]
        if not candidates:
            return
        rel, pair = data.draw(st.sampled_from(candidates))
        db.unlink(rel, *pair)
        model[rel].discard(pair)
    elif op == "delete":
        victim = data.draw(st.sampled_from(live))
        live.remove(victim)
        names.pop(victim, None)
        db.delete(victim)
        for rel in RELATIONS:
            model[rel] = {
                pair for pair in model[rel] if victim not in pair
            }
    else:  # pragma: no cover - defensive
        raise AssertionError(f"unknown op {op!r}")


def _assert_equivalent(db, model: Model, live: List[str]) -> None:
    for rel in RELATIONS:
        assert db.link_pairs(rel) == model[rel]
        for oid in live:
            assert db.target_oids(rel, oid) == _naive_targets(
                model, rel, oid
            )
            assert db.source_oids(rel, oid) == _naive_sources(
                model, rel, oid
            )
            assert db.out_degree(rel, oid) == len(
                _naive_targets(model, rel, oid)
            )
            assert db.in_degree(rel, oid) == len(
                _naive_sources(model, rel, oid)
            )
    assert db._link_index.check_integrity() == []


def _assert_indexes_match(db, names: Names) -> None:
    """Extents, counts and name lookups ≡ a naive scan of the model."""
    assert db.check_indexes() == []
    for type_name in TYPES:
        expected = sorted(
            (oid for oid in names if oid.startswith(type_name + ":")),
            key=sort_key,
        )
        assert [o.oid for o in db.select(type_name)] == expected
        assert db.count(type_name) == len(expected)
        if type_name == "Mark":
            continue
        for name in NAMES:
            assert [o.oid for o in db.by_name(type_name, name)] == [
                oid for oid in expected if names[oid] == name
            ]


OPS = ["create", "link", "link", "unlink", "delete"]
#: ops that touch the extents and the name index without links
INDEX_OPS = ["create_tag", "create_mark", "rename", "delete_other"]


def _run_random_ops(db, model: Model, live: List[str], names: Names,
                    data, after_step=lambda: None) -> None:
    """A random interleaving of single ops and committed/aborted
    transactions, mirrored on the naive models."""
    ops = OPS + INDEX_OPS
    for _ in range(data.draw(st.integers(3, 25))):
        action = data.draw(
            st.sampled_from(ops + ["txn_abort", "txn_commit"])
        )
        if action in ("txn_abort", "txn_commit"):
            saved_model = {rel: set(model[rel]) for rel in RELATIONS}
            saved_live = list(live)
            saved_names = dict(names)
            try:
                with db.transaction():
                    for _ in range(data.draw(st.integers(1, 6))):
                        _apply_op(
                            db, model, live, names,
                            data.draw(st.sampled_from(ops)), data,
                        )
                    if action == "txn_abort":
                        raise _Rollback()
            except _Rollback:
                # rolled back: the naive model rewinds too
                for rel in RELATIONS:
                    model[rel] = saved_model[rel]
                live[:] = saved_live
                names.clear()
                names.update(saved_names)
        else:
            _apply_op(db, model, live, names, action, data)
        after_step()


class TestIndexedEqualsNaive:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_interleavings(self, data):
        """Indexed queries ≡ naive scans after any op/rollback sequence."""
        db = _fresh_db()
        model: Model = {rel: set() for rel in RELATIONS}
        live: List[str] = []
        names: Names = {}

        def check() -> None:
            _assert_equivalent(db, model, live)
            _assert_indexes_match(db, names)

        _run_random_ops(db, model, live, names, data, after_step=check)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_wal_replay_and_snapshot_restore_rebuild_indexes(
        self, tmp_path_factory, data
    ):
        """Recovering the WAL and restoring a snapshot of a random
        history both rebuild extents and name index ≡ the naive model."""
        root = tmp_path_factory.mktemp("extents") / "wal"
        wal = WriteAheadLog(root)
        db, _ = wal.recover(_schema())
        db.attach_wal(wal)
        model: Model = {rel: set() for rel in RELATIONS}
        live: List[str] = []
        names: Names = {}
        _run_random_ops(db, model, live, names, data)
        expected = dump_snapshot(db)
        recovered, _ = WriteAheadLog(root).recover(_schema())
        restored = restore_snapshot(_schema(), expected)
        for rebuilt in (recovered, restored):
            assert dump_snapshot(rebuilt) == expected
            _assert_indexes_match(rebuilt, names)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_cardinality_rejections_match_naive_prediction(self, data):
        """db.link raises exactly when the naive 1:N scan predicts it."""
        from repro.errors import RelationshipError

        db = _fresh_db()
        model: Model = {rel: set() for rel in RELATIONS}
        live = [db.create("Node", {"name": "n"}).oid for _ in range(4)]
        for _ in range(data.draw(st.integers(1, 25))):
            src = data.draw(st.sampled_from(live))
            dst = data.draw(st.sampled_from(live))
            allowed = _link_allowed(model, "owns", src, dst)
            try:
                db.link("owns", src, dst)
                raised = False
            except RelationshipError:
                raised = True
            assert raised == (not allowed)
            if not raised:
                model["owns"].add((src, dst))
        assert db.link_pairs("owns") == model["owns"]


class TestAbortedTransactionIsBitIdentical:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_rollback_restores_pre_transaction_snapshot(self, data):
        """Random link/unlink/delete/set_attr inside an aborted transaction
        leave objects, links and indexes bit-identical to the snapshot."""
        db = _fresh_db()
        model: Model = {rel: set() for rel in RELATIONS}
        live: List[str] = []
        names: Names = {}
        # seed phase: build an arbitrary committed state
        for _ in range(data.draw(st.integers(1, 12))):
            _apply_op(
                db, model, live, names,
                data.draw(st.sampled_from(OPS + INDEX_OPS)), data,
            )
        before = dump_snapshot(db)
        saved_names = dict(names)
        try:
            with db.transaction():
                for _ in range(data.draw(st.integers(1, 10))):
                    op = data.draw(
                        st.sampled_from(
                            OPS + INDEX_OPS + ["set_attr", "payload"]
                        )
                    )
                    if op == "set_attr":
                        if live:
                            db.set_attr(
                                data.draw(st.sampled_from(live)),
                                "name",
                                data.draw(st.sampled_from(["x", "y", "z"])),
                            )
                    elif op == "payload":
                        if live:
                            db.set_payload(
                                data.draw(st.sampled_from(live)), b"scratch"
                            )
                    else:
                        _apply_op(db, model, live, names, op, data)
                raise _Rollback()
        except _Rollback:
            pass
        assert dump_snapshot(db) == before
        assert db._link_index.check_integrity() == []
        _assert_indexes_match(db, saved_names)
