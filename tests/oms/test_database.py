"""Unit tests for the OMS database kernel."""

import pytest

from repro.errors import (
    ClosedInterfaceError,
    RelationshipError,
    SchemaError,
    UnknownObjectError,
)
from repro.oms.database import OMSDatabase


class TestObjectLifecycle:
    def test_create_and_get(self, db):
        obj = db.create("Thing", {"name": "alpha"})
        assert db.get(obj.oid).get("name") == "alpha"

    def test_create_validates_schema(self, db):
        with pytest.raises(SchemaError):
            db.create("Thing", {"bogus": 1})

    def test_create_unknown_type_raises(self, db):
        with pytest.raises(SchemaError):
            db.create("Ghost")

    def test_get_unknown_oid_raises(self, db):
        with pytest.raises(UnknownObjectError):
            db.get("Thing:999999")

    def test_delete_removes_object(self, db):
        obj = db.create("Thing", {"name": "x"})
        db.delete(obj.oid)
        assert not db.exists(obj.oid)

    def test_delete_removes_touching_links(self, db):
        a = db.create("Thing", {"name": "a"})
        b = db.create("Thing", {"name": "b"})
        db.link("linked", a.oid, b.oid)
        db.delete(b.oid)
        assert db.targets("linked", a.oid) == []

    def test_delete_marks_stale_references_deleted(self, db):
        """Callers holding the OMSObject (typed wrappers cache them) must
        see the deletion instead of silently reading removed state."""
        obj = db.create("Thing", {"name": "x"})
        stale = db.get(obj.oid)
        assert not stale.deleted
        db.delete(obj.oid)
        assert stale.deleted

    def test_delete_rollback_clears_deleted_flag(self, db):
        obj = db.create("Thing", {"name": "x"})
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.delete(obj.oid)
                assert obj.deleted
                raise RuntimeError("boom")
        assert not obj.deleted
        assert db.get(obj.oid) is obj

    def test_create_rollback_marks_object_deleted(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                obj = db.create("Thing", {"name": "gone"})
                raise RuntimeError("boom")
        assert obj.deleted
        assert not db.exists(obj.oid)

    def test_set_attr_is_schema_checked(self, db):
        obj = db.create("Thing", {"name": "x"})
        with pytest.raises(Exception):
            db.set_attr(obj.oid, "size", "not-an-int")

    def test_set_attr_updates_value(self, db):
        obj = db.create("Thing", {"name": "x"})
        db.set_attr(obj.oid, "size", 42)
        assert db.get(obj.oid).get("size") == 42

    def test_payload_round_trip(self, db):
        obj = db.create("Thing", {"name": "x"}, payload=b"abc")
        assert db.get(obj.oid).payload == b"abc"
        db.set_payload(obj.oid, b"defg")
        assert db.get(obj.oid).payload_size == 4


class TestLinks:
    def test_link_and_targets(self, db):
        box = db.create("Box", {"label": "b"})
        thing = db.create("Thing", {"name": "t"})
        db.link("contains", box.oid, thing.oid)
        assert [o.oid for o in db.targets("contains", box.oid)] == [thing.oid]
        assert [o.oid for o in db.sources("contains", thing.oid)] == [box.oid]

    def test_link_checks_endpoint_types(self, db):
        a = db.create("Thing", {"name": "a"})
        b = db.create("Thing", {"name": "b"})
        with pytest.raises(RelationshipError):
            db.link("contains", a.oid, b.oid)  # source must be Box

    def test_link_is_idempotent(self, db):
        a = db.create("Thing", {"name": "a"})
        b = db.create("Thing", {"name": "b"})
        db.link("linked", a.oid, b.oid)
        db.link("linked", a.oid, b.oid)
        assert len(db.targets("linked", a.oid)) == 1

    def test_one_to_n_rejects_second_source(self, db):
        box1 = db.create("Box", {"label": "1"})
        box2 = db.create("Box", {"label": "2"})
        thing = db.create("Thing", {"name": "t"})
        db.link("contains", box1.oid, thing.oid)
        with pytest.raises(RelationshipError):
            db.link("contains", box2.oid, thing.oid)

    def test_one_to_one_rejects_second_target(self, db):
        a = db.create("Box", {"label": "a"})
        b = db.create("Box", {"label": "b"})
        c = db.create("Box", {"label": "c"})
        db.link("lid_of", a.oid, b.oid)
        with pytest.raises(RelationshipError):
            db.link("lid_of", a.oid, c.oid)

    def test_unlink_removes_link(self, db):
        a = db.create("Thing", {"name": "a"})
        b = db.create("Thing", {"name": "b"})
        db.link("linked", a.oid, b.oid)
        db.unlink("linked", a.oid, b.oid)
        assert not db.linked("linked", a.oid, b.oid)

    def test_unlink_missing_raises(self, db):
        a = db.create("Thing", {"name": "a"})
        b = db.create("Thing", {"name": "b"})
        with pytest.raises(RelationshipError):
            db.unlink("linked", a.oid, b.oid)

    def test_targets_stable_order(self, db):
        a = db.create("Thing", {"name": "a"})
        targets = [db.create("Thing", {"name": f"t{i}"}) for i in range(5)]
        for t in reversed(targets):
            db.link("linked", a.oid, t.oid)
        oids = [o.oid for o in db.targets("linked", a.oid)]
        assert oids == sorted(oids)


class TestSelect:
    def test_select_filters_by_type(self, db):
        db.create("Thing", {"name": "a"})
        db.create("Box", {"label": "b"})
        assert len(db.select("Thing")) == 1

    def test_select_with_predicate(self, db):
        db.create("Thing", {"name": "a", "size": 1})
        db.create("Thing", {"name": "b", "size": 2})
        big = db.select("Thing", lambda o: o.get("size") > 1)
        assert [o.get("name") for o in big] == ["b"]

    def test_count(self, db):
        for i in range(3):
            db.create("Thing", {"name": str(i)})
        assert db.count("Thing") == 3

    def test_count_unknown_type_raises(self, db):
        with pytest.raises(SchemaError):
            db.count("Ghost")

    def test_undone_delete_keeps_id_order(self, db):
        """Re-inserting a deleted object on rollback is an out-of-order
        insert into its extent; select must still answer in id order."""
        things = [db.create("Thing", {"name": str(i)}) for i in range(4)]
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.delete(things[1].oid)
                raise RuntimeError("boom")
        assert db.select("Thing") == things
        assert db.check_indexes() == []


class TestNameIndex:
    def test_by_name_is_id_ordered(self, db):
        a = db.create("Thing", {"name": "dup"})
        db.create("Thing", {"name": "other"})
        b = db.create("Thing", {"name": "dup"})
        db.delete(a.oid)
        c = db.create("Thing", {"name": "dup"})
        assert db.by_name("Thing", "dup") == [b, c]
        assert db.by_name("Thing", "missing") == []

    def test_by_name_requires_a_str_name_attribute(self, db):
        with pytest.raises(SchemaError):
            db.by_name("Box", "x")

    def test_rename_moves_the_object(self, db):
        obj = db.create("Thing", {"name": "old"})
        db.set_attr(obj.oid, "name", "new")
        assert db.by_name("Thing", "old") == []
        assert db.by_name("Thing", "new") == [obj]

    def test_rename_rollback_restores_the_index(self, db):
        obj = db.create("Thing", {"name": "old"})
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.set_attr(obj.oid, "name", "new")
                db.delete(obj.oid)
                raise RuntimeError("boom")
        assert db.by_name("Thing", "old") == [obj]
        assert db.by_name("Thing", "new") == []
        assert db.check_indexes() == []

    def test_find_or_create(self, db):
        first = db.find_or_create("Thing", "t")
        assert db.find_or_create("Thing", "t") is first
        assert db.count("Thing") == 1

    def test_wal_replay_of_interleaved_transactions(self, simple_schema,
                                                    tmp_path):
        """Transactions commit in a different order than they allocated
        ids, so replay inserts out of id order; the extent and the name
        index must come out as from the live database."""
        import threading

        from repro.oms.snapshot import dump_snapshot
        from repro.oms.wal import WriteAheadLog

        wal = WriteAheadLog(tmp_path / "wal")
        live, _ = wal.recover(simple_schema)
        live.attach_wal(wal)
        created, release = threading.Event(), threading.Event()

        def slow_transaction():
            with live.transaction():
                live.create("Thing", {"name": "early"})
                created.set()
                release.wait(5)

        worker = threading.Thread(target=slow_transaction)
        worker.start()
        created.wait(5)
        live.create("Thing", {"name": "late"})  # commits first
        release.set()
        worker.join()
        recovered, _ = WriteAheadLog(tmp_path / "wal").recover(simple_schema)
        assert recovered.check_indexes() == []
        assert [o.get("name") for o in recovered.select("Thing")] == [
            "early", "late"
        ]
        assert dump_snapshot(recovered) == dump_snapshot(live)


class TestTransactions:
    def test_commit_keeps_changes(self, db):
        with db.transaction():
            obj = db.create("Thing", {"name": "kept"})
        assert db.exists(obj.oid)

    def test_abort_rolls_back_creation(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                obj = db.create("Thing", {"name": "gone"})
                raise RuntimeError("boom")
        assert not db.exists(obj.oid)

    def test_abort_rolls_back_attrs_and_links(self, db):
        a = db.create("Thing", {"name": "a", "size": 1})
        b = db.create("Thing", {"name": "b"})
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.set_attr(a.oid, "size", 99)
                db.link("linked", a.oid, b.oid)
                raise RuntimeError("boom")
        assert db.get(a.oid).get("size") == 1
        assert not db.linked("linked", a.oid, b.oid)

    def test_abort_restores_deleted_object_and_links(self, db):
        a = db.create("Thing", {"name": "a"})
        b = db.create("Thing", {"name": "b"})
        db.link("linked", a.oid, b.oid)
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.delete(b.oid)
                raise RuntimeError("boom")
        assert db.exists(b.oid)
        assert db.linked("linked", a.oid, b.oid)

    def test_nested_transactions_join_outer(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                obj = db.create("Thing", {"name": "outer"})
                with db.transaction():
                    inner = db.create("Thing", {"name": "inner"})
                raise RuntimeError("boom")
        assert not db.exists(obj.oid)
        assert not db.exists(inner.oid)

    def test_payload_rollback(self, db):
        obj = db.create("Thing", {"name": "x"}, payload=b"old")
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.set_payload(obj.oid, b"new")
                raise RuntimeError("boom")
        assert db.get(obj.oid).payload == b"old"


class TestClosedInterface:
    def test_procedural_interface_closed_by_default(self, db):
        with pytest.raises(ClosedInterfaceError):
            db.procedural_interface()

    def test_future_work_mode_opens_it(self, simple_schema):
        db = OMSDatabase(simple_schema, enable_procedural_interface=True)
        obj = db.create("Thing", {"name": "x"}, payload=b"blob")
        direct = db.procedural_interface()
        assert direct.read_payload(obj.oid) == b"blob"

    def test_direct_write(self, simple_schema):
        db = OMSDatabase(simple_schema, enable_procedural_interface=True)
        obj = db.create("Thing", {"name": "x"})
        db.procedural_interface().write_payload(obj.oid, b"zz")
        assert db.get(obj.oid).payload == b"zz"


class TestStats:
    def test_stats_counts_types_links_payload(self, db):
        a = db.create("Thing", {"name": "a"}, payload=b"12345")
        b = db.create("Thing", {"name": "b"})
        db.create("Box", {"label": "x"})
        db.link("linked", a.oid, b.oid)
        stats = db.stats()
        assert stats["by_type"] == {"Thing": 2, "Box": 1}
        assert stats["links"]["linked"] == 1
        assert stats["payload_bytes"] == 5

    def test_stats_omit_emptied_types(self, db):
        box = db.create("Box", {"label": "x"})
        db.create("Thing", {"name": "a"})
        db.delete(box.oid)
        assert db.stats()["by_type"] == {"Thing": 1}
