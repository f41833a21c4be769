"""Name lookups of the JCF services: cost independent of database size,
and find-or-create free of check-then-create races."""

import sys
import threading

import pytest

from repro.jcf.flows import ActivityDef, FlowDef, FlowRegistry
from repro.jcf.model import build_jcf_schema
from repro.jcf.project import find_or_create_viewtype
from repro.jcf.resources import ResourceManager
from repro.oms import database as database_module
from repro.oms.database import OMSDatabase
from repro.oms.objects import OMSObject


def _gate_creates(db: OMSDatabase, type_name: str, parties: int) -> None:
    """Hold every create of *type_name* until *parties* threads are
    creating one at once (or 0.3 s pass).

    Two threads that both missed the probe meet here and both create —
    unless probe and create are atomic, in which case the first waits
    out the timeout alone and the others find its object.
    """
    barrier = threading.Barrier(parties)
    real_create = db.create

    def create(kind, *args, **kwargs):
        if kind == type_name:
            try:
                barrier.wait(timeout=0.3)
            except threading.BrokenBarrierError:
                pass
        return real_create(kind, *args, **kwargs)

    db.create = create


def _named(db: OMSDatabase, type_name: str, name: str):
    """Naive full-scan name lookup, independent of the name index."""
    return db.select(type_name, lambda o: o.get("name") == name)


def _race(*targets) -> None:
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert not any(thread.is_alive() for thread in threads)


class TestFindOrCreateRaces:
    def test_racing_viewtype_lookups_create_one(self):
        db = OMSDatabase(build_jcf_schema())
        for i in range(300):
            db.create("ViewType", {"name": f"vt{i}"})
        _gate_creates(db, "ViewType", parties=2)
        found = []
        _race(*[
            lambda: found.append(find_or_create_viewtype(db, "symbol"))
            for _ in range(2)
        ])
        assert len(_named(db, "ViewType", "symbol")) == 1
        assert found[0] is found[1]

    def test_racing_flow_registrations_share_viewtypes(self):
        db = OMSDatabase(build_jcf_schema())
        _gate_creates(db, "ViewType", parties=2)
        registries = [FlowRegistry(db), FlowRegistry(db)]
        flows = [
            FlowDef(name, (ActivityDef("draw", "editor",
                                       creates=("symbol",)),))
            for name in ("flow_a", "flow_b")
        ]
        _race(*[
            (lambda registry=registry, flow=flow: registry.register(flow))
            for registry, flow in zip(registries, flows)
        ])
        assert len(_named(db, "ViewType", "symbol")) == 1
        assert len(_named(db, "Tool", "editor")) == 1


class TestIndexStress:
    def test_threads_keep_names_unique_and_indexes_consistent(self):
        """More threads than cores, tiny switch interval: racing
        find-or-creates, renames and deletes leave one object per
        find-or-created name and indexes equal to a full scan."""
        db = OMSDatabase(build_jcf_schema())
        names = [f"vt{i}" for i in range(4)]

        def worker(seed: int) -> None:
            for step in range(60):
                find_or_create_viewtype(db, names[(seed + step) % 4])
                scratch = db.create("Cell", {"name": f"c{seed}"})
                db.set_attr(scratch.oid, "name", f"r{seed}")
                db.delete(scratch.oid)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert [len(_named(db, "ViewType", name)) for name in names] == [
            1, 1, 1, 1
        ]
        assert db.count("Cell") == 0
        assert db.check_indexes() == []


class TestLookupCostIndependentOfSize:
    @pytest.fixture
    def big_db(self):
        db = OMSDatabase(build_jcf_schema())
        resources = ResourceManager(db)
        resources.define_user("admin", "alice")
        resources.define_team("admin", "team1")
        for i in range(5000):
            db.create("Cell", {"name": f"cell{i}"})
        return db, resources

    def test_lookups_never_touch_a_cell(self, big_db, monkeypatch):
        """find_user/find_team/count read only their own type: no Cell
        reaches sort_key and no Cell attribute is read."""
        db, resources = big_db
        touched = []
        real_sort_key = database_module.sort_key
        real_get = OMSObject.get

        def counting_sort_key(oid):
            touched.append(oid)
            return real_sort_key(oid)

        def counting_get(obj, name):
            touched.append(obj.oid)
            return real_get(obj, name)

        monkeypatch.setattr(database_module, "sort_key", counting_sort_key)
        monkeypatch.setattr(OMSObject, "get", counting_get)
        assert resources.find_user("alice") is not None
        assert resources.find_user("nobody") is None
        assert resources.find_team("team1") is not None
        assert resources.is_member("alice", "team1") is False
        assert db.count("User") == 1
        assert len(db.select("User", lambda o: o.get("name") == "alice")) == 1
        assert not [oid for oid in touched if oid.startswith("Cell:")]
