"""Unit tests for the OMS file-system staging area (Section 2.1 copies)."""

import pytest

from repro.errors import OMSError
from repro.oms.storage import StagingArea


@pytest.fixture
def staging(db, tmp_path):
    return StagingArea(db, tmp_path / "staging")


class TestExport:
    def test_export_writes_real_file(self, db, staging):
        obj = db.create("Thing", {"name": "x"}, payload=b"design data")
        staged = staging.export_object(obj.oid)
        assert staged.path.read_bytes() == b"design data"
        assert staged.size == len(b"design data")

    def test_export_charges_copy_cost(self, db, staging):
        obj = db.create("Thing", {"name": "x"}, payload=b"d" * 1000)
        before = db.clock.elapsed_by_category().get("copy", 0.0)
        staging.export_object(obj.oid)
        after = db.clock.elapsed_by_category()["copy"]
        assert after > before

    def test_export_empty_payload_ok(self, db, staging):
        obj = db.create("Thing", {"name": "x"})
        staged = staging.export_object(obj.oid)
        assert staged.size == 0

    def test_export_custom_filename(self, db, staging):
        obj = db.create("Thing", {"name": "x"}, payload=b"d")
        staged = staging.export_object(obj.oid, filename="work.dat")
        assert staged.path.name == "work.dat"


class TestImport:
    def test_import_reads_back_edited_file(self, db, staging):
        obj = db.create("Thing", {"name": "x"}, payload=b"v1")
        staged = staging.export_object(obj.oid)
        staged.path.write_bytes(b"v2 edited by the tool")
        size = staging.import_object(obj.oid)
        assert size == len(b"v2 edited by the tool")
        assert db.get(obj.oid).payload == b"v2 edited by the tool"

    def test_import_without_export_needs_path(self, db, staging):
        obj = db.create("Thing", {"name": "x"})
        with pytest.raises(OMSError):
            staging.import_object(obj.oid)

    def test_import_explicit_path(self, db, staging, tmp_path):
        obj = db.create("Thing", {"name": "x"})
        external = tmp_path / "ext.dat"
        external.write_bytes(b"external")
        staging.import_object(obj.oid, external)
        assert db.get(obj.oid).payload == b"external"

    def test_import_missing_file_raises(self, db, staging, tmp_path):
        obj = db.create("Thing", {"name": "x"})
        with pytest.raises(OMSError):
            staging.import_object(obj.oid, tmp_path / "ghost.dat")


class TestCopyOnWrite:
    def test_reexport_unchanged_is_metadata_only(self, db, staging):
        obj = db.create("Thing", {"name": "x"}, payload=b"d" * 10_000)
        staging.export_object(obj.oid)
        copied = db.clock.elapsed_by_category()["copy"]
        staging.export_object(obj.oid)  # file already valid on disk
        acc = staging.accounting()
        assert acc["export_hits"] == 1
        assert acc["bytes_exported"] == 10_000  # only the first copy
        assert db.clock.elapsed_by_category()["copy"] == copied

    def test_reexport_after_tool_clobbered_file_recopies(self, db, staging):
        obj = db.create("Thing", {"name": "x"}, payload=b"good data")
        staged = staging.export_object(obj.oid)
        staged.path.write_bytes(b"scribbled")
        staged = staging.export_object(obj.oid)
        assert staged.path.read_bytes() == b"good data"
        assert staging.accounting()["export_hits"] == 0

    def test_import_unchanged_skips_db_write(self, db, staging):
        obj = db.create("Thing", {"name": "x"}, payload=b"stable")
        staging.export_object(obj.oid)
        staging.import_object(obj.oid)  # tool only read the file
        acc = staging.accounting()
        assert acc["import_hits"] == 1
        assert acc["bytes_imported"] == 0
        assert db.get(obj.oid).payload == b"stable"

    def test_naive_mode_always_copies(self, db, tmp_path):
        naive = StagingArea(db, tmp_path / "naive", copy_on_write=False)
        obj = db.create("Thing", {"name": "x"}, payload=b"12345")
        naive.export_object(obj.oid)
        naive.export_object(obj.oid)
        naive.import_object(obj.oid)
        acc = naive.accounting()
        assert acc["export_hits"] == 0 and acc["import_hits"] == 0
        assert acc["bytes_exported"] == 10
        assert acc["bytes_imported"] == 5

    def test_batch_export_charges_one_copy_for_misses(self, db, staging):
        oids = [
            db.create("Thing", {"name": str(i)}, payload=b"p%d" % i).oid
            for i in range(4)
        ]
        staged = staging.export_objects(oids)
        assert [s.oid for s in staged] == oids
        for s in staged:
            assert s.path.read_bytes() == db.get(s.oid).payload
        # a second batch is all hits: no new bytes, no new files
        before = staging.accounting()
        staging.export_objects(oids)
        after = staging.accounting()
        assert after["bytes_exported"] == before["bytes_exported"]
        assert after["files_exported"] == before["files_exported"]
        assert after["export_hits"] == before["export_hits"] + 4

    def test_batch_import_detects_changes(self, db, staging):
        oids = [
            db.create("Thing", {"name": str(i)}, payload=b"orig").oid
            for i in range(3)
        ]
        staged = staging.export_objects(oids)
        staged[1].path.write_bytes(b"edited")
        sizes = staging.import_objects(oids)
        assert sizes[oids[1]] == len(b"edited")
        assert db.get(oids[1]).payload == b"edited"
        assert db.get(oids[0]).payload == b"orig"
        acc = staging.accounting()
        assert acc["import_hits"] == 2
        assert acc["files_imported"] == 1


class TestCollisions:
    def test_export_filename_collision_raises(self, db, staging):
        a = db.create("Thing", {"name": "a"}, payload=b"A")
        b = db.create("Thing", {"name": "b"}, payload=b"B")
        staging.export_object(a.oid, filename="shared.dat")
        with pytest.raises(OMSError):
            staging.export_object(b.oid, filename="shared.dat")
        # the original staged file is untouched
        assert staging._staged[a.oid].path.read_bytes() == b"A"

    def test_released_filename_can_be_reused(self, db, staging):
        a = db.create("Thing", {"name": "a"}, payload=b"A")
        b = db.create("Thing", {"name": "b"}, payload=b"B")
        staging.export_object(a.oid, filename="shared.dat")
        staging.release(a.oid)
        staged = staging.export_object(b.oid, filename="shared.dat")
        assert staged.path.read_bytes() == b"B"

    def test_reexport_new_filename_releases_old_claim(self, db, staging):
        a = db.create("Thing", {"name": "a"}, payload=b"A")
        b = db.create("Thing", {"name": "b"}, payload=b"B")
        staging.export_object(a.oid, filename="first.dat")
        staging.export_object(a.oid, filename="second.dat")
        # first.dat is no longer claimed by a, so b may take it
        staged = staging.export_object(b.oid, filename="first.dat")
        assert staged.path.read_bytes() == b"B"

    def test_import_into_other_oids_file_raises(self, db, staging):
        a = db.create("Thing", {"name": "a"}, payload=b"A")
        b = db.create("Thing", {"name": "b"}, payload=b"B")
        staged = staging.export_object(a.oid)
        with pytest.raises(OMSError):
            staging.import_object(b.oid, staged.path)


class TestBookkeeping:
    def test_accounting_accumulates(self, db, staging):
        obj = db.create("Thing", {"name": "x"}, payload=b"12345")
        staging.export_object(obj.oid)
        staged = staging.staged()[0]
        staged.path.write_bytes(b"54321")  # the tool rewrote the data
        staging.import_object(obj.oid)
        acc = staging.accounting()
        assert acc["bytes_exported"] == 5
        assert acc["bytes_imported"] == 5
        assert acc["files_exported"] == 1
        assert acc["files_imported"] == 1

    def test_read_only_access_still_pays(self, db, staging):
        """Section 3.6: even read-only access copies the data out."""
        obj = db.create("Thing", {"name": "x"}, payload=b"z" * 10_000)
        staging.export_object(obj.oid)  # "just reading"
        assert staging.accounting()["bytes_exported"] == 10_000
        assert db.clock.elapsed_by_category()["copy"] > 0

    def test_release_removes_file(self, db, staging):
        obj = db.create("Thing", {"name": "x"}, payload=b"d")
        staged = staging.export_object(obj.oid)
        staging.release(obj.oid)
        assert not staged.path.exists()
        assert not staging.is_staged(obj.oid)

    def test_release_tolerates_already_unlinked_file(self, db, staging):
        obj = db.create("Thing", {"name": "x"}, payload=b"d")
        staged = staging.export_object(obj.oid)
        staged.path.unlink()  # a tidy tool removed its input itself
        staging.release(obj.oid)
        assert not staging.is_staged(obj.oid)
        # accounting is untouched by release either way
        assert staging.accounting()["files_exported"] == 1

    def test_clear_removes_everything(self, db, staging):
        for i in range(3):
            obj = db.create("Thing", {"name": str(i)}, payload=b"d")
            staging.export_object(obj.oid)
        staging.clear()
        assert staging.staged() == []

    def test_staged_listing_ordered(self, db, staging):
        oids = []
        for i in range(3):
            obj = db.create("Thing", {"name": str(i)}, payload=b"d")
            staging.export_object(obj.oid)
            oids.append(obj.oid)
        assert [s.oid for s in staging.staged()] == sorted(oids)


class TestRootLifecycle:
    """A default area makes its root at once; a run area never does."""

    def test_default_area_sweeps_only_a_root_it_found(self, db, tmp_path):
        root = tmp_path / "staging"
        fresh = StagingArea(db, root)
        assert root.is_dir() and fresh.swept_temps == []
        (root / "Thing_1.partial").write_bytes(b"torn")
        (root / "keep.dat").write_bytes(b"not a temp")
        found = StagingArea(db, root)
        assert [p.name for p in found.swept_temps] == ["Thing_1.partial"]
        assert sorted(p.name for p in root.iterdir()) == ["keep.dat"]

    def test_run_area_makes_no_directory(
        self, db, tmp_path, namespace_ops
    ):
        root = tmp_path / "staging"
        StagingArea(db, root / "unmade", prefix="run_000-")
        assert not (root / "unmade").exists()
        StagingArea(db, root)
        obj = db.create("Thing", {"name": "x"}, payload=b"old")
        tool_output = tmp_path / "tool.out"
        tool_output.write_bytes(b"new")
        namespace_ops.clear()
        run = StagingArea(db, root, prefix="run_000-")
        run.export_object(obj.oid)
        run.import_object(obj.oid, tool_output)
        run.export_objects([obj.oid], writable=False)
        run.clear()
        assert [
            op for op in namespace_ops
            if op[0] in ("mkdir", "rmdir", "listdir")
        ] == []
        assert db.get(obj.oid).payload == b"new"

    def test_run_area_files_carry_its_prefix(self, db, staging):
        run = StagingArea(db, staging.root, prefix="s0b0001_run_002-")
        obj = db.create("Thing", {"name": "x"}, payload=b"design data")
        named = db.create("Thing", {"name": "y"}, payload=b"other")
        staged = run.export_object(obj.oid)
        custom = run.export_object(named.oid, filename="work.dat")
        assert staged.path == (
            staging.root / f"s0b0001_run_002-{obj.oid.replace(':', '_')}"
        )
        assert custom.path == staging.root / "s0b0001_run_002-work.dat"
        assert staged.path.read_bytes() == b"design data"
        # the default area records none of them: to it they are orphans
        assert staging.orphan_files() == sorted([staged.path, custom.path])

    def test_clear_leaves_the_root_as_it_found_it(
        self, db, staging, namespace_ops
    ):
        obj = db.create("Thing", {"name": "x"}, payload=b"shared")
        twin = db.create("Thing", {"name": "y"}, payload=b"shared")
        staging.export_object(obj.oid)
        (staging.root / "notes.txt").write_bytes(b"not staged")
        before = sorted(
            (p.name, p.read_bytes()) for p in staging.root.iterdir()
        )
        idle = StagingArea(db, staging.root, prefix="run_000-")
        namespace_ops.clear()
        idle.clear()
        assert list(namespace_ops) == []
        run = StagingArea(db, staging.root, prefix="run_001-")
        run.export_objects([obj.oid, twin.oid], writable=False)
        assert run.accounting()["export_links"] == 1
        run.clear()
        assert sorted(
            (p.name, p.read_bytes()) for p in staging.root.iterdir()
        ) == before
        assert staging.is_staged(obj.oid)

    def test_run_areas_exporting_one_oid_do_not_collide(
        self, db, staging, fake_reflink
    ):
        """More run areas than cores stage the same oids into one root.

        Twin payloads make every writable export after the first share
        from a peer, so the areas also meet in the capability probe.
        """
        import sys
        import threading

        objs = [
            db.create("Thing", {"name": n}, payload=p * 64)
            for n, p in (("a", b"a"), ("b", b"b"), ("twin", b"a"))
        ]
        runs = [
            StagingArea(db, staging.root, prefix=f"run_{i:03d}-")
            for i in range(4)
        ]
        errors = []

        def stage(run):
            try:
                for round_ in range(20):
                    for obj in objs:
                        staged = run.export_object(
                            obj.oid, writable=round_ % 2 == 0
                        )
                        assert staged.path.name.startswith(run.prefix)
                        assert run.read_staged(obj.oid) == obj.payload
                    run.clear()
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=stage, args=(r,)) for r in runs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for run in runs:
            counts = run.accounting()
            assert counts["files_exported"] + counts["export_links"] \
                + counts["export_reflinks"] + counts["export_hits"] == 60
        staged = [run.export_object(objs[0].oid) for run in runs]
        assert len({s.path for s in staged}) == len(runs)
        assert all(s.path.read_bytes() == b"a" * 64 for s in staged)
        for run in runs:
            run.clear()
        assert list(staging.root.iterdir()) == []

    def test_copying_export_into_fresh_sandbox_unlinks_nothing(
        self, db, staging, monkeypatch
    ):
        import os

        unlinked = []
        real = os.unlink
        monkeypatch.setattr(
            os, "unlink",
            lambda path, *a, **k: (unlinked.append(path), real(path, *a, **k)),
        )
        run = StagingArea(db, staging.root, prefix="run_000-")
        objs = [
            db.create("Thing", {"name": n}, payload=n.encode() * 4)
            for n in ("x", "y")
        ]
        run.export_object(objs[0].oid)
        run.export_objects([objs[1].oid])
        assert run.accounting()["files_exported"] == 2
        assert unlinked == []


class TestAdoptExisting:
    """Restart semantics: staged files are a durable CoW cache."""

    def test_adopts_matching_file_as_free_export_hit(self, db, tmp_path):
        first = StagingArea(db, tmp_path / "staging")
        obj = db.create("Thing", {"name": "x"}, payload=b"design data")
        first.export_object(obj.oid)
        # a fresh process: records are gone, the file remains
        second = StagingArea(db, tmp_path / "staging")
        assert second.orphan_files() != []
        adopted = second.adopt_existing()
        assert len(adopted) == 1
        assert second.is_staged(obj.oid)
        assert second.orphan_files() == []
        # the next export is a digest hit, not a rewrite
        second.export_object(obj.oid)
        assert second.accounting()["export_hits"] == 1
        assert second.accounting()["bytes_exported"] == 0

    def test_stale_content_stays_orphaned(self, db, tmp_path):
        first = StagingArea(db, tmp_path / "staging")
        obj = db.create("Thing", {"name": "x"}, payload=b"old")
        staged = first.export_object(obj.oid)
        staged.path.write_bytes(b"edited but never imported")
        second = StagingArea(db, tmp_path / "staging")
        assert second.adopt_existing() == []
        assert second.orphan_files() == [staged.path]
        assert second.reclaim_orphans() == [staged.path]

    def test_unknown_file_stays_orphaned(self, db, tmp_path):
        area = StagingArea(db, tmp_path / "staging")
        stray = area.root / "Thing_999999"
        stray.write_bytes(b"whatever")
        (area.root / "notes.txt").write_bytes(b"not an oid at all")
        assert area.adopt_existing() == []
        assert len(area.orphan_files()) == 2


class TestHardLinkFastPath:
    """Zero-copy staging: read-only exports may share an inode."""

    def test_read_only_export_links_same_digest(self, db, staging):
        a = db.create("Thing", {"name": "a"}, payload=b"shared bytes")
        b = db.create("Thing", {"name": "b"}, payload=b"shared bytes")
        first = staging.export_object(a.oid, writable=False)
        exported_after_first = staging.accounting()["bytes_exported"]
        second = staging.export_object(b.oid, writable=False)
        assert second.path.stat().st_nlink == 2
        assert second.path.stat().st_ino == first.path.stat().st_ino
        assert staging.accounting()["export_links"] == 1
        # the peer staged with zero byte copies
        assert staging.accounting()["bytes_exported"] == exported_after_first
        assert second.path.read_bytes() == b"shared bytes"

    def test_linking_export_into_fresh_area_unlinks_nothing(
        self, db, staging, monkeypatch
    ):
        import os

        unlinked = []
        real = os.unlink
        monkeypatch.setattr(
            os, "unlink",
            lambda path, *a, **k: (unlinked.append(path), real(path, *a, **k)),
        )
        a = db.create("Thing", {"name": "a"}, payload=b"shared bytes")
        b = db.create("Thing", {"name": "b"}, payload=b"shared bytes")
        staging.export_object(a.oid, writable=False)
        second = staging.export_object(b.oid, writable=False)
        assert staging.accounting()["export_links"] == 1
        assert second.path.stat().st_nlink == 2
        assert unlinked == []

    def test_writable_export_never_links(self, db, staging):
        a = db.create("Thing", {"name": "a"}, payload=b"shared bytes")
        b = db.create("Thing", {"name": "b"}, payload=b"shared bytes")
        first = staging.export_object(a.oid)
        second = staging.export_object(b.oid)
        assert first.path.stat().st_nlink == 1
        assert second.path.stat().st_nlink == 1
        assert staging.accounting()["export_links"] == 0

    def test_copying_export_over_a_linked_path_spares_the_peer(
        self, db, staging
    ):
        a = db.create("Thing", {"name": "a"}, payload=b"shared bytes")
        b = db.create("Thing", {"name": "b"}, payload=b"shared bytes")
        peer = staging.export_object(a.oid, writable=False)
        linked = staging.export_object(b.oid, writable=False)
        assert linked.path.stat().st_nlink == 2
        db.set_payload(b.oid, b"new bytes for b")
        copied_before = staging.accounting()["bytes_exported"]
        rewritten = staging.export_object(b.oid)
        assert staging.accounting()["bytes_exported"] == (
            copied_before + len(b"new bytes for b")
        )
        assert rewritten.path == linked.path
        assert rewritten.path.read_bytes() == b"new bytes for b"
        assert rewritten.path.stat().st_nlink == 1
        assert peer.path.read_bytes() == b"shared bytes"

    def test_writable_reexport_breaks_the_alias(self, db, staging):
        a = db.create("Thing", {"name": "a"}, payload=b"shared bytes")
        b = db.create("Thing", {"name": "b"}, payload=b"shared bytes")
        read_only = staging.export_object(a.oid, writable=False)
        staging.export_object(b.oid, writable=False)
        # a tool now wants b's copy for editing: it must get a private
        # inode, and editing it must not reach through to a's copy
        writable = staging.export_object(b.oid)
        assert writable.path.stat().st_nlink == 1
        writable.path.write_bytes(b"edited by the tool")
        assert read_only.path.read_bytes() == b"shared bytes"

    def test_batch_read_only_export_links_within_batch(self, db, staging):
        oids = [
            db.create("Thing", {"name": f"t{i}"}, payload=b"same").oid
            for i in range(3)
        ]
        staged = staging.export_objects(oids, writable=False)
        assert staged[0].path.stat().st_nlink == 3
        assert staging.accounting()["export_links"] == 2

    def test_released_file_leaves_the_digest_index(self, db, staging):
        a = db.create("Thing", {"name": "a"}, payload=b"shared bytes")
        b = db.create("Thing", {"name": "b"}, payload=b"shared bytes")
        staging.export_object(a.oid, writable=False)
        staging.release(a.oid)
        second = staging.export_object(b.oid, writable=False)
        assert second.path.stat().st_nlink == 1
        assert staging.accounting()["export_links"] == 0

    def test_forgotten_file_is_never_a_link_source(self, db, staging):
        a = db.create("Thing", {"name": "a"}, payload=b"shared bytes")
        b = db.create("Thing", {"name": "b"}, payload=b"shared bytes")
        forgotten = staging.export_object(a.oid, writable=False)
        staging.forget(a.oid)
        assert forgotten.path.exists()  # forget leaves disk alone
        second = staging.export_object(b.oid, writable=False)
        # linking to an untracked orphan would let reclaim_orphans rip
        # bytes out from under a live staged copy
        assert second.path.stat().st_nlink == 1
        assert staging.accounting()["export_links"] == 0

    def test_stale_digest_index_entry_is_dropped(self, db, staging):
        a = db.create("Thing", {"name": "a"}, payload=b"shared bytes")
        b = db.create("Thing", {"name": "b"}, payload=b"shared bytes")
        staged = staging.export_object(a.oid, writable=False)
        staged.path.write_bytes(b"mutated behind our back")
        second = staging.export_object(b.oid, writable=False)
        assert second.path.stat().st_nlink == 1
        assert second.path.read_bytes() == b"shared bytes"


class TestConcurrentRecordMutation:
    """Regression: every record mutator holds the staging lock.

    ``forget()`` used to pop its two dicts without the lock; interleaved
    with ``_record`` from a concurrently staging worker, the path claim
    could outlive the record it belonged to — a permanent phantom
    collision.  Hammer export/release/forget from several threads and
    then prove every path still stages cleanly.
    """

    def test_export_release_forget_race(self, db, staging):
        import threading

        oids = [
            db.create("Thing", {"name": f"r{i}"}, payload=b"racing").oid
            for i in range(4)
        ]
        errors = []

        def hammer(worker):
            try:
                for round_no in range(50):
                    oid = oids[(worker + round_no) % len(oids)]
                    try:
                        staging.export_object(oid, writable=False)
                    except OMSError:
                        pass  # lost a claim race to a sibling: fine
                    if worker % 2:
                        staging.forget(oid)
                    else:
                        staging.release(oid)
            except Exception as exc:  # noqa: BLE001 - collecting for assert
                errors.append(exc)

        workers = [
            threading.Thread(target=hammer, args=(i,)) for i in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert errors == []
        # no phantom claims: every oid stages again without collision
        for oid in oids:
            staging.forget(oid)
        staging.reclaim_orphans()
        for oid in oids:
            assert staging.export_object(oid).path.exists()


# -- one ladder: what each tier adds to the counters and the SimClock ---------

def _tier_copy(db, staging, name, payload=None):
    """No staged file and no peer: the payload is copied out."""
    if payload is None:
        payload = name.encode().ljust(1000, b"d")
    return db.create("Thing", {"name": name}, payload=payload).oid


def _tier_hit(db, staging, name):
    """The staged file already holds the payload."""
    oid = _tier_copy(db, staging, name)
    staging.export_object(oid)
    return oid


def _tier_peer(db, staging, name):
    """Another staged file holds the payload (link or reflink source)."""
    payload = name.encode().ljust(1000, b"p")
    staging.export_object(_tier_copy(db, staging, f"{name}-peer", payload))
    return _tier_copy(db, staging, name, payload)


_TIERS = {"copy": _tier_copy, "hit": _tier_hit, "peer": _tier_peer}


def _charges(db, staging, call):
    """The counter deltas, per-category charges and SimClock time of *call*."""
    counters = staging.accounting()
    categories = db.clock.elapsed_by_category()
    start = db.clock.now_ms
    call()
    return (
        {
            key: value - counters[key]
            for key, value in staging.accounting().items()
            if value != counters[key]
        },
        {
            key: value - categories.get(key, 0.0)
            for key, value in db.clock.elapsed_by_category().items()
            if value != categories.get(key, 0.0)
        },
        db.clock.now_ms - start,
    )


@pytest.mark.usefixtures("fake_reflink")
class TestLadderCharges:
    """Single and batched calls share one ladder, and each tier charges
    exactly what it did before the ladder was merged.

    A single call charges per file: one metadata operation for a hit, a
    link or a reflink, one copy for a miss.  A batch charges one
    metadata operation plus one aggregated copy of its misses.  The
    copying stand-in for FICLONE makes the reflink tier run anywhere.
    """

    @pytest.mark.parametrize(
        "tier, writable, counters, categories, elapsed",
        [
            ("copy", True, {"bytes_exported": 1000, "files_exported": 1},
             {"copy": 20.5}, 20.5),
            ("copy", False, {"bytes_exported": 1000, "files_exported": 1},
             {"copy": 20.5}, 20.5),
            ("hit", True, {"export_hits": 1}, {"metadata": 5.0}, 5.0),
            ("hit", False, {"export_hits": 1}, {"metadata": 5.0}, 5.0),
            ("peer", False, {"export_links": 1}, {"metadata": 5.0}, 5.0),
            ("peer", True, {"export_reflinks": 1}, {"metadata": 5.0}, 5.0),
        ],
    )
    def test_export_tier(
        self, db, staging, tier, writable, counters, categories, elapsed
    ):
        oid = _TIERS[tier](db, staging, "x")
        single = _charges(
            db, staging,
            lambda: staging.export_object(oid, writable=writable),
        )
        assert single == (counters, categories, elapsed)
        batch_oid = _TIERS[tier](db, staging, "y")
        batched = _charges(
            db, staging,
            lambda: staging.export_objects([batch_oid], writable=writable),
        )
        # a batch of one adds the request's metadata operation to a miss
        expected = dict(categories)
        expected["metadata"] = 5.0
        assert batched == (counters, expected, sum(expected.values()))

    @pytest.mark.parametrize(
        "writable, counters",
        [
            (True, {"bytes_exported": 2000, "files_exported": 2,
                    "export_hits": 1, "export_reflinks": 1}),
            (False, {"bytes_exported": 2000, "files_exported": 2,
                     "export_hits": 1, "export_links": 1}),
        ],
    )
    def test_mixed_export_batch(self, db, staging, writable, counters):
        oids = [
            _TIERS[tier](db, staging, f"t{index}")
            for index, tier in enumerate(("copy", "hit", "peer", "copy"))
        ]
        charged = _charges(
            db, staging,
            lambda: staging.export_objects(oids, writable=writable),
        )
        assert charged == (
            counters, {"metadata": 5.0, "copy": 41.0}, 46.0
        )

    @pytest.mark.parametrize(
        "edited, counters, categories",
        [
            (False, {"import_hits": 1}, {"metadata": 5.0}),
            (True, {"bytes_imported": 500, "files_imported": 1},
             {"copy": 20.25}),
        ],
    )
    def test_import_tier(self, db, staging, edited, counters, categories):
        def staged_oid(name):
            oid = _tier_hit(db, staging, name)
            if edited:
                staging.staged()[-1].path.write_bytes(b"e" * 500)
            return oid

        oid = staged_oid("x")
        single = _charges(db, staging, lambda: staging.import_object(oid))
        assert single == (counters, categories, sum(categories.values()))
        batch_oid = staged_oid("y")
        batched = _charges(
            db, staging, lambda: staging.import_objects([batch_oid])
        )
        expected = dict(categories)
        expected["metadata"] = 5.0
        assert batched == (counters, expected, sum(expected.values()))

    def test_mixed_import_batch(self, db, staging):
        oids = [_tier_hit(db, staging, f"t{index}") for index in range(3)]
        for staged in staging.staged()[1:]:
            staged.path.write_bytes(b"e" * 500)
        charged = _charges(db, staging, lambda: staging.import_objects(oids))
        assert charged == (
            {"import_hits": 1, "bytes_imported": 1000, "files_imported": 2},
            {"metadata": 5.0, "copy": 40.5},
            45.5,
        )
