"""The blob read path: cache, the digest lock, reflinks, and concurrency.

Covers the legs of the read-path work:

* **the materialization cache** — verified-bytes-only, digest-keyed,
  byte-budgeted LRU, invalidated by repair and quarantine (a cached
  read of a quarantined digest raises, never serves);
* **the digest lock** — readers share it, so readers of other digests
  make progress while a large intern encodes, and while ``read_staged``
  hangs on a slow file; repair/quarantine exclude in-flight readers;
* **reflink clones** — writable staging exports of a same-digest peer
  and FMCAD checkouts share extents on a private inode where the
  filesystem can reflink (a copying stand-in plays that filesystem
  here), and write the bytes themselves where it cannot.
"""

import sys
import threading
import time

import pytest

from repro.errors import QuarantinedError
from repro.oms import zerocopy
from repro.oms.blobs import BlobStore, digest_bytes
from repro.oms.locks import DigestLockTable
from repro.oms.query import QueryEngine
from repro.oms.readcache import MaterializationCache
from repro.oms.storage import StagingArea
from repro.oms.zerocopy import FsCapabilities, probe_capabilities

PAYLOAD = b"cellview bytes: " + bytes(range(256)) * 16


@pytest.fixture
def store():
    return BlobStore()


# -- the digest lock ----------------------------------------------------------


class TestDigestLockTable:
    def test_reading_is_shared(self):
        table = DigestLockTable()
        digest = digest_bytes(b"x")
        with table.reading(digest):
            with table.reading(digest):
                pass

    def test_writer_blocks_cross_thread_reader(self):
        table = DigestLockTable()
        digest = digest_bytes(b"x")
        entered = threading.Event()

        def reader():
            with table.reading(digest):
                entered.set()

        with table.writing(digest):
            thread = threading.Thread(target=reader)
            thread.start()
            assert not entered.wait(0.05)
        assert entered.wait(2.0)
        thread.join()

    def test_readers_of_other_digests_share_across_threads(self):
        table = DigestLockTable()
        entered = threading.Event()

        def reader():
            with table.reading(digest_bytes(b"y")):
                entered.set()

        with table.reading(digest_bytes(b"x")):
            thread = threading.Thread(target=reader)
            thread.start()
            assert entered.wait(2.0)
        thread.join(10.0)
        assert not thread.is_alive()


# -- the materialization cache ------------------------------------------------


class TestMaterializationCache:
    def test_miss_then_hit(self):
        cache = MaterializationCache(budget_bytes=1024)
        assert cache.get("d1") is None
        assert cache.put("d1", b"bytes")
        assert cache.get("d1") == b"bytes"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_oversized_payload_never_cached(self):
        cache = MaterializationCache(budget_bytes=4)
        assert not cache.put("big", b"12345")
        assert cache.get("big") is None

    def test_lru_eviction_by_bytes(self):
        cache = MaterializationCache(budget_bytes=10)
        cache.put("a", b"aaaa")
        cache.put("b", b"bbbb")
        cache.get("a")  # freshen a: b becomes the LRU victim
        cache.put("c", b"cccc")
        assert cache.get("a") == b"aaaa"
        assert cache.get("b") is None
        assert cache.get("c") == b"cccc"
        assert cache.stats()["evictions"] == 1
        assert cache.cached_bytes <= 10

    def test_invalidate(self):
        cache = MaterializationCache(budget_bytes=1024)
        cache.put("d", b"x")
        assert cache.invalidate("d")
        assert not cache.invalidate("d")  # already gone
        assert cache.get("d") is None
        assert cache.stats()["invalidations"] == 1

    def test_clear(self):
        cache = MaterializationCache(budget_bytes=1024)
        cache.put("d", b"x")
        cache.clear()
        assert len(cache) == 0
        assert cache.cached_bytes == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            MaterializationCache(budget_bytes=-1)


class TestCachedMaterialize:
    def test_second_read_is_a_cache_hit(self, store):
        cache = MaterializationCache()
        store.attach_cache(cache)
        digest = store.intern(PAYLOAD)
        assert store.materialize(digest) == PAYLOAD
        assert store.materialize(digest) == PAYLOAD
        assert store.verifications == 1
        assert cache.stats()["hits"] == 1

    def test_unverified_reads_bypass_the_cache(self, store):
        cache = MaterializationCache()
        store.attach_cache(cache)
        digest = store.intern(PAYLOAD)
        # the unverified arm must neither consult nor feed the cache:
        # it only ever holds bytes that proved their digest
        assert store.materialize(digest, verify=False) == PAYLOAD
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_quarantined_digest_never_served_from_cache(self, store):
        cache = MaterializationCache()
        store.attach_cache(cache)
        digest = store.intern(PAYLOAD)
        store.materialize(digest)  # populate the cache
        assert digest in cache
        store.quarantine(digest)
        # the quarantine dropped the entry AND the read path refuses
        # before ever consulting the cache
        assert digest not in cache
        with pytest.raises(QuarantinedError):
            store.materialize(digest)

    def test_repair_invalidates_cache_entry(self, store):
        cache = MaterializationCache()
        store.attach_cache(cache)
        digest = store.intern(PAYLOAD)
        store.materialize(digest)
        assert digest in cache
        store.repair(digest, PAYLOAD)
        assert digest not in cache
        # and the post-repair read re-verifies before re-caching
        verifications = store.verifications
        assert store.materialize(digest) == PAYLOAD
        assert store.verifications == verifications + 1

    def test_quarantine_racing_readers_leaves_nothing_cached(self, store):
        """Quarantine excludes in-flight readers: once it returns, no
        reader that passed the quarantine check before it can put the
        digest's bytes back into the cache."""

        class _YieldingCache(MaterializationCache):
            # widen the gap between a reader's quarantine check and its
            # cache lookup, where an unexcluded quarantine would land
            def get(self, digest):
                time.sleep(0.0001)
                return super().get(digest)

        cache = _YieldingCache()
        store.attach_cache(cache)
        payloads = {store.intern(PAYLOAD + bytes([i])): PAYLOAD + bytes([i])
                    for i in range(24)}
        digests = list(payloads)
        stop = threading.Event()
        wrong = []

        def read(offset):
            index = offset
            while not stop.is_set():
                digest = digests[index % len(digests)]
                try:
                    if store.materialize(digest) != payloads[digest]:
                        wrong.append(digest)
                except QuarantinedError:
                    pass
                index += 1
                # leave gaps so the quarantining writer gets its turn
                time.sleep(0.0002)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [
            threading.Thread(target=read, args=(offset,))
            for offset in range(6)
        ]
        try:
            for reader in readers:
                reader.start()
            for digest in digests:
                time.sleep(0.002)
                store.quarantine(digest)
        finally:
            stop.set()
            for reader in readers:
                reader.join(10.0)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert wrong == []
        assert [digest for digest in digests if digest in cache] == []

    def test_cache_shared_across_digests_within_budget(self, store):
        cache = MaterializationCache(budget_bytes=len(PAYLOAD) + 16)
        store.attach_cache(cache)
        d1 = store.intern(PAYLOAD)
        d2 = store.intern(b"other bytes")
        store.materialize(d1)
        store.materialize(d2)
        # both fit; a third large payload would evict
        assert d1 in cache and d2 in cache


# -- concurrency: readers make progress ---------------------------------------


class _BlockableStore(BlobStore):
    """A store whose encode step waits for an external green light."""

    def __init__(self):
        super().__init__()
        self.encode_entered = threading.Event()
        self.encode_release = threading.Event()
        self.block_next_encode = False

    def _encode(self, data, base_digest, base_depth):
        if self.block_next_encode:
            self.block_next_encode = False
            self.encode_entered.set()
            assert self.encode_release.wait(10.0)
        return super()._encode(data, base_digest, base_depth)


class TestReadersProgressDuringIntern:
    def test_materialize_completes_while_intern_encodes(self):
        """Satellite 1: a large intern must not stall unrelated readers.

        The encode step (diffing, hashing) runs outside every lock; a
        reader of an already-stored digest completes while the intern
        is wedged mid-encode.  Before the lock narrowing this deadlocked
        the reader behind the store mutex for the whole encode.
        """
        store = _BlockableStore()
        resident = store.intern(PAYLOAD)
        store.block_next_encode = True
        interned: list = []

        def slow_intern():
            interned.append(store.intern(b"slow payload" * 1000))

        writer = threading.Thread(target=slow_intern)
        writer.start()
        assert store.encode_entered.wait(5.0)
        try:
            # the intern is parked inside _encode; reads must not queue
            done = threading.Event()

            def read():
                assert store.materialize(resident) == PAYLOAD
                done.set()

            reader = threading.Thread(target=read)
            reader.start()
            assert done.wait(5.0), "reader stalled behind an encoding intern"
            reader.join()
        finally:
            store.encode_release.set()
            writer.join()
        assert interned and store.contains(interned[0])

    def test_blocked_intern_still_stores_correctly(self):
        store = _BlockableStore()
        store.block_next_encode = True
        results = []

        def intern():
            results.append(store.intern(PAYLOAD))

        thread = threading.Thread(target=intern)
        thread.start()
        assert store.encode_entered.wait(5.0)
        store.encode_release.set()
        thread.join()
        assert results == [digest_bytes(PAYLOAD)]
        assert store.materialize(results[0]) == PAYLOAD


class TestReadStagedDoesNotHoldTheStagingLock:
    def test_staging_progresses_while_a_read_hangs(self, db, tmp_path):
        """``read_staged`` must not camp on the staging mutex during I/O.

        The staged file is swapped for a FIFO, so the read blocks in the
        kernel until bytes arrive; meanwhile exports of *other* objects
        and ``staged()`` listings must complete.
        """
        import os

        staging = StagingArea(db, tmp_path / "stage")
        slow = db.create("Thing", {"name": "slow"}, payload=PAYLOAD)
        other = db.create("Thing", {"name": "other"}, payload=b"unrelated")
        staged = staging.export_object(slow.oid)
        staged.path.unlink()
        os.mkfifo(staged.path)

        read_back: list = []
        reader = threading.Thread(
            target=lambda: read_back.append(staging.read_staged(slow.oid))
        )
        reader.start()
        try:
            done = threading.Event()

            def stage_other():
                staging.export_object(other.oid)
                assert staging.staged()
                done.set()

            worker = threading.Thread(target=stage_other)
            worker.start()
            assert done.wait(5.0), "staging stalled behind a hung read"
            worker.join()
        finally:
            # feed the FIFO so the hung read completes with pristine bytes
            with open(staged.path, "wb") as pipe:
                pipe.write(PAYLOAD)
            reader.join(10.0)
        assert read_back == [PAYLOAD]


# -- query-engine traversal memo ----------------------------------------------


@pytest.fixture
def linked(db):
    """a -> b -> c over 'linked'; returns (engine, [a, b, c])."""
    objs = [db.create("Thing", {"name": n}) for n in "abc"]
    for src, dst in zip(objs, objs[1:]):
        db.link("linked", src.oid, dst.oid)
    return QueryEngine(db), objs


class TestQueryMemo:
    def test_repeat_traversal_hits_the_memo(self, linked):
        engine, objs = linked
        first = engine.reachable(objs[0].oid, ["linked"])
        second = engine.reachable(objs[0].oid, ["linked"])
        assert [o.oid for o in first] == [o.oid for o in second]
        assert engine.memo_stats()["hits"] == 1

    def test_any_mutation_invalidates(self, db, linked):
        engine, objs = linked
        engine.reachable(objs[0].oid, ["linked"])
        db.unlink("linked", objs[1].oid, objs[2].oid)
        fresh = engine.reachable(objs[0].oid, ["linked"])
        assert [o.oid for o in fresh] == [objs[1].oid]
        assert engine.memo_stats()["hits"] == 0

    def test_attribute_write_invalidates(self, db, linked):
        engine, objs = linked
        engine.reachable(objs[0].oid, ["linked"])
        db.set_attr(objs[2].oid, "name", "renamed")
        engine.reachable(objs[0].oid, ["linked"])
        assert engine.memo_stats()["hits"] == 0
        # unchanged since: now it memoizes
        engine.reachable(objs[0].oid, ["linked"])
        assert engine.memo_stats()["hits"] == 1

    def test_memo_returns_fresh_objects_not_snapshots(self, db, linked):
        engine, objs = linked
        engine.reachable(objs[0].oid, ["linked"])
        hit = engine.reachable(objs[0].oid, ["linked"])
        # oids are memoized, objects are re-fetched: attribute reads
        # through a memo hit always see current state (the closure
        # excludes the start object, so the first hop is "b")
        assert hit[0].get("name") == "b"

    def test_aborted_transaction_invalidates(self, db, linked):
        engine, objs = linked
        engine.reachable(objs[0].oid, ["linked"])
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.unlink("linked", objs[0].oid, objs[1].oid)
                raise RuntimeError("boom")
        # the store rolled back to the memoized shape, but undo bypasses
        # the public mutators — the epoch must still have moved
        result = engine.reachable(objs[0].oid, ["linked"])
        assert [o.oid for o in result] == [o.oid for o in objs[1:]]
        assert engine.memo_stats()["hits"] == 0

    def test_ancestors_memoized_separately(self, linked):
        engine, objs = linked
        engine.ancestors(objs[2].oid, ["linked"])
        engine.ancestors(objs[2].oid, ["linked"])
        engine.reachable(objs[2].oid, ["linked"])
        stats = engine.memo_stats()
        assert stats["hits"] == 1
        assert stats["entries"] == 2

    def test_depth_limit_is_part_of_the_key(self, linked):
        engine, objs = linked
        full = engine.reachable(objs[0].oid, ["linked"])
        limited = engine.reachable(objs[0].oid, ["linked"], max_depth=1)
        assert engine.memo_stats()["hits"] == 0
        assert len(full) == 2 and len(limited) == 1


# -- capability probing -------------------------------------------------------


class TestCapabilityProbe:
    def test_probe_is_cached_per_root(self, tmp_path):
        root = tmp_path / "probe"
        first = probe_capabilities(root)
        second = probe_capabilities(root)
        assert first == second
        # the scratch files are cleaned up
        assert not list(root.iterdir())

    def test_describe(self):
        assert FsCapabilities(reflink=False).describe() == "copy-only"
        assert FsCapabilities(reflink=True).describe() == "reflink"

    def test_staging_area_does_not_probe_until_a_peer_exists(
        self, db, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(zerocopy, "_probed", {})
        root = tmp_path / "stage"
        staging = StagingArea(db, root)
        first = db.create("Thing", {"name": "a"}, payload=PAYLOAD)
        other = db.create("Thing", {"name": "b"}, payload=b"unrelated")
        staging.export_object(first.oid)
        staging.export_object(other.oid)
        # construction and peerless exports never touched the probe
        assert zerocopy._probed == {}
        twin = db.create("Thing", {"name": "c"}, payload=PAYLOAD)
        staging.export_object(twin.oid)
        assert str(root.resolve()) in zerocopy._probed


# -- reflink clones -----------------------------------------------------------


def _staged_pair(db, tmp_path):
    """A staging area holding a writable export, plus a same-digest twin."""
    staging = StagingArea(db, tmp_path / "stage")
    peer = db.create("Thing", {"name": "peer"}, payload=PAYLOAD)
    twin = db.create("Thing", {"name": "twin"}, payload=PAYLOAD)
    return staging, staging.export_object(peer.oid), twin


@pytest.mark.usefixtures("fake_reflink")
class TestReflinkExports:
    def test_writable_export_reflinks_a_same_digest_peer(self, db, tmp_path):
        staging, peer, twin = _staged_pair(db, tmp_path)
        copies_before = db.clock.elapsed_by_category().get("copy", 0.0)
        staged = staging.export_object(twin.oid, writable=True)
        accounting = staging.accounting()
        assert accounting["export_reflinks"] == 1
        # only the peer's export copied payload bytes
        assert accounting["files_exported"] == 1
        assert accounting["bytes_exported"] == len(PAYLOAD)
        assert db.clock.elapsed_by_category().get("copy", 0.0) == (
            copies_before
        )
        assert staged.path.read_bytes() == PAYLOAD
        assert staged.path.stat().st_ino != peer.path.stat().st_ino
        assert staging.read_staged(twin.oid) == PAYLOAD

    def test_batched_export_reflinks_without_a_copy_charge(
        self, db, tmp_path
    ):
        staging, _, twin = _staged_pair(db, tmp_path)
        copies_before = db.clock.elapsed_by_category().get("copy", 0.0)
        [staged] = staging.export_objects([twin.oid], writable=True)
        assert staging.accounting()["export_reflinks"] == 1
        assert db.clock.elapsed_by_category().get("copy", 0.0) == (
            copies_before
        )
        assert staged.path.read_bytes() == PAYLOAD

    def test_stale_peer_is_not_cloned(self, db, tmp_path):
        staging, peer, twin = _staged_pair(db, tmp_path)
        peer.path.write_bytes(b"rewritten in place by a tool")
        staged = staging.export_object(twin.oid, writable=True)
        assert staging.accounting()["export_reflinks"] == 0
        assert staged.path.read_bytes() == PAYLOAD


class TestExportsWithoutReflink:
    def test_writable_export_writes_when_reflink_is_refused(
        self, db, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(zerocopy, "_probed", {})
        monkeypatch.setattr(
            zerocopy, "reflink_supported", lambda src_fd, dst_fd: False
        )
        staging, peer, twin = _staged_pair(db, tmp_path)
        staged = staging.export_object(twin.oid, writable=True)
        accounting = staging.accounting()
        assert accounting["export_reflinks"] == 0
        assert accounting["files_exported"] == 2
        assert staged.path.read_bytes() == PAYLOAD
        assert staged.path.stat().st_ino != peer.path.stat().st_ino
