"""Content-addressed payload storage for OMS design data.

Section 3.6 blames design-data operations — whole-file copies "to and
from the database via the UNIX file system", even for read-only access —
for the hybrid framework's cost on realistic designs.  The copy is only
necessary when the bytes on either side actually differ, and in a
version-dense design database most bytes are shared: re-exports of
unchanged data, re-imports after read-only tool runs, and version chains
where each version is a small edit of its predecessor.

``BlobStore`` makes that sharing explicit:

* **Digest addressing.**  Every payload is keyed by the SHA-256 digest of
  its full content.  Storing the same bytes twice costs one reference
  count bump, never a second copy (``dedup_hits`` counts these).
* **Reference counting.**  Objects hold references to blobs; a blob's
  bytes are freed exactly when the last reference drops.  Refcounts are
  asserted non-negative — a buggy caller raises instead of corrupting.
* **Delta chains.**  A payload may be stored as a *delta* against a base
  blob (common prefix + common suffix + replaced middle).  Reconstruction
  is transparent; :meth:`BlobStore.stat` answers digest/size probes in
  O(1) without ever materializing bytes.  A delta holds a reference on
  its base, so bases stay alive while dependents exist.  Chain depth is
  bounded by :attr:`BlobStore.MAX_CHAIN_DEPTH`: once a chain is that
  deep the next payload is stored in full, which bounds reconstruction
  work at ``O(MAX_CHAIN_DEPTH)`` delta applications.

The store is deliberately clock-agnostic: cost accounting stays with the
staging area and database, which decide what a dedup hit is *worth*.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.errors import IntegrityError, OMSError, QuarantinedError
from repro.faults import corruption_point, fault_point
from repro.oms.locks import DigestLockTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.oms.readcache import MaterializationCache


def digest_bytes(data: bytes) -> str:
    """The content address of *data*: hex SHA-256."""
    return hashlib.sha256(data).hexdigest()


#: digest of the empty payload — what an absent/empty design file hashes to
EMPTY_DIGEST = digest_bytes(b"")

#: fixed bookkeeping overhead assumed per delta entry (bytes); a delta is
#: only worth storing when middle + overhead undercuts the full payload
_DELTA_OVERHEAD = 64


@dataclasses.dataclass(frozen=True)
class BlobStat:
    """O(1) answer to "what would these bytes be?" — no materialization."""

    digest: str
    size: int


#: damage classifications shared with the scrubber
CLASS_BIT_ROT = "bit-rot"        # same length, different bytes
CLASS_TRUNCATION = "truncation"  # shorter than the recorded size
CLASS_TORN_WRITE = "torn-write"  # longer / structurally wrong


def classify_damage(
    expected_size: int, data: bytes, expected_digest: str
) -> Optional[str]:
    """``None`` if *data* matches its content address, else a class.

    The fast path is a single C-speed SHA-256 over the bytes; size
    comparison only runs once the hash has already disagreed, to name
    the damage: shorter than recorded is truncation, longer is a torn
    write, same length is bit-rot.
    """
    if digest_bytes(data) == expected_digest:
        return None
    if len(data) < expected_size:
        return CLASS_TRUNCATION
    if len(data) > expected_size:
        return CLASS_TORN_WRITE
    return CLASS_BIT_ROT


class _Entry:
    """One stored blob: full bytes, or a delta against ``base_digest``."""

    __slots__ = (
        "refcount", "size", "depth", "quarantined", "verified",
        "data", "base_digest", "prefix_len", "suffix_len", "middle",
    )

    def __init__(
        self,
        size: int,
        data: Optional[bytes] = None,
        base_digest: Optional[str] = None,
        prefix_len: int = 0,
        suffix_len: int = 0,
        middle: bytes = b"",
        depth: int = 0,
    ) -> None:
        self.refcount = 1
        self.size = size
        self.depth = depth
        self.quarantined = False
        #: verified-read fast path: stored bytes are immutable after the
        #: intern (damage lands *at* the write, never later), so one
        #: successful verification proves every later read of the same
        #: entry.  Repair resets it; the scrubber bypasses it entirely.
        self.verified = False
        self.data = data
        self.base_digest = base_digest
        self.prefix_len = prefix_len
        self.suffix_len = suffix_len
        self.middle = middle

    @property
    def is_delta(self) -> bool:
        return self.data is None

    @property
    def stored_bytes(self) -> int:
        """Bytes this entry actually occupies (middle only, for deltas)."""
        if self.is_delta:
            return len(self.middle) + _DELTA_OVERHEAD
        return len(self.data)


class BlobStore:
    """Digest-keyed, refcounted, delta-capable payload table."""

    #: longest allowed base chain under a delta; beyond this the payload
    #: is stored in full, flattening the chain (bounds reconstruction)
    MAX_CHAIN_DEPTH = 64

    def __init__(self, verify_reads: bool = True) -> None:
        self._entries: Dict[str, _Entry] = {}
        #: payloads interned that were already present (copies avoided)
        self.dedup_hits = 0
        #: payloads stored as deltas instead of full copies
        self.delta_stores = 0
        #: every materialization re-digests the reconstructed bytes and
        #: raises IntegrityError on mismatch; ``False`` is the unverified
        #: baseline arm of ``bench_integrity``
        self.verify_reads = verify_reads
        #: reads that paid the verification re-digest
        self.verifications = 0
        #: verified reads served by the verified-once fast path instead
        self.verification_hits = 0
        #: serialises refcount and chain mutations under the parallel
        #: scheduler; reentrant because _free cascades through decref.
        #: Held only for table lookups/mutations — reconstruction,
        #: hashing and encoding all run outside it (see _digest_locks).
        self._lock = threading.RLock()
        #: per-digest striped read/write locks: N readers of N digests
        #: proceed concurrently; repair/quarantine of a digest excludes
        #: its readers.  Always acquired OUTSIDE self._lock.
        self._digest_locks = DigestLockTable()
        #: shared materialization cache (attach_cache); digest-keyed,
        #: verified bytes only
        self._cache: Optional["MaterializationCache"] = None
    # -- read-path attachments ----------------------------------------------

    def attach_cache(self, cache: Optional["MaterializationCache"]) -> None:
        """Serve verified materializations from (and into) *cache*."""
        self._cache = cache

    # -- storing -------------------------------------------------------------

    def intern(
        self, data: bytes, base_digest: Optional[str] = None
    ) -> str:
        """Store *data* (dedup by content) and take one reference on it.

        When *base_digest* names a stored blob, the new payload is
        delta-encoded against it if that actually saves space and the
        chain stays under :attr:`MAX_CHAIN_DEPTH`.  Returns the digest.
        """
        fault_point("blobs.intern")
        digest = digest_bytes(data)
        base_depth = 0
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                entry.refcount += 1
                self.dedup_hits += 1
                return digest
            base = (
                self._entries.get(base_digest)
                if base_digest is not None
                else None
            )
            pin_base = base is not None and base.depth < self.MAX_CHAIN_DEPTH
            if pin_base:
                # pin the base across the unlocked encode so a concurrent
                # release cannot free it while we diff against its bytes
                base.refcount += 1
                base_depth = base.depth
        # heavy work — materializing the base, the prefix/suffix scans,
        # hashing — all runs with no lock held: concurrent readers and
        # interns of other digests make progress meanwhile
        try:
            entry = self._encode(
                data, base_digest if pin_base else None, base_depth
            )
        except BaseException:
            if pin_base:
                self.decref(base_digest)
            raise
        with self._lock:
            existing = self._entries.get(digest)
            if existing is not None:
                # a concurrent intern of the same bytes won the race
                existing.refcount += 1
                self.dedup_hits += 1
                if pin_base:
                    self.decref(base_digest)
                return digest
            if entry.is_delta:
                self.delta_stores += 1  # the pin becomes the base ref
            elif pin_base:
                self.decref(base_digest)  # stored in full: drop the pin
            self._entries[digest] = entry
            return digest

    def _encode(
        self, data: bytes, base_digest: Optional[str], base_depth: int
    ) -> _Entry:
        # the recorded size is always that of the pristine payload; the
        # stored representation passes through the corruption point so an
        # injected fault damages what lands at rest, not the size the
        # verifier will hold the bytes against
        size = len(data)
        if base_digest is None:
            return _Entry(
                size=size, data=corruption_point("blobs.payload", data)
            )
        base_bytes = self.materialize(base_digest)
        prefix = _common_prefix(base_bytes, data)
        suffix = _common_suffix(base_bytes[prefix:], data[prefix:])
        middle = data[prefix:len(data) - suffix]
        if len(middle) + _DELTA_OVERHEAD >= len(data):
            return _Entry(
                size=size, data=corruption_point("blobs.payload", data)
            )
        return _Entry(
            size=size,
            base_digest=base_digest,
            prefix_len=prefix,
            suffix_len=suffix,
            middle=corruption_point("blobs.payload", middle),
            depth=base_depth + 1,
        )

    # -- reading -------------------------------------------------------------

    def contains(self, digest: str) -> bool:
        return digest in self._entries

    def digests(self) -> List[str]:
        """All digests currently interned (sorted; WAL checkpoint hook)."""
        with self._lock:
            return sorted(self._entries)

    def stat(self, digest: str) -> BlobStat:
        """Digest and size in O(1) — never touches payload bytes."""
        with self._lock:
            return BlobStat(digest=digest, size=self._require(digest).size)

    def materialize(self, digest: str, verify: Optional[bool] = None) -> bytes:
        """Reconstruct the full payload, applying the delta chain.

        With verification on (the default — see :attr:`verify_reads`)
        the reconstructed bytes are re-digested against the content
        address and an :class:`IntegrityError` is raised instead of
        returning garbage.  The whole chain is covered by one hash over
        the final bytes: a damaged base or a damaged delta both change
        the reconstruction, so per-link checks would only add cost.
        """
        if verify is None:
            verify = self.verify_reads
        with self._digest_locks.reading(digest):
            return self._materialize_held(digest, verify)

    def _materialize_held(self, digest: str, verify: bool) -> bytes:
        """Materialize while the caller holds the digest's stripe read."""
        with self._lock:
            target = self._require(digest)
            self._refuse_quarantined(digest, target)
        # the cache only ever holds verified bytes, so an unverified
        # read (bench baseline arm) bypasses it entirely — get AND put
        if verify and self._cache is not None:
            cached = self._cache.get(digest)
            if cached is not None:
                return cached
        data = self._reconstruct(digest)
        if verify:
            if target.verified:
                # fast path: this entry (and therefore the chain under
                # it) already proved its digest once, and stored bytes
                # never mutate after the intern — skip the re-hash
                self.verification_hits += 1
            else:
                self.verifications += 1
                problem = classify_damage(target.size, data, digest)
                if problem is not None:
                    raise IntegrityError(
                        f"blob {digest[:12]}: stored bytes fail verification "
                        f"({problem}; {len(data)} bytes, recorded size "
                        f"{target.size})",
                        location=f"blob:{digest}",
                        classification=problem,
                    )
                target.verified = True
            if self._cache is not None:
                self._cache.put(digest, data)
        return data

    def _refuse_quarantined(self, digest: str, entry: _Entry) -> None:
        if entry.quarantined:
            raise QuarantinedError(
                f"blob {digest[:12]} is quarantined: its bytes failed "
                "verification and no repair source was found",
                location=f"blob:{digest}",
            )

    def _reconstruct(self, digest: str) -> bytes:
        """Chain walk + delta application; no quarantine or hash checks.

        The scrubber uses this to look at bytes the public read path
        refuses to serve; :meth:`check` uses it to keep its own
        ``OMSError`` contract.
        """
        with self._lock:
            chain: List[_Entry] = []
            entry = self._require(digest)
            while entry.is_delta:
                chain.append(entry)
                entry = self._require(entry.base_digest)
            data = entry.data
        for delta in reversed(chain):
            tail = data[len(data) - delta.suffix_len:] if delta.suffix_len else b""
            data = data[:delta.prefix_len] + delta.middle + tail
        return data

    def describe(self, digest: str) -> Dict[str, int]:
        """Storage shape of one entry (for experiments and assertions)."""
        with self._lock:
            entry = self._require(digest)
        return {
            "size": entry.size,
            "stored_bytes": entry.stored_bytes,
            "depth": entry.depth,
            "refcount": entry.refcount,
            "is_delta": int(entry.is_delta),
        }

    # -- reference management ------------------------------------------------

    def incref(self, digest: str) -> None:
        with self._lock:
            self._require(digest).refcount += 1

    def decref(self, digest: str) -> None:
        """Drop one reference; frees the entry when none remain."""
        with self._lock:
            entry = self._require(digest)
            entry.refcount -= 1
            if entry.refcount == 0:
                self._free(digest, entry)

    def release(self, digest: str) -> Optional[bytes]:
        """Like :meth:`decref`, but hands back the bytes if this was the
        last reference — the hook transaction undo journals use so a
        rolled-back overwrite can re-intern exactly what was freed.

        The handed-back bytes go through the verified read path: if the
        last copy is corrupt this raises :class:`IntegrityError` and
        leaves the refcount untouched, so an undo journal never
        re-interns garbage and the damaged entry stays addressable for
        the scrubber to repair.
        """
        with self._lock:
            entry = self._require(digest)
            if entry.refcount > 1:
                entry.refcount -= 1
                return None
        # last reference: the verified read takes the digest's stripe,
        # so it must run outside the table lock; re-check after
        data = self.materialize(digest)
        with self._lock:
            entry = self._require(digest)
            if entry.refcount == 1:
                entry.refcount = 0
                self._free(digest, entry)
                return data
            entry.refcount -= 1  # a concurrent incref/intern revived it
            return None

    def _free(self, digest: str, entry: _Entry) -> None:
        del self._entries[digest]
        if entry.is_delta:
            self.decref(entry.base_digest)  # may cascade up the chain

    def _require(self, digest: str) -> _Entry:
        entry = self._entries.get(digest)
        if entry is None:
            raise OMSError(f"unknown blob: {digest!r}")
        if entry.refcount <= 0:  # pragma: no cover - internal invariant
            raise OMSError(
                f"blob {digest!r} refcount {entry.refcount} is not positive"
            )
        return entry

    # -- integrity: scrub, repair, quarantine --------------------------------

    def scrub(self) -> Dict[str, str]:
        """Re-verify every stored payload; map digest -> damage class.

        Quarantined entries are skipped — they are already known-bad and
        reporting them again would keep a clean store from reaching the
        scrubber's fixpoint.  A corrupt base surfaces both as itself and
        through every delta stacked on it; repairing the base (and
        re-scrubbing) clears the children, which is why the scrubber's
        repair loop iterates.
        """
        with self._lock:
            digests = sorted(self._entries)
        findings: Dict[str, str] = {}
        for digest in digests:
            with self._lock:
                entry = self._entries.get(digest)
                if entry is None or entry.quarantined:
                    continue
                size = entry.size
            problem = classify_damage(size, self._reconstruct(digest), digest)
            if problem is not None:
                findings[digest] = problem
        return findings

    def repair(self, digest: str, data: bytes) -> None:
        """Replace a damaged entry's stored bytes with a verified copy.

        *data* must hash to *digest* — the repair source (a peer FMCAD
        library file, a staged export, ...) proves itself pristine before
        it is allowed to overwrite anything.  A delta entry is converted
        to a full entry in place: its chain position (depth, refcount,
        children's bases) is preserved, only the representation changes,
        and the old base loses the reference the delta held.
        """
        if digest_bytes(data) != digest:
            raise IntegrityError(
                f"repair source for blob {digest[:12]} hashes to "
                f"{digest_bytes(data)[:12]} — refusing to store it",
                location=f"blob:{digest}",
                classification=CLASS_BIT_ROT,
            )
        # the digest's write stripe excludes every in-flight read: no
        # reader can observe the entry mid-swap or cache the
        # pre-repair bytes after we invalidate
        with self._digest_locks.writing(digest):
            with self._lock:
                entry = self._require(digest)
                old_base = entry.base_digest
                entry.data = data
                entry.base_digest = None
                entry.prefix_len = 0
                entry.suffix_len = 0
                entry.middle = b""
                entry.size = len(data)
                entry.quarantined = False
                # the representation changed: the next verified read must
                # re-prove the digest rather than trust the old cache
                entry.verified = False
                self._invalidate_digest(digest)
                if old_base is not None:
                    self.decref(old_base)

    def quarantine(self, digest: str) -> None:
        """Mark an unrepairable entry: reads raise, scrub skips it.

        Takes the digest's write stripe and drops any cached bytes, so a
        reader that raced us either finished before the quarantine or
        will see :class:`QuarantinedError` — never a cache hit on
        known-bad bytes.
        """
        with self._digest_locks.writing(digest):
            with self._lock:
                self._require(digest).quarantined = True
                self._invalidate_digest(digest)

    def _invalidate_digest(self, digest: str) -> None:
        """Drop the cached bytes of *digest* (table lock held)."""
        if self._cache is not None:
            self._cache.invalidate(digest)

    def quarantined_digests(self) -> List[str]:
        with self._lock:
            return sorted(
                d for d, e in self._entries.items() if e.quarantined
            )

    # -- statistics and invariants -------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Dedup/delta effectiveness counters for experiments."""
        with self._lock:
            full = sum(1 for e in self._entries.values() if not e.is_delta)
            return {
                "blobs": len(self._entries),
                "full_blobs": full,
                "delta_blobs": len(self._entries) - full,
                "logical_bytes": sum(e.size for e in self._entries.values()),
                "stored_bytes": sum(
                    e.stored_bytes for e in self._entries.values()
                ),
                "dedup_hits": self.dedup_hits,
                "delta_stores": self.delta_stores,
                "max_chain_depth": max(
                    (e.depth for e in self._entries.values()), default=0
                ),
            }

    def reference_audit(self, external: Dict[str, int]) -> List[str]:
        """Compare refcounts against *external* reference claims.

        *external* maps digest -> how many references live objects hold
        (one per :class:`PayloadHandle`).  Internally, each delta entry
        holds one more reference on its base.  Any digest whose stored
        refcount disagrees with the sum — or that only one side knows
        about — is reported.  The crash suite uses this to prove blob
        refcounts stayed *exact* through crash and recovery.
        """
        internal: Dict[str, int] = {}
        for entry in self._entries.values():
            if entry.is_delta:
                internal[entry.base_digest] = (
                    internal.get(entry.base_digest, 0) + 1
                )
        problems: List[str] = []
        for digest in sorted(set(external) - set(self._entries)):
            if external[digest]:
                problems.append(
                    f"blob {digest[:12]}: {external[digest]} live references "
                    "but no store entry"
                )
        for digest in sorted(self._entries):
            expected = external.get(digest, 0) + internal.get(digest, 0)
            actual = self._entries[digest].refcount
            if actual != expected:
                problems.append(
                    f"blob {digest[:12]}: refcount {actual}, expected "
                    f"{expected} ({external.get(digest, 0)} live + "
                    f"{internal.get(digest, 0)} delta-base)"
                )
        return problems

    def check(self) -> None:
        """Raise :class:`OMSError` on any broken store invariant.

        Used by the property tests: refcounts strictly positive, every
        delta's base present, depths consistent, and every entry
        reconstructing to bytes that hash back to its own key.
        """
        for digest, entry in self._entries.items():
            if entry.refcount <= 0:
                raise OMSError(
                    f"blob {digest!r}: refcount {entry.refcount} <= 0"
                )
            if entry.is_delta:
                base = self._entries.get(entry.base_digest)
                if base is None:
                    raise OMSError(
                        f"blob {digest!r}: missing base {entry.base_digest!r}"
                    )
                if entry.depth != base.depth + 1:
                    raise OMSError(f"blob {digest!r}: inconsistent depth")
            if entry.quarantined:
                continue  # known-bad bytes; structural checks still ran
            data = self._reconstruct(digest)
            if len(data) != entry.size or digest_bytes(data) != digest:
                raise OMSError(
                    f"blob {digest!r}: reconstruction does not match key"
                )


class PayloadHandle:
    """An object's reference to its interned payload.

    The handle never caches bytes: size and digest probes are O(1)
    against the store, and :meth:`materialize` reconstructs on demand.
    One handle corresponds to exactly one store reference, owned by the
    database primitives that created it.
    """

    __slots__ = ("store", "digest")

    def __init__(self, store: BlobStore, digest: str) -> None:
        self.store = store
        self.digest = digest

    @property
    def size(self) -> int:
        return self.store.stat(self.digest).size

    def materialize(self) -> bytes:
        return self.store.materialize(self.digest)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PayloadHandle {self.digest[:12]}>"


#: block size for the C-speed slice comparisons below (4 KiB)
_SCAN_BLOCK = 1 << 12


def _common_prefix(a: bytes, b: bytes) -> int:
    bound = min(len(a), len(b))
    ma, mb = memoryview(a), memoryview(b)
    lo = 0
    # compare whole blocks at C speed; only the first differing block
    # is scanned byte-by-byte
    while (
        lo + _SCAN_BLOCK <= bound
        and ma[lo:lo + _SCAN_BLOCK] == mb[lo:lo + _SCAN_BLOCK]
    ):
        lo += _SCAN_BLOCK
    while lo < bound and a[lo] == b[lo]:
        lo += 1
    return lo


def _common_suffix(a: bytes, b: bytes) -> int:
    bound = min(len(a), len(b))
    la, lb = len(a), len(b)
    ma, mb = memoryview(a), memoryview(b)
    n = 0
    while (
        n + _SCAN_BLOCK <= bound
        and ma[la - n - _SCAN_BLOCK:la - n] == mb[lb - n - _SCAN_BLOCK:lb - n]
    ):
        n += _SCAN_BLOCK
    while n < bound and a[la - 1 - n] == b[lb - 1 - n]:
        n += 1
    return n
