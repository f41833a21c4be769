"""Byte-budgeted, digest-keyed cache of verified payload bytes.

One :class:`MaterializationCache` is shared by every read path of a
hybrid workspace — blob materialization, FMCAD ``read_version``, the
coupled-run harvest — because all of them address bytes by the same
SHA-256 content digest.  The keying carries the coherence argument:

* a digest **names its bytes**, so a cached entry can never be stale in
  the bit-rot sense — repair writes back the *same* bytes the digest
  always named;
* the one way a digest's bytes become unservable is **quarantine**
  (known-bad, never to be served again) — so quarantine and repair both
  :meth:`invalidate` the digest, and every consumer re-checks its own
  quarantine state *before* consulting the cache.

Entries are verified-once by construction: consumers only ``put`` bytes
that just proved their digest (or were served by a verified-once fast
path), so a hit skips reconstruction *and* re-verification.  Eviction
is LRU by bytes against a fixed budget; a payload larger than the whole
budget is simply never cached.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional

#: default byte budget (the one HybridFramework wires)
DEFAULT_BUDGET_BYTES = 64 * 1024 * 1024


class MaterializationCache:
    """LRU cache of ``digest -> verified payload bytes`` with a byte budget."""

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES) -> None:
        if budget_bytes < 0:
            raise ValueError(f"negative cache budget: {budget_bytes!r}")
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, digest: str) -> Optional[bytes]:
        """The cached bytes for *digest*, or ``None`` (counted either way)."""
        with self._lock:
            data = self._entries.get(digest)
            if data is None:
                self.misses += 1
                return None
            self._entries.move_to_end(digest)
            self.hits += 1
            return data

    def put(self, digest: str, data: bytes) -> bool:
        """Cache verified *data* under *digest*; False when it cannot fit.

        Only bytes that have just proven their digest belong here — the
        cache itself never re-hashes, that is the whole saving.
        """
        size = len(data)
        if size > self.budget_bytes:
            return False
        with self._lock:
            previous = self._entries.pop(digest, None)
            if previous is not None:
                self._bytes -= len(previous)
            self._entries[digest] = data
            self._bytes += size
            while self._bytes > self.budget_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted)
                self.evictions += 1
            return True

    def invalidate(self, digest: str) -> bool:
        """Drop *digest* (quarantine/repair coherence); True if present."""
        with self._lock:
            data = self._entries.pop(digest, None)
            if data is None:
                return False
            self._bytes -= len(data)
            self.invalidations += 1
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def cached_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "cached_bytes": self._bytes,
                "budget_bytes": self.budget_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
