"""Consistent-hash shard map over library names.

Sharding is **per library**: the unit of team collaboration in the
coupled framework is the FMCAD library a team works in, so routing by
library name puts each team's commit coalescing and batch execution on
one shard — independent teams never share a queue.  Run-level locks are
not sharded: every shard acquires through the database's one
:class:`~repro.oms.locks.LockManager`, whose global ``sort_key`` order
keeps acquisitions deadlock-free across libraries and so across shards.

Consistent hashing (a ring of virtual nodes per shard) keeps the map
stable under resizing: growing from N to N+1 shards moves roughly
``1/(N+1)`` of the libraries, not all of them, which matters once shard
assignment is baked into queue stats and operators reason about "team X
is on shard 3".
"""

from __future__ import annotations

import bisect
import hashlib
from collections import Counter
from typing import Dict, Iterable, List, Tuple


def _point(token: str) -> int:
    """Stable 64-bit ring position for *token* (independent of PYTHONHASHSEED)."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ShardMap:
    """Maps library names to shard ids ``0..shards-1``."""

    #: virtual nodes per shard; enough to keep the split within a few
    #: percent of even for realistic library counts
    DEFAULT_REPLICAS = 64

    def __init__(
        self,
        shards: int,
        replicas: int = DEFAULT_REPLICAS,
        seed: int = 0,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard: {shards!r}")
        if replicas < 1:
            raise ValueError(f"need at least one replica: {replicas!r}")
        self.shards = shards
        self.replicas = replicas
        self.seed = seed
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(replicas):
                points.append((_point(f"{seed}:{shard}:{replica}"), shard))
        points.sort()
        self._ring_points = [p for p, _ in points]
        self._ring_shards = [s for _, s in points]

    def shard_of_library(self, library_name: str) -> int:
        """The shard owning *library_name* (first ring point clockwise)."""
        if self.shards == 1:
            return 0
        index = bisect.bisect_right(self._ring_points, _point(library_name))
        if index == len(self._ring_points):
            index = 0
        return self._ring_shards[index]

    def spread(self, library_names: Iterable[str]) -> Dict[int, int]:
        """How many of *library_names* land on each shard (diagnostics)."""
        counts: Counter = Counter(
            self.shard_of_library(name) for name in library_names
        )
        return {shard: counts.get(shard, 0) for shard in range(self.shards)}
