"""Consistent-hash shard map."""

from __future__ import annotations

import pytest

from repro.server.shards import ShardMap


class TestShardMap:
    def test_single_shard_takes_everything(self):
        shard_map = ShardMap(1)
        assert {shard_map.shard_of_library(f"lib{i}") for i in range(50)} == {0}

    def test_assignment_is_stable(self):
        a, b = ShardMap(4), ShardMap(4)
        for i in range(100):
            name = f"lib{i:03d}"
            assert a.shard_of_library(name) == b.shard_of_library(name)

    def test_all_shards_get_libraries(self):
        shard_map = ShardMap(4)
        spread = shard_map.spread(f"lib{i:03d}" for i in range(64))
        assert set(spread) == {0, 1, 2, 3}
        assert all(count > 0 for count in spread.values())

    def test_resize_moves_bounded_fraction(self):
        """Consistent hashing: growing 4 -> 5 shards remaps ~1/5, not all."""
        names = [f"lib{i:04d}" for i in range(500)]
        before = ShardMap(4)
        after = ShardMap(5)
        moved = sum(
            1
            for name in names
            if before.shard_of_library(name) != after.shard_of_library(name)
        )
        # expected ~100; anything under half shows stability (plain
        # modulo hashing would move ~80%)
        assert moved < len(names) // 2

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ShardMap(0)
        with pytest.raises(ValueError):
            ShardMap(2, replicas=0)
