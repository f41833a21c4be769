"""Property tests: the read-path shortcuts never change a byte.

Reflink clones and the materialization cache buy performance only — the
public contract is that they yield exactly the bytes the digest names:

* ``reflink_file`` either lands identical bytes on a private inode or
  leaves no destination at all, and never writes through a previous
  destination's hard-link peers — with the filesystem's own FICLONE and
  with a copying stand-in;
* a cached store and an uncached store serve identical bytes through
  arbitrary intern/read interleavings.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.oms.blobs import BlobStore
from repro.oms.readcache import MaterializationCache
from repro.oms.zerocopy import reflink_file


@pytest.fixture(params=["real", "fake"])
def primitive(request):
    """Run once with the filesystem's own FICLONE, once with a stand-in."""
    if request.param == "fake":
        request.getfixturevalue("fake_reflink")


#: the primitive is patched once per test, not per example
_per_test_patch = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestReflinkFile:
    @_per_test_patch
    @given(data=st.binary(min_size=0, max_size=1 << 16))
    def test_identical_private_clone_or_nothing(
        self, tmp_path_factory, primitive, data
    ):
        root = tmp_path_factory.mktemp("clone")
        src = root / "src.dat"
        dst = root / "dst.dat"
        src.write_bytes(data)
        if reflink_file(src, dst):
            assert dst.read_bytes() == data
            assert dst.stat().st_ino != src.stat().st_ino
        else:
            assert not dst.exists()

    @_per_test_patch
    @given(
        data=st.binary(max_size=4096), previous=st.binary(max_size=4096)
    )
    def test_old_destination_is_unlinked(
        self, tmp_path_factory, primitive, data, previous
    ):
        root = tmp_path_factory.mktemp("clone")
        src = root / "src.dat"
        dst = root / "dst.dat"
        peer = root / "peer.dat"
        src.write_bytes(data)
        dst.write_bytes(previous)
        os.link(dst, peer)
        cloned = reflink_file(src, dst)
        # the hard-link peer of the old destination keeps its bytes
        assert peer.read_bytes() == previous
        assert peer.stat().st_nlink == 1
        assert dst.exists() == cloned
        if cloned:
            assert dst.read_bytes() == data

    @_per_test_patch
    @given(data=st.binary(min_size=1, max_size=4096))
    def test_editing_clone_spares_source(
        self, tmp_path_factory, primitive, data
    ):
        root = tmp_path_factory.mktemp("clone")
        src = root / "src.dat"
        dst = root / "dst.dat"
        src.write_bytes(data)
        if not reflink_file(src, dst):
            return  # refused: nothing landed, so nothing to edit
        with open(dst, "r+b") as handle:
            handle.write(b"EDITED")
        assert src.read_bytes() == data


# interleavings of (intern chain-index, read chain-index) operations
_ops = st.lists(
    st.tuples(
        st.sampled_from(["intern", "read"]),
        st.integers(min_value=0, max_value=4),
    ),
    max_size=25,
)


class TestCacheTransparency:
    @settings(max_examples=40, deadline=None)
    @given(ops=_ops, payload_seeds=st.lists(
        st.integers(min_value=0, max_value=7), min_size=5, max_size=5
    ))
    def test_cached_and_uncached_stores_agree(self, ops, payload_seeds):
        """The cache is invisible: same bytes, same errors, all reads."""
        payloads = [
            bytes([seed % 5]) * (seed * 37) for seed in payload_seeds
        ]
        cached = BlobStore()
        cached.attach_cache(MaterializationCache(budget_bytes=256))
        plain = BlobStore()
        digests = {}
        for kind, index in ops:
            payload = payloads[index]
            if kind == "intern":
                a = cached.intern(payload)
                b = plain.intern(payload)
                assert a == b
                digests[index] = a
            elif index in digests:
                assert (
                    cached.materialize(digests[index])
                    == plain.materialize(digests[index])
                    == payload
                )
        # invariants hold on both sides whatever the interleaving did
        cached.check()
        plain.check()
