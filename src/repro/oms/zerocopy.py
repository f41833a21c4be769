"""Zero-copy cloning: one reflink attempt, probed once per filesystem.

A writable staging export or an FMCAD checkout needs a private copy of
bytes that already sit in another file.  Where the filesystem supports
**reflink** (``FICLONE``: btrfs/XFS/ZFS), the destination can share the
source's extents copy-on-write — O(1) regardless of size, and still a
private inode, because the first write to either file unshares its
blocks.  ext4 refuses with ``EOPNOTSUPP``; callers then take the write
path they already have.

Capabilities differ per filesystem, so they are probed **once per store
root** (two scratch files, one clone attempt) and cached by resolved
path.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import threading
from typing import Dict

#: ioctl request number of FICLONE on Linux (_IOW(0x94, 9, int))
_FICLONE = 0x40049409


@dataclasses.dataclass(frozen=True)
class FsCapabilities:
    """What the filesystem under one store root can do for us."""

    reflink: bool

    def describe(self) -> str:
        return "reflink" if self.reflink else "copy-only"


#: probe results cached per resolved root — the probe costs two scratch
#: files and a few syscalls, and a filesystem does not change its mind
_probed: Dict[str, FsCapabilities] = {}
_probe_lock = threading.Lock()


def reflink_supported(src_fd: int, dst_fd: int) -> bool:
    """One FICLONE attempt; False on any refusal (EOPNOTSUPP, EXDEV, ...)."""
    try:
        import fcntl

        fcntl.ioctl(dst_fd, _FICLONE, src_fd)
        return True
    except OSError:
        return False
    except (ImportError, AttributeError):  # pragma: no cover - non-Linux
        return False


def probe_capabilities(root: pathlib.Path) -> FsCapabilities:
    """Probe (once) whether the filesystem under *root* can reflink."""
    root = pathlib.Path(root)
    root.mkdir(parents=True, exist_ok=True)
    key = str(root.resolve())
    # concurrent runs stage into one root: one probe at a time, or two
    # would race on the same scratch names
    with _probe_lock:
        caps = _probed.get(key)
        if caps is None:
            caps = _probe(root)
            _probed[key] = caps
    return caps


def _probe(root: pathlib.Path) -> FsCapabilities:
    src = root / ".caps_probe_src"
    dst = root / ".caps_probe_dst"
    try:
        src.write_bytes(b"capability probe\n")
        return FsCapabilities(reflink=reflink_file(src, dst))
    finally:
        for scratch in (src, dst):
            try:
                scratch.unlink()
            except FileNotFoundError:
                pass


def reflink_file(src: pathlib.Path, dst: pathlib.Path) -> bool:
    """Reflink *src* onto a private inode at *dst*; False when refused.

    Any previous file at *dst* is unlinked first, so hard-link peers of
    it are never mutated.  On refusal *dst* does not exist afterwards —
    the caller writes the bytes itself.
    """
    try:
        dst.unlink()
    except FileNotFoundError:
        pass
    cloned = False
    src_fd = os.open(src, os.O_RDONLY)
    try:
        dst_fd = os.open(dst, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            cloned = reflink_supported(src_fd, dst_fd)
        finally:
            os.close(dst_fd)
    finally:
        os.close(src_fd)
        if not cloned:
            try:
                dst.unlink()
            except FileNotFoundError:
                pass
    return cloned
