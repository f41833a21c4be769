"""Durable file writes: fsync-then-rename helpers.

The seed's at-rest artifacts (``.meta`` files, snapshots, archives)
were written with the classic temp-file + :func:`os.replace` idiom.
That is *rename-atomic* — a reader never observes a half-written file —
but it is not *power-loss durable*: neither the file contents nor the
directory entry are forced to stable storage, so a crash shortly after
the rename can surface the old file, an empty file, or nothing at all.

This module centralises the missing :func:`os.fsync` placement:

* :func:`write_bytes` — write + flush + fsync the file itself;
* :func:`atomic_replace` — durable temp write, ``os.replace``, then
  fsync of the **parent directory** so the rename itself is durable;
* :func:`replace` / :func:`fsync_dir` — for callers that build the
  temp file themselves (tar archives, WAL segments);
* :func:`fsync_entry` / :func:`make_dirs` — make a new name durable
  in its directory;
* :func:`deferred_fsyncs` — for a caller that must write files and
  names now but may make them durable later, off a serial path (a
  scheduled run's version files, written inside its commit turn and
  fsynced after it).

Every helper always fsyncs: an acked write survives power loss in
every configuration the library ships.  The test suite keeps its speed
by replacing :func:`os.fsync` with a no-op for the session, not by
switching this code; the helpers therefore look ``os.fsync`` up on the
``os`` module at call time, so a wrapper installed there (a tracer, a
recording test stub) sees every call.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import threading
from typing import Dict, Iterator, List, Union

from repro.faults import fault_point

_state = threading.local()

PathLike = Union[str, pathlib.Path]


def fsync_file(path: PathLike) -> None:
    """Force a file's contents to stable storage."""
    fd = os.open(os.fspath(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: PathLike) -> None:
    """Force a directory entry table to stable storage.

    Needed after ``os.replace``/``os.link``/``unlink`` so the *name*
    survives power loss, not just the inode contents.  Platforms that
    refuse ``fsync`` on directories are tolerated.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def fsync_entry(path: PathLike) -> None:
    """Make the directory entry naming *path* durable.

    Fsyncs the directory holding *path*, or, inside
    :func:`deferred_fsyncs`, leaves that to the block's owner.
    """
    directory = pathlib.Path(path).parent
    pending = getattr(_state, "deferred", None)
    if pending is None:
        fsync_dir(directory)
    else:
        pending.directories[directory] = None


def make_dirs(path: PathLike) -> None:
    """Create directory *path* and its missing parents, names durable.

    Each directory this call creates gets :func:`fsync_entry`; one that
    already exists costs nothing more than the ``mkdir`` that found it.
    """
    path = pathlib.Path(path)
    try:
        path.mkdir()
    except FileExistsError:
        return
    except FileNotFoundError:
        make_dirs(path.parent)
        make_dirs(path)
        return
    fsync_entry(path)


class Deferred:
    """The fsyncs a :func:`deferred_fsyncs` block left to its owner."""

    def __init__(self) -> None:
        #: files written but not yet fsynced
        self.files: List[pathlib.Path] = []
        #: directories that gained an entry, each listed once
        self.directories: Dict[pathlib.Path, None] = {}

    def fsync(self) -> None:
        """Fsync each file that still exists, then once each directory.

        A file gone by now was unlinked on purpose (a compensated
        checkin drops its own version file), so there is nothing left
        to make durable.
        """
        for path in self.files:
            try:
                fsync_file(path)
            except FileNotFoundError:
                pass
        for directory in self.directories:
            fsync_dir(directory)


@contextlib.contextmanager
def deferred_fsyncs() -> Iterator[Deferred]:
    """Collect, instead of issuing, this thread's deferrable fsyncs.

    Inside the block, ``write_bytes(..., deferrable=True)`` writes its
    file without fsyncing it, and :func:`fsync_entry` does not fsync the
    directory; both are recorded in the yielded :class:`Deferred`.  The
    owner of the block must call its :meth:`~Deferred.fsync` before
    anything that names those files is made durable.
    """
    previous = getattr(_state, "deferred", None)
    pending = Deferred()
    _state.deferred = pending
    try:
        yield pending
    finally:
        _state.deferred = previous


def write_bytes(
    path: PathLike,
    data: bytes,
    deferrable: bool = False,
    exclusive: bool = False,
) -> None:
    """Write ``data`` to ``path`` and fsync the file.

    A *deferrable* write inside :func:`deferred_fsyncs` leaves the fsync
    to the owner of that block.  An *exclusive* write creates the file
    with ``O_EXCL`` and raises :class:`FileExistsError` when one is
    already there.
    """
    pending = getattr(_state, "deferred", None) if deferrable else None
    with open(os.fspath(path), "xb" if exclusive else "wb") as handle:
        handle.write(data)
        handle.flush()
        if pending is not None:
            pending.files.append(pathlib.Path(path))
        else:
            os.fsync(handle.fileno())


def replace(src: PathLike, dst: PathLike) -> None:
    """``os.replace`` followed by a parent-directory fsync."""
    os.replace(os.fspath(src), os.fspath(dst))
    fsync_dir(pathlib.Path(os.fspath(dst)).parent)


def atomic_replace(path: PathLike, data: bytes) -> None:
    """Durably publish ``data`` at ``path`` via temp-write + rename.

    The temp file ``<name>.tmp`` lives next to the target (the suffix
    stale-temp sweeps look for), is fsynced before the rename, and the
    parent directory is fsynced after — the full crash-safe publication
    sequence.
    """
    target = pathlib.Path(os.fspath(path))
    tmp = target.with_name(target.name + ".tmp")
    write_bytes(tmp, data)
    fault_point("durable.before_rename")
    replace(tmp, target)
