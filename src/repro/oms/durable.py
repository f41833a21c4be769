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

Durability modes
----------------

Real fsyncs dominate wall-clock in a test suite that creates thousands
of tiny files, so every helper honours a process-wide durability mode:

* ``"full"`` (default) — fsync file and parent directory as described;
* ``"relaxed"`` — skip the fsyncs but keep the write/rename sequence
  byte-identical, so crash-*consistency* (what a torn run leaves on
  disk) is unchanged and only power-loss durability is waived.

Callers may pin a mode per call site; the test suite switches the
process default to ``"relaxed"`` and durability-specific tests opt back
into ``"full"`` via the :func:`durability` context manager.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import threading
from typing import Dict, Iterator, List, Optional, Union

DURABILITY_FULL = "full"
DURABILITY_RELAXED = "relaxed"
DURABILITY_MODES = (DURABILITY_FULL, DURABILITY_RELAXED)

_state = threading.local()
_default_mode = DURABILITY_FULL
_default_lock = threading.Lock()

PathLike = Union[str, pathlib.Path]


def _validate(mode: str) -> str:
    if mode not in DURABILITY_MODES:
        raise ValueError(
            f"unknown durability mode {mode!r}; expected one of "
            f"{DURABILITY_MODES}"
        )
    return mode


def set_default_durability(mode: str) -> None:
    """Set the process-wide default durability mode."""
    global _default_mode
    with _default_lock:
        _default_mode = _validate(mode)


def get_default_durability() -> str:
    """The mode used when a helper is called with ``mode=None``."""
    override = getattr(_state, "override", None)
    if override is not None:
        return override
    return _default_mode


@contextlib.contextmanager
def durability(mode: str) -> Iterator[None]:
    """Temporarily force a durability mode for the current thread."""
    _validate(mode)
    previous = getattr(_state, "override", None)
    _state.override = mode
    try:
        yield
    finally:
        _state.override = previous


def _resolved(mode: Optional[str]) -> str:
    if mode is None:
        return get_default_durability()
    return _validate(mode)


def fsync_file(path: PathLike, mode: Optional[str] = None) -> None:
    """Force a file's contents to stable storage (no-op when relaxed)."""
    if _resolved(mode) != DURABILITY_FULL:
        return
    fd = os.open(os.fspath(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_fd(fd: int, mode: Optional[str] = None) -> None:
    """Fsync an open file descriptor (no-op when relaxed)."""
    if _resolved(mode) != DURABILITY_FULL:
        return
    os.fsync(fd)


def fsync_dir(path: PathLike, mode: Optional[str] = None) -> None:
    """Force a directory entry table to stable storage.

    Needed after ``os.replace``/``os.link``/``unlink`` so the *name*
    survives power loss, not just the inode contents.  Platforms that
    refuse ``fsync`` on directories are tolerated.
    """
    if _resolved(mode) != DURABILITY_FULL:
        return
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

    def fsync(self, mode: Optional[str] = None) -> None:
        """Fsync each file that still exists, then once each directory.

        A file gone by now was unlinked on purpose (a compensated
        checkin drops its own version file), so there is nothing left
        to make durable.
        """
        for path in self.files:
            try:
                fsync_file(path, mode=mode)
            except FileNotFoundError:
                pass
        for directory in self.directories:
            fsync_dir(directory, mode=mode)


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
    mode: Optional[str] = None,
    deferrable: bool = False,
    exclusive: bool = False,
) -> None:
    """Write ``data`` to ``path`` and fsync the file.

    A *deferrable* write inside :func:`deferred_fsyncs` leaves the fsync
    to the owner of that block.  An *exclusive* write creates the file
    with ``O_EXCL`` and raises :class:`FileExistsError` when one is
    already there.
    """
    resolved = _resolved(mode)
    pending = getattr(_state, "deferred", None) if deferrable else None
    with open(os.fspath(path), "xb" if exclusive else "wb") as handle:
        handle.write(data)
        handle.flush()
        if pending is not None:
            pending.files.append(pathlib.Path(path))
        elif resolved == DURABILITY_FULL:
            os.fsync(handle.fileno())


def replace(src: PathLike, dst: PathLike, mode: Optional[str] = None) -> None:
    """``os.replace`` followed by a parent-directory fsync."""
    os.replace(os.fspath(src), os.fspath(dst))
    fsync_dir(pathlib.Path(os.fspath(dst)).parent, mode=mode)


def atomic_replace(
    path: PathLike,
    data: bytes,
    mode: Optional[str] = None,
    tmp_suffix: str = ".tmp",
) -> None:
    """Durably publish ``data`` at ``path`` via temp-write + rename.

    The temp file lives next to the target (same suffix convention as
    the pre-existing call sites, so stale-temp sweeps keep working), is
    fsynced before the rename, and the parent directory is fsynced
    after — the full crash-safe publication sequence.
    """
    target = pathlib.Path(os.fspath(path))
    tmp = target.with_name(target.name + tmp_suffix)
    write_bytes(tmp, data, mode=mode)
    replace(tmp, target, mode=mode)
