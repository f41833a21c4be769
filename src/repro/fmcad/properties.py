"""Typed property bags, and the journal that makes version bags durable.

Figure 2 attaches ``Property`` records to FMCAD design objects.  Properties
are the framework's open-ended annotation mechanism (tool options, design
intent, coupling bookkeeping); the coupling layer uses them to tag
cellviews with JCF identities.

A library keeps its versions' properties in one append-only
:class:`PropertyJournal` next to its ``.meta``, not in a file per
version: one line per property set, each with its own checksum.
"""

from __future__ import annotations

import json
import os
import pathlib
import zlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import PropertyError
from repro.oms import durable

#: Property value types FMCAD supports.
_ALLOWED_TYPES = (str, int, float, bool)


class PropertyBag:
    """An ordered mapping of named, scalar-typed properties."""

    def __init__(self) -> None:
        self._props: Dict[str, Any] = {}
        #: called after every set or delete (a library marks the owning
        #: version's bag for its next journal flush)
        self.on_change: Optional[Callable[[], None]] = None

    def set(self, name: str, value: Any) -> None:
        """Set property *name*; value must be a scalar (str/int/float/bool)."""
        if not name or not isinstance(name, str):
            raise PropertyError(f"invalid property name: {name!r}")
        if not isinstance(value, _ALLOWED_TYPES):
            raise PropertyError(
                f"property {name!r}: unsupported value type "
                f"{type(value).__name__}"
            )
        self._props[name] = value
        if self.on_change is not None:
            self.on_change()

    def get(self, name: str, default: Any = None) -> Any:
        return self._props.get(name, default)

    def require(self, name: str) -> Any:
        """Return property *name*; raise if absent."""
        if name not in self._props:
            raise PropertyError(f"missing property {name!r}")
        return self._props[name]

    def delete(self, name: str) -> None:
        if name not in self._props:
            raise PropertyError(f"missing property {name!r}")
        del self._props[name]
        if self.on_change is not None:
            self.on_change()

    def __contains__(self, name: str) -> bool:
        return name in self._props

    def __len__(self) -> int:
        return len(self._props)

    def items(self) -> Iterator[Tuple[str, Any]]:
        return iter(sorted(self._props.items()))

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._props)

    def copy_from(self, other: "PropertyBag") -> None:
        """Merge all properties of *other* into this bag (other wins)."""
        for name, value in other.items():
            self.set(name, value)


#: what a journal line keys its bag by: cell, view, version number and
#: the version's created tick (a reused number never has the same tick)
JournalKey = Tuple[str, str, int, int]


def encode_line(key: JournalKey, props: Dict[str, Any]) -> bytes:
    """One journal line: ``<crc32> <cell>|<view>|<number>|<tick>|<bag>``.

    The bag is compact JSON, written whole, so the last line for a key
    is its version's complete property set.
    """
    cell, view, number, tick = key
    body = (
        f"{cell}|{view}|{number}|{tick}|"
        + json.dumps(props, sort_keys=True, separators=(",", ":"))
    ).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(body), body)


def _decode_line(line: bytes) -> Tuple[Optional[JournalKey], Any]:
    """``(key, bag)`` of a sound line, else ``(None, classification)``."""
    crc, _, body = line.partition(b" ")
    try:
        if int(crc, 16) != zlib.crc32(body):
            return None, "bit-rot"
        cell, view, number, tick, bag = body.decode("utf-8").split("|", 4)
        props = json.loads(bag)
        return (cell, view, int(number), int(tick)), dict(props)
    except (ValueError, TypeError):
        return None, "torn-write"


class PropertyJournal:
    """A library's append-only, line-checksummed property log.

    :meth:`append` writes every line of one flush with one ``write`` and
    one fsync.  A crash mid-append leaves a torn final line, which
    :meth:`read` reports apart from damage: it never held anything a
    ``.meta`` names, because the library fsyncs its lines before the
    ``.meta`` naming their versions.
    """

    def __init__(self, path: pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        #: whether this process has fsynced the directory entry naming
        #: the journal since it first appended to it
        self._entry_synced = False

    def append(self, data: bytes) -> None:
        """Append *data* (whole lines) and fsync it.

        A write that fails is cut back off, so the next append never
        lands behind a partial line.
        """
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            start = os.lseek(fd, 0, os.SEEK_END)
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
            except BaseException:
                os.ftruncate(fd, start)
                raise
            os.fsync(fd)
        finally:
            os.close(fd)
        if not self._entry_synced:
            durable.fsync_dir(self.path.parent)
            self._entry_synced = True

    def rewrite(self, data: bytes) -> None:
        """Durably replace the whole journal with *data*."""
        durable.atomic_replace(self.path, data)
        self._entry_synced = True

    def read(
        self,
    ) -> Tuple[List[Tuple[JournalKey, Dict[str, Any], bytes]],
               List[Tuple[int, str]], bool]:
        """``(entries, damaged, torn)`` of the journal on disk.

        *entries* are ``(key, bag, line)`` of every sound line in file
        order; *damaged* are ``(line number, classification)`` of whole
        lines that fail their checksum; *torn* says whether the file ends
        in a partial line.
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return [], [], False
        lines = raw.split(b"\n")
        torn = lines.pop() != b""
        entries = []
        damaged = []
        for number, line in enumerate(lines, 1):
            key, decoded = _decode_line(line)
            if key is None:
                damaged.append((number, decoded))
            else:
                entries.append((key, decoded, line + b"\n"))
        return entries, damaged, torn
