"""The library ``.meta`` file.

Section 2.2: "The library consists of a UNIX directory and the related
``.meta``-file describes the contents of the directory (metadata)."  Two
consequences matter for the evaluation and are modelled exactly:

* there is **one** ``.meta`` file per library, so concurrent designers
  contend on a single writer lock ("severe locking problems",
  Section 3.1);
* the ``.meta`` content is refreshed **manually** — the in-memory picture
  a designer works with can be stale relative to the directory until they
  refresh (Section 2.2: "it is the responsibility of the designer to keep
  his design up to date").

On disk the file is a checksummed snapshot followed by appended
batches of CRC'd lines; DESIGN.md §7 gives the format and its rules.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import threading
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import MetaFileError, MetaIntegrityError
from repro.faults import corruption_point
from repro.oms import durable

_HEADER = b"#FMCAD-META 2\n"
_TRAILER_PREFIX = b"#sha256="

#: what a property line keys its bag by: cell, view and version number
BagKey = Tuple[str, str, int]
Bags = List[Tuple[BagKey, Dict[str, Any]]]


@dataclasses.dataclass(frozen=True)
class MetaRecord:
    """One cellview version on disk; ``digest`` addresses its file."""

    cell: str
    view: str
    viewtype: str
    version: int
    filename: str
    author: str
    tick: int
    digest: str = ""

    def to_line(self) -> str:
        return (
            f"{self.cell}|{self.view}|{self.viewtype}|{self.version}|"
            f"{self.filename}|{self.author}|{self.tick}|{self.digest}"
        )

    @classmethod
    def from_line(cls, line: str) -> "MetaRecord":
        try:
            cell, view, viewtype, version, filename, author, tick, digest = (
                line.split("|")
            )
            return cls(cell, view, viewtype, int(version), filename, author,
                       int(tick), digest)
        except ValueError as exc:
            raise MetaFileError(f"malformed .meta record: {line!r}") from exc


@dataclasses.dataclass
class MetaContents:
    """What a read of ``.meta`` found."""

    records: List[MetaRecord]
    tick: int
    #: the last sound bag written for each recorded version
    bags: Dict[BagKey, Dict[str, Any]]
    #: line numbers of property lines that failed their checksum
    damaged: List[int]
    #: bytes up to the last closing line: where the next batch goes
    end: int
    snapshot_size: int
    #: whether a batch without its closing line follows *end*
    torn: bool = False


def _line(body: bytes) -> bytes:
    return b"%08x %s\n" % (zlib.crc32(body), body)


def _batch(records: List[MetaRecord], bags: Bags, tick: int) -> bytes:
    lines = [_line(b"r " + r.to_line().encode("utf-8")) for r in records]
    for (cell, view, number), props in bags:
        bag = json.dumps(props, sort_keys=True, separators=(",", ":"))
        lines.append(_line(f"p {cell}|{view}|{number}|{bag}".encode("utf-8")))
    lines.append(_line(b"tick=%d versions=%d" % (tick, len(records))))
    return b"".join(lines)


def _record_bytes(records: List[MetaRecord]) -> int:
    return sum(len(r.to_line().encode("utf-8")) + 1 for r in records)


class MetaFile:
    """Reader/writer for a library's single ``.meta`` file.

    A cooperative single-writer lock models the coordination burden: a
    writer must :meth:`acquire` before :meth:`write`; concurrent acquire
    attempts fail and are counted as contention events, which the
    Section 3.1 experiment aggregates.
    """

    def __init__(self, path: pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self._writer: Optional[str] = None
        #: contention accounting for bench_multiuser
        self.contended_acquires = 0
        self.total_acquires = 0
        #: serialises this process's writes and the reads that check them
        self._io = threading.RLock()
        #: where the next batch goes; ``None`` when the next write must
        #: be a snapshot (none known, records dropped, or damage seen)
        self._end: Optional[int] = None
        self._snapshot_size = 0
        #: tick of the last write (or of the file when it was loaded)
        self._tick = 0
        #: bytes the version records take in a snapshot
        self._records_size = 0

    # -- locking -------------------------------------------------------------

    @property
    def writer(self) -> Optional[str]:
        """User currently holding the writer lock, if any."""
        return self._writer

    def acquire(self, user: str) -> bool:
        """Try to take the writer lock; False (and a contention tick) if held."""
        self.total_acquires += 1
        if self._writer is not None and self._writer != user:
            self.contended_acquires += 1
            return False
        self._writer = user
        return True

    def release(self, user: str) -> None:
        if self._writer != user:
            raise MetaFileError(
                f".meta writer lock held by {self._writer!r}, not {user!r}"
            )
        self._writer = None

    def _check_writer(self, user: str) -> None:
        if self._writer != user:
            raise MetaFileError(
                f"write to .meta without the writer lock (held by "
                f"{self._writer!r}, writer {user!r})"
            )

    # -- writing -------------------------------------------------------------

    def write(
        self, records: List[MetaRecord], tick: int, user: str,
        bags: Bags = (),
    ) -> int:
        """Replace the file with a snapshot; returns the bytes written.

        The caller holds the writer lock.  A temp file is fsynced and
        renamed over ``.meta`` (then the directory is fsynced), so a
        crash never leaves a half-written snapshot.
        """
        self._check_writer(user)
        lines = [
            record.to_line().encode("utf-8") + b"\n"
            for record in sorted(
                records, key=lambda r: (r.cell, r.view, r.version)
            )
        ]
        body = _HEADER + b"tick=%d\n" % tick + b"".join(lines)
        data = body + _TRAILER_PREFIX + b"%s;bytes=%d\n" % (
            hashlib.sha256(body).hexdigest().encode("ascii"), len(body)
        )
        if bags:
            data += _batch([], list(bags), tick)
        with self._io:
            data = corruption_point("fmcad.meta", data)
            durable.atomic_replace(self.path, data)
            self._end = self._snapshot_size = len(data)
            self._tick = tick
            self._records_size = sum(map(len, lines))
        return len(data)

    def flush(
        self,
        user: str,
        tick: int,
        records: List[MetaRecord],
        bags: Bags,
        everything: Callable[[], Tuple[List[MetaRecord], Bags]],
    ) -> int:
        """Append one batch of *records* and *bags* closed at *tick*.

        Rewrites the snapshot from ``everything()`` instead when no sound
        snapshot is known, records were dropped, or the appended bytes
        would pass the snapshot's size.  A flush with nothing to add
        checks the file, and rewrites it if it is damaged.  Returns what
        a snapshot of the records alone would take, the simulated cost.
        """
        self._check_writer(user)
        with self._io:
            if (records or bags or tick != self._tick or self._end is None
                    or self.findings()):
                batch = _batch(records, bags, tick)
                appended = (self._end or 0) - self._snapshot_size
                if self._end is None or not (
                    appended + len(batch) <= self._snapshot_size
                    and self._append(batch)
                ):
                    named, named_bags = everything()
                    self.write(named, tick, user, named_bags)
                else:
                    self._tick = tick
                    self._records_size += _record_bytes(records)
            body = len(_HEADER) + len(b"tick=%d\n" % tick) + self._records_size
            return body + len(_TRAILER_PREFIX + b";bytes=%d\n" % body) + 64

    def _append(self, batch: bytes) -> bool:
        """Append *batch* with one write and one fsync; False if it can't.

        A torn tail past the known end is cut first, and a failed write
        is cut back off.  A file shorter than the known end (cut at
        rest, or gone) takes no batch.
        """
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        except FileNotFoundError:
            return False
        try:
            size = os.fstat(fd).st_size
            if size < self._end:
                return False
            if size > self._end:
                os.ftruncate(fd, self._end)
            data = corruption_point("fmcad.meta", batch)
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
            except BaseException:
                os.ftruncate(fd, self._end)
                raise
            os.fsync(fd)
        finally:
            os.close(fd)
        self._end += len(data)
        return True

    def rewrite_next(self) -> None:
        """Make the next write a snapshot (a version record was dropped)."""
        self._end = None

    # -- reading -------------------------------------------------------------

    def contents(self) -> MetaContents:
        """Parse the file; an absent file reads as empty.

        A final batch without its closing line is a torn tail and is left
        out.  A line failing its checksum in a batch whose sound records
        still number ``k`` held properties and is skipped.  Other damage
        raises :class:`MetaIntegrityError`, a snapshot failing its trailer
        as truncation (shorter than recorded), torn-write (longer, or
        malformed) or bit-rot (same length).
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return MetaContents([], 0, {}, [], 0, 0)
        text, end = self._verified_snapshot(raw)
        try:
            if text[0] != _HEADER.strip() or not text[1].startswith(b"tick="):
                raise ValueError("no header and tick line")
            records = {}
            for line in text[2:]:
                if not line.startswith(b"#"):
                    r = MetaRecord.from_line(line.decode("utf-8"))
                    records[r.cell, r.view, r.version] = r
            found = MetaContents([], int(text[1][5:]), {}, [], end, end)
        except (IndexError, ValueError, MetaFileError) as exc:
            raise self._damage("a malformed snapshot", "torn-write") from exc
        added: List[MetaRecord] = []
        bags: Bags = []
        damaged: List[int] = []
        first = raw.count(b"\n", 0, end) + 1
        for number, line in enumerate(raw[end:].split(b"\n")[:-1], first):
            end += len(line) + 1
            crc, _, body = line.partition(b" ")
            if crc != b"%08x" % zlib.crc32(body):
                damaged.append(number)
                continue
            kind, _, rest = body.partition(b" ")
            try:
                if kind == b"r":
                    added.append(MetaRecord.from_line(rest.decode("utf-8")))
                    continue
                if kind == b"p":
                    cell, view, version, bag = rest.decode().split("|", 3)
                    bags.append(((cell, view, int(version)), json.loads(bag)))
                    continue
                closing = int(kind.split(b"tick=")[1])
                count = int(rest.split(b"versions=")[1])
            except (IndexError, ValueError, MetaFileError) as exc:
                raise self._damage(f"line {number}", "torn-write") from exc
            if count != len(added):
                raise self._damage(
                    f"line {number} closes {count} records, not "
                    f"{len(added)}", "bit-rot",
                )
            records.update(((r.cell, r.view, r.version), r) for r in added)
            found.bags.update((k, bag) for k, bag in bags if k in records)
            found.tick, found.end = closing, end
            found.damaged += damaged
            added, bags, damaged = [], [], []
        if damaged:
            raise self._damage(
                f"line {damaged[0]} of an unclosed batch", "bit-rot"
            )
        found.torn = found.end < len(raw)
        found.records = list(records.values())
        return found

    def _damage(self, what: str, classification: str) -> MetaIntegrityError:
        return MetaIntegrityError(
            f"{self.path}: {what} ({classification})",
            location=str(self.path),
            classification=classification,
        )

    def _verified_snapshot(self, raw: bytes) -> Tuple[List[bytes], int]:
        """The snapshot's lines, and where its trailer line ends."""
        cut = raw.find(b"\n" + _TRAILER_PREFIX) + 1
        if cut == 0:
            raise self._damage("no checksum trailer", "truncation")
        end = raw.find(b"\n", cut) + 1
        fields = raw[cut + len(_TRAILER_PREFIX):end or len(raw)].strip()
        try:
            expected_hex, expected_len = fields.split(b";bytes=")
            expected_len = int(expected_len)
        except ValueError as exc:
            raise self._damage("a bad checksum trailer", "torn-write") from exc
        body = raw[:cut]
        if hashlib.sha256(body).hexdigest().encode("ascii") != expected_hex:
            classification = (
                "truncation" if len(body) < expected_len
                else "torn-write" if len(body) > expected_len else "bit-rot"
            )
            raise self._damage(
                f"a snapshot failing its checksum ({len(body)} bytes, "
                f"recorded {expected_len})", classification,
            )
        if end == 0:
            raise self._damage("a cut trailer line", "truncation")
        return body.splitlines(), end

    def load(self) -> MetaContents:
        """:meth:`contents`, taken as where this writer's batches go."""
        with self._io:
            found = self.contents()
            sound = found.snapshot_size and not found.damaged
            self._end = found.end if sound else None
            self._snapshot_size = found.snapshot_size
            self._tick = found.tick
            self._records_size = _record_bytes(found.records)
        return found

    def findings(self) -> List[Tuple[str, str]]:
        """``(location, classification)`` of each damage on disk.

        A damaged property line is at ``<path>:<line>``, other damage at
        the file.  Damage but a torn tail makes the next write a snapshot.
        """
        with self._io:
            try:
                found = self.contents()
            except MetaFileError as exc:
                self._end = None
                return [(str(self.path),
                         getattr(exc, "classification", "") or "torn-write")]
            if found.damaged:
                self._end = None
        located = [(f"{self.path}:{n}", "bit-rot") for n in found.damaged]
        if found.torn:
            located.append((str(self.path), "torn-write"))
        return located

    def verify(self) -> Optional[str]:
        """Damage classification of the on-disk file, ``None`` if clean."""
        located = self.findings()
        return located[0][1] if located else None

    def read(self) -> Tuple[List[MetaRecord], int]:
        """``(records, tick)`` of the file; see :meth:`contents`."""
        found = self.contents()
        return found.records, found.tick

    def index(self) -> Dict[Tuple[str, str, int], MetaRecord]:
        """Records keyed by (cell, view, version)."""
        records, _ = self.read()
        return {(r.cell, r.view, r.version): r for r in records}
