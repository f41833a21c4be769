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
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
from typing import Dict, List, Optional, Tuple

from repro.errors import MetaFileError, MetaIntegrityError
from repro.faults import corruption_point
from repro.oms import durable

_HEADER = "#FMCAD-META 1"
#: version 2 adds a per-record content digest column and a whole-file
#: checksum trailer; version-1 files (no digests, no trailer) still read
_HEADER_V2 = "#FMCAD-META 2"
_TRAILER_PREFIX = b"#sha256="


@dataclasses.dataclass(frozen=True)
class MetaRecord:
    """One line of the ``.meta`` file: one cellview version on disk.

    ``digest`` is the SHA-256 content address of the version file the
    record describes — empty for records read from version-1 files that
    predate verified reads.
    """

    cell: str
    view: str
    viewtype: str
    version: int
    filename: str
    author: str
    tick: int
    digest: str = ""

    def to_line(self) -> str:
        return "|".join(
            [
                self.cell,
                self.view,
                self.viewtype,
                str(self.version),
                self.filename,
                self.author,
                str(self.tick),
                self.digest,
            ]
        )

    @classmethod
    def from_line(cls, line: str) -> "MetaRecord":
        parts = line.split("|")
        if len(parts) == 7:
            parts = parts + [""]  # version-1 record: no digest column
        if len(parts) != 8:
            raise MetaFileError(f"malformed .meta record: {line!r}")
        cell, view, viewtype, version, filename, author, tick, digest = parts
        try:
            return cls(
                cell=cell,
                view=view,
                viewtype=viewtype,
                version=int(version),
                filename=filename,
                author=author,
                tick=int(tick),
                digest=digest,
            )
        except ValueError as exc:
            raise MetaFileError(f"malformed .meta record: {line!r}") from exc


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

    # -- I/O -----------------------------------------------------------------

    def write(self, records: List[MetaRecord], tick: int, user: str) -> int:
        """Serialise *records*; caller must hold the writer lock.

        Returns the number of bytes written.

        The file is written version-2: a whole-file checksum trailer
        (``#sha256=<hex>;bytes=<n>`` over everything before it) makes
        torn writes and bit-rot detectable, and the bytes land via a
        temp-file + atomic rename so a crash mid-write can never leave a
        half-written ``.meta`` poisoning the whole library — readers see
        either the old complete file or the new complete file.
        """
        if self._writer != user:
            raise MetaFileError(
                f"write to .meta without the writer lock (held by "
                f"{self._writer!r}, writer {user!r})"
            )
        lines = [_HEADER_V2, f"tick={tick}"]
        lines.extend(
            record.to_line()
            for record in sorted(
                records, key=lambda r: (r.cell, r.view, r.version)
            )
        )
        body = ("\n".join(lines) + "\n").encode("utf-8")
        trailer = (
            _TRAILER_PREFIX
            + hashlib.sha256(body).hexdigest().encode("ascii")
            + b";bytes=%d\n" % len(body)
        )
        encoded = corruption_point("fmcad.meta", body + trailer)
        # fsync-then-rename through the shared durability helper: the
        # temp file is flushed before the atomic rename and the directory
        # entry after it, so a power cut can never publish a .meta whose
        # bytes are still in the page cache ("relaxed" mode skips both
        # fsyncs but keeps the same write sequence)
        durable.atomic_replace(self.path, encoded)
        return len(encoded)

    def read(self) -> Tuple[List[MetaRecord], int]:
        """Parse the ``.meta`` file; returns (records, tick).

        Version-2 files carry a checksum trailer which is verified here:
        a mismatch raises :class:`MetaIntegrityError` classified as
        truncation (content shorter than recorded), torn-write (longer
        or structurally wrong), or bit-rot (same length, wrong hash).
        Version-1 files have no trailer and parse as before.
        """
        if not self.path.exists():
            return [], 0
        raw = self.path.read_bytes()
        body = self._verified_body(raw)
        lines = body.decode("utf-8", errors="replace").splitlines()
        if not lines or lines[0] not in (_HEADER, _HEADER_V2):
            raise MetaFileError(f"{self.path}: missing {_HEADER!r} header")
        if len(lines) < 2 or not lines[1].startswith("tick="):
            raise MetaFileError(f"{self.path}: missing tick line")
        try:
            tick = int(lines[1][len("tick="):])
        except ValueError as exc:
            raise MetaFileError(f"{self.path}: bad tick line {lines[1]!r}") from exc
        records = [
            MetaRecord.from_line(line)
            for line in lines[2:]
            if line and not line.startswith("#")
        ]
        return records, tick

    def _verified_body(self, raw: bytes) -> bytes:
        """Strip and verify the checksum trailer; returns the body bytes.

        A version-2 header promises a trailer, so its absence is itself a
        truncation finding.  Version-1 files are passed through whole.
        """
        idx = raw.rfind(b"\n" + _TRAILER_PREFIX)
        trailer = b""
        if raw.startswith(_TRAILER_PREFIX):  # pathological: trailer only
            idx, trailer, raw_body = -1, raw, b""
        elif idx != -1:
            raw_body, trailer = raw[:idx + 1], raw[idx + 1:]
        else:
            raw_body = raw
        if not trailer:
            if raw.startswith(_HEADER_V2.encode("ascii")):
                raise MetaIntegrityError(
                    f"{self.path}: version-2 .meta is missing its checksum "
                    "trailer",
                    location=str(self.path),
                    classification="truncation",
                )
            return raw  # version-1 (or older) file: nothing to verify
        fields = trailer[len(_TRAILER_PREFIX):].strip().split(b";bytes=")
        if len(fields) != 2:
            raise MetaIntegrityError(
                f"{self.path}: unparseable checksum trailer",
                location=str(self.path),
                classification="torn-write",
            )
        try:
            expected_hex = fields[0].decode("ascii")
            expected_len = int(fields[1])
        except (UnicodeDecodeError, ValueError) as exc:
            raise MetaIntegrityError(
                f"{self.path}: unparseable checksum trailer",
                location=str(self.path),
                classification="torn-write",
            ) from exc
        if hashlib.sha256(raw_body).hexdigest() != expected_hex:
            if len(raw_body) < expected_len:
                classification = "truncation"
            elif len(raw_body) > expected_len:
                classification = "torn-write"
            else:
                classification = "bit-rot"
            raise MetaIntegrityError(
                f"{self.path}: .meta content fails its checksum "
                f"({classification}; {len(raw_body)} bytes, recorded "
                f"{expected_len})",
                location=str(self.path),
                classification=classification,
            )
        return raw_body

    def verify(self) -> Optional[str]:
        """Damage classification of the on-disk file, ``None`` if clean.

        Structural damage an integrity check cannot name more precisely
        (a broken header, a malformed record in a version-1 file) is
        reported as torn-write — the scrubber treats both the same way.
        """
        try:
            self.read()
        except MetaIntegrityError as exc:
            return exc.classification or "torn-write"
        except MetaFileError:
            return "torn-write"
        return None

    def tick(self) -> int:
        """The tick recorded in the on-disk file (0 when absent)."""
        return self.read()[1]

    def index(self) -> Dict[Tuple[str, str, int], MetaRecord]:
        """Records keyed by (cell, view, version)."""
        records, _ = self.read()
        return {(r.cell, r.view, r.version): r for r in records}
