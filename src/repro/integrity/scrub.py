"""Background scrubber: detect, classify, repair, quarantine.

The scrubber walks every at-rest representation the coupling owns —
OMS blobs (including delta chains), staged files, FMCAD version files,
``.meta`` files and the ``jcf_oid`` tags they hold, the write-ahead log
(checkpoints, logs, payload pack) — re-verifies each against its
recorded checksum, and classifies what it finds:

* **bit-rot** — same size, wrong bytes (a flipped bit at rest);
* **truncation** — shorter than recorded (an interrupted write);
* **torn-write** — longer or structurally wrong (interleaved writers);
* **missing** — the record survived, the file did not;
* **orphan** — the file survived, no record claims it (a staging
  file's is informational).

In repair mode it heals findings from *verified* peers: the coupling
mirrors every payload on both sides of the master/slave split (OMS blob
<-> FMCAD version file, plus staged copies), so a damaged copy is
re-written from a sibling that first re-proves its own content address;
damaged WAL files are healed by a fresh checkpoint of the live database,
a damaged ``.meta`` is rewritten from the live library, and a
version file that lost its ``.meta`` record is recorded again from the
OMS version whose ``directory_path`` names it and whose payload
matches it; a version that lost its tag while such an OMS version
names its file is listed in :attr:`Scrubber.lost_tags` for the audit.
Repair iterates to a fixpoint — healing a delta base heals every delta
stacked on it — and whatever still fails afterwards is **quarantined**:
blobs are flagged so reads raise :class:`QuarantinedError`, files are
moved into the quarantine directory and recorded in its manifest so
later scrubs treat the loss as known rather than fresh damage.  A
quarantined payload is never served; that is the whole point.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
from typing import Collection, Dict, List, Optional, Tuple

from repro.errors import (
    IntegrityError,
    MetaFileError,
    OMSError,
    QuarantinedError,
)
from repro.fmcad.framework import FMCADFramework
from repro.fmcad.library import Library
from repro.fmcad.objects import CellViewVersion
from repro.jcf.framework import JCFFramework
from repro.oms.objects import OMSObject

#: author recorded on ``.meta`` flushes performed by the scrubber
SCRUB_USER = "scrubber"

#: finding actions
DETECTED = "detected"          # damage found, not (yet) handled
REPAIRED = "repaired"          # healed from a verified peer, re-verified
QUARANTINED = "quarantined"    # unrepairable; flagged/moved, never served
NOTED = "noted"                # informational (staging orphans)


@dataclasses.dataclass
class ScrubFinding:
    """One damaged (or noteworthy) artifact the scrubber saw."""

    area: str            # blob | staging | fmcad-version | meta |
                         # fmcad-record | wal | *-orphan
    location: str        # stable key: blob:<digest>, a path, <path>:<line>
    classification: str  # bit-rot | truncation | torn-write | missing | orphan
    action: str = DETECTED
    detail: str = ""     # owning oid / library name, for repair routing

    @property
    def actionable(self) -> bool:
        return self.action == DETECTED

    def __str__(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return (
            f"[{self.action}] {self.area} {self.location}: "
            f"{self.classification}{extra}"
        )


@dataclasses.dataclass
class ScrubReport:
    """Outcome of one scrub (or scrub-and-repair) pass."""

    findings: List[ScrubFinding]
    rounds: int = 1
    repaired: bool = False  # whether this pass was allowed to repair

    @property
    def clean(self) -> bool:
        """Nothing at all to report — not even informational orphans."""
        return not self.findings

    @property
    def ok(self) -> bool:
        """No *actionable* damage: everything found was repaired,
        already quarantined, or merely informational."""
        return not any(f.actionable for f in self.findings)

    def by_action(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.action] = counts.get(finding.action, 0) + 1
        return counts

    def render(self) -> str:
        if self.clean:
            return "scrub: all stored payloads verify clean"
        lines = [
            "scrub report "
            f"(rounds={self.rounds}, repair={'on' if self.repaired else 'off'}):"
        ]
        for action, count in sorted(self.by_action().items()):
            lines.append(f"  {action}: {count}")
        for finding in self.findings:
            lines.append(f"  - {finding}")
        return "\n".join(lines)


class Scrubber:
    """Walks both frameworks' storage; detects, repairs, quarantines.

    Construct one per hybrid workspace.  ``scrub()`` is report-only;
    ``scrub(repair=True)`` heals what it can and quarantines the rest,
    reaching a fixpoint where a follow-up scrub reports ``ok``.
    """

    #: repair iterations before remaining damage is declared unrepairable;
    #: each round can unlock the next (a repaired delta base heals its
    #: children, a repaired blob becomes a source for its staged copy)
    MAX_ROUNDS = 8

    def __init__(
        self,
        jcf: JCFFramework,
        fmcad: FMCADFramework,
        quarantine_dir: Optional[pathlib.Path] = None,
        user: str = SCRUB_USER,
    ) -> None:
        self.jcf = jcf
        self.fmcad = fmcad
        self.user = user
        root = self.jcf.root.parent
        self.quarantine_dir = pathlib.Path(
            quarantine_dir if quarantine_dir is not None else root / "quarantine"
        )
        self._manifest_path = self.quarantine_dir / "MANIFEST"
        #: location -> classification for everything already quarantined;
        #: findings at these locations are known losses, not fresh damage
        self._manifest: Dict[str, str] = self._load_manifest()
        # routing indexes rebuilt by every _collect pass
        self._version_index: Dict[str, Tuple[Library, CellViewVersion]] = {}
        self._meta_owner: Dict[str, Optional[Library]] = {}
        #: untagged version's file -> oid of the OMS version naming it
        #: with the same payload: the tags the audit gives back
        self.lost_tags: Dict[str, str] = {}
        #: version file path -> (library, its digest, oid of the OMS
        #: version naming it) for files whose ``.meta`` record was lost
        self._lost_records: Dict[str, Tuple[Library, str, str]] = {}

    # -- the entry point -------------------------------------------------------

    def scrub(self, repair: bool = False) -> ScrubReport:
        """One full sweep; with *repair*, iterate to a verified fixpoint."""
        detected = self._collect()
        if not repair:
            return ScrubReport(detected, rounds=1, repaired=False)
        return self.repair(detected)

    def repair(self, detected: List[ScrubFinding]) -> ScrubReport:
        """Heal *detected*, findings of this scrubber's last sweep.

        Each round repairs what it can; a round with no progress
        quarantines what is left.  The store is swept again only after
        a round that repaired or quarantined something.
        """
        outcome: Dict[str, ScrubFinding] = {}
        rounds = 0
        while rounds < self.MAX_ROUNDS:
            rounds += 1
            if rounds > 1:
                detected = self._collect()
            for finding in detected:
                if not finding.actionable and finding.location not in outcome:
                    outcome[finding.location] = finding
            actionable = [f for f in detected if f.actionable]
            if not actionable:
                break
            progress = False
            for finding in actionable:
                if self._repair_one(finding):
                    finding.action = REPAIRED
                    progress = True
                outcome[finding.location] = finding
            if not progress:
                for finding in actionable:
                    if finding.area == "wal":
                        # never moved away: without its checkpoint,
                        # recovery would replay a log that does not reach
                        # back to an empty database and silently lose
                        # state; it stays in place and stays reported
                        continue
                    self._quarantine_one(finding)
                    finding.action = QUARANTINED
                    outcome[finding.location] = finding
        else:
            # closing verification, needed only when no round came back
            # clean: anything still actionable survived MAX_ROUNDS of
            # repair — surface it rather than claim success
            for finding in self._collect():
                if finding.actionable:
                    outcome[finding.location] = finding
        findings = sorted(
            outcome.values(), key=lambda f: (f.area, f.location)
        )
        return ScrubReport(findings, rounds=rounds, repaired=True)

    # -- detection -------------------------------------------------------------

    def _collect(self) -> List[ScrubFinding]:
        """One verification sweep over every storage area."""
        findings: List[ScrubFinding] = []
        self._version_index = {}
        self._meta_owner = {}
        self.lost_tags = {}
        self._lost_records = {}
        # another scrubber may have quarantined since this one's last sweep
        self._manifest = self._load_manifest()

        for digest, classification in sorted(
            self.jcf.db.scrub_payloads().items()
        ):
            findings.append(
                ScrubFinding("blob", f"blob:{digest}", classification)
            )

        for oid, path, classification in self.jcf.staging.verify_staged():
            findings.append(
                ScrubFinding("staging", str(path), classification, detail=oid)
            )
        for path in self.jcf.staging.orphan_files():
            findings.append(
                ScrubFinding(
                    "staging-orphan", str(path), "orphan", action=NOTED
                )
            )

        libraries, unopenable = self.fmcad.all_libraries()
        unrecorded: Dict[str, Library] = {}
        for library in libraries:
            for location, classification in library.metafile.findings():
                self._meta_owner[location] = library
                findings.append(
                    ScrubFinding(
                        "meta", location, classification, detail=library.name
                    )
                )
            for version, vclass in library.scrub_versions():
                location = str(version.path)
                self._version_index[location] = (library, version)
                findings.append(
                    ScrubFinding(
                        "fmcad-version", location, vclass,
                        detail=library.name,
                    )
                )
            try:
                for path in library.orphaned_files():
                    unrecorded[str(path)] = library
            except MetaFileError:
                pass  # already reported as a meta finding above
        findings.extend(self._find_lost_records(libraries, unrecorded))
        for name, classification in unopenable:
            meta_path = str(self.fmcad.root / "libs" / name / ".meta")
            self._meta_owner[meta_path] = None
            findings.append(
                ScrubFinding("meta", meta_path, classification, detail=name)
            )

        if self.jcf.wal is not None:
            for location, classification in self.jcf.wal.verify():
                findings.append(ScrubFinding("wal", location, classification))

        return [f for f in findings if f.location not in self._manifest]

    def _find_lost_records(
        self,
        libraries: List[Library],
        unrecorded: Dict[str, Library],
    ) -> List[ScrubFinding]:
        """Versions that lost their ``jcf_oid`` tag (:attr:`lost_tags`) and
        version files that lost their ``.meta`` record (``fmcad-record``)
        while an OMS version names the file with the same payload: acked
        checkins.  Other unrecorded files are ``fmcad-orphan``s, noted
        only when an OMS version names the file (its bytes or its place
        in the chain disagree).  Both are rare, so the OMS side is read
        only when there is one.
        """
        untagged = {
            str(version.path): version._content_digest
            for library in libraries
            for cellview in library.cellviews()
            for version in cellview.versions
            if version.properties.get("jcf_oid") is None
        }
        digests = {
            path: hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
            for path in unrecorded
        }
        named = self._oms_versions(untagged.keys() | digests.keys())
        for path, digest in untagged.items():
            obj = named.get(path)
            if obj is not None and obj.payload_digest == digest:
                self.lost_tags[path] = obj.oid
        findings: List[ScrubFinding] = []
        for path, library in sorted(unrecorded.items()):
            obj = named.get(path)
            if obj is not None and obj.payload_digest == digests[path] and (
                library.restorable(pathlib.Path(path))
            ):
                self._lost_records[path] = (library, digests[path], obj.oid)
                findings.append(ScrubFinding(
                    "fmcad-record", path, "missing", detail=library.name
                ))
            else:
                findings.append(ScrubFinding(
                    "fmcad-orphan", path, "orphan", detail=library.name,
                    action=DETECTED if obj is None else NOTED,
                ))
        return findings

    def _oms_versions(self, paths: Collection[str]) -> Dict[str, OMSObject]:
        """The OMS version naming each file of *paths* in its
        ``directory_path``, compared below the libraries root: the OMS
        keeps the spelling of the workspace root of the process that
        checked the file in.  Reads the OMS only for non-empty *paths*.
        """
        if not paths:
            return {}
        libs = self.fmcad.root / "libs"
        named = {}
        for obj in self.jcf.db.select("DesignObjectVersion"):
            path = str(libs.joinpath(*pathlib.PurePath(
                obj.get("directory_path") or ""
            ).parts[-4:]))
            if path in paths:
                named[path] = obj
        return named

    # -- repair ----------------------------------------------------------------

    def _repair_one(self, finding: ScrubFinding) -> bool:
        """Try to heal one finding from a verified peer; True on success."""
        if finding.area == "blob":
            digest = finding.location.split(":", 1)[1]
            data = self._peer_bytes(digest, include_blobs=False)
            if data is None:
                return False
            self.jcf.db.repair_payload(digest, data)
            return True
        if finding.area == "staging":
            try:
                return self.jcf.staging.repair_staged(finding.detail)
            except (IntegrityError, OMSError):
                return False  # the OMS side is damaged too — next round
        if finding.area == "fmcad-version":
            indexed = self._version_index.get(finding.location)
            if indexed is None:
                return False
            library, version = indexed
            digest = version._content_digest
            if digest is None:
                return False
            data = self._peer_bytes(digest)
            if data is None:
                return False
            library.repair_version(version, data)
            return True
        if finding.area == "meta":
            library = self._meta_owner.get(finding.location)
            if library is None:
                return False  # closed library: no in-memory records
            if not library.flush_meta(self.user):
                return False  # writer lock contended
            return library.metafile.verify() is None
        if finding.area == "fmcad-record":
            library, digest, oid = self._lost_records[finding.location]
            version = library.restore_version(
                pathlib.Path(finding.location), digest, self.user
            )
            version.properties.set("jcf_oid", oid)
            return library.flush_meta(self.user)
        if finding.area == "wal":
            # the live database is the repair source: a checkpoint
            # rewrites the checkpoint durably and verified, and retires
            # the logs and the payload pack it folds in
            wal = self.jcf.wal
            try:
                wal.checkpoint(self.jcf.db)
            except (IntegrityError, OMSError):
                return False
            return finding.location not in dict(wal.verify())
        return False

    def _peer_bytes(
        self, digest: str, include_blobs: bool = True
    ) -> Optional[bytes]:
        """Bytes proving *digest*, from any verified peer copy.

        Sources, in order of cheapness: the OMS blob store (delta-chain
        re-materialisation, verified), FMCAD version files carrying the
        digest (re-hashed before use), staged files recorded with the
        digest (re-hashed before use).  A corrupt source disqualifies
        itself by failing its own hash, so repair can never launder
        damage from one copy into another.
        """
        if include_blobs:
            try:
                return self.jcf.db.materialize_payload(digest, verify=True)
            except (QuarantinedError, IntegrityError, OMSError):
                pass
        for library in self.fmcad.libraries():
            data = library.verified_version_bytes(digest)
            if data is not None:
                return data
        for staged in self.jcf.staging.staged():
            if staged.digest != digest:
                continue
            try:
                data = staged.path.read_bytes()
            except FileNotFoundError:
                continue
            if hashlib.sha256(data).hexdigest() == digest:
                return data
        return None

    # -- quarantine ------------------------------------------------------------

    def _quarantine_one(self, finding: ScrubFinding) -> None:
        """Take an unrepairable artifact out of service, loudly.

        Blobs are flagged in the store (reads raise
        :class:`QuarantinedError`); files are moved under the quarantine
        directory.  Either way the manifest records the location so the
        next scrub treats it as a known loss — that is what lets
        scrub -> repair -> scrub converge instead of rediscovering the
        same corpse forever.
        """
        if finding.area == "blob":
            # the store's quarantine drops any cached bytes for the
            # digest itself
            digest = finding.location.split(":", 1)[1]
            self.jcf.db.quarantine_payload(digest)
        else:
            path = pathlib.Path(finding.location)
            if path.exists():
                self.quarantine_dir.mkdir(parents=True, exist_ok=True)
                target = self.quarantine_dir / (
                    f"{len(self._manifest):04d}_{path.name}"
                )
                path.replace(target)
            if finding.area == "staging" and finding.detail:
                self.jcf.staging.forget(finding.detail)
            if finding.area == "fmcad-version":
                # a library read must not keep serving the quarantined
                # version from the shared cache; the cached bytes are
                # clean (they proved the digest) but the version is now
                # officially out of service
                self._invalidate_version_cache(finding.location)
        self._manifest[finding.location] = finding.classification
        self._append_manifest(finding.location, finding.classification)

    def _invalidate_version_cache(self, location: str) -> None:
        indexed = self._version_index.get(location)
        if indexed is None:
            return
        library, version = indexed
        cache = library.read_cache
        digest = version._content_digest
        if cache is not None and digest is not None:
            cache.invalidate(digest)

    def _load_manifest(self) -> Dict[str, str]:
        if not self._manifest_path.exists():
            return {}
        manifest: Dict[str, str] = {}
        for line in self._manifest_path.read_text(
            encoding="utf-8"
        ).splitlines():
            if not line.strip():
                continue
            location, _, classification = line.partition("|")
            manifest[location] = classification
        return manifest

    def _append_manifest(self, location: str, classification: str) -> None:
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        with self._manifest_path.open("a", encoding="utf-8") as handle:
            handle.write(f"{location}|{classification}\n")

    def quarantined(self) -> Dict[str, str]:
        """Everything ever quarantined here: location -> classification."""
        return dict(self._manifest)
