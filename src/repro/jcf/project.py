"""Project data: projects, cells, cell versions, variants, design objects.

These are typed wrappers over OMS objects implementing the project-data
half of Figure 1.  Cell hierarchy (CompOf) is deliberately *metadata*,
separate from design data, and cross-project links are rejected — the two
properties that distinguish JCF from FMCAD in Sections 2.3 and 3.1.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import (
    CrossProjectSharingError,
    ProjectError,
    VersioningError,
)
from repro.ids import sort_key
from repro.jcf.model import STATUS_IN_WORK, STATUS_PUBLISHED
from repro.oms.database import OMSDatabase
from repro.oms.objects import OMSObject


def find_or_create_viewtype(db: OMSDatabase, name: str) -> OMSObject:
    """Return the ViewType object named *name*, creating it if needed."""
    return db.find_or_create("ViewType", name)


class _Wrapper:
    """Shared base for typed views onto one OMS object."""

    def __init__(self, db: OMSDatabase, obj: OMSObject) -> None:
        self._db = db
        self._obj = obj

    @property
    def oid(self) -> str:
        return self._obj.oid

    @property
    def obj(self) -> OMSObject:
        return self._obj

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Wrapper) and other.oid == self.oid

    def __hash__(self) -> int:
        return hash(self.oid)


class JCFProject(_Wrapper):
    """Top-level project container (maps to an FMCAD library, Table 1)."""

    @property
    def name(self) -> str:
        return self._obj.get("name")

    def create_cell(self, name: str, entry: bool = False) -> "JCFCell":
        """Create a cell owned by this project."""
        if self.find_cell(name) is not None:
            raise ProjectError(
                f"project {self.name!r}: duplicate cell {name!r}"
            )
        with self._db.transaction():
            obj = self._db.create("Cell", {"name": name})
            self._db.link("cell_in_project", obj.oid, self.oid)
            if entry:
                self._db.link("has_entry", self.oid, obj.oid)
        return JCFCell(self._db, obj)

    def find_cell(self, name: str) -> Optional["JCFCell"]:
        for obj in self._db.by_name("Cell", name):
            owners = self._db.target_oids("cell_in_project", obj.oid)
            if owners and owners[0] == self.oid:
                return JCFCell(self._db, obj)
        return None

    def cell(self, name: str) -> "JCFCell":
        found = self.find_cell(name)
        if found is None:
            raise ProjectError(f"project {self.name!r} has no cell {name!r}")
        return found

    def cells(self) -> List["JCFCell"]:
        return [
            JCFCell(self._db, obj)
            for obj in self._db.sources("cell_in_project", self.oid)
        ]

    def entry_cells(self) -> List["JCFCell"]:
        return [
            JCFCell(self._db, obj)
            for obj in self._db.targets("has_entry", self.oid)
        ]


class JCFCell(_Wrapper):
    """A logical building block; versioned and hierarchically composed."""

    @property
    def name(self) -> str:
        return self._obj.get("name")

    @property
    def project_oid(self) -> str:
        owners = self._db.target_oids("cell_in_project", self.oid)
        if not owners:
            raise ProjectError(f"cell {self.name!r} has no owning project")
        return owners[0]

    # -- CompOf hierarchy (separate metadata) --------------------------------

    def add_component(self, child: "JCFCell") -> None:
        """Declare *child* a component of this cell (CompOf metadata).

        Rejects cross-project composition: JCF cannot share data between
        projects (Section 3.1) — unless the framework enables the
        ``cross_project_sharing`` future-work extension ("It would be
        helpful to also provide access to cells of other projects"),
        under which the foreign cell is referenced read-only and keeps
        its owning project.
        """
        if child.project_oid != self.project_oid:
            if not self._db.policy.get("cross_project_sharing", False):
                raise CrossProjectSharingError(
                    f"cannot compose {child.name!r} under {self.name!r}: "
                    "cells belong to different projects and JCF does not "
                    "support data sharing between projects"
                )
        if child.oid == self.oid or self._would_cycle(child):
            raise ProjectError(
                f"CompOf cycle: {child.name!r} already contains {self.name!r}"
            )
        self._db.link("comp_of", self.oid, child.oid)

    def _would_cycle(self, child: "JCFCell") -> bool:
        # oid-level DFS: no object fetches, just adjacency-index probes
        frontier = [child.oid]
        seen = set(frontier)
        while frontier:
            oid = frontier.pop()
            if oid == self.oid:
                return True
            for nxt_oid in self._db.target_oids("comp_of", oid):
                if nxt_oid not in seen:
                    seen.add(nxt_oid)
                    frontier.append(nxt_oid)
        return False

    def has_component(self, child: "JCFCell") -> bool:
        """True when *child* is already a direct CompOf component (O(1))."""
        return self._db.linked("comp_of", self.oid, child.oid)

    def components(self) -> List["JCFCell"]:
        return [
            JCFCell(self._db, obj)
            for obj in self._db.targets("comp_of", self.oid)
        ]

    def used_in(self) -> List["JCFCell"]:
        return [
            JCFCell(self._db, obj)
            for obj in self._db.sources("comp_of", self.oid)
        ]

    # -- first-level versioning --------------------------------------------------

    def create_version(self) -> "JCFCellVersion":
        """Instantiate the cell: a new cell version succeeding the latest."""
        previous = self.latest_version()
        number = previous.number + 1 if previous else 1
        with self._db.transaction():
            obj = self._db.create(
                "CellVersion", {"number": number, "status": STATUS_IN_WORK}
            )
            self._db.link("cell_version_of", self.oid, obj.oid)
            if previous is not None:
                self._db.link("cv_precedes", previous.oid, obj.oid)
        return JCFCellVersion(self._db, obj)

    def versions(self) -> List["JCFCellVersion"]:
        found = [
            JCFCellVersion(self._db, obj)
            for obj in self._db.targets("cell_version_of", self.oid)
        ]
        return sorted(found, key=lambda cv: cv.number)

    def version(self, number: int) -> "JCFCellVersion":
        for cv in self.versions():
            if cv.number == number:
                return cv
        raise VersioningError(f"cell {self.name!r} has no version {number}")

    def latest_version(self) -> Optional["JCFCellVersion"]:
        versions = self.versions()
        return versions[-1] if versions else None


class JCFCellVersion(_Wrapper):
    """Instantiation of a cell; carries flow, team, variants and configs."""

    @property
    def number(self) -> int:
        return self._obj.get("number")

    @property
    def status(self) -> str:
        return self._db.get(self.oid).get("status")

    @property
    def cell(self) -> JCFCell:
        owners = self._db.sources("cell_version_of", self.oid)
        if not owners:
            raise ProjectError(f"cell version {self.oid} has no owning cell")
        return JCFCell(self._db, owners[0])

    # -- attached flow and team ---------------------------------------------------

    def attach_flow(self, flow_obj: OMSObject) -> None:
        existing = self._db.target_oids("cv_flow", self.oid)
        if existing:
            self._db.unlink("cv_flow", self.oid, existing[0])
        self._db.link("cv_flow", self.oid, flow_obj.oid)

    def attached_flow(self) -> Optional[OMSObject]:
        found = self._db.targets("cv_flow", self.oid)
        return found[0] if found else None

    def attach_team(self, team_obj: OMSObject) -> None:
        existing = self._db.target_oids("cv_team", self.oid)
        if existing:
            self._db.unlink("cv_team", self.oid, existing[0])
        self._db.link("cv_team", self.oid, team_obj.oid)

    def attached_team(self) -> Optional[OMSObject]:
        found = self._db.targets("cv_team", self.oid)
        return found[0] if found else None

    # -- publication state ------------------------------------------------------------

    def publish(self) -> None:
        """Mark the cell version published (read-only for everyone)."""
        self._db.set_attr(self.oid, "status", STATUS_PUBLISHED)

    @property
    def published(self) -> bool:
        return self.status == STATUS_PUBLISHED

    # -- second-level versioning: variants ------------------------------------------------

    def create_variant(
        self, name: str, derived_from: Optional["JCFVariant"] = None
    ) -> "JCFVariant":
        """Derive a new variant inside this cell version.

        "The users have the ability to derive many different variants of
        the same flow in one cell version to store the modifications and
        to select the optimal design solution." (Section 2.1)
        """
        if any(v.name == name for v in self.variants()):
            raise VersioningError(
                f"cell version {self.number}: duplicate variant {name!r}"
            )
        with self._db.transaction():
            obj = self._db.create(
                "Variant", {"name": name, "status": STATUS_IN_WORK}
            )
            self._db.link("variant_of", self.oid, obj.oid)
            if derived_from is not None:
                self._db.link(
                    "variant_derived_from", derived_from.oid, obj.oid
                )
        return JCFVariant(self._db, obj)

    def variants(self) -> List["JCFVariant"]:
        return [
            JCFVariant(self._db, obj)
            for obj in self._db.targets("variant_of", self.oid)
        ]

    def variant(self, name: str) -> "JCFVariant":
        for variant in self.variants():
            if variant.name == name:
                return variant
        raise VersioningError(
            f"cell version {self.number} has no variant {name!r}"
        )


class JCFVariant(_Wrapper):
    """One alternative elaboration of a cell version's flow."""

    @property
    def name(self) -> str:
        return self._obj.get("name")

    @property
    def cell_version(self) -> JCFCellVersion:
        owners = self._db.sources("variant_of", self.oid)
        if not owners:
            raise ProjectError(f"variant {self.oid} has no cell version")
        return JCFCellVersion(self._db, owners[0])

    def derived_from(self) -> List["JCFVariant"]:
        return [
            JCFVariant(self._db, obj)
            for obj in self._db.sources("variant_derived_from", self.oid)
        ]

    # -- design objects ---------------------------------------------------------

    def create_design_object(
        self, name: str, viewtype_name: str
    ) -> "JCFDesignObject":
        if any(d.name == name for d in self.design_objects()):
            raise VersioningError(
                f"variant {self.name!r}: duplicate design object {name!r}"
            )
        with self._db.transaction():
            obj = self._db.create("DesignObject", {"name": name})
            self._db.link("dobj_in_variant", self.oid, obj.oid)
            viewtype = find_or_create_viewtype(self._db, viewtype_name)
            self._db.link("dobj_viewtype", obj.oid, viewtype.oid)
        return JCFDesignObject(self._db, obj)

    def design_objects(self) -> List["JCFDesignObject"]:
        return [
            JCFDesignObject(self._db, obj)
            for obj in self._db.targets("dobj_in_variant", self.oid)
        ]

    def design_object(self, name: str) -> "JCFDesignObject":
        for dobj in self.design_objects():
            if dobj.name == name:
                return dobj
        raise VersioningError(
            f"variant {self.name!r} has no design object {name!r}"
        )

    def find_design_object(
        self, viewtype_name: str
    ) -> Optional["JCFDesignObject"]:
        """The variant's design object of the given viewtype, if any."""
        for dobj in self.design_objects():
            if dobj.viewtype_name == viewtype_name:
                return dobj
        return None


class JCFDesignObject(_Wrapper):
    """A named, viewtyped piece of design data inside a variant."""

    @property
    def name(self) -> str:
        return self._obj.get("name")

    @property
    def viewtype_name(self) -> str:
        found = self._db.targets("dobj_viewtype", self.oid)
        if not found:
            raise ProjectError(f"design object {self.name!r} has no viewtype")
        return found[0].get("name")

    @property
    def variant(self) -> JCFVariant:
        owners = self._db.sources("dobj_in_variant", self.oid)
        if not owners:
            raise ProjectError(f"design object {self.name!r} has no variant")
        return JCFVariant(self._db, owners[0])

    def new_version(
        self, payload: bytes, directory_path: str = ""
    ) -> "JCFDesignObjectVersion":
        """Store a new design-object version with *payload* in OMS.

        The payload is delta-encoded against the previous version when
        that saves space — version chains of small edits cost roughly one
        full payload plus the edits, not N full copies.  Reconstruction
        is transparent to every reader.
        """
        latest = self.latest_version()
        number = latest.number + 1 if latest else 1
        base = self._db.payload_stat(latest.oid) if latest else None
        with self._db.transaction():
            obj = self._db.create(
                "DesignObjectVersion",
                {"number": number, "directory_path": directory_path},
                payload=payload,
                payload_delta_base=base.digest if base else None,
            )
            self._db.link("dov_of", self.oid, obj.oid)
        return JCFDesignObjectVersion(self._db, obj)

    def versions(self) -> List["JCFDesignObjectVersion"]:
        found = [
            JCFDesignObjectVersion(self._db, obj)
            for obj in self._db.targets("dov_of", self.oid)
        ]
        return sorted(found, key=lambda v: v.number)

    def version(self, number: int) -> "JCFDesignObjectVersion":
        for v in self.versions():
            if v.number == number:
                return v
        raise VersioningError(
            f"design object {self.name!r} has no version {number}"
        )

    def latest_version(self) -> Optional["JCFDesignObjectVersion"]:
        versions = self.versions()
        return versions[-1] if versions else None


class JCFDesignObjectVersion(_Wrapper):
    """Versioned design data; payload lives in OMS as an opaque blob."""

    @property
    def number(self) -> int:
        return self._obj.get("number")

    @property
    def design_object(self) -> JCFDesignObject:
        owners = self._db.sources("dov_of", self.oid)
        if not owners:
            raise ProjectError(f"version {self.oid} has no design object")
        return JCFDesignObject(self._db, owners[0])

    @property
    def payload_size(self) -> int:
        """Payload size — an O(1) blob-table probe, no bytes materialized."""
        return self._db.get(self.oid).payload_size

    @property
    def payload_digest(self) -> Optional[str]:
        """Content digest of the payload — O(1), no bytes materialized."""
        return self._db.get(self.oid).payload_digest

    # -- Figure 1 'derived' / 'equivalent' relations -----------------------------

    def record_derived(self, successor: "JCFDesignObjectVersion") -> None:
        """Record that *successor* was derived from this version."""
        self._db.link("derived", self.oid, successor.oid)

    def derived_versions(self) -> List["JCFDesignObjectVersion"]:
        return [
            JCFDesignObjectVersion(self._db, obj)
            for obj in self._db.targets("derived", self.oid)
        ]

    def derivation_sources(self) -> List["JCFDesignObjectVersion"]:
        return [
            JCFDesignObjectVersion(self._db, obj)
            for obj in self._db.sources("derived", self.oid)
        ]

    def mark_equivalent(self, other: "JCFDesignObjectVersion") -> None:
        self._db.link("equivalent", self.oid, other.oid)

    def equivalents(self) -> List["JCFDesignObjectVersion"]:
        forward = self._db.targets("equivalent", self.oid)
        backward = self._db.sources("equivalent", self.oid)
        by_oid = {obj.oid: obj for obj in forward + backward}
        return [
            JCFDesignObjectVersion(self._db, by_oid[oid])
            for oid in sorted(by_oid, key=sort_key)
        ]
