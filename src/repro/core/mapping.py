"""The Table 1 data-model mapping.

Section 2.3 fixes the correspondence between the two information models:

    ===============  ==================
    JCF object       FMCAD object
    ===============  ==================
    Project          Library
    CellVersion      Cell
    ViewType         View
    DesignObject     Cellview
    DesignObjectVersion  Cellview Version
    ===============  ==================

``DataModelMapper`` applies the mapping in both directions: importing an
FMCAD library populates a JCF project (cells, one cell version per FMCAD
cell, a working variant, design objects per cellview, design-object
versions per cellview version, payloads copied into OMS), and exporting
regenerates an FMCAD library from a project.  Identities are recorded as
FMCAD properties (``jcf_oid``) so the coupling can correlate both sides.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.errors import MappingError
from repro.fmcad.framework import FMCADFramework
from repro.fmcad.library import Library
from repro.jcf.framework import JCFFramework
from repro.jcf.project import (
    JCFCellVersion,
    JCFDesignObject,
    JCFProject,
    JCFVariant,
)

#: The verbatim Table 1 rows.
TABLE1_MAPPING: Tuple[Tuple[str, str], ...] = (
    ("Project", "Library"),
    ("CellVersion", "Cell"),
    ("ViewType", "View"),
    ("DesignObject", "Cellview"),
    ("DesignObjectVersion", "Cellview Version"),
)

#: Name of the variant that carries imported FMCAD data.
WORKING_VARIANT = "fmcad_main"


@dataclasses.dataclass(frozen=True)
class MappingRecord:
    """One established correspondence between a JCF and an FMCAD object."""

    jcf_kind: str
    jcf_oid: str
    fmcad_kind: str
    fmcad_name: str


class DataModelMapper:
    """Applies the Table 1 mapping between one JCF and one FMCAD instance."""

    def __init__(self, jcf: JCFFramework, fmcad: FMCADFramework) -> None:
        self.jcf = jcf
        self.fmcad = fmcad
        #: every correspondence, in the order first recorded (a dict
        #: used as an ordered set: membership is O(1))
        self.records: Dict[MappingRecord, None] = {}

    # -- the static table ---------------------------------------------------

    @staticmethod
    def mapping_table() -> List[Tuple[str, str]]:
        """Table 1 as (JCF object, FMCAD object) rows."""
        return list(TABLE1_MAPPING)

    # -- import: FMCAD library -> JCF project (slave feeds master) -------------

    def import_library(
        self,
        library: Library,
        user: str,
        project_name: Optional[str] = None,
    ) -> JCFProject:
        """Populate a JCF project from an FMCAD library per Table 1.

        Every FMCAD cell becomes a JCF cell with one cell version, every
        cellview a design object inside the working variant, and every
        cellview version a design-object version whose payload is the
        version file's contents (copied into OMS through staging costs).
        """
        name = project_name or library.name
        if self.jcf.desktop.find_project(name) is not None:
            raise MappingError(
                f"project {name!r} already exists; re-import is not "
                "supported — use synchronisation instead"
            )
        project = self.jcf.desktop.create_project(user, name)
        self._record("Project", project.oid, "Library", library.name)
        for cell in library.cells():
            self._import_cell(project, library, cell.name, user)
        return project

    def _import_cell(
        self, project: JCFProject, library: Library, cell_name: str, user: str
    ) -> JCFCellVersion:
        jcf_cell = self.jcf.desktop.create_cell(user, project, cell_name)
        cell_version = jcf_cell.create_version()
        self._record(
            "CellVersion", cell_version.oid, "Cell", cell_name
        )
        variant = cell_version.create_variant(WORKING_VARIANT)
        fmcad_cell = library.cell(cell_name)
        for cellview in fmcad_cell.cellviews():
            self._import_cellview(variant, library, cellview)
        return cell_version

    def _import_cellview(self, variant: JCFVariant, library: Library, cellview) -> JCFDesignObject:
        viewtype_name = cellview.viewtype.name
        self._record(
            "ViewType",
            self._viewtype_oid(viewtype_name),
            "View",
            cellview.view.name,
        )
        dobj = variant.create_design_object(cellview.name, viewtype_name)
        self._record("DesignObject", dobj.oid, "Cellview", cellview.name)
        for version in cellview.versions:
            data = version.read_data()
            dov = dobj.new_version(
                data, directory_path=str(version.path)
            )
            # payload crossed the OMS boundary: charge the staging copy
            self.jcf.db.clock.charge_copy(len(data), files=1)
            self._record(
                "DesignObjectVersion",
                dov.oid,
                "Cellview Version",
                f"{cellview.name}@v{version.number}",
            )
            version.properties.set("jcf_oid", dov.oid)
        cellview.properties.set("jcf_oid", dobj.oid)
        return dobj

    def _viewtype_oid(self, name: str) -> str:
        from repro.jcf.project import find_or_create_viewtype

        return find_or_create_viewtype(self.jcf.db, name).oid

    # -- export: JCF project -> FMCAD library (master materialises slave) ----------

    def export_project(
        self, project: JCFProject, library_name: Optional[str] = None
    ) -> Library:
        """Regenerate an FMCAD library from a JCF project per Table 1.

        Only the working variant of each cell's **latest** cell version is
        exported — FMCAD's one-level model cannot hold more (Section 3.2).
        """
        name = library_name or f"{project.name}_export"
        library = self.fmcad.create_library(name)
        for jcf_cell in project.cells():
            cell_version = jcf_cell.latest_version()
            if cell_version is None:
                continue
            library.create_cell(jcf_cell.name)
            for variant in cell_version.variants():
                if variant.name != WORKING_VARIANT:
                    continue  # one-level model: other variants are dropped
                for dobj in variant.design_objects():
                    cellview = library.create_cellview(
                        jcf_cell.name, dobj.viewtype_name
                    )
                    for dov in dobj.versions():
                        payload = self.jcf.db.get(dov.oid).payload or b""
                        self.jcf.db.clock.charge_copy(len(payload), files=1)
                        library.write_version(
                            cellview, payload, author="jcf-export"
                        )
        return library

    def export_configuration(
        self,
        configuration,
        library: Library,
        name: Optional[str] = None,
    ):
        """Mirror a JCF configuration as an FMCAD configuration.

        Figures 1 and 2 both carry configuration objects; the mapping
        between them follows from Table 1's version row: each pinned
        DesignObjectVersion resolves — via its ``jcf_oid`` cross-tag — to
        the cellview version that mirrors it, which is then pinned in a
        new :class:`~repro.fmcad.configurations.FMCADConfiguration`.
        """
        from repro.fmcad.configurations import FMCADConfiguration

        fmcad_config = FMCADConfiguration(
            name or configuration.name, library
        )
        for version in configuration.pinned_versions():
            located = self._locate_fmcad_version(library, version.oid)
            if located is None:
                raise MappingError(
                    f"pinned version {version.oid} has no FMCAD mirror in "
                    f"library {library.name!r} (created outside the "
                    "coupling?)"
                )
            cellview, fmcad_version = located
            fmcad_config.add(
                cellview.cell_name, cellview.view.name,
                fmcad_version.number,
            )
        return fmcad_config

    @staticmethod
    def _locate_fmcad_version(library: Library, jcf_oid: str):
        for cellview in library.cellviews():
            for version in cellview.versions:
                if version.properties.get("jcf_oid") == jcf_oid:
                    return cellview, version
        return None

    # -- correlation ---------------------------------------------------------------

    def _record(
        self, jcf_kind: str, jcf_oid: str, fmcad_kind: str, fmcad_name: str
    ) -> None:
        self.records.setdefault(
            MappingRecord(jcf_kind, jcf_oid, fmcad_kind, fmcad_name)
        )

    def records_of_kind(self, jcf_kind: str) -> List[MappingRecord]:
        return [r for r in self.records if r.jcf_kind == jcf_kind]

    def jcf_oid_for(
        self, fmcad_kind: str, fmcad_name: str
    ) -> Optional[str]:
        for record in self.records:
            if record.fmcad_kind == fmcad_kind and record.fmcad_name == fmcad_name:
                return record.jcf_oid
        return None

    def coverage(self) -> Dict[str, int]:
        """How many correspondences exist per Table 1 row (TAB1 bench)."""
        return {
            jcf_kind: len(self.records_of_kind(jcf_kind))
            for jcf_kind, _ in TABLE1_MAPPING
        }
