"""Logical design objects of the FMCAD data model (Figure 2).

The named object kinds follow Section 2.2 verbatim:

* **Cell** — the basic logical design object, a building block of a chip.
* **View** — one type of representation (schematic, layout, ...), of one
  specific *viewtype*; the viewtype associates the view with an FMCAD
  application.
* **Cellview** — the virtual data file created in association with a cell
  and a view; more logical than physical.
* **Cellview version** — the data file of a cellview at a particular time;
  created by checkout/checkin; models the link to the design file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
from typing import Dict, List, Optional

from repro.errors import FMCADError, ViewTypeError
from repro.fmcad.properties import PropertyBag


@dataclasses.dataclass(frozen=True)
class ViewType:
    """Associates views with an FMCAD application (Section 2.2).

    The viewtype concept "is very flexible and it allows viewtypes to be
    easily switched with the same tool", so the tool association is a
    name, not a hard reference.
    """

    name: str
    tool_name: str
    description: str = ""


#: The viewtypes the 1995 encapsulation scenario uses (Section 2.4).
VIEWTYPE_SCHEMATIC = ViewType(
    "schematic", "schematic_editor", "logic diagram entered by the designer"
)
VIEWTYPE_SYMBOL = ViewType(
    "symbol", "schematic_editor", "re-usable symbol placed in parent schematics"
)
VIEWTYPE_LAYOUT = ViewType(
    "layout", "layout_editor", "mask geometry of the physical design"
)
VIEWTYPE_SIMULATION = ViewType(
    "simulation", "digital_simulator", "netlist plus stimuli for simulation"
)

#: Viewtypes used by black-box encapsulated flows (e.g. the FPGA flow of
#: [Seep94b], which the same group modelled in JCF).  Their data formats
#: are opaque to the framework — exactly the black-box integration level.
VIEWTYPE_NETLIST = ViewType(
    "netlist", "synthesis_tool", "synthesised gate-level netlist"
)
VIEWTYPE_PLACEMENT = ViewType(
    "placement", "place_route_tool", "placed-and-routed FPGA design"
)
VIEWTYPE_BITSTREAM = ViewType(
    "bitstream", "bitstream_tool", "downloadable FPGA configuration"
)

#: name -> ViewType for the standard set
STANDARD_VIEWTYPES: Dict[str, ViewType] = {
    vt.name: vt
    for vt in (
        VIEWTYPE_SCHEMATIC,
        VIEWTYPE_SYMBOL,
        VIEWTYPE_LAYOUT,
        VIEWTYPE_SIMULATION,
        VIEWTYPE_NETLIST,
        VIEWTYPE_PLACEMENT,
        VIEWTYPE_BITSTREAM,
    )
}


def resolve_viewtype(name: str) -> ViewType:
    """Look up a standard viewtype by name."""
    try:
        return STANDARD_VIEWTYPES[name]
    except KeyError:
        raise ViewTypeError(
            f"unknown viewtype {name!r}; known: {sorted(STANDARD_VIEWTYPES)}"
        ) from None


@dataclasses.dataclass(frozen=True)
class View:
    """A named representation type; logical design object."""

    name: str
    viewtype: ViewType


class CellViewVersion:
    """The data file of a cellview at a particular time.

    ``path`` is the real file in the library directory — FMCAD versions
    are physical files, unlike JCF versions which live inside OMS.
    """

    def __init__(
        self,
        number: int,
        path: pathlib.Path,
        created_tick: int,
        author: str,
    ) -> None:
        self.number = number
        self.path = pathlib.Path(path)
        self.created_tick = created_tick
        self.author = author
        # version files are immutable once written, so their content
        # digest can be cached; Library.write_version sets it eagerly and
        # Library.open seeds it from the .meta record, which is what makes
        # verified reads possible after a restart
        self._content_digest: Optional[str] = None
        # pristine byte count at write time; lets a digest mismatch be
        # classified (truncation vs torn write vs bit-rot).  Unknown for
        # versions reconstructed from .meta, where mismatches default to
        # the bit-rot class
        self._content_size: Optional[int] = None
        # made durable by the owning library's .meta
        self.properties = PropertyBag()
        #: this version's ``.meta`` record, built once by the owning
        #: library
        self._meta_record = None

    def read_data(self) -> bytes:
        """Read the design file for this version."""
        if not self.path.exists():
            raise FMCADError(f"version file missing: {self.path}")
        return self.path.read_bytes()

    def content_digest(self) -> str:
        """Content address of the version file (cached after first read)."""
        if self._content_digest is None:
            self._content_digest = hashlib.sha256(self.read_data()).hexdigest()
        return self._content_digest

    def classify_damage(self, data: bytes) -> Optional[str]:
        """``None`` when *data* matches the known digest, else a class.

        Without a known digest there is nothing to hold the bytes
        against, so the answer is ``None`` (trust-on-first-read).
        """
        expected = self._content_digest
        if expected is None:
            return None
        if hashlib.sha256(data).hexdigest() == expected:
            return None
        if self._content_size is not None:
            if len(data) < self._content_size:
                return "truncation"
            if len(data) > self._content_size:
                return "torn-write"
        return "bit-rot"

    def verify(self) -> Optional[str]:
        """Damage classification of the on-disk file, ``None`` if clean."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return "missing" if self._content_digest is not None else None
        return self.classify_damage(data)

    @property
    def size(self) -> int:
        return self.path.stat().st_size if self.path.exists() else 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CellViewVersion v{self.number} {self.path.name}>"


class CellView:
    """A virtual data file associated with a cell and a view.

    Holds the version chain and the *default version* — the version that
    dynamic hierarchy binding resolves to (Section 2.2), which is why
    FMCAD alone cannot reconstruct what-belongs-to-what history.
    """

    def __init__(self, cell_name: str, view: View) -> None:
        self.cell_name = cell_name
        self.view = view
        self.versions: List[CellViewVersion] = []
        self.properties = PropertyBag()
        #: set by CheckoutManager; mirrors Figure 2's "Locked Flag".
        self.locked_by: Optional[str] = None

    @property
    def name(self) -> str:
        return f"{self.cell_name}/{self.view.name}"

    @property
    def viewtype(self) -> ViewType:
        return self.view.viewtype

    @property
    def default_version(self) -> Optional[CellViewVersion]:
        """The newest version — what dynamic binding resolves to."""
        return self.versions[-1] if self.versions else None

    def version(self, number: int) -> CellViewVersion:
        for v in self.versions:
            if v.number == number:
                return v
        raise FMCADError(f"cellview {self.name}: no version {number}")

    def next_version_number(self) -> int:
        return self.versions[-1].number + 1 if self.versions else 1

    def add_version(self, version: CellViewVersion) -> None:
        if self.versions and version.number <= self.versions[-1].number:
            raise FMCADError(
                f"cellview {self.name}: version {version.number} does not "
                f"advance past {self.versions[-1].number}"
            )
        self.versions.append(version)

    def remove_version(self, number: int) -> CellViewVersion:
        """Drop the version record *number* from the chain.

        Metadata-only: the version file stays on disk — callers that
        mean to destroy data go through ``Library.drop_version``, which
        also removes the file.
        """
        version = self.version(number)  # raises when absent
        self.versions.remove(version)
        return version

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CellView {self.name} versions={len(self.versions)}>"


class Cell:
    """The basic logical design object; owns one or more cellviews."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._cellviews: Dict[str, CellView] = {}
        self.properties = PropertyBag()

    def add_cellview(self, cellview: CellView) -> CellView:
        if cellview.view.name in self._cellviews:
            raise FMCADError(
                f"cell {self.name!r} already has a cellview for view "
                f"{cellview.view.name!r}"
            )
        self._cellviews[cellview.view.name] = cellview
        return cellview

    def cellview(self, view_name: str) -> CellView:
        try:
            return self._cellviews[view_name]
        except KeyError:
            raise FMCADError(
                f"cell {self.name!r} has no cellview for view {view_name!r}"
            ) from None

    def has_cellview(self, view_name: str) -> bool:
        return view_name in self._cellviews

    def cellviews(self) -> List[CellView]:
        return [self._cellviews[name] for name in sorted(self._cellviews)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Cell {self.name} views={sorted(self._cellviews)}>"
