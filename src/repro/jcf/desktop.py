"""The JCF desktop: the user-facing surface of the master framework.

All metadata manipulation the paper mentions happens "via the JCF
desktop" — in particular the manual submission of design hierarchies
before design work starts (Section 3.3).  Desktop methods therefore
charge simulated UI time per interaction, which the Section 3.4
experiment aggregates into per-task interface costs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ProjectError
from repro.jcf.project import JCFCell, JCFCellVersion, JCFProject, JCFVariant
from repro.jcf.resources import ResourceManager
from repro.jcf.workspace import WorkspaceManager
from repro.oms.database import OMSDatabase


class JCFDesktop:
    """Interactive operations, each costing the designer UI time."""

    def __init__(
        self,
        database: OMSDatabase,
        resources: ResourceManager,
        workspaces: WorkspaceManager,
    ) -> None:
        self._db = database
        self._resources = resources
        self._workspaces = workspaces
        #: per-user count of desktop interactions (E34 raw data)
        self.interactions_by_user: Dict[str, int] = {}

    def _interact(self, user: str, count: int = 1) -> None:
        self._db.clock.charge_ui(count)
        self.interactions_by_user[user] = (
            self.interactions_by_user.get(user, 0) + count
        )

    # -- project structure ----------------------------------------------------

    def create_project(self, user: str, name: str) -> JCFProject:
        """Create a project (one dialog)."""
        self._interact(user)
        if self._db.by_name("Project", name):
            raise ProjectError(f"duplicate project {name!r}")
        obj = self._db.create("Project", {"name": name})
        return JCFProject(self._db, obj)

    def find_project(self, name: str) -> Optional[JCFProject]:
        found = self._db.by_name("Project", name)
        return JCFProject(self._db, found[0]) if found else None

    def create_cell(
        self, user: str, project: JCFProject, name: str, entry: bool = False
    ) -> JCFCell:
        """Create a cell in the project (one dialog)."""
        self._interact(user)
        return project.create_cell(name, entry=entry)

    # -- manual hierarchy submission (Section 3.3) ---------------------------------

    def submit_hierarchy(
        self,
        user: str,
        project: JCFProject,
        edges: Sequence[Tuple[str, str]],
    ) -> int:
        """Manually declare CompOf edges, one desktop interaction per edge.

        "The existing JCF-FMCAD prototype requires that all hierarchical
        manipulations must be done manually via the JCF desktop before
        the design is started." (Section 3.3)  Returns the number of
        interactions spent — the manual cost E33 measures.
        """
        for parent_name, child_name in edges:
            self._interact(user)
            parent = project.cell(parent_name)
            child = project.cell(child_name)
            if not parent.has_component(child):
                parent.add_component(child)
        return len(edges)

    def declared_hierarchy(
        self, project: JCFProject
    ) -> List[Tuple[str, str]]:
        """All CompOf edges of the project, as (parent, child) names.

        One batched ``neighbors()`` expansion over the whole cell list
        instead of a ``targets()`` scan per cell.
        """
        cells = project.cells()
        children = self._db.neighbors("comp_of", [cell.oid for cell in cells])
        edges: List[Tuple[str, str]] = [
            (cell.name, child.get("name"))
            for cell in cells
            for child in children.get(cell.oid, [])
        ]
        return sorted(edges)

    # -- workspace operations -----------------------------------------------------------

    def reserve_cell_version(
        self, user: str, cell_version: JCFCellVersion
    ) -> None:
        """Reserve via the desktop (one dialog)."""
        self._interact(user)
        self._workspaces.reserve(user, cell_version)

    def publish_cell_version(
        self, user: str, cell_version: JCFCellVersion
    ) -> None:
        self._interact(user)
        self._workspaces.publish(user, cell_version)

    # -- browsing ----------------------------------------------------------------------

    def browse_variant(self, user: str, variant: JCFVariant) -> Dict[str, List[int]]:
        """Inspect a variant's design objects (one dialog)."""
        self._interact(user)
        return {
            dobj.name: [v.number for v in dobj.versions()]
            for dobj in variant.design_objects()
        }

    def total_interactions(self) -> int:
        return sum(self.interactions_by_user.values())

    # -- project summary --------------------------------------------------------

    def render_project(self, project: JCFProject) -> str:
        """A one-screen textual tree of the project's structure.

        Shows cells, their CompOf children, cell versions with status and
        reservation holder, variants and design objects — the view the
        JCF desktop's browser would present.
        """
        lines = [f"project {project.name}"]
        for cell in project.cells():
            children = ", ".join(c.name for c in cell.components())
            suffix = f"  (components: {children})" if children else ""
            lines.append(f"  cell {cell.name}{suffix}")
            for cell_version in cell.versions():
                holder = self._workspaces.reserved_by(cell_version)
                held = f", reserved by {holder}" if holder else ""
                lines.append(
                    f"    v{cell_version.number} "
                    f"[{cell_version.status}{held}]"
                )
                for variant in cell_version.variants():
                    objects = ", ".join(
                        f"{d.name}({len(d.versions())})"
                        for d in variant.design_objects()
                    )
                    lines.append(
                        f"      variant {variant.name}: "
                        f"{objects or 'empty'}"
                    )
        return "\n".join(lines)
