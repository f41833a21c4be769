"""Integration levels.

The paper's introduction: JCF "supports three integration levels,
ranging from simple black-box integration up to very tight white-box
integration."  The three schematic/simulator/layout wrappers in
:mod:`repro.core.encapsulation` are the *white-box* end — they drive the
tool's own data model, lock its menus and pop consistency windows.  This
module supplies the other end: :class:`BlackBoxToolWrapper` runs an
opaque tool function on staged files.  The coupled bookkeeping (staging,
FMCAD checkin, OMS import, derivation recording) is identical; what a
black box *cannot* give you is menu guarding and in-tool consistency
windows — measurably weaker consistency, same management.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional, Tuple

from repro.core.consistency import ConsistencyGuard
from repro.core.encapsulation import _ToolWrapper
from repro.core.mapping import DataModelMapper
from repro.errors import EncapsulationError
from repro.fmcad.framework import FMCADFramework
from repro.fmcad.library import Library
from repro.jcf.framework import JCFFramework


class IntegrationLevel(enum.Enum):
    """How deeply a tool is integrated into the hybrid framework."""

    BLACK_BOX = "black_box"    # opaque executable on staged files
    GREY_BOX = "grey_box"      # session visible, menus guardable
    WHITE_BOX = "white_box"    # full data-model and UI integration


#: A black-box tool: inputs by viewtype -> (success, output bytes, details).
BlackBoxTool = Callable[
    [Dict[str, bytes]], Tuple[bool, Optional[bytes], str]
]


class BlackBoxToolWrapper(_ToolWrapper):
    """Encapsulate an arbitrary opaque tool as one JCF activity.

    The wrapper stages the activity's declared input viewtypes out of
    OMS, hands the bytes to *tool_fn*, and checks the result into both
    frameworks with full derivation recording — black-box integration
    with white-box design management.
    """

    INTEGRATION = IntegrationLevel.BLACK_BOX
    GUARD_MENUS = False

    def __init__(
        self,
        jcf: JCFFramework,
        fmcad: FMCADFramework,
        mapper: DataModelMapper,
        guard: ConsistencyGuard,
        activity_name: str,
        tool_name: str,
        output_viewtype: str,
        tool_fn: BlackBoxTool,
    ) -> None:
        super().__init__(jcf, fmcad, mapper, guard)
        self.ACTIVITY = activity_name
        self.TOOL = tool_name
        self.VIEWTYPE = output_viewtype
        self._tool_fn = tool_fn

    def _tool_step(
        self,
        session,
        library: Library,
        cell_name: str,
        needs,
        **_ignored,
    ) -> Tuple[bool, Optional[bytes], str]:
        inputs: Dict[str, bytes] = {}
        for version, data in needs:
            inputs[version.design_object.viewtype_name] = data
        try:
            success, output, details = self._tool_fn(inputs)
        except Exception as exc:
            raise EncapsulationError(
                f"black-box tool {self.TOOL!r} crashed: {exc}"
            ) from exc
        return success, output, details

