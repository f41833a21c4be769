"""The FMCAD framework facade.

Owns libraries, the checkout manager, the ITC bus, the extension-language
interpreter and the running tool sessions.  Notably **absent** — because
standard FMCAD does not have them (Sections 3.2/3.5) — are flow
management, derivation relations, and any distinction between users,
teams, tools and flows: tools may be invoked freely, and the framework
only keeps a flat invocation log from which no what-belongs-to-what
information can be reconstructed.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Any, Dict, List, Optional, Tuple

from repro.clock import SimClock
from repro.errors import IntegrityError, LibraryError, MetaFileError
from repro.fmcad.checkout import CheckoutManager
from repro.fmcad.configurations import FMCADConfiguration
from repro.fmcad.extension import ExtensionInterpreter
from repro.fmcad.itc import ITCBus
from repro.fmcad.library import Library
from repro.fmcad.session import ToolSession
from repro.ids import IdAllocator


@dataclasses.dataclass(frozen=True)
class ToolInvocation:
    """One entry of FMCAD's flat tool-invocation log.

    Deliberately relationship-free: standard FMCAD records *that* a tool
    ran, not what its run derived from what (Section 3.5).
    """

    sequence: int
    tool_name: str
    user: str
    cell_name: str
    view_name: str


class FMCADFramework:
    """Facade over one FMCAD installation rooted at a directory."""

    def __init__(
        self,
        root: pathlib.Path,
        clock: Optional[SimClock] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.clock = clock or SimClock()
        self.ids = IdAllocator()
        self._libraries: Dict[str, Library] = {}
        self.checkouts = CheckoutManager(
            self.root / "_workareas", library_resolver=self.library
        )
        self.bus = ITCBus()
        self.interpreter = ExtensionInterpreter()
        self._sessions: Dict[str, ToolSession] = {}
        self._configurations: Dict[str, FMCADConfiguration] = {}
        self.invocation_log: List[ToolInvocation] = []
        #: shared MaterializationCache handed to every library opened
        #: from now on (set by HybridFramework when read caching is on)
        self.read_cache = None
        self._install_session_builtins()

    # -- libraries --------------------------------------------------------------

    def create_library(self, name: str) -> Library:
        if name in self._libraries:
            raise LibraryError(f"duplicate library {name!r}")
        library = Library(name, self.root / "libs", clock=self.clock)
        library.read_cache = self.read_cache
        self._libraries[name] = library
        return library

    def library(self, name: str) -> Library:
        try:
            return self._libraries[name]
        except KeyError:
            raise LibraryError(f"no library {name!r}") from None

    def open_library(self, name: str) -> Library:
        """Reopen an existing on-disk library after a framework restart."""
        if name in self._libraries:
            raise LibraryError(f"library {name!r} is already open")
        library = Library.open(name, self.root / "libs", clock=self.clock)
        library.read_cache = self.read_cache
        self._libraries[name] = library
        return library

    def known_library_names(self) -> List[str]:
        """Names of library directories present on disk (open or not)."""
        libs_root = self.root / "libs"
        if not libs_root.exists():
            return []
        return sorted(
            entry.name
            for entry in libs_root.iterdir()
            if entry.is_dir() and (entry / ".meta").exists()
        )

    def libraries(self) -> List[Library]:
        return [self._libraries[name] for name in sorted(self._libraries)]

    def all_libraries(self) -> Tuple[List[Library], List[Tuple[str, str]]]:
        """Every library, opening closed ones; plus the unopenable ones.

        A closed library whose ``.meta`` is too damaged to parse cannot
        be opened at all — it is returned separately as
        ``(name, classification)`` so the damage still becomes a finding.
        """
        libraries = self.libraries()
        unopenable: List[Tuple[str, str]] = []
        for name in self.known_library_names():
            if name in self._libraries:
                continue
            try:
                libraries.append(self.open_library(name))
            except IntegrityError as exc:
                unopenable.append((name, exc.classification or "torn-write"))
            except MetaFileError:
                unopenable.append((name, "torn-write"))
        return libraries, unopenable

    # -- configurations ------------------------------------------------------------

    def create_configuration(
        self, name: str, library_name: str
    ) -> FMCADConfiguration:
        if name in self._configurations:
            raise LibraryError(f"duplicate configuration {name!r}")
        config = FMCADConfiguration(name, self.library(library_name))
        self._configurations[name] = config
        return config

    def configuration(self, name: str) -> FMCADConfiguration:
        try:
            return self._configurations[name]
        except KeyError:
            raise LibraryError(f"no configuration {name!r}") from None

    # -- sessions --------------------------------------------------------------------

    def open_session(self, tool_name: str, user: str) -> ToolSession:
        """Start a tool session for *user* (free invocation — no flow)."""
        session_id = self.ids.allocate("session")
        session = ToolSession(
            session_id=session_id,
            tool_name=tool_name,
            user=user,
            clock=self.clock,
            bus=self.bus,
        )
        self._sessions[session_id] = session
        return session

    def session(self, session_id: str) -> ToolSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise LibraryError(f"no session {session_id!r}") from None

    def sessions(self) -> List[ToolSession]:
        return [self._sessions[sid] for sid in sorted(self._sessions)]

    def close_session(self, session_id: str) -> None:
        self.session(session_id).close()
        del self._sessions[session_id]

    def _install_session_builtins(self) -> None:
        """Expose menu locking to the extension language (Section 2.4)."""

        def lock_menu(session_id: str, menu_name: str, reason: str) -> bool:
            self.session(session_id).lock_menu(menu_name, reason)
            return True

        def unlock_menu(session_id: str, menu_name: str) -> bool:
            self.session(session_id).unlock_menu(menu_name)
            return True

        def menu_locked(session_id: str, menu_name: str) -> bool:
            return self.session(session_id).menu(menu_name).locked

        self.interpreter.register_builtin("lock-menu", lock_menu)
        self.interpreter.register_builtin("unlock-menu", unlock_menu)
        self.interpreter.register_builtin("menu-locked", menu_locked)

    # -- invocation log -----------------------------------------------------------------

    def log_invocation(
        self, tool_name: str, user: str, cell_name: str, view_name: str
    ) -> ToolInvocation:
        """Append to the flat log (the only record standard FMCAD keeps).

        Also fires the ``tool-invocation`` framework event, so extension-
        language customizations (see :mod:`repro.fmcad.customizations`)
        observe every run.
        """
        entry = ToolInvocation(
            sequence=len(self.invocation_log) + 1,
            tool_name=tool_name,
            user=user,
            cell_name=cell_name,
            view_name=view_name,
        )
        self.invocation_log.append(entry)
        self.interpreter.fire_trigger(
            "tool-invocation", tool_name, user, cell_name, view_name
        )
        return entry

    def derivation_relations(self) -> List[Any]:
        """What standard FMCAD can say about derivation history: nothing.

        Section 3.5: "neither derivation relations nor the
        what-belongs-to-what information is available".  The coupling layer
        supplies these from JCF; asking bare FMCAD yields an empty list.
        """
        return []

    # -- statistics -----------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "libraries": {
                name: lib.stats() for name, lib in sorted(self._libraries.items())
            },
            "checkouts": self.checkouts.stats(),
            "sessions": len(self._sessions),
            "invocations": len(self.invocation_log),
        }
