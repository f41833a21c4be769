"""JCF resources: users and teams.

Section 2.1: "Resources are defined by the framework administrator.  Each
user becomes a member of the appropriate teams and these teams can be
used to support projects."  Resource definition is therefore privileged:
only the administrator may create users, teams and memberships, and that
privilege check is real (``AuthorizationError``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import AuthorizationError, ResourceError
from repro.oms.database import OMSDatabase
from repro.oms.objects import OMSObject


class ResourceManager:
    """Administrator-controlled registry of users and teams."""

    def __init__(self, database: OMSDatabase, administrator: str = "admin") -> None:
        self._db = database
        self.administrator = administrator

    # -- privilege -------------------------------------------------------------

    def _require_admin(self, acting_user: str) -> None:
        if acting_user != self.administrator:
            raise AuthorizationError(
                f"resource definition requires the framework administrator "
                f"({self.administrator!r}), not {acting_user!r}"
            )

    # -- users -----------------------------------------------------------------

    def define_user(
        self, acting_user: str, name: str, full_name: str = ""
    ) -> OMSObject:
        """Register a new framework user (administrator only)."""
        self._require_admin(acting_user)
        if self.find_user(name) is not None:
            raise ResourceError(f"duplicate user {name!r}")
        return self._db.create("User", {"name": name, "full_name": full_name})

    def find_user(self, name: str) -> Optional[OMSObject]:
        found = self._db.by_name("User", name)
        return found[0] if found else None

    def user(self, name: str) -> OMSObject:
        found = self.find_user(name)
        if found is None:
            raise ResourceError(f"unknown user {name!r}")
        return found

    def users(self) -> List[OMSObject]:
        return self._db.select("User")

    # -- teams ------------------------------------------------------------------

    def define_team(self, acting_user: str, name: str) -> OMSObject:
        """Register a new team (administrator only)."""
        self._require_admin(acting_user)
        if self.find_team(name) is not None:
            raise ResourceError(f"duplicate team {name!r}")
        return self._db.create("Team", {"name": name})

    def find_team(self, name: str) -> Optional[OMSObject]:
        found = self._db.by_name("Team", name)
        return found[0] if found else None

    def team(self, name: str) -> OMSObject:
        found = self.find_team(name)
        if found is None:
            raise ResourceError(f"unknown team {name!r}")
        return found

    def teams(self) -> List[OMSObject]:
        return self._db.select("Team")

    # -- membership ---------------------------------------------------------------

    def add_member(self, acting_user: str, user_name: str, team_name: str) -> None:
        """Put a user on a team (administrator only)."""
        self._require_admin(acting_user)
        self._db.link("member_of", self.user(user_name).oid, self.team(team_name).oid)

    def remove_member(
        self, acting_user: str, user_name: str, team_name: str
    ) -> None:
        self._require_admin(acting_user)
        self._db.unlink(
            "member_of", self.user(user_name).oid, self.team(team_name).oid
        )

    def is_member(self, user_name: str, team_name: str) -> bool:
        user = self.find_user(user_name)
        team = self.find_team(team_name)
        if user is None or team is None:
            return False
        return self._db.linked("member_of", user.oid, team.oid)

    def teams_of(self, user_name: str) -> List[str]:
        user = self.user(user_name)
        return [t.get("name") for t in self._db.targets("member_of", user.oid)]

    def members_of(self, team_name: str) -> List[str]:
        team = self.team(team_name)
        return [u.get("name") for u in self._db.sources("member_of", team.oid)]

    # -- project support ---------------------------------------------------------

    def assign_team_to_project(
        self, acting_user: str, team_name: str, project_oid: str
    ) -> None:
        """Let a team support a project (administrator only)."""
        self._require_admin(acting_user)
        self._db.link("team_supports", self.team(team_name).oid, project_oid)

    def team_supports_project(self, team_name: str, project_oid: str) -> bool:
        team = self.find_team(team_name)
        if team is None:
            return False
        return self._db.linked("team_supports", team.oid, project_oid)

    def user_may_work_on(self, user_name: str, project_oid: str) -> bool:
        """True when the user belongs to any team supporting the project."""
        return any(
            self.team_supports_project(team_name, project_oid)
            for team_name in self.teams_of(user_name)
        )
