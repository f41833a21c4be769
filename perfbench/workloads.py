"""Workload shapes and their seeded plans.

A plan is plain JSON data: the users, teams, libraries and prepared
cells the server builds at set-up, and the order and script parameters
of every request the client sends.  Everything random in it comes from
``random.Random(seed)``; the server process receives the plan and
nothing else, so one seed always yields one program input.

Library names stay ``lib000``, ``lib001``, ... because the server places
libraries on shards by name (``lib000`` -> shard 1, ``lib001`` -> shard
0 with 2 shards): the two-team workloads need one library on each shard.
Script parameters are a fixed multiset shuffled by the seed, so every
seed does the same total tool work in a different order.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List, Tuple

#: cellviews one acked run of each activity checks a version into
VIEWS_OF = {
    "schematic_entry": ("schematic", "symbol"),
    "digital_simulation": ("simulation",),
    "layout_entry": ("layout",),
}

#: inverter-chain sizes; the stock testbench passes up to 9 stages (at 10
#: its expectations overlap the second drive and layout entry is refused)
STAGES = (2, 3, 4, 5)


@dataclasses.dataclass(frozen=True)
class Shape:
    """Fixed shape of one workload; ``cells`` is per connection."""

    name: str
    why: str
    teams: int
    designers_per_team: int
    #: measured prepared cells per connection (steady_commit/design_cycle)
    cells: int
    #: runs per designer session (session_churn)
    runs_per_session: int
    #: runs a connection keeps in flight
    in_flight: int


WORKLOADS: Dict[str, Shape] = {
    "steady_commit": Shape(
        name="steady_commit",
        why=(
            "Windows fill (about 8 runs per wave), so coalescing, scheduler "
            "waves and gates and WAL group commit do the work; libraries "
            "grow deep, so the whole-library .meta rewrite grows."
        ),
        teams=2, designers_per_team=1, cells=100, runs_per_session=0,
        in_flight=8,
    ),
    "session_churn": Shape(
        name="session_churn",
        why=(
            "The only workload with open_session on the request path: a "
            "wide database (256 sessions) with shallow libraries, so "
            "O(database) lookups show and .meta rewrite cost does not."
        ),
        teams=64, designers_per_team=4, cells=0, runs_per_session=2,
        in_flight=1,
    ),
    "design_cycle": Shape(
        name="design_cycle",
        why=(
            "The only workload that reads: simulation and layout stage the "
            "schematic back out, and one run per batch puts the coalescing "
            "window wait on every request."
        ),
        teams=2, designers_per_team=1, cells=35, runs_per_session=0,
        in_flight=1,
    ),
}

#: the same shapes at a size that finishes in seconds (tests)
SMOKE: Dict[str, Shape] = {
    "steady_commit": dataclasses.replace(WORKLOADS["steady_commit"], cells=16),
    "session_churn": dataclasses.replace(
        WORKLOADS["session_churn"], teams=4, designers_per_team=2
    ),
    "design_cycle": dataclasses.replace(WORKLOADS["design_cycle"], cells=4),
}

CONNECTIONS = 2
#: prepared cells per connection kept unused for the restart phase
RESERVE = 3


def _names(rng: random.Random, prefix: str, count: int) -> List[str]:
    """*count* distinct seeded names of one fixed length."""
    names: List[str] = []
    seen = set()
    while len(names) < count:
        name = f"{prefix}{rng.getrandbits(32):08x}"
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def _stages(rng: random.Random, count: int) -> List[int]:
    values = [STAGES[i % len(STAGES)] for i in range(count)]
    rng.shuffle(values)
    return values


def make_plan(shape: Shape, seed: int) -> Dict[str, Any]:
    """The seeded plan for *shape*: set-up data plus per-connection work.

    ``teams`` lists what the server builds.  ``connections`` lists, per
    client connection, its ``sessions`` in order; each session names a
    designer and the ``runs`` it sends as
    ``[cell, activity, script, params]``.
    ``reserve`` lists the prepared cells each connection leaves unused
    until the restart phase, with the session that owns them.
    """
    rng = random.Random(seed)
    designers = shape.teams * shape.designers_per_team
    users = _names(rng, "u", designers)
    teams: List[Dict[str, Any]] = []
    # designer index -> (team entry, user)
    owners: List[Tuple[Dict[str, Any], str]] = []
    for t in range(shape.teams):
        team = {
            "team": f"team{t:03d}",
            "library": f"lib{t:03d}",
            "project": f"proj{t:03d}",
            "designers": [],
        }
        for d in range(shape.designers_per_team):
            user = users[t * shape.designers_per_team + d]
            team["designers"].append({"user": user, "cells": []})
            owners.append((team, user))
        teams.append(team)

    def session_of(index: int) -> Dict[str, Any]:
        team, user = owners[index]
        return {
            "user": user,
            "team": team["team"],
            "library": team["library"],
            "project": team["project"],
            "runs": [],
        }

    def give_cells(index: int, count: int) -> List[str]:
        team, user = owners[index]
        cells = _names(rng, "c", count)
        designer = next(d for d in team["designers"] if d["user"] == user)
        designer["cells"].extend(cells)
        return cells

    connections: List[Dict[str, Any]] = []
    if shape.runs_per_session:
        # churn: the designers are walked in a seeded order, each
        # connection taking its half; every session runs its own cells
        order = list(range(designers))
        rng.shuffle(order)
        per_connection = designers // CONNECTIONS
        total = per_connection * shape.runs_per_session
        stages = _stages(rng, total * CONNECTIONS)
        for c in range(CONNECTIONS):
            walk = order[c * per_connection:(c + 1) * per_connection]
            sessions = []
            for index in walk:
                session = session_of(index)
                for cell in give_cells(index, shape.runs_per_session):
                    params = {"stages": stages.pop()}
                    session["runs"].append(
                        [cell, "schematic_entry", "inverter_chain", params]
                    )
                sessions.append(session)
            owner = walk[0]
            connections.append({
                "sessions": sessions,
                "reserve": {
                    "session": session_of(owner),
                    "cells": give_cells(owner, RESERVE),
                },
            })
    else:
        # one long-lived session per connection, designer c on team c
        stages = _stages(rng, shape.cells * CONNECTIONS)
        for c in range(CONNECTIONS):
            index = c * shape.designers_per_team
            session = session_of(index)
            for cell in give_cells(index, shape.cells):
                params = {"stages": stages.pop()}
                if shape.name == "design_cycle":
                    session["runs"].extend([
                        [cell, "schematic_entry", "inverter_chain", params],
                        [cell, "digital_simulation", "inverter_bench",
                         params],
                        [cell, "layout_entry", "strap_layout",
                         {"nets": ["a", "y"]}],
                    ])
                else:
                    session["runs"].append(
                        [cell, "schematic_entry", "inverter_chain", params]
                    )
            connections.append({
                "sessions": [session],
                "reserve": {
                    "session": session_of(index),
                    "cells": give_cells(index, RESERVE),
                },
            })
    for team in teams:
        for designer in team["designers"]:
            # creation order is seeded too, not the order cells are used
            rng.shuffle(designer["cells"])
    return {
        "workload": shape.name,
        "seed": seed,
        "in_flight": shape.in_flight,
        "teams": teams,
        "connections": connections,
    }
