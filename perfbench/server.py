"""The design server process the benchmark drives.

Boots :class:`repro.server.design_server.DesignServer` the way
``repro serve`` does, with its shipped defaults (2 shards, ``max_batch``
16, ``window_ms`` 25, 4 workers, WAL persistence, full fsync
durability), and prints ``READY <port>`` once it accepts connections.

``--mode setup`` builds the workspace of a plan file; ``--mode restart``
reopens a crashed workspace through the same public calls ``repro
recover`` and ``repro serve --workspace`` make (``HybridFramework.reopen``,
``recover()``, ``audit()``) and writes ``check.json``: the audit verdict
and the per-cellview version counts the client checks acked runs
against.  With ``--trace`` every layer entry point is timed (see
``tracer.py``); SIGUSR1 writes the spans, the tracer's counts and the
layers' ``stats()`` to ``--dump`` so they survive the SIGKILL that
follows.

Run from the repository root with ``PYTHONPATH=src``::

    python3 perfbench/server.py --mode setup --plan plan.json --workspace ws
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import signal
import sys

#: DesignServer settings, as ``repro serve`` ships them
SERVER_DEFAULTS = dict(
    shards=2, max_batch=16, window_ms=25.0, queue_depth=256, workers=4
)


def build(workspace: pathlib.Path, plan):
    """Build the plan's teams, libraries and prepared cells (WAL mode)."""
    from repro.core.coupling import HybridFramework

    hybrid = HybridFramework(workspace, persistence="wal")
    resources = hybrid.jcf.resources
    hybrid.setup_standard_flow()
    for team in plan["teams"]:
        resources.define_team("admin", team["team"])
        library = hybrid.fmcad.create_library(team["library"])
        for designer in team["designers"]:
            resources.define_user("admin", designer["user"])
            resources.add_member("admin", designer["user"], team["team"])
            for cell in designer["cells"]:
                library.create_cell(cell)
        project = hybrid.adopt_library(
            team["designers"][0]["user"], library, team["project"]
        )
        resources.assign_team_to_project("admin", team["team"], project.oid)
        for designer in team["designers"]:
            for cell in designer["cells"]:
                hybrid.prepare_cell(
                    designer["user"], project, cell, team_name=team["team"]
                )
        library.flush_meta("setup")
    return hybrid


def restart(workspace: pathlib.Path):
    """Reopen, recover and audit; write the restart check file."""
    from repro.core.coupling import HybridFramework

    hybrid = HybridFramework.reopen(workspace)
    hybrid.recover()
    audit = hybrid.audit()
    versions = {}
    for library_name in hybrid.fmcad.known_library_names():
        library = hybrid.fmcad.library(library_name)
        for cellview in library.cellviews():
            versions[f"{library_name}/{cellview.name}"] = len(
                cellview.versions
            )
    check = {
        "audit_clean": audit.clean,
        "findings": [str(finding) for finding in audit.findings],
        "versions": versions,
    }
    write_json(workspace / "check.json", check)
    return hybrid


def layer_stats(hybrid, server):
    """The public ``stats()`` of the layers the per-layer metrics read."""
    stats = {
        "engine": server.engine.stats(),
        "wal": hybrid.jcf.wal.stats(),
        "staging": hybrid.jcf.staging.accounting(),
    }
    if hybrid.read_cache is not None:
        stats["read_cache"] = hybrid.read_cache.stats()
    return stats


def write_json(path: pathlib.Path, payload) -> None:
    """Write *payload* so a reader never sees a partial file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def write_dump(path: pathlib.Path, tracer, hybrid, server, baseline):
    write_json(path, {
        **tracer.record(),
        "stats": layer_stats(hybrid, server),
        "baseline": baseline,
    })


async def serve(hybrid, tracer, dump) -> None:
    from repro.server.design_server import DesignServer

    server = DesignServer(hybrid, **SERVER_DEFAULTS)
    host, port = await server.start()
    if tracer is not None:
        tracer.reset("serve")
        baseline = layer_stats(hybrid, server)
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGUSR1, write_dump, dump, tracer, hybrid, server,
            baseline,
        )
    sys.stdout.write(f"READY {port}\n")
    sys.stdout.flush()
    await server.serve_forever()


def die_with_parent() -> None:
    """Have the kernel SIGKILL this server when the benchmark dies."""
    import ctypes

    pr_set_pdeathsig = 1
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig, signal.SIGKILL)
    if os.getppid() == 1:  # the parent died before the prctl
        sys.exit(1)


def main() -> int:
    die_with_parent()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "restart"),
                        required=True)
    parser.add_argument("--workspace", type=pathlib.Path, required=True)
    parser.add_argument("--plan", type=pathlib.Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--dump", type=pathlib.Path)
    args = parser.parse_args()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.phase = "setup" if args.mode == "setup" else "restart"
    if args.mode == "setup":
        hybrid = build(args.workspace, json.loads(args.plan.read_text()))
    else:
        hybrid = restart(args.workspace)
    if tracer is not None and args.mode == "restart":
        # the restart spans are the restart metrics: keep them apart
        # from the serving that follows
        write_json(args.workspace / "restart_trace.json", tracer.record())
    asyncio.run(serve(hybrid, tracer, args.dump))
    return 0


if __name__ == "__main__":
    sys.exit(main())
