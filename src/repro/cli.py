"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``info``
    Print the library version and the implemented system inventory.
``demo``
    Run a self-contained hybrid-framework demonstration (the quickstart
    scenario) in a temporary directory and print the resulting state.
``selfcheck``
    Exercise one coupled flow end-to-end and verify the invariants the
    paper claims (derivation record complete, consistency scan clean);
    exits non-zero on failure.
``audit``
    Cross-framework crash-consistency audit of a saved workspace (or a
    fresh demo environment); exits non-zero when findings remain.
``recover``
    Run crash recovery on a saved workspace, print what was
    repaired, then re-audit; exits non-zero when the audit stays dirty.
``scrub``
    Verify every stored payload against its content address and report
    damage; with ``--repair``, heal from cross-framework peer copies and
    quarantine what cannot be healed.  Exit codes are cron-friendly:
    0 = store verified, 1 = actionable damage remains, 2 = could not
    open the workspace at all.
``flows``
    Inspect and drive durable flow instances in a saved workspace:
    ``list`` (exit 1 when any instance is dead-lettered), ``resume``
    (recover, roll every pending instance forward, save), ``retry``
    (re-queue dead-lettered instances with a fresh robustness budget).
``serve``
    Run the sharded asyncio design server over a saved workspace (or a
    freshly provisioned multi-team scenario): line-delimited JSON over
    TCP, per-library shards, batch-coalesced group commits, admission
    control.  Ctrl-C drains in-flight windows before exiting.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile
from typing import List, Optional

import repro
from repro.core import HybridFramework
from repro.core.mapping import TABLE1_MAPPING, WORKING_VARIANT
from repro.errors import ReproError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Enhanced Functionality by Coupling the "
            "JESSI-COMMON-Framework with an ECAD Framework' (DATE 1995)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("info", help="show version and system inventory")
    demo = subparsers.add_parser(
        "demo", help="run the hybrid-framework demonstration"
    )
    demo.add_argument(
        "--workspace",
        type=pathlib.Path,
        default=None,
        help="directory for the demo environment (default: temp dir)",
    )
    subparsers.add_parser(
        "selfcheck", help="run one coupled flow and verify the invariants"
    )
    subparsers.add_parser(
        "consult",
        help="run the demo flow and print the design consultant's report",
    )
    audit = subparsers.add_parser(
        "audit", help="cross-framework crash-consistency audit"
    )
    audit.add_argument(
        "--workspace",
        type=pathlib.Path,
        default=None,
        help=(
            "saved hybrid workspace to audit (default: run the demo flow "
            "in a temp dir and audit that)"
        ),
    )
    recover = subparsers.add_parser(
        "recover", help="repair crash leavings, then re-audit"
    )
    recover.add_argument(
        "--workspace",
        type=pathlib.Path,
        default=None,
        help=(
            "saved hybrid workspace to recover (default: temp demo "
            "environment, which needs no repair)"
        ),
    )
    scrub = subparsers.add_parser(
        "scrub",
        help="verify all stored payloads; optionally repair/quarantine",
    )
    scrub.add_argument(
        "--workspace",
        type=pathlib.Path,
        default=None,
        help=(
            "saved hybrid workspace to scrub (default: temp demo "
            "environment, which is pristine)"
        ),
    )
    scrub.add_argument(
        "--repair",
        action="store_true",
        help=(
            "heal damaged payloads from peer copies in the other "
            "framework; quarantine anything unrepairable"
        ),
    )
    flows = subparsers.add_parser(
        "flows",
        help="inspect and drive durable flow instances",
    )
    flows.add_argument(
        "action",
        choices=("list", "resume", "retry"),
        help=(
            "'list' shows every persisted instance (exit 1 when any is "
            "dead-lettered); 'resume' recovers, rolls every pending "
            "instance forward and saves; 'retry' re-queues dead-lettered "
            "instances with a fresh robustness budget"
        ),
    )
    flows.add_argument(
        "--workspace",
        type=pathlib.Path,
        default=None,
        help=(
            "saved hybrid workspace holding the flow instances (default: "
            "temp demo environment, which has none)"
        ),
    )
    flows.add_argument(
        "--instance",
        default=None,
        help="limit 'retry' to one instance oid (default: all dead-letter)",
    )
    serve = subparsers.add_parser(
        "serve",
        help="run the sharded asyncio design server (line-delimited JSON)",
    )
    serve.add_argument(
        "--workspace",
        type=pathlib.Path,
        default=None,
        help=(
            "saved hybrid workspace to serve (default: build a fresh "
            "multi-team scenario in a temp dir)"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default: 0 = pick a free port and print it)",
    )
    serve.add_argument(
        "--shards", type=int, default=2,
        help="independent library shards (batch queue + commit scope each)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=16,
        help="flush a shard's window as soon as this many runs coalesce",
    )
    serve.add_argument(
        "--window-ms", type=float, default=25.0,
        help="longest an idle shard holds a short window for runs that "
             "never came back; a shard otherwise flushes as soon as its "
             "window holds the runs that were outstanding when its last "
             "batch finished",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=256,
        help="admitted-but-uncommitted runs a shard holds before "
             "rejecting with ServerOverloadError",
    )
    serve.add_argument(
        "--rate", type=float, default=None, dest="rate_per_s",
        help="token-bucket admission rate per shard, runs/second "
             "(default: no throttle, queue depth only)",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="scheduler workers per shard wave",
    )
    serve.add_argument(
        "--lease-ttl-ms", type=float, default=30_000.0,
        help="checkout-lease lifetime between heartbeats; an expired "
             "lease is reclaimed and its holder fenced at commit time",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="consecutive batch failures before a shard's circuit "
             "breaker opens (requests answered with ShardUnavailableError)",
    )
    serve.add_argument(
        "--breaker-cooldown-ms", type=float, default=5_000.0,
        help="how long an open breaker fences its shard before letting "
             "one half-open probe through",
    )
    return parser


def _demo_environment(workspace: Optional[pathlib.Path]):
    root = workspace or pathlib.Path(tempfile.mkdtemp(prefix="repro_demo_"))
    hybrid = HybridFramework(root)
    resources = hybrid.jcf.resources
    resources.define_user("admin", "demo_user")
    resources.define_team("admin", "demo_team")
    resources.add_member("admin", "demo_user", "demo_team")
    hybrid.setup_standard_flow()
    library = hybrid.fmcad.create_library("demo_lib")
    library.create_cell("buffer2")
    project = hybrid.adopt_library("demo_user", library, "demo_project")
    resources.assign_team_to_project("admin", "demo_team", project.oid)
    hybrid.prepare_cell("demo_user", project, "buffer2",
                        team_name="demo_team")
    return root, hybrid, project, library


def _run_demo_flow(hybrid, project, library):
    def edit(editor):
        editor.add_port("a", "in")
        editor.add_port("y", "out")
        editor.place_gate("i0", "NOT", 1)
        editor.place_gate("i1", "NOT", 1)
        editor.wire("a", "i0", "in0")
        editor.wire("n", "i0", "out")
        editor.wire("n", "i1", "in0")
        editor.wire("y", "i1", "out")

    def bench(testbench):
        testbench.drive(0, "a", "0")
        testbench.expect(30, "y", "0")
        testbench.drive(50, "a", "1")
        testbench.expect(80, "y", "1")

    def layout(editor):
        editor.draw_rect("metal1", 0, 0, 40, 4)
        editor.add_label("a", "metal1", 1, 1)
        editor.draw_rect("metal1", 0, 10, 40, 14)
        editor.add_label("y", "metal1", 1, 11)

    return [
        hybrid.run_schematic_entry("demo_user", project, library,
                                   "buffer2", edit),
        hybrid.run_simulation("demo_user", project, library,
                              "buffer2", bench),
        hybrid.run_layout_entry("demo_user", project, library,
                                "buffer2", layout),
    ]


def cmd_info(out) -> int:
    out.write(f"repro {repro.__version__}\n")
    out.write(
        "reproduction of Kunzmann & Seepold, DATE 1995 "
        "(JCF-FMCAD hybrid framework)\n\n"
    )
    out.write("implemented systems:\n")
    for line in (
        "  repro.oms       OMS object-oriented database kernel",
        "  repro.jcf       JESSI-COMMON-Framework 3.0 (master)",
        "  repro.fmcad     ECAD framework 'FMCAD' (slave)",
        "  repro.tools     schematic entry / layout editor / digital "
        "simulator",
        "  repro.core      the JCF-FMCAD coupling (the paper's "
        "contribution)",
        "  repro.workloads synthetic designs and multi-user agents",
    ):
        out.write(line + "\n")
    out.write("\nTable 1 mapping:\n")
    for jcf_kind, fmcad_kind in TABLE1_MAPPING:
        out.write(f"  {jcf_kind:22s} <-> {fmcad_kind}\n")
    return 0


def cmd_demo(out, workspace: Optional[pathlib.Path]) -> int:
    root, hybrid, project, library = _demo_environment(workspace)
    out.write(f"demo environment: {root}\n")
    results = _run_demo_flow(hybrid, project, library)
    for result in results:
        status = "ok" if result.success else "FAILED"
        out.write(f"  {result.activity_name:20s} {status}  "
                  f"({result.details})\n")
    variant = (
        project.cell("buffer2").latest_version().variant(WORKING_VARIANT)
    )
    out.write("\nderivation record:\n")
    for key, record in hybrid.jcf.engine.what_belongs_to_what(
        variant
    ).items():
        out.write(f"  {key}: needs={record['needs']} "
                  f"creates={record['creates']}\n")
    out.write(
        f"\nsimulated designer time: {hybrid.clock.now_ms:,.0f} ms\n"
    )
    read_path = hybrid.read_path_stats()
    cache = read_path.get("cache", {})
    out.write(
        "read path: "
        f"cache hits={cache.get('hits', 0)} "
        f"misses={cache.get('misses', 0)}, "
        f"query memo hits={read_path['query_memo']['hits']}, "
        f"staging reflinks={read_path['staging_reflinks']}, "
        f"checkout clones={read_path['checkout_clones']}\n"
    )
    if workspace is not None:
        saved = hybrid.save_state()
        out.write(f"saved: {saved}\n")
    return 0 if all(r.success for r in results) else 1


def cmd_selfcheck(out) -> int:
    root, hybrid, project, library = _demo_environment(None)
    results = _run_demo_flow(hybrid, project, library)
    failures: List[str] = []
    if not all(r.success for r in results):
        failures.append("a coupled tool run failed")
    variant = (
        project.cell("buffer2").latest_version().variant(WORKING_VARIANT)
    )
    if not hybrid.jcf.engine.state_of(variant).complete:
        failures.append("flow did not complete")
    record = hybrid.jcf.engine.what_belongs_to_what(variant)
    if len(record) != 3 or not all(e["creates"] for e in record.values()):
        failures.append("derivation record incomplete")
    findings = hybrid.guard.scan(project, library)
    if findings:
        failures.append(f"consistency scan found {len(findings)} problems")
    if failures:
        for failure in failures:
            out.write(f"FAIL: {failure}\n")
        return 1
    out.write("selfcheck passed: flow complete, derivations recorded, "
              "environment consistent\n")
    return 0


def cmd_consult(out) -> int:
    from repro.core.consultant import DesignConsultant

    root, hybrid, project, library = _demo_environment(None)

    # run only the first activity, leaving the flow half-done so the
    # consultant has something to advise about
    def edit(editor):
        editor.add_port("a", "in")
        editor.add_port("y", "out")
        editor.place_gate("i0", "NOT", 1)
        editor.place_gate("i1", "NOT", 1)
        editor.wire("a", "i0", "in0")
        editor.wire("n", "i0", "out")
        editor.wire("n", "i1", "in0")
        editor.wire("y", "i1", "out")

    result = hybrid.run_schematic_entry(
        "demo_user", project, library, "buffer2", edit
    )
    consultant = DesignConsultant(hybrid.jcf, guard=hybrid.guard)
    advice = consultant.advise(project, library)
    out.write(DesignConsultant.render(advice) + "\n")
    return 0 if result.success else 1


def _open_for_inspection(workspace: Optional[pathlib.Path]):
    """A hybrid environment to audit/recover.

    A saved workspace — one containing a WAL directory (checkpoint +
    log) — is reopened in place, the restart path recovery is designed
    for.  Naming a workspace without one is an error: auditing anything
    other than the named store would report a state nobody asked about.
    With no workspace at all, a demo environment is built and its flow
    run, so the commands have a real (healthy) coupling to inspect.
    """
    if workspace is not None:
        from repro.core.coupling import WAL_DIR_NAME
        from repro.oms.wal import WriteAheadLog

        if not WriteAheadLog.present_at(workspace / "jcf" / WAL_DIR_NAME):
            raise ReproError(
                f"no WAL directory in {workspace}: not a saved hybrid "
                "workspace (see 'demo', or HybridFramework.save_state())"
            )
        return HybridFramework.reopen(workspace)
    root, hybrid, project, library = _demo_environment(None)
    _run_demo_flow(hybrid, project, library)
    return hybrid


def cmd_audit(out, workspace: Optional[pathlib.Path]) -> int:
    hybrid = _open_for_inspection(workspace)
    report = hybrid.audit()
    out.write(report.render() + "\n")
    return 0 if report.clean else 1


def cmd_recover(out, workspace: Optional[pathlib.Path]) -> int:
    hybrid = _open_for_inspection(workspace)
    report = hybrid.recover()
    out.write(report.summary() + "\n")
    audit = hybrid.audit()
    out.write(audit.render() + "\n")
    if workspace is not None:
        # checkpoint the repaired state so the next reopen starts from
        # it instead of replaying the log of the crashed process
        hybrid.save_state()
    return 0 if audit.clean else 1


def cmd_scrub(out, workspace: Optional[pathlib.Path], repair: bool) -> int:
    from repro.integrity import Scrubber

    hybrid = _open_for_inspection(workspace)
    report = Scrubber(hybrid.jcf, hybrid.fmcad).scrub(repair=repair)
    out.write(report.render() + "\n")
    if repair and workspace is not None:
        # repairs rewrote files and may have converted delta payloads to
        # full ones; persist so the next reopen sees the healed store
        hybrid.save_state()
    return 0 if report.ok else 1


def cmd_flows(
    out,
    action: str,
    workspace: Optional[pathlib.Path],
    instance_oid: Optional[str] = None,
) -> int:
    from repro.jcf.model import FLOW_DEAD_LETTER

    hybrid = _open_for_inspection(workspace)
    orchestrator = hybrid.flows_orchestrator
    if action == "resume":
        # recovery first: adopt stranded instances, fail interrupted
        # executions — resume_pending needs the quiesced, repaired state
        hybrid.recover()
        results = orchestrator.resume_pending()
        if not results:
            out.write("flows resume: nothing pending\n")
        for oid, state in results:
            out.write(f"  {oid}: {state}\n")
        if workspace is not None:
            hybrid.save_state()
    elif action == "retry":
        retried = []
        for instance in orchestrator.instances(status=FLOW_DEAD_LETTER):
            if instance_oid is not None and instance.oid != instance_oid:
                continue
            orchestrator.retry_dead_letter(instance)
            retried.append(instance.oid)
        if not retried:
            out.write("flows retry: no matching dead-letter instances\n")
        for oid in retried:
            out.write(f"  {oid}: re-queued with a fresh budget epoch\n")
        if workspace is not None and retried:
            hybrid.save_state()
    instances = orchestrator.instances()
    if not instances:
        out.write("no durable flow instances\n")
        return 0
    out.write(
        f"{'instance':14s} {'flow':18s} {'cell':10s} {'team':10s} "
        f"{'prio':>4s} {'status':12s} note\n"
    )
    dead = 0
    for instance in instances:
        if instance.status == FLOW_DEAD_LETTER:
            dead += 1
        out.write(
            f"{instance.oid:14s} {instance.flow_name:18s} "
            f"{instance.cell_name:10s} {instance.team:10s} "
            f"{instance.priority:4d} {instance.status:12s} "
            f"{instance.note}\n"
        )
    return 1 if (action == "list" and dead) else 0


def cmd_serve(out, args) -> int:
    """Boot a DesignServer and run it until interrupted."""
    import asyncio

    from repro.server.design_server import DesignServer

    if args.workspace is not None:
        hybrid = _open_for_inspection(args.workspace)
        out.write(f"serving saved workspace {args.workspace}\n")
    else:
        from repro.workloads.loadgen import ScenarioSpec, build_scenario

        root = pathlib.Path(tempfile.mkdtemp(prefix="repro_serve_"))
        hybrid, plans = build_scenario(root / "env", ScenarioSpec())
        out.write(
            f"serving fresh scenario in {root} "
            f"({len(plans)} designer sessions provisioned)\n"
        )

    server = DesignServer(
        hybrid,
        host=args.host,
        port=args.port,
        shards=args.shards,
        max_batch=args.max_batch,
        window_ms=args.window_ms,
        queue_depth=args.queue_depth,
        admission_rate_per_s=args.rate_per_s,
        workers=args.workers,
        lease_ttl_ms=args.lease_ttl_ms,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_ms=args.breaker_cooldown_ms,
    )

    async def run() -> None:
        host, port = await server.start()
        out.write(
            f"listening on {host}:{port} "
            f"(shards={args.shards}, window={args.window_ms}ms, "
            f"batch<={args.max_batch})\n"
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            # Ctrl-C cancels the main task; drain in the SAME loop so the
            # in-flight windows commit and their clients get answers
            out.write("interrupt: draining in-flight windows...\n")
        finally:
            await server.stop()
            out.write("server stopped cleanly\n")

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    if args.command == "info":
        return cmd_info(out)
    if args.command == "demo":
        return cmd_demo(out, args.workspace)
    if args.command == "selfcheck":
        return cmd_selfcheck(out)
    if args.command == "consult":
        return cmd_consult(out)
    if args.command == "audit":
        try:
            return cmd_audit(out, args.workspace)
        except ReproError as error:
            out.write(f"error: {error}\n")
            return 2
    if args.command == "recover":
        try:
            return cmd_recover(out, args.workspace)
        except ReproError as error:
            out.write(f"error: {error}\n")
            return 2
    if args.command == "scrub":
        try:
            return cmd_scrub(out, args.workspace, args.repair)
        except ReproError as error:
            out.write(f"error: {error}\n")
            return 2
    if args.command == "flows":
        try:
            return cmd_flows(out, args.action, args.workspace, args.instance)
        except ReproError as error:
            out.write(f"error: {error}\n")
            return 2
    if args.command == "serve":
        try:
            return cmd_serve(out, args)
        except ReproError as error:
            out.write(f"error: {error}\n")
            return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
