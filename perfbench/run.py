"""The repository benchmark: served checkins end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload steady_commit --seed 1 \\
        --seconds 60 --trace 0

Each *round* builds the workload's workspace from the seed in a fresh
server process (``perfbench/server.py``, the shipped ``repro serve``
defaults), drives a fixed number of closed-loop runs over two sockets,
SIGKILLs the server, restarts it through ``reopen`` / ``recover()`` /
``audit()``, checks that every acked checkin is present exactly once and
serves the prepared cells it kept in reserve.  After one unreported
warm-up round at the workload's smoke size, a run makes as many rounds
as fit into ``--seconds`` (at least one).  Every round is the same
program, so each figure is taken per round and the run reports its
median over the rounds: a slow stretch of the machine that covers a
minority of the rounds does not move it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the
traced ones, plus ``trace.overhead``.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the exit code is 1 when a check fails (a lost or double-committed acked
checkin, a dirty post-restart audit, an incomplete design flow) and 2
when the repository or the server cannot be run at all.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import math
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from client import (  # noqa: E402
    Connection, RunRecord, Tally, bye, open_session, send_runs,
)
from tracer import summarize  # noqa: E402
from workloads import (  # noqa: E402
    SMOKE, VIEWS_OF, WORKLOADS, make_plan,
)

#: seconds a server gets to print READY (the churn set-up takes ~7 s)
READY_TIMEOUT_S = 60.0
#: session opens per connection after the measured phase of the workloads
#: that keep one long-lived session (session_churn opens on its path)
PROBE_OPENS = 60

END_TO_END = {
    "checkins_per_s": "1/s",
    "checkin_p50_ms": "ms",
    "session_open_p50_ms": "ms",
    "restart_s": "s",
    "setup_s": "s",
    "bytes_written_per_checkin": "B",
    "server_cpu_ms_per_checkin": "ms",
    "server_rss_mb": "MB",
    "ok_ratio": "1",
}

PER_LAYER = {
    "server.open_session_ms": "ms",
    "server.submit_ms": "ms",
    "server.window_wait_ms": "ms",
    "server.batch_runs": "count",
    "server.refusals": "1",
    "core.scheduler.run_ms": "ms",
    "core.scheduler.gate_wait_ms": "ms",
    "core.scheduler.deferred": "1",
    "core.encapsulation.run_ms": "ms",
    "tools.ms": "ms",
    "jcf.resources.lookup_ms": "ms",
    "jcf.project.lookup_ms": "ms",
    "jcf.flow_engine.ms": "ms",
    "jcf.triggers.ms": "ms",
    "fmcad.checkout_ms": "ms",
    "fmcad.checkin_ms": "ms",
    "fmcad.flush_meta_ms": "ms",
    "fmcad.flush_meta_bytes": "B",
    "fmcad.read_version_ms": "ms",
    "fmcad.library_open_ms": "ms",
    "oms.select_ms": "ms",
    "oms.select_calls": "count",
    "oms.select_examined_per_row": "count",
    "oms.transaction_ms": "ms",
    "oms.storage.export_ms": "ms",
    "oms.storage.import_ms": "ms",
    "oms.storage.link_ratio": "1",
    "oms.zerocopy.probe_calls": "count",
    "oms.blobs.materialize_ms": "ms",
    "oms.readcache.hit_ratio": "1",
    "oms.locks.wait_ms": "ms",
    "oms.wal.commit_ms": "ms",
    "oms.wal.records_per_run": "count",
    "oms.wal.bytes_per_run": "B",
    "oms.wal.recover_ms": "ms",
    "device.fsync_calls": "count",
    "device.fsync_ms": "ms",
    "core.recovery.recover_ms": "ms",
    "core.consistency.audit_ms": "ms",
    "oms.storage.adopt_ms": "ms",
    "trace.overhead": "1",
}


class BenchmarkError(Exception):
    """The program could not be driven at all (exit 2)."""


@dataclasses.dataclass
class Round:
    """What one round measured and checked."""

    traced: bool
    setup_s: float = 0.0
    wall_s: float = 0.0
    acked: int = 0
    latencies_ms: List[float] = dataclasses.field(default_factory=list)
    opens_ms: List[float] = dataclasses.field(default_factory=list)
    restart_s: float = 0.0
    wchar: int = 0
    cpu_ms: float = 0.0
    rss_mb: float = 0.0
    records: List[RunRecord] = dataclasses.field(default_factory=list)
    problems: List[str] = dataclasses.field(default_factory=list)
    dump: Optional[Dict[str, Any]] = None
    restart_trace: Optional[Dict[str, Any]] = None


# -- the server process -------------------------------------------------------


def proc_sample(pid: int) -> Dict[str, float]:
    """Server ``wchar``, CPU seconds and ``VmHWM`` from ``/proc``."""
    io = pathlib.Path(f"/proc/{pid}/io").read_text()
    wchar = int(next(
        line.split()[1] for line in io.splitlines()
        if line.startswith("wchar:")
    ))
    stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2:].split()
    ticks = os.sysconf("SC_CLK_TCK")
    cpu_s = (int(fields[11]) + int(fields[12])) / ticks
    status = pathlib.Path(f"/proc/{pid}/status").read_text()
    hwm_kb = int(next(
        line.split()[1] for line in status.splitlines()
        if line.startswith("VmHWM:")
    ))
    return {"wchar": wchar, "cpu_s": cpu_s, "hwm_mb": hwm_kb / 1024.0}


class ServerProcess:
    """One ``server.py`` child; always reaped, whatever happens."""

    def __init__(self, root: pathlib.Path, work: pathlib.Path) -> None:
        self.root = root
        self.work = work
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.log = work / "server.log"

    async def start(self, *args: str) -> int:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONHASHSEED"] = "0"
        env["TMPDIR"] = str(self.work / "tmp")
        with open(self.log, "ab") as log:
            self.proc = await asyncio.create_subprocess_exec(
                sys.executable, str(HERE / "server.py"), *args,
                cwd=str(self.root), env=env,
                stdout=asyncio.subprocess.PIPE, stderr=log,
            )
        try:
            line = await asyncio.wait_for(
                self.proc.stdout.readline(), READY_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            line = b""
        if not line.startswith(b"READY "):
            await self.kill()
            tail = self.log.read_text(errors="replace")[-2000:]
            raise BenchmarkError(f"server did not start:\n{tail}")
        return int(line.split()[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    async def kill(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


# -- one round ----------------------------------------------------------------


async def drive_connection(
    port: int, connection: Dict[str, Any], in_flight: int, tally: Tally,
    round_: Round,
) -> None:
    for session in connection["sessions"]:
        conn = Connection()
        opened_ms, ok = await open_session(conn, port, session, tally)
        round_.opens_ms.append(opened_ms)
        if not ok:
            await conn.close()
            continue
        round_.records.extend(
            await send_runs(conn, session["runs"], in_flight, tally)
        )
        await bye(conn, tally)


async def probe_opens(
    port: int, connection: Dict[str, Any], tally: Tally, round_: Round
) -> None:
    session = connection["sessions"][0]
    for _ in range(PROBE_OPENS):
        conn = Connection()
        opened_ms, _ok = await open_session(conn, port, session, tally)
        round_.opens_ms.append(opened_ms)
        await bye(conn, tally)


async def wait_for_file(path: pathlib.Path, timeout_s: float) -> None:
    deadline = time.monotonic() + timeout_s
    while not path.exists():
        if time.monotonic() > deadline:
            raise BenchmarkError(f"server wrote no {path.name}")
        await asyncio.sleep(0.02)


def check_versions(
    plan: Dict[str, Any], records: List[RunRecord],
    versions: Dict[str, int],
) -> List[str]:
    """Every acked run's checkins present exactly once after restart."""
    library_of = {
        cell: team["library"]
        for team in plan["teams"]
        for designer in team["designers"]
        for cell in designer["cells"]
    }
    problems = []
    for record in records:
        if not record.ok:
            continue
        for view in VIEWS_OF[record.activity]:
            key = f"{library_of[record.cell]}/{record.cell}/{view}"
            count = versions.get(key, 0)
            if count != 1:
                kind = "lost" if count == 0 else "double-committed"
                problems.append(
                    f"acked {record.activity} on {record.cell}: {key} has "
                    f"{count} versions ({kind})"
                )
    return problems


def check_flows(records: List[RunRecord]) -> List[str]:
    """design_cycle: every cell's flow ends with its layout accepted."""
    cells = {r.cell for r in records}
    laid_out = {
        r.cell for r in records if r.activity == "layout_entry" and r.ok
    }
    return [
        f"design flow of {cell} incomplete: layout not accepted"
        for cell in sorted(cells - laid_out)
    ]


def settle(work: pathlib.Path) -> None:
    """Delete a round's files and flush the filesystem before the next.

    The filesystem may discard freed blocks at journal commit, so files
    deleted while a round runs slow down its fsyncs; the sync makes the
    previous round's deletions finish before anything is timed.
    """
    for name in ("ws", "tmp", "dump.json"):
        path = work / name
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()
    os.sync()


async def run_round(
    root: pathlib.Path, work: pathlib.Path, plan: Dict[str, Any],
    plan_path: pathlib.Path, traced: bool, tally: Tally,
) -> Round:
    round_ = Round(traced=traced)
    workspace = work / "ws"
    dump = work / "dump.json"
    (work / "tmp").mkdir(exist_ok=True)
    trace_args = ["--trace", "--dump", str(dump)] if traced else []
    server = ServerProcess(root, work)
    restarted = ServerProcess(root, work)
    try:
        started = time.perf_counter()
        port = await server.start(
            "--mode", "setup", "--plan", str(plan_path),
            "--workspace", str(workspace), *trace_args,
        )
        round_.setup_s = time.perf_counter() - started

        before = proc_sample(server.pid)
        started = time.perf_counter()
        await asyncio.gather(*(
            drive_connection(port, c, plan["in_flight"], tally, round_)
            for c in plan["connections"]
        ))
        round_.wall_s = time.perf_counter() - started
        after = proc_sample(server.pid)
        measured = round_.records
        round_.acked = sum(1 for r in measured if r.ok)
        round_.latencies_ms = [r.latency_ms for r in measured if r.ok]
        round_.wchar = after["wchar"] - before["wchar"]
        round_.cpu_ms = (after["cpu_s"] - before["cpu_s"]) * 1000.0
        round_.rss_mb = after["hwm_mb"]
        if plan["workload"] != "session_churn":
            # one connection at a time: the opens measure the session
            # path on a quiet server, not two hellos racing each other
            round_.opens_ms = []
            for connection in plan["connections"]:
                await probe_opens(port, connection, tally, round_)
        if traced:
            server.proc.send_signal(signal.SIGUSR1)
            await wait_for_file(dump, 60.0)
            round_.dump = json.loads(dump.read_text())

        killed = time.perf_counter()
        await server.kill()
        port = await restarted.start(
            "--mode", "restart", "--workspace", str(workspace), *trace_args,
        )
        for index, connection in enumerate(plan["connections"]):
            reserve = connection["reserve"]
            conn = Connection()
            _ms, ok = await open_session(conn, port, reserve["session"],
                                         tally)
            if index == 0:
                round_.restart_s = time.perf_counter() - killed
            if not ok:
                round_.problems.append("hello refused after restart")
                await conn.close()
                continue
            runs = [
                [cell, "schematic_entry", "inverter_chain", {"stages": 2}]
                for cell in reserve["cells"]
            ]
            await send_runs(conn, runs, 1, tally)
            await bye(conn, tally)
    finally:
        await server.kill()
        await restarted.kill()
    check = json.loads((workspace / "check.json").read_text())
    if traced:
        round_.restart_trace = json.loads(
            (workspace / "restart_trace.json").read_text()
        )

    if not check["audit_clean"]:
        round_.problems.append(
            f"post-restart audit dirty: {check['findings'][:5]}"
        )
    round_.problems.extend(
        check_versions(plan, measured, check["versions"])
    )
    if plan["workload"] == "design_cycle":
        round_.problems.extend(check_flows(measured))
    settle(work)
    return round_


# -- metrics ------------------------------------------------------------------


def percentile(values: List[float], pct: float) -> float:
    """Harrell-Davis estimate of the *pct*-th percentile.

    A weighted mean of every order statistic, the weights being a Beta
    distribution's mass over each one's rank interval: the same target
    as picking one order statistic, with much less run-to-run scatter
    in a tail percentile taken from a few hundred samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a = pct / 100.0 * (n + 1)
    b = (1.0 - pct / 100.0) * (n + 1)
    steps = 64  # integration points per rank interval
    logs = []
    for k in range(n * steps):
        x = (k + 0.5) / (n * steps)
        logs.append((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x))
    peak = max(logs)
    density = [math.exp(v - peak) for v in logs]
    total = sum(density)
    return sum(
        value * sum(density[i * steps:(i + 1) * steps])
        for i, value in enumerate(ordered)
    ) / total


def end_to_end(rounds: List[Round], tally: Tally) -> Dict[str, float]:
    # the percentiles too are per round, then the median over rounds: a
    # slow stretch of the machine shifts every sample of the rounds it
    # covers, so pooling the samples would let one slow round move them
    def each(figure) -> float:
        return statistics.median(figure(r) for r in rounds)

    return {
        "checkins_per_s": each(lambda r: r.acked / r.wall_s),
        "checkin_p50_ms": each(lambda r: percentile(r.latencies_ms, 50)),
        "session_open_p50_ms": each(lambda r: percentile(r.opens_ms, 50)),
        "restart_s": each(lambda r: r.restart_s),
        "setup_s": each(lambda r: r.setup_s),
        "bytes_written_per_checkin": each(lambda r: r.wchar / r.acked),
        "server_cpu_ms_per_checkin": each(lambda r: r.cpu_ms / r.acked),
        "server_rss_mb": each(lambda r: r.rss_mb),
        # acked share of every op, so it never reads 0
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
    }


def layers(round_: Round) -> Dict[str, float]:
    """Per-layer figures of one traced round, per acked run or session."""
    dump = round_.dump
    counters = dump["counters"]
    serve = summarize(dump).get("serve", {})
    restart = summarize(round_.restart_trace).get("restart", {})
    stats, base = dump["stats"], dump["baseline"]
    acked = max(round_.acked, 1)
    sessions = max(serve.get("server.open_session", {}).get("calls", 0), 1)

    def self_ms(name: str, per: float = acked, phase=serve) -> float:
        return phase.get(name, {}).get("self_s", 0.0) * 1000.0 / per

    def wall_ms(name: str, per: float = acked, phase=serve) -> float:
        return phase.get(name, {}).get("wall_s", 0.0) * 1000.0 / per

    def calls(name: str) -> float:
        return serve.get(name, {}).get("calls", 0) / acked

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    shards = stats["engine"]["per_shard"]
    refused = sum(
        sum(s["admission"]["rejected"].values()) + s["deadline_shed"]
        + s["fenced"] for s in shards
    )
    submits = sum(s["admission"]["admitted"] for s in shards) + refused
    base_submits = sum(
        s["admission"]["admitted"] for s in base["engine"]["per_shard"]
    )
    staging = stats["staging"]
    runs = round_.records
    waits, sizes = dump["window_waits_ms"], dump["batch_sizes"]
    return {
        "server.open_session_ms": self_ms("server.open_session", sessions),
        "server.submit_ms": self_ms("server.submit"),
        "server.window_wait_ms": ratio(sum(waits), len(waits)),
        "server.batch_runs": ratio(sum(sizes), len(sizes)),
        "server.refusals": ratio(refused, submits - base_submits),
        "core.scheduler.run_ms": self_ms("core.scheduler.run"),
        "core.scheduler.gate_wait_ms": wall_ms("core.scheduler.gate_wait"),
        "core.scheduler.deferred": ratio(
            sum(1 for r in runs if r.status in ("deferred", "blocked")),
            len(runs),
        ),
        "core.encapsulation.run_ms": self_ms("core.encapsulation.run"),
        "tools.ms": self_ms("tools"),
        "jcf.resources.lookup_ms": self_ms("jcf.resources.lookup", sessions),
        "jcf.project.lookup_ms": self_ms("jcf.project.lookup"),
        "jcf.flow_engine.ms": self_ms("jcf.flow_engine"),
        "jcf.triggers.ms": self_ms("jcf.triggers"),
        "fmcad.checkout_ms": self_ms("fmcad.checkout"),
        "fmcad.checkin_ms": self_ms("fmcad.checkin"),
        "fmcad.flush_meta_ms": self_ms("fmcad.flush_meta"),
        "fmcad.flush_meta_bytes": counters.get("meta_bytes", 0) / acked,
        "fmcad.read_version_ms": self_ms("fmcad.read_version"),
        "fmcad.library_open_ms": self_ms("fmcad.library_open", 1, restart),
        "oms.select_ms": self_ms("oms.select"),
        "oms.select_calls": calls("oms.select"),
        "oms.select_examined_per_row": ratio(
            counters.get("select_examined", 0), counters.get("select_rows", 0)
        ),
        "oms.transaction_ms": self_ms("oms.transaction"),
        "oms.storage.export_ms": self_ms("oms.storage.export"),
        "oms.storage.import_ms": self_ms("oms.storage.import"),
        "oms.storage.link_ratio": ratio(
            staging["export_links"] + staging["export_reflinks"]
            - base["staging"]["export_links"]
            - base["staging"]["export_reflinks"],
            staging["files_exported"] - base["staging"]["files_exported"],
        ),
        "oms.zerocopy.probe_calls": counters.get("probe_calls", 0) / acked,
        "oms.blobs.materialize_ms": self_ms("oms.blobs.materialize"),
        "oms.readcache.hit_ratio": ratio(
            counters.get("cache_hits", 0), counters.get("cache_gets", 0)
        ),
        "oms.locks.wait_ms": wall_ms("oms.locks.wait"),
        "oms.wal.commit_ms": self_ms("oms.wal.commit"),
        "oms.wal.records_per_run": (
            stats["wal"]["records_appended"]
            - base["wal"]["records_appended"]
        ) / acked,
        "oms.wal.bytes_per_run": (
            stats["wal"]["bytes_appended"] - base["wal"]["bytes_appended"]
        ) / acked,
        "oms.wal.recover_ms": wall_ms("oms.wal.recover", 1, restart),
        "device.fsync_calls": calls("device.fsync"),
        "device.fsync_ms": wall_ms("device.fsync"),
        "core.recovery.recover_ms": self_ms(
            "core.recovery.recover", 1, restart
        ),
        "core.consistency.audit_ms": self_ms(
            "core.consistency.audit", 1, restart
        ),
        "oms.storage.adopt_ms": self_ms("oms.storage.adopt", 1, restart),
    }


def per_layer(rounds: List[Round]) -> Dict[str, float]:
    traced = [layers(r) for r in rounds if r.traced]
    result = {
        name: statistics.median(t[name] for t in traced)
        for name in traced[0]
    }
    rate = {
        flag: statistics.median(
            r.acked / r.wall_s for r in rounds if r.traced == flag
        )
        for flag in (False, True)
    }
    result["trace.overhead"] = rate[True] / rate[False] - 1.0
    return result


# -- entry point --------------------------------------------------------------


def warm_bytecode(root: pathlib.Path) -> None:
    """Compile the sources once, so no server start pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src"),
         str(HERE)],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )


async def run_rounds(
    root: pathlib.Path, work: pathlib.Path, warm_plan: Dict[str, Any],
    plan: Dict[str, Any], seconds: float, trace: bool, tally: Tally,
) -> Tuple[Round, List[Round]]:
    """The warm-up round, then as many rounds as fit into *seconds*.

    Every round is the same program on a fresh workspace, so the number
    of rounds changes how many samples the medians take, never what one
    round measures.  Another round starts only while one of the median
    length so far still fits, so a slow machine makes fewer rounds, not
    a longer run.  A traced run makes at least one untraced and one
    traced round.
    """
    warm_path = work / "warm_plan.json"
    warm_path.write_text(json.dumps(warm_plan))
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    # SIGTERM cancels the run, so every server it started is still reaped
    asyncio.get_running_loop().add_signal_handler(
        signal.SIGTERM, asyncio.current_task().cancel
    )
    settle(work)
    # an unreported first round at the smoke size: the first server of a
    # run starts with cold caches and was measured up to 30% slower than
    # the rounds after it; its checks still count
    warm_up = await run_round(root, work, warm_plan, warm_path, False,
                              Tally())
    measured: List[Round] = []
    lengths: List[float] = []
    started = time.monotonic()
    while (len(measured) < (2 if trace else 1) or time.monotonic()
           - started + statistics.median(lengths) <= seconds):
        began = time.monotonic()
        # with --trace 1 the rounds alternate untraced, traced, ...
        measured.append(await run_round(
            root, work, plan, plan_path, trace and len(measured) % 2 == 1,
            tally,
        ))
        lengths.append(time.monotonic() - began)
    return warm_up, measured


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the small shape of the workload (tests)",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"{root}: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    shape = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    plan = make_plan(shape, args.seed)
    warm_plan = make_plan(SMOKE[args.workload], args.seed)
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        warm_bytecode(root)
        warm_up, rounds = asyncio.run(run_rounds(
            root, work, warm_plan, plan, args.seconds, bool(args.trace),
            tally,
        ))
    except (BenchmarkError, OSError, subprocess.SubprocessError,
            asyncio.TimeoutError, asyncio.CancelledError) as exc:
        print(f"benchmark could not run: {exc!r}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
        os.sync()
    for index, r in enumerate(rounds):
        print(
            f"round {index}{' traced' if r.traced else ''}: "
            f"{r.acked} acked in {r.wall_s:.2f}s "
            f"({r.acked / r.wall_s:.2f}/s), "
            f"p50 {percentile(r.latencies_ms, 50):.1f}ms, "
            f"p90 {percentile(r.latencies_ms, 90):.1f}ms, "
            f"cpu {r.cpu_ms / r.acked:.2f}ms/run, "
            f"{len(r.opens_ms)} opens p50 {percentile(r.opens_ms, 50):.2f}ms, "
            f"setup {r.setup_s:.2f}s, restart {r.restart_s:.2f}s",
            file=sys.stderr,
        )
    problems = [p for r in [warm_up, *rounds] for p in r.problems]
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if args.trace:
        values, units = per_layer(rounds), PER_LAYER
    else:
        values, units = end_to_end(rounds, tally), END_TO_END
    acked = sum(r.acked for r in rounds)
    print(
        f"{args.workload}: {len(rounds)} rounds, {acked} acked runs, "
        f"{tally.attempted} ops, {tally.failed} failed {tally.errors}",
        file=sys.stderr,
    )
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
