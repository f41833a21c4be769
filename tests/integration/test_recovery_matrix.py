"""Property: recovery repairs exactly what one audit lists.

Each example crashes a scheduled wave or an unscheduled coupled run at
one fault point, optionally next to a version written through FMCAD
directly (a noted ``orphan-version``), optionally damages the library's
``.meta`` at rest, reopens or not, then audits and recovers.  Every finding that names a
repair rule must match exactly one ``RecoveryReport`` item, per
category; a noted finding (no rule) matches none; and the audit after
recovery lists exactly the noted findings.
"""

import pathlib
import tempfile
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consistency import DROP
from repro.core.coupling import HybridFramework
from repro.faults import FAULT_POINTS, CrashFault, FaultPlan, inject
from tests.conftest import (
    appended_meta_lines,
    build_inverter_editor_fn,
    build_wave_environment,
    flip_meta_line,
    schematic_wave,
)

#: the fault points of a coupled run and of its scheduled wave
RUN_POINTS = [
    point for point in FAULT_POINTS
    if point.split(".")[0] in ("run", "harvest", "wave", "checkout")
]


def torn_tail(meta):
    """Append the first half of the last batch again, unclosed."""
    lines = appended_meta_lines(meta)
    closings = [i for i, (_, line) in enumerate(lines) if b" tick=" in line]
    start = closings[-2] + 1 if len(closings) > 1 else 0
    batch = b"".join(line for _, line in lines[start:closings[-1] + 1])
    with open(meta, "ab") as handle:
        handle.write(batch[: len(batch) // 2])


#: at-rest damage to ``.meta``, applied after the crash
DAMAGE = {
    "property-line": lambda meta: flip_meta_line(meta, b"p"),
    "torn-tail": torn_tail,
    "stale-temp": lambda meta: meta.with_name(".meta.tmp").write_bytes(
        b"#FMCAD-META 2\ntick="
    ),
}

#: rule -> the report fields one finding's repair lands in
FIELDS = {
    "cut-wal-tail": ("wal_repairs",),
    "settle-version": ("deleted_fmcad_versions", "repaired_tags"),
    "fail-execution": ("failed_executions",),
    "close-session": ("closed_sessions",),
    "cancel-ticket": ("cancelled_tickets",),
    "release-reservation": ("released_reservations",),
    "settle-flow": ("adopted_flows", "compensated_flows"),
    "reclaim-staging-file": ("reclaimed_staging_files",),
    "reclaim-lease": ("reclaimed_leases",),
    "reclaim-fmcad-file": ("reclaimed_fmcad_files",),
    "scrub": ("repaired_payloads", "quarantined_payloads"),
}


def expected_item(finding):
    """The report entry *finding*'s repair writes, where it is known."""
    item = finding.item
    if finding.rule == "settle-version":
        library, cellview, version, settle = item
        where = f"{library.name}:{cellview.name} v{version.number}"
        return where if settle == DROP else f"{where} -> {settle}"
    if finding.rule in ("fail-execution", "settle-flow"):
        return (item[0] if finding.rule == "settle-flow" else item).oid
    if finding.rule == "close-session":
        return item.session_id
    if finding.rule == "cancel-ticket":
        return f"{item.cellview_key} ({item.user})"
    if finding.rule == "reclaim-fmcad-file":
        return item[1]
    if finding.rule == "reclaim-staging-file":
        return item.name
    if finding.rule == "scrub":
        # the entry is the scrub finding with its outcome in brackets
        return finding.detail.partition("] ")[2]
    return None


def assert_one_repair_per_finding(audit, report):
    entries = Counter(
        (name, entry)
        for name, items in vars(report).items()
        for entry in items
    )
    for finding in audit.findings:
        if finding.rule is None:
            continue
        expected = expected_item(finding)
        scrubbed = finding.rule == "scrub"
        matches = [
            (field, entry) for (field, entry), count in entries.items()
            if count and field in FIELDS[finding.rule] and expected in (
                None, entry.partition("] ")[2] if scrubbed else entry
            )
        ]
        assert matches, (
            f"[{finding.category}] {finding.detail}: no repair in\n"
            f"{report.summary()}"
        )
        entries[matches[0]] -= 1
    assert not +entries, (
        f"repairs no finding listed: {sorted(+entries)}\n{audit.render()}"
    )


class TestRecoveryRepairsTheAudit:
    @settings(max_examples=40, deadline=None)
    @given(
        point=st.sampled_from(RUN_POINTS),
        scheduled=st.booleans(),
        direct=st.booleans(),
        reopen=st.booleans(),
        damage=st.sampled_from([None, *DAMAGE]),
    )
    def test_each_repair_is_one_finding(
        self, point, scheduled, direct, reopen, damage
    ):
        with tempfile.TemporaryDirectory(prefix="recovery_hyp_") as tmp:
            root = pathlib.Path(tmp) / "env"
            hybrid, project, library, cells = build_wave_environment(root, 3)
            # an acked wave first: .meta gets an appended batch to damage
            result = hybrid.run_many(
                schematic_wave(project, library, cells[:1])
            )
            assert all(outcome.ok for outcome in result.outcomes)
            if direct:
                layout = library.create_cellview(cells[2], "layout")
                library.write_version(layout, b"hand-drawn", "bob")
                library.flush_meta("bob")
            with inject(FaultPlan.crash(point)):
                try:
                    if scheduled:
                        hybrid.run_many(
                            schematic_wave(project, library, cells[1:])
                        )
                    else:
                        hybrid.run_schematic_entry(
                            "alice", project, library, cells[1],
                            build_inverter_editor_fn(),
                        )
                except CrashFault:
                    pass
            if damage is not None:
                DAMAGE[damage](library.metafile.path)
            if reopen or damage is not None:
                hybrid = HybridFramework.reopen(root)

            audit = hybrid.audit()
            report = hybrid.recover()
            assert_one_repair_per_finding(audit, report)
            after = hybrid.audit()
            assert sorted(map(str, after.findings)) == sorted(
                str(finding) for finding in audit.findings
                if finding.rule is None
            ), after.render()
            assert hybrid.recover().empty()
