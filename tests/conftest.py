"""Shared fixtures: wired-up frameworks rooted in pytest tmp dirs."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.clock import SimClock
from repro.core.coupling import HybridFramework
from repro.fmcad.framework import FMCADFramework
from repro.jcf.flows import standard_encapsulation_flow
from repro.jcf.framework import JCFFramework
from repro.oms import zerocopy
from repro.oms.database import OMSDatabase
from repro.oms.schema import AttributeDef, Schema


#: the real :func:`os.fsync`, for the few tests that need one issued
REAL_FSYNC = os.fsync


@pytest.fixture(autouse=True, scope="session")
def _no_op_fsync():
    """Run the suite with ``os.fsync`` a no-op.

    The code always fsyncs; the suite swaps the disk's flush out instead
    of switching the code, which keeps it fast on real disks.  Patched
    directly rather than through ``monkeypatch``, whose ``undo()`` some
    tests call mid-test.  Tests that record or fail fsyncs patch
    ``os.fsync`` on top of this; tests that need a real one call
    :data:`REAL_FSYNC`.
    """
    os.fsync = lambda fd: None
    yield
    os.fsync = REAL_FSYNC


def _copying_reflink(src_fd: int, dst_fd: int) -> bool:
    """Stand-in for FICLONE: copy the source's bytes onto *dst_fd*."""
    size = os.fstat(src_fd).st_size
    os.write(dst_fd, os.pread(src_fd, size, 0))
    return True


@pytest.fixture
def fake_reflink(monkeypatch):
    """Make every filesystem "reflink-capable" for the test's duration.

    On filesystems without FICLONE (ext4) the reflink branches of
    staging exports and FMCAD checkouts would silently take their
    write-path fallback; the stand-in copies the bytes instead, so those
    branches, their accounting and their corruption point still run.
    The probe cache is swapped out so no real-primitive probe result
    leaks in or out.
    """
    monkeypatch.setattr(zerocopy, "reflink_supported", _copying_reflink)
    monkeypatch.setattr(zerocopy, "_probed", {})


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def simple_schema():
    """A small generic schema used by the OMS unit tests."""
    schema = Schema("test")
    schema.define_entity(
        "Thing",
        [
            AttributeDef("name", "str", required=True),
            AttributeDef("size", "int", default=0),
            AttributeDef("tags", "list"),
        ],
    )
    schema.define_entity(
        "Box", [AttributeDef("label", "str", required=True)]
    )
    schema.define_relationship("contains", "Box", "Thing", "1:N")
    schema.define_relationship("linked", "Thing", "Thing", "M:N")
    schema.define_relationship("lid_of", "Box", "Box", "1:1")
    return schema


@pytest.fixture
def db(simple_schema, clock):
    return OMSDatabase(simple_schema, clock=clock)


@pytest.fixture
def fmcad(tmp_path, clock):
    return FMCADFramework(tmp_path / "fmcad", clock=clock)


@pytest.fixture
def jcf(tmp_path, clock):
    framework = JCFFramework(tmp_path / "jcf", clock=clock)
    resources = framework.resources
    resources.define_user("admin", "alice")
    resources.define_user("admin", "bob")
    resources.define_user("admin", "carol")
    resources.define_team("admin", "team1")
    resources.add_member("admin", "alice", "team1")
    resources.add_member("admin", "bob", "team1")
    return framework


@pytest.fixture
def jcf_with_flow(jcf):
    jcf.register_flow(standard_encapsulation_flow())
    return jcf


@pytest.fixture
def hybrid(tmp_path):
    """A hybrid framework with users, a team and the standard flow."""
    hy = HybridFramework(tmp_path / "hybrid")
    resources = hy.jcf.resources
    resources.define_user("admin", "alice")
    resources.define_user("admin", "bob")
    resources.define_team("admin", "team1")
    resources.add_member("admin", "alice", "team1")
    resources.add_member("admin", "bob", "team1")
    hy.setup_standard_flow()
    return hy


def build_inverter_editor_fn(n_stages: int = 2):
    """An edit_fn that enters an n-stage inverter chain schematic."""

    def edit(editor):
        editor.add_port("a", "in")
        editor.add_port("y", "out")
        previous = "a"
        for i in range(n_stages):
            editor.place_gate(f"i{i}", "NOT", 1)
            editor.wire(previous, f"i{i}", "in0")
            out_net = "y" if i == n_stages - 1 else f"n{i}"
            editor.wire(out_net, f"i{i}", "out")
            previous = out_net

    return edit


def inverter_testbench_fn(n_stages: int = 2):
    """Testbench for the inverter chain from build_inverter_editor_fn."""
    inverting = n_stages % 2 == 1

    def configure(tb):
        tb.drive(0, "a", "0")
        tb.expect(30, "y", "1" if inverting else "0")
        tb.drive(50, "a", "1")
        tb.expect(80, "y", "0" if inverting else "1")

    return configure


def simple_layout_fn():
    """An edit_fn drawing a minimal DRC-clean labelled layout."""

    def edit(editor):
        editor.draw_rect("metal1", 0, 0, 40, 4)
        editor.add_label("a", "metal1", 1, 1)
        editor.draw_rect("metal1", 0, 10, 40, 14)
        editor.add_label("y", "metal1", 1, 11)

    return edit


@pytest.fixture
def adopted_cell(hybrid):
    """A library with one cell adopted into JCF and reserved by alice.

    Returns (hybrid, project, library, cell_name).
    """
    library = hybrid.fmcad.create_library("chiplib")
    library.create_cell("inv2")
    project = hybrid.adopt_library("alice", library, "chipA")
    hybrid.jcf.resources.assign_team_to_project(
        "admin", "team1", project.oid
    )
    hybrid.prepare_cell("alice", project, "inv2", team_name="team1")
    return hybrid, project, library, "inv2"


#: audit events the namespace_ops fixture records, by kind
_NAMESPACE_EVENTS = {
    "os.mkdir": "mkdir",
    "os.remove": "unlink",
    "os.rmdir": "rmdir",
    "os.listdir": "listdir",
    "os.scandir": "listdir",
    "os.rename": "rename",
    "os.link": "link",
}

_namespace_record = None
_namespace_hooked = False


def _namespace_audit(event, args) -> None:
    record = _namespace_record
    if record is None:
        return
    if event == "open":
        path, _mode, flags = args
        if not isinstance(path, (str, os.PathLike)):
            return
        # an O_CREAT open of a file already there creates no inode
        if flags & os.O_CREAT and not os.path.exists(path):
            record.append(("create", os.fspath(path)))
        if flags & os.O_APPEND:
            record.append(("append", os.fspath(path)))
    elif event in _NAMESPACE_EVENTS:
        record.append((_NAMESPACE_EVENTS[event], os.fspath(args[0])))


@pytest.fixture
def namespace_ops():
    """A list that collects ``(kind, path)`` for the test's duration.

    Kinds: ``create`` (an open that makes a new inode), ``append`` (an
    ``O_APPEND`` open), and the namespace calls of ``_NAMESPACE_EVENTS``.
    """
    global _namespace_record, _namespace_hooked
    if not _namespace_hooked:
        # audit hooks cannot be removed; this one is inert while
        # _namespace_record is None
        sys.addaudithook(_namespace_audit)
        _namespace_hooked = True
    _namespace_record = []
    try:
        yield _namespace_record
    finally:
        _namespace_record = None


def build_wave_environment(root, n_cells: int = 4):
    """A hybrid at *root* with cells ``cell0..`` of ``chiplib`` adopted.

    Every cell is prepared and reserved by alice.  ``.meta`` is flushed
    at the end, so a reopen after a crash finds the library even when no
    run got as far as writing it.  Returns (hybrid, project, library,
    cell names).
    """
    hy = HybridFramework(root)
    resources = hy.jcf.resources
    resources.define_user("admin", "alice")
    resources.define_team("admin", "team1")
    resources.add_member("admin", "alice", "team1")
    hy.setup_standard_flow()
    library = hy.fmcad.create_library("chiplib")
    cells = [f"cell{i}" for i in range(n_cells)]
    for cell in cells:
        library.create_cell(cell)
    project = hy.adopt_library("alice", library, "chipA")
    resources.assign_team_to_project("admin", "team1", project.oid)
    for cell in cells:
        hy.prepare_cell("alice", project, cell, team_name="team1")
    library.flush_meta("setup")
    return hy, project, library, cells


def schematic_wave(project, library, cells):
    """One schematic entry per cell: a single wave, two views per run."""
    from repro.core.scheduler import RunRequest

    return [
        RunRequest(
            "alice", project, library, cell, "schematic_entry",
            kwargs={"edit_fn": build_inverter_editor_fn(2)},
        )
        for cell in cells
    ]


def simulation_wave(project, library, cells):
    """One simulation per cell over its schematic: stages one need each."""
    from repro.core.scheduler import RunRequest

    return [
        RunRequest(
            "alice", project, library, cell, "digital_simulation",
            kwargs={"testbench_fn": inverter_testbench_fn(2)},
        )
        for cell in cells
    ]


def appended_meta_lines(path):
    """``(offset, line)`` of each line after ``.meta``'s snapshot trailer.

    *line* keeps its newline; its first eight bytes are its CRC-32, then
    a space and the kind (``r`` record, ``p`` property bag, ``tick=``
    closing line).
    """
    data = pathlib.Path(path).read_bytes()
    offset = data.index(b"\n", data.index(b"\n#sha256=") + 1) + 1
    lines = []
    for line in data[offset:].splitlines(True):
        lines.append((offset, line))
        offset += len(line)
    return lines


def flip_meta_line(path, kind, which=-1):
    """Flip one bit inside the body of an appended ``.meta`` line.

    *kind* is ``b"r"`` or ``b"p"``; *which* indexes the appended lines
    of that kind (default: the last).  Returns the 1-based line number.
    """
    path = pathlib.Path(path)
    data = bytearray(path.read_bytes())
    offset, _line = [
        (offset, line) for offset, line in appended_meta_lines(path)
        if line[9:10] == kind
    ][which]
    data[offset + 20] ^= 0x01
    path.write_bytes(bytes(data))
    return data.count(b"\n", 0, offset) + 1


def assert_no_wave_leftovers(hybrid):
    """What recovery must leave after a crash anywhere in a wave.

    A clean audit, no version file that ``.meta`` does not name, and
    every ``jcf_oid`` tag naming a live OMS version with the same bytes
    — a tag left by a dead run would name an object that replay never
    recreated, or a later one that reused its id.
    """
    audit = hybrid.audit()
    assert audit.clean, audit.render()
    db = hybrid.jcf.db
    for library in hybrid.fmcad.libraries():
        assert library.orphaned_files() == []
        for cellview in library.cellviews():
            for version in cellview.versions:
                tag = version.properties.get("jcf_oid")
                assert tag is not None and db.exists(tag), version.path
                assert db.get(tag).payload_digest == version.content_digest()


_EXIT_AT_POINT = '''
import os, pathlib, sys
from repro import faults

class ExitAtPoint:
    """Stands in for a FaultPlan: the process really dies at the hit."""

    def __init__(self, point, on_hit):
        self.point, self.on_hit, self.count = point, on_hit, 0

    def hit(self, name):
        if name == self.point:
            self.count += 1
            if self.count == self.on_hit:
                os._exit(9)

    def hit_with_data(self, name, data):
        self.hit(name)
        return data

def arm():
    faults._plan = ExitAtPoint(sys.argv[2], int(sys.argv[3]))

root = pathlib.Path(sys.argv[1])
'''


def die_in_child(root, point, body, on_hit=1):
    """Run *body* in a child process that ``os._exit(9)``s at *point*.

    *body* is Python source that sees ``root`` and calls ``arm()`` once
    its set-up is done; the *on_hit*-th traversal of *point* after that
    kills the process.  It runs from the repository root with ``src``
    and the repository on the path, so it may import ``tests.*``
    helpers.  Unlike a ``CrashFault``, nothing unwinds: no ``finally``
    block, no transaction abort, no group-commit close runs in the
    dying process.
    """
    repo = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(repo / "src"), str(repo)])
    script = _EXIT_AT_POINT + textwrap.dedent(body) + (
        "\nsys.exit('the body finished; the process should have died')\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", script, str(root), point, str(on_hit)],
        cwd=repo, env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 9, child.stderr
