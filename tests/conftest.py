"""Shared fixtures: wired-up frameworks rooted in pytest tmp dirs."""

from __future__ import annotations

import os

import pytest

from repro.clock import SimClock
from repro.core.coupling import HybridFramework
from repro.fmcad.framework import FMCADFramework
from repro.jcf.flows import standard_encapsulation_flow
from repro.jcf.framework import JCFFramework
from repro.oms import durable, zerocopy
from repro.oms.database import OMSDatabase
from repro.oms.schema import AttributeDef, Schema


@pytest.fixture(autouse=True, scope="session")
def _relaxed_durability():
    """Run the suite with fsyncs off.

    Every durability test exercises the identical write/rename sequence;
    only the physical flushes are skipped, which makes the suite
    dramatically faster on real disks.  Tests that specifically assert
    full-durability behaviour opt back in with
    ``durable.durability("full")``.
    """
    previous = durable.get_default_durability()
    durable.set_default_durability(durable.DURABILITY_RELAXED)
    yield
    durable.set_default_durability(previous)


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
