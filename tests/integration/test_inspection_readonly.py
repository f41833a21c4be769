"""Report-only inspection leaves a closed workspace byte-identical.

``repro audit`` and a report-only ``repro scrub`` reopen a saved
workspace and open every library, which reads its ``.meta``.  None of
them may write: an inspection that repaired what it found would delete
the evidence for its own finding, and a second scrub would list less.
Each row hashes every file of a ``repro demo`` workspace before and
after the commands, on the clean workspace and on damaged copies.
"""

from __future__ import annotations

import hashlib
import io
import shutil

import pytest

from repro.cli import main
from tests.conftest import appended_meta_lines, flip_meta_line


def tree(root):
    return {
        str(path.relative_to(root)): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def demo_workspace(tmp_path_factory):
    workspace = tmp_path_factory.mktemp("demo") / "ws"
    assert run("demo", "--workspace", str(workspace))[0] == 0
    return workspace


def torn_tail(meta):
    """Append the first half of the last batch again, unclosed."""
    lines = appended_meta_lines(meta)
    closings = [i for i, (_, line) in enumerate(lines) if b" tick=" in line]
    last = b"".join(line for _, line in lines[closings[-2] + 1:])
    with open(meta, "ab") as handle:
        handle.write(last[: len(last) // 2])


def flipped_property_line(meta):
    flip_meta_line(meta, b"p")


def stale_temp(meta):
    meta.with_name(".meta.tmp").write_bytes(b"#FMCAD-META 2\ntick=")


@pytest.mark.parametrize(
    "damage,expected",
    [
        (None, 0),
        (torn_tail, 1),
        (flipped_property_line, 1),
        (stale_temp, 1),
    ],
)
def test_audit_and_scrub_write_nothing(
    demo_workspace, tmp_path, damage, expected
):
    workspace = tmp_path / "ws"
    shutil.copytree(demo_workspace, workspace)
    meta = workspace / "fmcad" / "libs" / "demo_lib" / ".meta"
    if damage is not None:
        damage(meta)
    before = tree(workspace)

    assert run("audit", "--workspace", str(workspace))[0] == expected
    assert tree(workspace) == before
    first = run("scrub", "--workspace", str(workspace))
    second = run("scrub", "--workspace", str(workspace))
    assert first[0] == expected
    # the first scrub deleted none of the evidence for its findings
    assert second == first
    assert tree(workspace) == before
