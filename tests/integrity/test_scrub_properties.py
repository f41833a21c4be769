"""Property suite (hypothesis) for the storage integrity layer.

Two invariants hold for every seeded corruption schedule:

* **fixpoint** — one ``scrub(repair=True)`` pass leaves the store in a
  state a fresh scrubber reports ``ok``: every injected corruption was
  repaired from a verified peer or quarantined as a known loss, never
  left to be rediscovered (or worse, served);
* **no collateral damage** — repairing never alters any artifact that
  still verified clean; every byte the scrubber touches had already
  failed its checksum.
"""

import hashlib
import pathlib
import random
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.coupling import HybridFramework
from repro.errors import ReproError
from repro.faults import (
    CORRUPTION_MODES,
    CORRUPTION_POINTS,
    FaultPlan,
    damage_bytes,
    inject,
)
from repro.integrity import Scrubber
from tests.conftest import build_inverter_editor_fn, inverter_testbench_fn

RELAXED = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_workspace(root):
    hybrid = HybridFramework(pathlib.Path(root))
    resources = hybrid.jcf.resources
    resources.define_user("admin", "alice")
    resources.define_team("admin", "team1")
    resources.add_member("admin", "alice", "team1")
    hybrid.setup_standard_flow()
    library = hybrid.fmcad.create_library("chiplib")
    library.create_cell("inv2")
    project = hybrid.adopt_library("alice", library, "chipA")
    resources.assign_team_to_project("admin", "team1", project.oid)
    hybrid.prepare_cell("alice", project, "inv2", team_name="team1")
    return hybrid, project, library


def run_workload(hybrid, project, library):
    hybrid.run_schematic_entry(
        "alice", project, library, "inv2", build_inverter_editor_fn()
    )
    hybrid.run_simulation(
        "alice", project, library, "inv2", inverter_testbench_fn()
    )


def checksummed_files(root: pathlib.Path):
    """Every at-rest artifact the integrity layer covers, by path."""
    root = pathlib.Path(root)
    candidates = []
    staging = root / "jcf" / "staging"
    if staging.is_dir():
        candidates.extend(p for p in staging.iterdir() if p.is_file())
    libs = root / "fmcad" / "libs"
    if libs.is_dir():
        candidates.extend(libs.rglob("*.dat"))
        candidates.extend(libs.rglob(".meta"))
    checkpoint = root / "jcf" / "wal" / "checkpoint.json"
    if checkpoint.exists():
        candidates.append(checkpoint)
    return sorted(set(candidates))


@given(seed=st.integers(min_value=0, max_value=10_000))
@RELAXED
def test_injected_corruption_reaches_scrub_fixpoint(seed):
    """Any seeded in-flight corruption: repair converges, store verifies."""
    with tempfile.TemporaryDirectory(prefix="repro_scrub_") as root:
        hybrid, project, library = build_workspace(root)
        plan = FaultPlan.random_corruption_plan(
            seed, points=CORRUPTION_POINTS
        )
        with inject(plan):
            try:
                run_workload(hybrid, project, library)
                hybrid.save_state()  # checkpoints cover oms.snapshot
            except ReproError:
                pass  # a verified read may kill the run mid-protocol

        report = Scrubber(hybrid.jcf, hybrid.fmcad).scrub(repair=True)
        assert report.ok
        # a *fresh* scrubber (manifest reloaded from disk) agrees
        assert Scrubber(hybrid.jcf, hybrid.fmcad).scrub().ok
        # and every blob the store still serves proves its digest
        assert hybrid.jcf.db.scrub_payloads() == {}


@given(
    file_pick=st.integers(min_value=0, max_value=10_000),
    mode=st.sampled_from(CORRUPTION_MODES),
    damage_seed=st.integers(min_value=0, max_value=10_000),
)
@RELAXED
def test_repair_never_alters_verified_good_artifacts(
    file_pick, mode, damage_seed
):
    """At-rest damage to one artifact: everything else stays byte-identical."""
    with tempfile.TemporaryDirectory(prefix="repro_scrub_") as root:
        hybrid, project, library = build_workspace(root)
        run_workload(hybrid, project, library)
        hybrid.save_state()

        files = checksummed_files(pathlib.Path(root))
        assert files
        victim = files[file_pick % len(files)]
        victim.write_bytes(
            damage_bytes(
                victim.read_bytes(), mode, random.Random(damage_seed)
            )
        )
        before = {
            path: path.read_bytes() for path in files if path != victim
        }
        blob_digests = {
            digest: hybrid.jcf.db.materialize_payload(digest, verify=False)
            for digest in hybrid.jcf.db.scrub_payloads() or {}
        }
        assert not blob_digests  # blobs were clean before the damage

        report = Scrubber(hybrid.jcf, hybrid.fmcad).scrub(repair=True)
        assert report.ok

        for path, pristine in before.items():
            assert path.read_bytes() == pristine, path
        # the victim itself is either restored to its exact content
        # (repair re-proves the digest) or quarantined away — never left
        # damaged in place
        if victim.exists():
            survivors = checksummed_files(pathlib.Path(root))
            assert victim in survivors
            if victim.name.endswith(".dat"):
                digest = hashlib.sha256(victim.read_bytes()).hexdigest()
                assert any(
                    lib.verified_version_bytes(digest) is not None
                    for lib in hybrid.fmcad.libraries()
                )
        assert Scrubber(hybrid.jcf, hybrid.fmcad).scrub().ok
