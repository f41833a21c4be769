"""Unit tests for the checkout/checkin concurrency model (Section 2.2)."""

import pytest

from repro.errors import CheckoutError, FMCADError, LockedError
from repro.fmcad.checkout import CheckoutManager
from repro.fmcad.library import Library


@pytest.fixture
def library(tmp_path, clock):
    lib = Library("lib", tmp_path / "libs", clock=clock)
    lib.create_cell("alu")
    cellview = lib.create_cellview("alu", "schematic")
    lib.write_version(cellview, b"base version", "setup")
    return lib


@pytest.fixture
def manager(tmp_path):
    return CheckoutManager(tmp_path / "work")


class TestCheckout:
    def test_checkout_copies_base_version(self, manager, library):
        ticket = manager.checkout("alice", library, "alu", "schematic")
        assert ticket.working_path.read_bytes() == b"base version"
        assert ticket.base_version == 1

    def test_checkout_sets_locked_flag(self, manager, library):
        manager.checkout("alice", library, "alu", "schematic")
        assert library.cellview("alu", "schematic").locked_by == "alice"

    def test_second_checkout_denied(self, manager, library):
        manager.checkout("alice", library, "alu", "schematic")
        with pytest.raises(LockedError):
            manager.checkout("bob", library, "alu", "schematic")
        assert manager.denied_checkouts == 1

    def test_even_same_user_cannot_double_checkout(self, manager, library):
        """Only one version of a cellview can be checked out at a time."""
        manager.checkout("alice", library, "alu", "schematic")
        with pytest.raises(LockedError):
            manager.checkout("alice", library, "alu", "schematic")

    def test_checkout_of_empty_cellview(self, manager, library):
        library.create_cellview("alu", "layout")
        ticket = manager.checkout("alice", library, "alu", "layout")
        assert ticket.base_version is None
        assert ticket.working_path.read_bytes() == b""

    def test_denied_checkout_charges_lock_wait(self, manager, library, clock):
        manager.checkout("alice", library, "alu", "schematic")
        with pytest.raises(LockedError):
            manager.checkout("bob", library, "alu", "schematic")
        assert clock.elapsed_by_category()["lock_wait"] > 0


class TestCheckin:
    def test_checkin_creates_new_version(self, manager, library):
        ticket = manager.checkout("alice", library, "alu", "schematic")
        version = manager.checkin(ticket, library, b"edited")
        assert version.number == 2
        assert library.read_version(
            library.cellview("alu", "schematic")
        ) == b"edited"

    def test_checkin_uses_working_file_by_default(self, manager, library):
        ticket = manager.checkout("alice", library, "alu", "schematic")
        ticket.working_path.write_bytes(b"worked on")
        version = manager.checkin(ticket, library)
        assert version.read_data() == b"worked on"

    def test_checkin_unlocks(self, manager, library):
        ticket = manager.checkout("alice", library, "alu", "schematic")
        manager.checkin(ticket, library, b"x")
        assert library.cellview("alu", "schematic").locked_by is None
        # now bob can check out
        manager.checkout("bob", library, "alu", "schematic")

    def test_double_checkin_raises(self, manager, library):
        ticket = manager.checkout("alice", library, "alu", "schematic")
        manager.checkin(ticket, library, b"x")
        with pytest.raises(CheckoutError):
            manager.checkin(ticket, library, b"y")

    def test_checkin_removes_working_file(self, manager, library):
        ticket = manager.checkout("alice", library, "alu", "schematic")
        manager.checkin(ticket, library, b"x")
        assert not ticket.working_path.exists()


class TestCancel:
    def test_cancel_unlocks_without_version(self, manager, library):
        ticket = manager.checkout("alice", library, "alu", "schematic")
        manager.cancel(ticket, library)
        cellview = library.cellview("alu", "schematic")
        assert cellview.locked_by is None
        assert len(cellview.versions) == 1  # no new version

    def test_cancel_then_checkin_raises(self, manager, library):
        ticket = manager.checkout("alice", library, "alu", "schematic")
        manager.cancel(ticket, library)
        with pytest.raises(CheckoutError):
            manager.checkin(ticket, library, b"x")


@pytest.mark.usefixtures("fake_reflink")
class TestReflinkCheckout:
    def test_working_file_is_a_private_reflink(
        self, manager, library, clock
    ):
        cellview = library.cellview("alu", "schematic")
        version_path = cellview.default_version.path
        native_before = clock.elapsed_by_category().get("native_io", 0.0)
        ticket = manager.checkout("alice", library, "alu", "schematic")
        assert ticket.working_path.read_bytes() == b"base version"
        assert manager.stats()["cloned_working_files"] == 1
        assert (
            ticket.working_path.stat().st_ino != version_path.stat().st_ino
        )
        # charged as one metadata-sized native access, no bytes
        charged = clock.elapsed_by_category()["native_io"] - native_before
        assert charged == pytest.approx(clock.cost_model.native_file_ms)
        with open(ticket.working_path, "r+b") as handle:
            handle.write(b"EDITED")
        assert version_path.read_bytes() == b"base version"

    def test_missing_version_file_is_not_cloned(self, manager, library):
        library.cellview("alu", "schematic").default_version.path.unlink()
        with pytest.raises(FMCADError):
            manager.checkout("alice", library, "alu", "schematic")
        assert manager.stats()["cloned_working_files"] == 0


class TestAccounting:
    def test_stats(self, manager, library):
        ticket = manager.checkout("alice", library, "alu", "schematic")
        with pytest.raises(LockedError):
            manager.checkout("bob", library, "alu", "schematic")
        stats = manager.stats()
        assert stats == {
            "active": 1,
            "granted": 1,
            "denied": 1,
            "working_files": 0,
            "cloned_working_files": stats["cloned_working_files"],
        }
        # whether the working file was cloned in-kernel or copied depends
        # on what the filesystem under the workdir supports
        assert stats["cloned_working_files"] in (0, 1)
        manager.checkin(ticket, library, b"x")
        assert manager.stats()["active"] == 0

    def test_working_file_is_made_on_first_read(
        self, manager, library, tmp_path
    ):
        ticket = manager.checkout("alice", library, "alu", "schematic")
        assert manager.stats()["working_files"] == 0
        assert not (tmp_path / "work" / "alice").exists()
        path = ticket.working_path
        assert path.read_bytes() == b"base version"
        assert ticket.working_path == path
        assert manager.stats()["working_files"] == 1
        manager.checkin(ticket, library)
        assert not path.exists()
        assert manager.stats()["working_files"] == 1

    def test_checkin_of_given_bytes_makes_no_working_file(
        self, manager, library, tmp_path, clock
    ):
        """The harvest's checkout: lock and charge, but no file."""
        native_before = clock.elapsed_by_category()["native_io"]
        ticket = manager.checkout("alice", library, "alu", "schematic")
        charged = clock.elapsed_by_category()["native_io"] - native_before
        # the copy of the base version is charged all the same (a
        # reflink-capable filesystem would clone it for no bytes)
        copied = 0 if manager._reflinks() else len(b"base version")
        model = clock.cost_model
        assert charged == pytest.approx(
            model.native_byte_ms * copied + model.native_file_ms
        )
        version = manager.checkin(ticket, library, b"tool output")
        assert version.read_data() == b"tool output"
        assert manager.stats()["working_files"] == 0
        assert list((tmp_path / "work").iterdir()) == []
        # a closed ticket names its path but never makes the file
        assert not ticket.working_path.exists()

    def test_holder_of(self, manager, library):
        cellview = library.cellview("alu", "schematic")
        assert manager.holder_of(library, cellview) is None
        manager.checkout("alice", library, "alu", "schematic")
        assert manager.holder_of(library, cellview) == "alice"
