"""Unit tests for the simulated clock and cost model."""

import pytest

from repro.clock import CostModel, SimClock


class TestCharging:
    def test_starts_at_zero(self):
        assert SimClock().now_ms == 0.0

    def test_charge_advances_time(self):
        clock = SimClock()
        clock.charge("x", 10.0)
        clock.charge("y", 5.0)
        assert clock.now_ms == 15.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            SimClock().charge("x", -1.0)

    def test_categories_accumulate_independently(self):
        clock = SimClock()
        clock.charge("a", 1.0)
        clock.charge("b", 2.0)
        clock.charge("a", 3.0)
        assert clock.elapsed_by_category() == {"a": 4.0, "b": 2.0}


class TestCostHelpers:
    def test_metadata_op_uses_model_rate(self):
        model = CostModel(metadata_op_ms=7.0)
        clock = SimClock(model)
        clock.charge_metadata_op(3)
        assert clock.now_ms == 21.0

    def test_copy_charges_per_byte_plus_per_file(self):
        model = CostModel(copy_byte_ms=1.0, copy_file_ms=10.0)
        clock = SimClock(model)
        clock.charge_copy(100, files=2)
        assert clock.now_ms == 120.0

    def test_copy_dominates_native_io_for_same_bytes(self):
        """The architectural point of Section 3.6: OMS staging is the
        expensive path compared to native library access."""
        clock = SimClock()
        clock.charge_copy(1_000_000)
        copy_cost = clock.elapsed_by_category()["copy"]
        clock.charge_native_io(1_000_000)
        native_cost = clock.elapsed_by_category()["native_io"]
        assert copy_cost > native_cost

    def test_ui_context_switch_costs_more_than_interaction(self):
        clock = SimClock()
        clock.charge_ui()
        clock.charge_ui_context_switch()
        by_cat = clock.elapsed_by_category()
        assert by_cat["ui_switch"] > by_cat["ui"]

    def test_lock_wait_poll_count(self):
        model = CostModel(lock_wait_poll_ms=100.0)
        clock = SimClock(model)
        clock.charge_lock_wait(polls=4)
        assert clock.elapsed_by_category()["lock_wait"] == 400.0


class TestReset:
    def test_reset_clears_everything(self):
        clock = SimClock()
        clock.charge_metadata_op()
        clock.charge_ui()
        clock.reset()
        assert clock.now_ms == 0.0
        assert clock.elapsed_by_category() == {}


class TestLanes:
    def test_lane_charges_do_not_advance_master(self):
        clock = SimClock()
        clock.charge("setup", 10.0)
        lane = clock.open_lane("run0")
        with clock.use_lane(lane):
            clock.charge("tool", 100.0)
        assert clock.now_ms == 10.0          # master untouched
        assert lane.now_ms == 110.0          # started at master now
        assert lane.elapsed_ms == 100.0
        # resource accounting still sums globally
        assert clock.elapsed_by_category()["tool"] == 100.0

    def test_explicit_start_ms(self):
        clock = SimClock()
        lane = clock.open_lane("run1", start_ms=50.0)
        assert lane.start_ms == 50.0 and lane.now_ms == 50.0

    def test_advance_to_merges_makespan(self):
        clock = SimClock()
        lanes = [clock.open_lane(f"r{i}") for i in range(3)]
        for i, lane in enumerate(lanes):
            with clock.use_lane(lane):
                clock.charge("tool", 10.0 * (i + 1))
        clock.advance_to(max(lane.now_ms for lane in lanes))
        assert clock.now_ms == 30.0          # critical path, not 60
        assert clock.elapsed_by_category()["tool"] == 60.0  # summed

    def test_advance_to_never_rewinds(self):
        clock = SimClock()
        clock.charge("a", 100.0)
        clock.advance_to(10.0)
        assert clock.now_ms == 100.0

    def test_lane_binding_is_per_thread(self):
        import threading

        clock = SimClock()
        lane = clock.open_lane("mine")
        seen = {}

        def other():
            seen["lane"] = clock.current_lane()

        with clock.use_lane(lane):
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
            assert clock.current_lane() is lane
        assert seen["lane"] is None
        assert clock.current_lane() is None

    def test_nested_lanes_restore(self):
        clock = SimClock()
        outer = clock.open_lane("outer")
        inner = clock.open_lane("inner")
        with clock.use_lane(outer):
            with clock.use_lane(inner):
                assert clock.current_lane() is inner
            assert clock.current_lane() is outer


class TestCommitFlush:
    def test_default_model_flushes_free(self):
        clock = SimClock()
        clock.charge_commit_flush(5)
        assert clock.now_ms == 0.0

    def test_flush_cost_scales_with_commits(self):
        clock = SimClock(CostModel(commit_flush_ms=4.0))
        clock.charge_commit_flush(3)
        assert clock.elapsed_by_category()["commit_flush"] == 12.0


class TestLaneAwareAdvance:
    """advance_to folds into the bound lane, not over it into the master.

    Regression: a run_many batch driven from inside a lane (a shard
    executor, a flow step) used to fold its wave ends into the master
    clock while the caller's lane never advanced — consecutive batches
    then leaked accounting across each other and reported zero makespan.
    """

    def test_advance_to_unbound_moves_master(self):
        clock = SimClock()
        clock.advance_to(100.0)
        assert clock.now_ms == 100.0

    def test_advance_to_never_moves_backwards(self):
        clock = SimClock()
        clock.advance_to(100.0)
        clock.advance_to(40.0)
        assert clock.now_ms == 100.0

    def test_advance_to_inside_lane_moves_lane_only(self):
        clock = SimClock()
        clock.charge("x", 50.0)  # master at 50
        lane = clock.open_lane("shard0")
        with clock.use_lane(lane):
            clock.advance_to(400.0)
            assert clock.now_ms == 400.0
        assert lane.now_ms == 400.0
        # master untouched until the lane itself is folded back
        assert clock.now_ms == 50.0

    def test_open_lane_default_start_is_lane_aware(self):
        clock = SimClock()
        outer = clock.open_lane("outer")
        with clock.use_lane(outer):
            clock.charge("x", 30.0)
            inner = clock.open_lane("inner")
        assert inner.start_ms == 30.0

    def test_consecutive_in_lane_batches_do_not_leak(self):
        """Two wave-style merges inside one lane accumulate in the lane."""
        clock = SimClock()
        shard = clock.open_lane("shard")
        for batch_end in (1000.0, 2500.0):
            with clock.use_lane(shard):
                start = clock.now_ms
                worker = clock.open_lane("run", start_ms=start)
                with clock.use_lane(worker):
                    clock.charge("tool", batch_end - start)
                clock.advance_to(worker.now_ms)
        assert shard.now_ms == 2500.0
        assert clock.now_ms == 0.0  # master still untouched
        clock.advance_to(shard.now_ms)  # unbound fold: master catches up
        assert clock.now_ms == 2500.0
