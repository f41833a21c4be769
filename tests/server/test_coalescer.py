"""Batch windows: timer windows and self-clocked windows."""

from __future__ import annotations

import sys
import threading
import time
from collections import deque

import pytest

from repro.server.coalescer import ShardBatcher


class TestShardBatcher:
    def test_flushes_when_size_bound_hits(self):
        batcher = ShardBatcher(0, max_batch=3, window_ms=1000.0)
        assert batcher.add("a", 0.0) is None
        assert batcher.add("b", 1.0) is None
        flushed = batcher.add("c", 2.0)
        assert flushed == ["a", "b", "c"]
        assert len(batcher) == 0
        assert batcher.flushes_by_size == 1

    def test_deadline_anchors_on_oldest_request(self):
        batcher = ShardBatcher(0, max_batch=100, window_ms=50.0)
        batcher.add("a", 10.0)
        batcher.add("b", 45.0)  # later arrivals do not extend the window
        assert not batcher.due(59.0)
        assert batcher.due(60.0)
        assert batcher.flush_due(60.0) == ["a", "b"]
        assert batcher.flushes_by_deadline == 1

    def test_flush_due_before_deadline_is_noop(self):
        batcher = ShardBatcher(0, max_batch=10, window_ms=100.0)
        batcher.add("a", 0.0)
        assert batcher.flush_due(50.0) is None
        assert len(batcher) == 1

    def test_empty_batcher_is_never_due(self):
        batcher = ShardBatcher(0, max_batch=10, window_ms=100.0)
        assert not batcher.due(1e9)
        assert batcher.flush_due(1e9) is None

    def test_new_window_opens_after_flush(self):
        batcher = ShardBatcher(0, max_batch=2, window_ms=100.0)
        batcher.add("a", 0.0)
        batcher.add("b", 1.0)
        batcher.add("c", 500.0)
        assert batcher.deadline_ms == 600.0

    def test_unconditional_flush_drains_partial_window(self):
        batcher = ShardBatcher(0, max_batch=10, window_ms=1000.0)
        batcher.add("a", 0.0)
        assert batcher.flush() == ["a"]
        assert batcher.deadline_ms is None

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ShardBatcher(0, max_batch=0, window_ms=10.0)
        with pytest.raises(ValueError):
            ShardBatcher(0, max_batch=1, window_ms=-1.0)


def _clocked(max_batch=16, window_ms=25.0):
    return ShardBatcher(0, max_batch=max_batch, window_ms=window_ms,
                        clocked=True)


class TestSelfClockedWindows:
    def test_idle_shard_flushes_at_its_expected_width(self):
        batcher = _clocked()
        assert batcher.expected_width == 1
        assert batcher.add("a", 0.0) == ["a"]  # a lone run goes at once
        assert batcher.flushes_by_clock == 1
        assert batcher.add("b", 1.0) is None   # busy: held
        assert batcher.add("c", 2.0) is None
        # the finished run plus the two queued behind it
        batcher.complete(1, 3.0)
        assert batcher.expected_width == 3
        assert batcher.add("d", 4.0) == ["b", "c", "d"]
        assert batcher.flushes_by_clock == 2
        assert batcher.flushes_by_deadline == 0

    def test_busy_shard_holds_its_window_past_its_deadline(self):
        batcher = _clocked(window_ms=10.0)
        assert batcher.add("a", 0.0) == ["a"]
        batcher.add("b", 1.0)
        assert not batcher.due(1e9)
        assert batcher.flush_due(1e9) is None
        assert batcher.flush() == []  # a drain waits for the batch too
        assert len(batcher) == 1
        # once idle, the hold restarts from the completion, not from b
        batcher.complete(1, 500.0)
        assert batcher.deadline_ms == 510.0
        assert batcher.flush_due(509.0) is None
        assert batcher.flush_due(510.0) == ["b"]

    def test_expected_width_counts_runs_queued_behind_the_batch(self):
        batcher = _clocked(max_batch=8)
        assert batcher.add("a", 0.0) == ["a"]
        for item in "bcde":
            assert batcher.add(item, 1.0) is None
        batcher.complete(1, 2.0)
        # a, plus b..e that queued behind it
        assert batcher.expected_width == 5
        assert batcher.add("f", 3.0) == list("bcdef")

    def test_size_flush_behind_a_busy_batch_keeps_the_shard_busy(self):
        batcher = _clocked(max_batch=3)
        assert batcher.add("a", 0.0) == ["a"]
        batcher.add("b", 1.0)
        batcher.add("c", 1.0)
        assert batcher.add("d", 1.0) == ["b", "c", "d"]  # max_batch: at once
        assert batcher.flushes_by_size == 1
        batcher.add("e", 2.0)
        assert batcher.in_flight == 2
        batcher.complete(1, 3.0)
        # b..d are still in flight: e waits, even past its deadline
        assert batcher.in_flight == 1
        assert batcher.expected_width == 3
        assert batcher.flush_due(1e9) is None
        batcher.complete(3, 4.0)
        assert batcher.in_flight == 0
        assert len(batcher) == 1

    def test_fallback_flush_lowers_the_expected_width(self):
        batcher = _clocked(window_ms=25.0)
        batcher.add("a", 0.0)
        for item in "bcdefgh":
            batcher.add(item, 1.0)
        batcher.complete(1, 2.0)
        assert batcher.expected_width == 8
        # client a never comes back: the idle shard's fallback fires
        assert batcher.flush_due(26.0) is None
        assert batcher.flush_due(27.0) == list("bcdefgh")
        assert batcher.flushes_by_deadline == 1
        assert batcher.expected_width == 7

    def test_closed_loop_of_eight_converges_to_eight_wide_batches(self):
        batcher = _clocked(max_batch=16)
        clients = 8
        widths = []
        running = deque()
        for client in range(clients):
            flushed = batcher.add(client, 0.0)
            if flushed:
                running.append(flushed)
        for _ in range(10):
            batch = running.popleft()
            widths.append(len(batch))
            batcher.complete(len(batch), 0.0)
            for client in batch:  # each answered client sends again
                flushed = batcher.add(client, 0.0)
                if flushed:
                    running.append(flushed)
        # the first run goes alone; the other seven queue behind it, so
        # the width is 8 from the first completion on
        assert widths == [1] + [8] * 9
        assert batcher.expected_width == 8
        assert batcher.flushes_by_deadline == 0

    def test_timer_windows_ignore_completions(self):
        batcher = ShardBatcher(0, max_batch=8, window_ms=25.0)
        assert batcher.add("a", 0.0) is None
        assert batcher.in_flight == 0
        assert batcher.flush_due(25.0) == ["a"]
        assert batcher.flushes_by_clock == 0

    def test_threaded_submits_and_completions_never_lose_a_wakeup(self):
        """Clients and an executor race on one shard: at no instant does
        an idle shard sit on a window that has reached its width."""
        batcher = _clocked(max_batch=6, window_ms=1e9)
        clients, rounds = 12, 60
        answered = {}
        batches = deque()
        have_batch = threading.Condition()
        violations = []
        timed_out = []
        finished = []
        stop = threading.Event()

        def dispatch(flushed):
            if flushed:
                with have_batch:
                    batches.append(flushed)
                    have_batch.notify()

        def executor():
            while not stop.is_set():
                with have_batch:
                    if not batches:
                        have_batch.wait(0.01)
                        continue
                    batch = batches.popleft()
                # release the shard first, then answer (engine order)
                batcher.complete(len(batch), 0.0)
                for item in batch:
                    answered[item].set()

        def client(index):
            for round_ in range(rounds):
                item = (index, round_)
                answered[item] = threading.Event()
                dispatch(batcher.add(item, 0.0))
                if not answered[item].wait(30.0):
                    timed_out.append(item)
                    return
            finished.append(index)

        def watch():
            while not stop.is_set():
                with batcher._mutex:
                    if (
                        batcher._pending
                        and not batcher._in_flight
                        and len(batcher._pending) >= batcher.expected_width
                    ):
                        violations.append(len(batcher._pending))
                # a client that finished its rounds never comes back:
                # from then on, the idle fallback releases its peers
                if finished:
                    dispatch(batcher.flush_due(float("inf")))
                time.sleep(0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=executor),
                   threading.Thread(target=watch)]
        threads += [
            threading.Thread(target=client, args=(index,))
            for index in range(clients)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads[2:]:
                thread.join(60.0)
        finally:
            stop.set()
            for thread in threads[:2]:
                thread.join(10.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert timed_out == []
        assert violations == []
        assert sorted(finished) == list(range(clients))
        assert all(event.is_set() for event in answered.values())
        assert len(answered) == clients * rounds
        assert batcher.in_flight == 0 and len(batcher) == 0
