"""Counters registry: recording, snapshot merging, and the absorb adapters."""

from __future__ import annotations

import pytest

from repro.alloc import FreeListAllocator
from repro.observe import (
    Counters,
    absorb_allocator_counters,
    absorb_associative_memory,
    absorb_pager_stats,
    absorb_spacetime,
)
from repro.sim.spacetime import SpaceTimeAccount


class TestRegistry:
    def test_increment_and_value(self):
        counters = Counters()
        counters.increment("pager.faults")
        counters.increment("pager.faults", 4)
        assert counters.value("pager.faults") == 5
        assert counters.value("never.touched") == 0

    def test_record_is_last_write_wins(self):
        counters = Counters()
        counters.record("clock.cycles", 10)
        counters.record("clock.cycles", 99)
        assert counters.value("clock.cycles") == 99

    def test_snapshot_is_sorted_and_detached(self):
        counters = Counters()
        counters.increment("b", 2)
        counters.increment("a", 1)
        snap = counters.snapshot()
        assert list(snap) == ["a", "b"]
        snap["a"] = 1000
        assert counters.value("a") == 1

    def test_timer_accumulates_under_seconds_suffix(self):
        counters = Counters()
        with counters.timer("replay"):
            pass
        with counters.timer("replay"):
            pass
        snap = counters.snapshot()
        assert "replay_seconds" in snap
        assert snap["replay_seconds"] >= 0.0

    def test_merge_snapshot_round_trips(self):
        source = Counters()
        source.increment("pager.faults", 5)
        with source.timer("replay"):
            pass
        target = Counters()
        target.merge_snapshot(source.snapshot())
        assert target.snapshot() == source.snapshot()


class TestMergeSnapshotValidation:
    """Malformed worker snapshots must fail loudly, not skew totals."""

    def test_non_string_name_rejected(self):
        with pytest.raises(TypeError, match="must be a str"):
            Counters().merge_snapshot({3: 1})

    def test_non_numeric_value_rejected(self):
        with pytest.raises(TypeError, match="'pager.faults'"):
            Counters().merge_snapshot({"pager.faults": "7"})

    def test_boolean_value_rejected(self):
        """bool is an int subclass; a True that slipped into a snapshot
        is a bug upstream, not a count of one."""
        with pytest.raises(TypeError, match="must be a number"):
            Counters().merge_snapshot({"flag": True})

    def test_none_value_rejected(self):
        with pytest.raises(TypeError, match="must be a number"):
            Counters().merge_snapshot({"x": None})

    def test_error_leaves_no_partial_merge_visible(self):
        counters = Counters()
        with pytest.raises(TypeError):
            counters.merge_snapshot({"good": 1, "bad": "oops"})
        # the good entry before the bad one may have landed; what must
        # NOT happen is the bad entry merging silently
        assert counters.value("bad") == 0

    def test_floats_and_ints_both_merge(self):
        counters = Counters()
        counters.merge_snapshot({"a": 2, "b_seconds": 0.5})
        counters.merge_snapshot({"a": 3, "b_seconds": 0.25})
        assert counters.value("a") == 5
        assert counters.value("b_seconds") == 0.75


class TestAdapters:
    def test_absorb_allocator(self):
        allocator = FreeListAllocator(capacity=1024, policy="first_fit")
        block = allocator.allocate(100)
        allocator.allocate(50)
        allocator.free(block)
        counters = Counters()
        absorb_allocator_counters(counters, allocator.counters)
        assert counters.value("alloc.requests") == 2
        assert counters.value("alloc.frees") == 1
        assert counters.value("alloc.words_allocated") == 150

    def test_absorb_pager(self):
        from repro.paging.pager import PagerStats

        stats = PagerStats()
        stats.accesses = 10
        stats.faults = 3
        counters = Counters()
        absorb_pager_stats(counters, stats)
        assert counters.value("pager.accesses") == 10
        assert counters.value("pager.faults") == 3

    def test_absorb_tlb(self):
        from repro.addressing.associative import AssociativeMemory

        tlb = AssociativeMemory(2)
        tlb.insert(1, 10)
        assert tlb.lookup(1) == 10
        assert tlb.lookup(2) is None
        counters = Counters()
        absorb_associative_memory(counters, tlb)
        assert counters.value("tlb.hits") == 1
        assert counters.value("tlb.misses") == 1

    def test_absorb_spacetime_accepts_account_or_breakdown(self):
        account = SpaceTimeAccount()
        account.accumulate(words=100, duration=5, waiting=False)
        account.accumulate(words=100, duration=3, waiting=True)
        via_account, via_breakdown = Counters(), Counters()
        absorb_spacetime(via_account, account)
        absorb_spacetime(via_breakdown, account.breakdown)
        assert via_account.snapshot() == via_breakdown.snapshot()
        assert via_account.value("spacetime.active") == 500
        assert via_account.value("spacetime.waiting") == 300

    def test_adapters_merge_across_subsystems(self):
        """Dotted prefixes keep one registry per run, not per subsystem."""
        allocator = FreeListAllocator(capacity=256, policy="best_fit")
        allocator.allocate(16)
        counters = Counters()
        absorb_allocator_counters(counters, allocator.counters)
        account = SpaceTimeAccount()
        account.accumulate(words=16, duration=4, waiting=False)
        absorb_spacetime(counters, account)
        names = set(counters.snapshot())
        assert {"alloc.requests", "spacetime.active"} <= names
