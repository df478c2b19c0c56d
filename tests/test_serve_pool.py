"""The shared frame pool: the serving contract, operation by operation.

Each test pins one clause of ``docs/SERVING.md``: how acquires are
satisfied (miss / share / dedup revival), what release does at zero
references, how CoW breaks move references, when reclaim happens, and
the conservation ledger the whole tier is audited against.
"""

import pytest

from repro.errors import OutOfMemory
from repro.observe.sinks import RingBufferSink
from repro.observe.tracer import Tracer
from repro.paging import LruPolicy
from repro.serve import SharedFramePool, TenantView, simulate_shared


class TestSizes:
    @pytest.mark.parametrize("size", (2.5, 2.0, True, "2"))
    @pytest.mark.parametrize("name", (
        "pool-frame_count", "view-quota", "view-shared_pages",
        "replay-frames", "replay-pool_frames", "replay-shared_pages",
    ))
    def test_sizes_must_be_ints(self, name, size):
        # A fractional quota or sharing bound would act as a real number
        # (quota=2.5 lets 3 pages be resident), and a bool would build
        # a one-frame pool: every size is refused up front.
        pool = SharedFramePool(8)
        traces = [[0, 1, 2, 3, 2, 1]] * 2
        build = {
            "pool-frame_count": lambda: SharedFramePool(size),
            "view-quota": lambda: TenantView(pool, "t", quota=size),
            "view-shared_pages": lambda: TenantView(pool, "t",
                                                    shared_pages=size),
            "replay-frames": lambda: simulate_shared(
                traces, size, lambda _index: LruPolicy()),
            "replay-pool_frames": lambda: simulate_shared(
                traces, 3, lambda _index: LruPolicy(), pool_frames=size),
            "replay-shared_pages": lambda: simulate_shared(
                traces, 3, lambda _index: LruPolicy(), shared_pages=size),
        }[name]
        field = name.split("-")[1]
        with pytest.raises(TypeError, match=f"{field} must be an int"):
            build()
        assert pool.views == ()            # no view joined the ledger


class TestAcquire:
    def test_first_acquire_is_a_miss(self):
        pool = SharedFramePool(4)
        frame, hit = pool.acquire(("shared", 0))
        assert hit is None
        assert pool.ref_count(("shared", 0)) == 1
        assert pool.frame_of(("shared", 0)) == frame
        assert pool.owner(frame) == ("shared", 0)

    def test_second_acquire_is_a_share(self):
        pool = SharedFramePool(4)
        frame, _ = pool.acquire(("shared", 0))
        again, hit = pool.acquire(("shared", 0))
        assert hit == "share"
        assert again == frame
        assert pool.ref_count(("shared", 0)) == 2
        assert pool.resident_count == 1   # one frame, two references

    def test_reacquire_after_release_is_a_dedup_hit(self):
        pool = SharedFramePool(4)
        frame, _ = pool.acquire(("shared", 0))
        pool.release(("shared", 0))
        revived, hit = pool.acquire(("shared", 0))
        assert hit == "dedup"
        assert revived == frame            # the very same frame came back
        assert pool.cached_count == 0

    def test_stats_track_each_kind(self):
        pool = SharedFramePool(4)
        pool.acquire("a")
        pool.acquire("a")
        pool.release("a")
        pool.release("a")
        pool.acquire("a")
        stats = pool.stats
        assert (stats.acquires, stats.shares, stats.dedup_hits) == (3, 1, 1)
        assert stats.hits == 2
        assert stats.dedup_ratio == pytest.approx(2 / 3)


class TestReleaseAndReclaim:
    def test_release_at_zero_caches_not_frees(self):
        pool = SharedFramePool(4)
        pool.acquire("a")
        pool.release("a")
        assert pool.ref_count("a") == 0
        assert pool.is_cached("a")
        assert pool.resident_count == 0
        assert pool.cached_keys() == ["a"]
        assert pool.free_count == 3        # the frame is cached, not free

    def test_release_unknown_content_raises(self):
        with pytest.raises(KeyError, match="not in the pool"):
            SharedFramePool(2).release("ghost")

    def test_over_release_raises(self):
        pool = SharedFramePool(2)
        pool.acquire("a")
        pool.release("a")
        with pytest.raises(ValueError, match="refcount underflow"):
            pool.release("a")

    def test_pressure_reclaims_least_recently_freed(self):
        pool = SharedFramePool(2)
        pool.acquire("old")
        pool.acquire("new")
        pool.release("old")
        pool.release("new")
        pool.acquire("third")              # must reclaim "old", not "new"
        assert not pool.is_cached("old")
        assert pool.is_cached("new")
        assert pool.stats.reclaims == 1

    def test_reclaim_reuses_the_frame_in_place(self):
        pool = SharedFramePool(2)
        old, _ = pool.acquire("old")
        pool.acquire("new")
        pool.release("old")                # parked in the freed-dedup pool
        assert pool.cached_keys() == ["old"]
        frame, hit = pool.acquire("third")
        assert (frame, hit) == (old, None)
        assert pool.owner(frame) == "third"
        assert pool.frame_of("old") is None
        assert (pool.resident_count, pool.cached_count) == (2, 0)
        pool.check_invariants()

    def test_exhaustion_raises_out_of_memory(self):
        pool = SharedFramePool(2)
        pool.acquire("a")
        pool.acquire("b")
        assert pool.free_count == pool.cached_count == 0
        with pytest.raises(OutOfMemory):
            pool.acquire("c")


class TestCoWBreak:
    def test_break_moves_one_reference(self):
        pool = SharedFramePool(4)
        shared, _ = pool.acquire(("shared", 0))
        pool.acquire(("shared", 0))
        private = pool.cow_break(("shared", 0), ("t1", "cow", 0, 1))
        assert private != shared
        assert pool.ref_count(("shared", 0)) == 1
        assert pool.ref_count(("t1", "cow", 0, 1)) == 1
        assert pool.ref_total == 2         # conservation: still two refs

    def test_sole_holder_break_caches_the_original(self):
        pool = SharedFramePool(4)
        pool.acquire(("shared", 0))
        pool.cow_break(("shared", 0), ("t0", "cow", 0, 1))
        # The clean shared content stays revivable for other tenants.
        assert pool.is_cached(("shared", 0))
        assert pool.ref_count(("shared", 0)) == 0

    def test_break_of_nonresident_content_raises(self):
        pool = SharedFramePool(4)
        with pytest.raises(KeyError, match="not resident"):
            pool.cow_break(("shared", 9), ("t0", "cow", 9, 1))

    def test_refused_break_rolls_back_cleanly(self):
        # Found by the fuzz walk: a break that cannot claim a private
        # frame must undo its refcount decrement, or a reference leaks.
        pool = SharedFramePool(2)
        pool.acquire(("shared", 0))
        pool.acquire(("shared", 0))          # two holders pin frame 1 of 2
        pool.acquire("filler")               # ...and the other is pinned too
        with pytest.raises(OutOfMemory):
            pool.cow_break(("shared", 0), ("t1", "cow", 0, 1))
        assert pool.ref_count(("shared", 0)) == 2
        pool.check_invariants()

    def test_sole_holder_break_under_pressure_reuses_own_frame(self):
        pool = SharedFramePool(2)
        pool.acquire(("shared", 0))
        pool.acquire("filler")
        # Fully pinned, but the writer is the sole holder: its own frame
        # becomes reclaimable mid-break, so the break succeeds in place.
        frame = pool.cow_break(("shared", 0), ("t0", "cow", 0, 1))
        assert frame == pool.frame_of(("t0", "cow", 0, 1))
        assert not pool.is_cached(("shared", 0))   # reclaimed, not revivable
        pool.check_invariants()

    def test_break_onto_existing_private_key_raises(self):
        pool = SharedFramePool(4)
        pool.acquire(("shared", 0))
        pool.acquire(("t0", "p"))
        with pytest.raises(ValueError, match="already exists"):
            pool.cow_break(("shared", 0), ("t0", "p"))


class TestEvents:
    def make_traced(self, frames=4):
        ring = RingBufferSink(32)
        return SharedFramePool(frames, tracer=Tracer([ring])), ring

    def test_share_dedup_and_break_emit(self):
        pool, ring = self.make_traced()
        pool.acquire(("shared", 0), program="t0")     # miss: silent
        pool.acquire(("shared", 0), program="t1")     # share
        pool.cow_break(("shared", 0), ("t1", "cow", 0, 1), program="t1")
        pool.release(("shared", 0))
        pool.acquire(("shared", 0), program="t0")     # dedup revival
        kinds = [event.kind for event in ring.events()]
        assert kinds == ["share", "cow_break", "dedup_hit"]
        share = ring.events()[0]
        assert share.unit == ("shared", 0)
        assert share.refs == 2
        assert share.program == "t1"

    def test_external_clock_stamps_events(self):
        pool, ring = self.make_traced()
        pool.now = 41
        pool.acquire("a")
        pool.acquire("a")
        assert ring.events()[0].time == 41


class TestInvariants:
    def test_healthy_pool_checks_clean(self):
        pool = SharedFramePool(4)
        pool.acquire("a")
        pool.acquire("a")
        pool.acquire("b")
        pool.release("b")
        pool.check_invariants()

    def test_partition_always_holds(self):
        pool = SharedFramePool(3)
        pool.acquire("a")
        pool.acquire("b")
        pool.release("a")
        assert (pool.resident_count + pool.cached_count + pool.free_count
                == pool.frame_count)

    def test_corrupt_refcount_is_caught(self):
        pool = SharedFramePool(4)
        pool.acquire("a")
        pool._refs["phantom"] = 1         # a reference with no frame
        with pytest.raises(AssertionError, match="has no frame"):
            pool.check_invariants()

    def test_zero_count_left_behind_is_caught(self):
        pool = SharedFramePool(4)
        pool.acquire("a")
        pool.release("a")
        pool._refs["a"] = 0               # a count that was not deleted
        with pytest.raises(AssertionError, match="holds a count of 0"):
            pool.check_invariants()

    def test_cached_entry_in_another_frame_is_caught(self):
        pool = SharedFramePool(4)
        frame, _ = pool.acquire("a")
        pool.release("a")
        pool._cached["a"] = frame + 1     # would reclaim the wrong frame
        with pytest.raises(AssertionError, match="parks frame"):
            pool.check_invariants()

    def test_corrupt_free_list_is_caught(self):
        pool = SharedFramePool(4)
        pool.acquire("a")
        pool._free.append(pool.frame_of("a"))   # free a pinned frame
        with pytest.raises(AssertionError):
            pool.check_invariants()
