"""The shared frame pool: the serving contract, operation by operation.

Each test pins one clause of ``docs/SERVING.md``: how acquires are
satisfied (miss / share / dedup revival), what release does at zero
references, how CoW breaks move references, when reclaim happens, and
the conservation ledger the whole tier is audited against.  Every
operation goes through the pool's entries, ``acquire(view, page)``,
``release(view, page)`` and ``cow_break(view, page)``; most views here
map each page to the content key of the same name, so a page *is* a
content key.
"""

import pytest

from repro.errors import OutOfMemory
from repro.observe.sinks import RingBufferSink
from repro.observe.tracer import Tracer
from repro.paging import LruPolicy
from repro.serve import SharedFramePool, TenantView, simulate_shared
from repro.serve.pool import REFUSED


def keyed(pool, tenant="t0"):
    """A view over ``pool`` whose pages are their own content keys."""
    return TenantView(pool, tenant, share_key=lambda page: page)


def tenants(pool, shared_pages=4):
    """Two views, ``t0`` and its fork ``t1``, over the default rule."""
    parent = TenantView(pool, "t0", shared_pages=shared_pages)
    return parent, parent.fork("t1")


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
        view, _ = tenants(pool)
        frame, hit = pool.acquire(view, 0)
        assert hit is None
        assert pool.ref_count(("shared", 0)) == 1
        assert pool.frame_of(("shared", 0)) == frame
        assert pool.owner(frame) == ("shared", 0)
        assert view.frame_of(0) == frame

    def test_second_acquire_is_a_share(self):
        pool = SharedFramePool(4)
        first, second = tenants(pool)
        frame, _ = pool.acquire(first, 0)
        again, hit = pool.acquire(second, 0)
        assert hit == "share"
        assert again == frame
        assert pool.ref_count(("shared", 0)) == 2
        assert pool.resident_count == 1   # one frame, two references

    def test_reacquire_after_release_is_a_dedup_hit(self):
        pool = SharedFramePool(4)
        view, _ = tenants(pool)
        frame, _ = pool.acquire(view, 0)
        pool.release(view, 0)
        revived, hit = pool.acquire(view, 0)
        assert hit == "dedup"
        assert revived == frame            # the very same frame came back
        assert pool.cached_count == 0

    def test_stats_track_each_kind(self):
        pool = SharedFramePool(4)
        first, second = tenants(pool)
        pool.acquire(first, 0)
        pool.acquire(second, 0)
        pool.release(first, 0)
        pool.release(second, 0)
        pool.acquire(first, 0)
        stats = pool.stats
        assert (stats.acquires, stats.shares, stats.dedup_hits) == (3, 1, 1)
        assert stats.hits == 2
        assert stats.dedup_ratio == pytest.approx(2 / 3)
        assert (first.stats.acquires, first.stats.dedup_hits) == (2, 1)
        assert (second.stats.acquires, second.stats.shares) == (1, 1)


class TestReleaseAndReclaim:
    def test_release_at_zero_caches_not_frees(self):
        pool = SharedFramePool(4)
        view = keyed(pool)
        pool.acquire(view, "a")
        pool.release(view, "a")
        assert pool.ref_count("a") == 0
        assert pool.is_cached("a")
        assert pool.resident_count == 0
        assert pool.cached_keys() == ["a"]
        assert pool.free_count == 3        # the frame is cached, not free

    def test_release_unknown_content_raises(self):
        pool = SharedFramePool(2)
        with pytest.raises(KeyError, match="not resident"):
            pool.release(keyed(pool), "ghost")

    def test_over_release_raises(self):
        pool = SharedFramePool(2)
        view = keyed(pool)
        pool.acquire(view, "a")
        pool.release(view, "a")
        with pytest.raises(KeyError, match="not resident"):
            pool.release(view, "a")

    def test_pressure_reclaims_least_recently_freed(self):
        pool = SharedFramePool(2)
        view = keyed(pool)
        pool.acquire(view, "old")
        pool.acquire(view, "new")
        pool.release(view, "old")
        pool.release(view, "new")
        pool.acquire(view, "third")        # must reclaim "old", not "new"
        assert not pool.is_cached("old")
        assert pool.is_cached("new")
        assert pool.stats.reclaims == 1

    def test_reclaim_reuses_the_frame_in_place(self):
        pool = SharedFramePool(2)
        view = keyed(pool)
        old, _ = pool.acquire(view, "old")
        pool.acquire(view, "new")
        pool.release(view, "old")          # parked in the freed-dedup pool
        assert pool.cached_keys() == ["old"]
        frame, hit = pool.acquire(view, "third")
        assert (frame, hit) == (old, None)
        assert pool.owner(frame) == "third"
        assert pool.frame_of("old") is None
        assert (pool.resident_count, pool.cached_count) == (2, 0)
        pool.check_invariants()

    def test_exhaustion_raises_out_of_memory(self):
        # The entry answers REFUSED; the view's facade raises.
        pool = SharedFramePool(2)
        view = keyed(pool)
        pool.acquire(view, "a")
        pool.acquire(keyed(pool, "t1"), "b")
        assert pool.free_count == pool.cached_count == 0
        assert pool.acquire(view, "c") is REFUSED
        with pytest.raises(OutOfMemory, match=r"\(acquiring 'c'\)"):
            view.acquire("c")
        assert pool.stats.acquires == 4   # refused attempts count
        assert view.stats.acquires == 1


class TestCoWBreak:
    def test_break_moves_one_reference(self):
        pool = SharedFramePool(4)
        first, second = tenants(pool)
        shared, _ = pool.acquire(first, 0)
        pool.acquire(second, 0)
        private = pool.cow_break(second, 0)
        assert private != shared
        assert pool.ref_count(("shared", 0)) == 1
        assert pool.ref_count(("t1", "cow", 0, 1)) == 1
        assert pool.ref_total == 2         # conservation: still two refs
        assert second.key_for(0) == ("t1", "cow", 0, 1)
        assert second.frame_of(0) == private
        assert second.owner(private) == 0
        assert (first.stats.cow_breaks, second.stats.cow_breaks) == (0, 1)

    def test_break_of_private_content_is_none(self):
        pool = SharedFramePool(4)
        view, _ = tenants(pool)
        pool.acquire(view, 9)              # a private page
        assert pool.cow_break(view, 9) is None
        assert pool.stats.cow_breaks == 0
        assert view.key_for(9) == ("t0", 9)

    def test_sole_holder_break_caches_the_original(self):
        pool = SharedFramePool(4)
        view, _ = tenants(pool)
        pool.acquire(view, 0)
        pool.cow_break(view, 0)
        # The clean shared content stays revivable for other tenants.
        assert pool.is_cached(("shared", 0))
        assert pool.ref_count(("shared", 0)) == 0

    def test_break_of_nonresident_content_raises(self):
        pool = SharedFramePool(4)
        view, _ = tenants(pool)
        with pytest.raises(KeyError, match="not resident"):
            pool.cow_break(view, 0)

    def test_refused_break_rolls_back_cleanly(self):
        # Found by the fuzz walk: a break that cannot claim a private
        # frame must change nothing, or a reference leaks.
        pool = SharedFramePool(2)
        first, second = tenants(pool)
        pool.acquire(first, 0)
        pool.acquire(second, 0)            # two holders pin frame 1 of 2
        pool.acquire(first, 9)             # ...and the other is pinned too
        assert pool.cow_break(second, 0) is REFUSED
        assert pool.ref_count(("shared", 0)) == 2
        assert second.key_for(0) == ("shared", 0)
        assert pool.stats.cow_breaks == second.stats.cow_breaks == 0
        pool.check_invariants()
        # The facade raises instead, naming the key the break tried:
        # every attempt spends one serial.
        with pytest.raises(OutOfMemory, match=r"\('t1', 'cow', 0, 2\)"):
            second.note_write(0)

    def test_sole_holder_break_under_pressure_reuses_own_frame(self):
        pool = SharedFramePool(2)
        view, _ = tenants(pool)
        pool.acquire(view, 0)
        pool.acquire(view, 9)
        # Fully pinned, but the writer is the sole holder: its own frame
        # becomes reclaimable mid-break, so the break succeeds in place.
        frame = pool.cow_break(view, 0)
        assert frame == pool.frame_of(("t0", "cow", 0, 1))
        assert not pool.is_cached(("shared", 0))   # reclaimed, not revivable
        pool.check_invariants()

    def test_break_onto_existing_private_key_raises(self):
        pool = SharedFramePool(4)
        # Page 1's content key is the one page 0's first break takes.
        view = TenantView(pool, "t0", share_key=lambda page: (
            ("t0", "cow", 0, 1) if page else ("shared", 0)))
        pool.acquire(view, 0)
        pool.acquire(view, 1)
        with pytest.raises(ValueError, match="already exists"):
            pool.cow_break(view, 0)
        assert view.key_for(0) == ("shared", 0)


class TestEvents:
    def make_traced(self, frames=4):
        ring = RingBufferSink(32)
        return SharedFramePool(frames, tracer=Tracer([ring])), ring

    def test_share_dedup_and_break_emit(self):
        pool, ring = self.make_traced()
        first, second = tenants(pool)
        pool.acquire(first, 0)                 # miss: silent
        pool.acquire(second, 0)                # share
        pool.cow_break(second, 0)
        pool.release(first, 0)
        pool.acquire(first, 0)                 # dedup revival
        kinds = [event.kind for event in ring.events()]
        assert kinds == ["share", "cow_break", "dedup_hit"]
        share = ring.events()[0]
        assert share.unit == ("shared", 0)
        assert share.refs == 2
        assert share.program == "t1"

    def test_external_clock_stamps_events(self):
        pool, ring = self.make_traced()
        first, second = tenants(pool)
        pool.now = 41
        pool.acquire(first, 0)
        pool.acquire(second, 0)
        assert ring.events()[0].time == 41


class TestInvariants:
    def test_healthy_pool_checks_clean(self):
        pool = SharedFramePool(4)
        first, second = keyed(pool, "t0"), keyed(pool, "t1")
        pool.acquire(first, "a")
        pool.acquire(second, "a")
        pool.acquire(first, "b")
        pool.release(first, "b")
        pool.check_invariants()

    def test_partition_always_holds(self):
        pool = SharedFramePool(3)
        view = keyed(pool)
        pool.acquire(view, "a")
        pool.acquire(view, "b")
        pool.release(view, "a")
        assert (pool.resident_count + pool.cached_count + pool.free_count
                == pool.frame_count)

    def test_corrupt_refcount_is_caught(self):
        pool = SharedFramePool(4)
        pool.acquire(keyed(pool), "a")
        pool._refs["phantom"] = 1         # a reference with no frame
        with pytest.raises(AssertionError, match="has no frame"):
            pool.check_invariants()

    def test_zero_count_left_behind_is_caught(self):
        pool = SharedFramePool(4)
        view = keyed(pool)
        pool.acquire(view, "a")
        pool.release(view, "a")
        pool._refs["a"] = 0               # a count that was not deleted
        with pytest.raises(AssertionError, match="holds a count of 0"):
            pool.check_invariants()

    def test_cached_entry_in_another_frame_is_caught(self):
        pool = SharedFramePool(4)
        view = keyed(pool)
        frame, _ = pool.acquire(view, "a")
        pool.release(view, "a")
        pool._cached["a"] = frame + 1     # would reclaim the wrong frame
        with pytest.raises(AssertionError, match="parks frame"):
            pool.check_invariants()

    def test_corrupt_free_list_is_caught(self):
        pool = SharedFramePool(4)
        pool.acquire(keyed(pool), "a")
        pool._free.append(pool.frame_of("a"))   # free a pinned frame
        with pytest.raises(AssertionError):
            pool.check_invariants()
