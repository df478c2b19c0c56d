"""The shared pool's ledger clauses: refcounts and the freed-dedup order.

``SharedFramePool`` counts references per content key (zero deletes
the count, an extra release is loud) and parks zero-reference content
in freed order, reclaimed least-recently-freed first.  These two
clauses are the serving contract's fine print (``docs/SERVING.md``);
each test drives the pool through its entries, over views whose pages
are their own content keys.
"""

import pytest

from repro.errors import OutOfMemory
from repro.serve import SharedFramePool, TenantView
from repro.serve.pool import REFUSED


def keyed(pool, tenant="t0"):
    """A view over ``pool`` whose pages are their own content keys."""
    return TenantView(pool, tenant, share_key=lambda page: page)


class TestRefCounter:
    def test_absent_key_counts_zero(self):
        pool = SharedFramePool(2)
        assert pool.ref_count("x") == 0
        assert pool.frame_of("x") is None
        assert not pool.is_cached("x")
        assert pool.ref_total == 0

    def test_incr_decr_round_trip(self):
        pool = SharedFramePool(2)
        first, second = keyed(pool, "t0"), keyed(pool, "t1")
        pool.acquire(first, "a")
        assert pool.ref_count("a") == 1
        pool.acquire(second, "a")
        assert pool.ref_count("a") == 2
        pool.release(first, "a")
        assert pool.ref_count("a") == 1
        pool.release(second, "a")
        assert pool.ref_count("a") == 0

    def test_zero_deletes_the_key(self):
        pool = SharedFramePool(2)
        view = keyed(pool)
        pool.acquire(view, "a")
        pool.release(view, "a")
        assert pool._refs == {}            # no count left at zero
        assert pool.cached_keys() == ["a"]
        pool.check_invariants()

    def test_underflow_raises(self):
        # Only a corrupted ledger reaches the guard: the view holds the
        # page, but the pool has lost its count.
        pool = SharedFramePool(2)
        view = keyed(pool)
        frame, _ = pool.acquire(view, "a")
        del pool._refs["a"]
        ops = pool._ops
        with pytest.raises(ValueError, match="refcount underflow"):
            pool.release(view, "a")
        # The refused release moved no count and parked nothing, and the
        # page is still resident with its frame.
        assert pool.cached_keys() == []
        assert pool.stats.releases == view.stats.releases == 0
        assert view.resident_pages() == ["a"]
        assert view.frame_of("a") == frame
        assert view._page_of_key == {"a": "a"}
        assert pool._ops == ops

    def test_already_cached_raises(self):
        # The twin guard: the page's content is pinned by the view and
        # also parked as cached, so its last release would park it twice.
        pool = SharedFramePool(2)
        view = keyed(pool)
        frame, _ = pool.acquire(view, "a")
        pool._cached["a"] = frame
        ops = pool._ops
        with pytest.raises(ValueError, match="already cached"):
            pool.release(view, "a")
        # The refused release kept the count, and the page is still
        # resident with its frame.
        assert pool.ref_count("a") == 1
        assert pool.cached_keys() == ["a"]
        assert pool.stats.releases == view.stats.releases == 0
        assert view.resident_pages() == ["a"]
        assert view.frame_of("a") == frame
        assert view._page_of_key == {"a": "a"}
        assert pool._ops == ops

    def test_double_release_raises(self):
        pool = SharedFramePool(2)
        first, second = keyed(pool, "t0"), keyed(pool, "t1")
        pool.acquire(first, ("shared", 0))
        pool.acquire(second, ("shared", 0))   # two holders
        pool.release(first, ("shared", 0))
        pool.release(second, ("shared", 0))
        with pytest.raises(KeyError, match="not resident"):
            pool.release(second, ("shared", 0))
        # The refused release changed nothing.
        assert pool.cached_keys() == [("shared", 0)]
        assert pool.stats.releases == 2
        pool.check_invariants()

    def test_live_count_and_total_differ(self):
        pool = SharedFramePool(4)
        first, second = keyed(pool, "t0"), keyed(pool, "t1")
        pool.acquire(first, "a")
        pool.acquire(second, "a")
        pool.acquire(first, "b")
        assert pool.resident_count == 2    # pinned frames
        assert pool.ref_total == 3         # references to them

    def test_tuple_keys(self):
        pool = SharedFramePool(2)
        pool.acquire(TenantView(pool, "t0", shared_pages=4), 3)
        assert pool.ref_count(("shared", 3)) == 1
        assert pool.ref_count(("shared", 4)) == 0


class TestLRUEvictor:
    @staticmethod
    def freed(*keys, frames=None):
        """A pool whose every frame held ``keys``, freed in that order,
        and the view that held them."""
        pool = SharedFramePool(frames or len(keys))
        view = keyed(pool)
        frame_of = {key: pool.acquire(view, key)[0] for key in keys}
        for key in keys:
            pool.release(view, key)
        return pool, view, frame_of

    def test_evicts_least_recently_freed_first(self):
        pool, view, frame_of = self.freed("a", "b", "c")
        for key, fresh in (("a", "x"), ("b", "y"), ("c", "z")):
            frame, hit = pool.acquire(view, fresh)   # pressure reclaims
            assert (frame, hit) == (frame_of[key], None)
            assert pool.frame_of(key) is None
        assert pool.stats.reclaims == 3

    def test_revival_removes_from_order(self):
        pool, view, frame_of = self.freed("a", "b")
        assert pool.acquire(view, "a") == (frame_of["a"], "dedup")
        assert pool.cached_keys() == ["b"]
        assert pool.acquire(view, "x")[0] == frame_of["b"]

    def test_refreed_content_moves_to_the_back(self):
        pool, view, frame_of = self.freed("a", "b")
        pool.acquire(view, "a")
        pool.release(view, "a")            # freed again, later
        assert pool.cached_keys() == ["b", "a"]
        assert pool.acquire(view, "x")[0] == frame_of["b"]

    def test_double_add_raises(self):
        # Only a corrupted ledger reaches the guard: content already
        # parked as cached is pinned and then freed again.
        pool = SharedFramePool(2)
        view = keyed(pool)
        frame, _ = pool.acquire(view, "a")
        pool._cached["a"] = frame
        with pytest.raises(ValueError, match="already cached"):
            pool.release(view, "a")

    def test_evict_empty_raises(self):
        pool = SharedFramePool(2)
        view = keyed(pool)
        pool.acquire(view, "a")
        pool.acquire(keyed(pool, "t1"), "b")   # pinned full, nothing cached
        assert pool.acquire(view, "c") is REFUSED
        with pytest.raises(OutOfMemory, match="all 2 frames are pinned"):
            view.acquire("c")
        assert pool.stats.reclaims == 0
        assert pool.frame_of("c") is None
        pool.check_invariants()

    def test_inspection_surface(self):
        pool, _, frame_of = self.freed("a", frames=5)
        assert pool.is_cached("a")
        assert pool.cached_count == 1
        assert pool.cached_keys() == ["a"]
        assert pool.frame_of("a") == frame_of["a"]
        assert pool.owner(frame_of["a"]) == "a"   # the content stays
        assert pool.free_count == 4
