"""The shared pool's ledger clauses: refcounts and the freed-dedup order.

``SharedFramePool`` counts references per content key (zero deletes
the count, an extra release is loud) and parks zero-reference content
in freed order, reclaimed least-recently-freed first.  These two
clauses are the serving contract's fine print (``docs/SERVING.md``);
each test drives the pool through its public operations.
"""

import pytest

from repro.errors import OutOfMemory
from repro.serve import SharedFramePool


class TestRefCounter:
    def test_absent_key_counts_zero(self):
        pool = SharedFramePool(2)
        assert pool.ref_count("x") == 0
        assert pool.frame_of("x") is None
        assert not pool.is_cached("x")
        assert pool.ref_total == 0

    def test_incr_decr_round_trip(self):
        pool = SharedFramePool(2)
        pool.acquire("a")
        assert pool.ref_count("a") == 1
        pool.acquire("a")
        assert pool.ref_count("a") == 2
        pool.release("a")
        assert pool.ref_count("a") == 1
        pool.release("a")
        assert pool.ref_count("a") == 0

    def test_zero_deletes_the_key(self):
        pool = SharedFramePool(2)
        pool.acquire("a")
        pool.release("a")
        assert pool._refs == {}            # no count left at zero
        assert pool.cached_keys() == ["a"]
        pool.check_invariants()

    def test_underflow_raises(self):
        pool = SharedFramePool(2)
        pool.acquire("a")
        pool.release("a")
        with pytest.raises(ValueError, match="refcount underflow"):
            pool.release("a")
        # The refused release changed nothing.
        assert pool.cached_keys() == ["a"]
        assert pool.stats.releases == 1
        pool.check_invariants()

    def test_double_release_raises(self):
        pool = SharedFramePool(2)
        pool.acquire(("shared", 0))
        pool.acquire(("shared", 0))        # two holders
        pool.release(("shared", 0))
        pool.release(("shared", 0))
        with pytest.raises(ValueError, match="refcount underflow"):
            pool.release(("shared", 0))

    def test_live_count_and_total_differ(self):
        pool = SharedFramePool(4)
        pool.acquire("a")
        pool.acquire("a")
        pool.acquire("b")
        assert pool.resident_count == 2    # pinned frames
        assert pool.ref_total == 3         # references to them

    def test_tuple_keys(self):
        pool = SharedFramePool(2)
        pool.acquire(("shared", 3))
        assert pool.ref_count(("shared", 3)) == 1
        assert pool.ref_count(("shared", 4)) == 0


class TestLRUEvictor:
    @staticmethod
    def freed(*keys, frames=None):
        """A pool whose every frame held ``keys``, freed in that order."""
        pool = SharedFramePool(frames or len(keys))
        frame_of = {key: pool.acquire(key)[0] for key in keys}
        for key in keys:
            pool.release(key)
        return pool, frame_of

    def test_evicts_least_recently_freed_first(self):
        pool, frame_of = self.freed("a", "b", "c")
        for key, fresh in (("a", "x"), ("b", "y"), ("c", "z")):
            frame, hit = pool.acquire(fresh)     # pressure reclaims
            assert (frame, hit) == (frame_of[key], None)
            assert pool.frame_of(key) is None
        assert pool.stats.reclaims == 3

    def test_revival_removes_from_order(self):
        pool, frame_of = self.freed("a", "b")
        assert pool.acquire("a") == (frame_of["a"], "dedup")
        assert pool.cached_keys() == ["b"]
        assert pool.acquire("x")[0] == frame_of["b"]

    def test_refreed_content_moves_to_the_back(self):
        pool, frame_of = self.freed("a", "b")
        pool.acquire("a")
        pool.release("a")                  # freed again, later
        assert pool.cached_keys() == ["b", "a"]
        assert pool.acquire("x")[0] == frame_of["b"]

    def test_double_add_raises(self):
        # Only a corrupted ledger reaches the guard: content already
        # parked as cached is pinned and then freed again.
        pool = SharedFramePool(2)
        frame, _ = pool.acquire("a")
        pool._cached["a"] = frame
        with pytest.raises(ValueError, match="already cached"):
            pool.release("a")

    def test_evict_empty_raises(self):
        pool = SharedFramePool(2)
        pool.acquire("a")
        pool.acquire("b")                  # pinned full, nothing cached
        with pytest.raises(OutOfMemory, match="all 2 frames are pinned"):
            pool.acquire("c")
        assert pool.stats.reclaims == 0
        assert pool.frame_of("c") is None
        pool.check_invariants()

    def test_inspection_surface(self):
        pool, frame_of = self.freed("a", frames=5)
        assert pool.is_cached("a")
        assert pool.cached_count == 1
        assert pool.cached_keys() == ["a"]
        assert pool.frame_of("a") == frame_of["a"]
        assert pool.owner(frame_of["a"]) == "a"   # the content stays
        assert pool.free_count == 4
