"""Tests for the free-list allocator and its placement policies."""

import pytest

from repro.alloc import Allocation, FreeListAllocator
from repro.errors import InvalidFree, OutOfMemory


class TestBasics:
    def test_first_allocation_at_zero(self):
        allocator = FreeListAllocator(100)
        assert allocator.allocate(10).address == 0

    def test_sequential_allocations_are_adjacent(self):
        allocator = FreeListAllocator(100)
        a = allocator.allocate(10)
        b = allocator.allocate(20)
        assert b.address == a.end

    def test_exhaustion_raises(self):
        allocator = FreeListAllocator(100)
        allocator.allocate(100)
        with pytest.raises(OutOfMemory):
            allocator.allocate(1)

    def test_fragmented_space_cannot_serve_large_request(self):
        """The defining symptom of external fragmentation."""
        allocator = FreeListAllocator(100)
        blocks = [allocator.allocate(10) for _ in range(10)]
        for block in blocks[::2]:
            allocator.free(block)      # 50 words free, in 10-word shreds
        assert allocator.free_words == 50
        with pytest.raises(OutOfMemory):
            allocator.allocate(11)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            FreeListAllocator(100).allocate(0)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            FreeListAllocator(0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            FreeListAllocator(100, policy="magic_fit")

    def test_tracer_is_keyword_only(self):
        """A stray third positional argument fails at construction, not
        as a non-tracer at the first allocate."""
        with pytest.raises(TypeError):
            FreeListAllocator(100, "best_fit", True)


class TestFree:
    def test_free_returns_space(self):
        allocator = FreeListAllocator(100)
        block = allocator.allocate(60)
        allocator.free(block)
        assert allocator.free_words == 100
        assert allocator.allocate(100).size == 100

    def test_double_free_rejected(self):
        allocator = FreeListAllocator(100)
        block = allocator.allocate(10)
        allocator.free(block)
        with pytest.raises(InvalidFree):
            allocator.free(block)

    def test_free_of_unknown_block_rejected(self):
        allocator = FreeListAllocator(100)
        with pytest.raises(InvalidFree):
            allocator.free(Allocation(5, 10))

    def test_free_with_wrong_size_rejected(self):
        allocator = FreeListAllocator(100)
        allocator.allocate(10)
        with pytest.raises(InvalidFree):
            allocator.free(Allocation(0, 5))


class TestCoalescing:
    def test_adjacent_frees_merge(self):
        allocator = FreeListAllocator(100)
        a = allocator.allocate(30)
        b = allocator.allocate(30)
        c = allocator.allocate(40)
        allocator.free(a)
        allocator.free(b)
        # a and b merged with each other (and c still live)
        assert allocator.holes() == [(0, 60)]
        allocator.free(c)
        assert allocator.holes() == [(0, 100)]

    def test_merge_with_successor(self):
        allocator = FreeListAllocator(100)
        a = allocator.allocate(30)
        b = allocator.allocate(30)
        allocator.allocate(40)
        allocator.free(b)
        allocator.free(a)   # merges with the hole after it
        assert allocator.holes() == [(0, 60)]

    def test_merge_both_sides(self):
        allocator = FreeListAllocator(90)
        a = allocator.allocate(30)
        b = allocator.allocate(30)
        c = allocator.allocate(30)
        allocator.free(a)
        allocator.free(c)
        allocator.free(b)   # bridges both holes
        assert allocator.holes() == [(0, 90)]


class TestPlacementPolicies:
    def _with_two_holes(self, policy):
        """Storage with a 20-word hole at 0 and a 50-word hole at 50."""
        allocator = FreeListAllocator(100, policy=policy)
        first = allocator.allocate(20)
        allocator.allocate(30)
        rest = allocator.allocate(50)
        allocator.free(first)
        allocator.free(rest)
        assert allocator.holes() == [(0, 20), (50, 50)]
        return allocator

    def test_first_fit_takes_lowest(self):
        allocator = self._with_two_holes("first_fit")
        assert allocator.allocate(10).address == 0

    def test_best_fit_takes_smallest_sufficient(self):
        allocator = self._with_two_holes("best_fit")
        assert allocator.allocate(10).address == 0
        # A 30-word request only fits the big hole.
        assert allocator.allocate(30).address == 50

    def test_best_fit_prefers_tight_hole_even_if_higher(self):
        allocator = FreeListAllocator(200, policy="best_fit")
        big = allocator.allocate(100)
        allocator.allocate(10)
        small = allocator.allocate(20)
        allocator.allocate(10)
        allocator.free(big)     # hole (0, 100)
        allocator.free(small)   # hole (110, 20)
        assert allocator.allocate(20).address == 110

    def test_worst_fit_takes_largest(self):
        allocator = self._with_two_holes("worst_fit")
        assert allocator.allocate(10).address == 50

    def test_next_fit_resumes_from_rover(self):
        allocator = FreeListAllocator(300, policy="next_fit")
        blocks = [allocator.allocate(100) for _ in range(3)]
        for block in blocks:
            allocator.free(block)
        assert allocator.holes() == [(0, 300)]
        allocator.allocate(50)   # from (0,300) -> hole (50,250)
        a = allocator.allocate(50)
        assert a.address == 50   # continues in the same hole

    def test_best_fit_leaves_less_shredding_than_worst_fit(self):
        """Classic contrast: worst-fit destroys big holes."""
        def run(policy):
            allocator = FreeListAllocator(1000, policy=policy)
            keep = []
            for i in range(12):
                keep.append(allocator.allocate(40))
            for block in keep[::2]:
                allocator.free(block)
            for _ in range(5):
                allocator.allocate(30)
            return allocator.largest_hole
        assert run("best_fit") >= run("worst_fit")


class TestCounters:
    def test_request_and_failure_counts(self):
        allocator = FreeListAllocator(100)
        allocator.allocate(60)
        with pytest.raises(OutOfMemory):
            allocator.allocate(60)
        assert allocator.counters.requests == 2
        assert allocator.counters.failures == 1
        assert allocator.counters.words_allocated == 60

    def test_search_steps_accumulate(self):
        allocator = FreeListAllocator(100, policy="best_fit")
        a = allocator.allocate(10)
        allocator.allocate(10)
        allocator.free(a)
        allocator.allocate(5)    # examines 2 holes
        assert allocator.counters.search_steps >= 2

    def test_free_counter(self):
        allocator = FreeListAllocator(100)
        block = allocator.allocate(10)
        allocator.free(block)
        assert allocator.counters.frees == 1
        assert allocator.counters.words_freed == 10


class TestInspection:
    def test_allocations_sorted(self):
        allocator = FreeListAllocator(100)
        allocator.allocate(10)
        allocator.allocate(10)
        addresses = [a.address for a in allocator.allocations()]
        assert addresses == sorted(addresses)

    def test_used_plus_free_is_capacity(self):
        allocator = FreeListAllocator(100)
        allocator.allocate(30)
        assert allocator.used_words + allocator.free_words == 100

    def test_largest_hole_empty_when_full(self):
        allocator = FreeListAllocator(10)
        allocator.allocate(10)
        assert allocator.largest_hole == 0


class TestNextFitRover:
    """Pin the rover's corner cases: wraparound and invalidation.

    Knuth's roving pointer resumes each search where the last one ended;
    the free list under it shifts as holes are consumed and coalesced,
    so the rover must wrap past the end and survive its hole vanishing.
    """

    def test_search_wraps_past_end_of_free_list(self):
        allocator = FreeListAllocator(100, policy="next_fit")
        a = allocator.allocate(10)           # 0..10
        allocator.allocate(30)               # 10..40
        c = allocator.allocate(30)           # 40..70
        allocator.allocate(10)               # 70..80
        e = allocator.allocate(10)           # 80..90
        allocator.allocate(10)               # 90..100
        for block in (a, c, e):
            allocator.free(block)
        # holes: [(0,10), (40,30), (80,10)], rover at 0.
        assert allocator.allocate(20).address == 40   # skips the 10-word hole
        assert allocator.allocate(10).address == 60   # resumes in the same hole
        # Rover now sits past the consumed middle hole; first_fit would
        # return 0 here, next_fit must resume at the high hole...
        assert allocator.allocate(10).address == 80
        # ...and wrap around the end of the list for the last one.
        assert allocator.allocate(10).address == 0
        allocator.check_invariants()

    def test_rover_survives_hole_coalesced_away(self):
        allocator = FreeListAllocator(60, policy="next_fit")
        blocks = [allocator.allocate(10) for _ in range(6)]
        for index in (0, 2, 4):
            allocator.free(blocks[index])
        # holes: [(0,10), (20,10), (40,10)], rover at 0.
        assert allocator.allocate(7).address == 0
        h = allocator.allocate(7)            # 20..27, rover -> hole 1
        assert h.address == 20
        i = allocator.allocate(7)            # 40..47, rover -> hole 2 (last)
        assert i.address == 40
        # Free everything between: each bridging free merges two holes
        # into one, shrinking the list under the rover until it points
        # past the end and must be reset.
        allocator.free(blocks[1])            # (7,3)+(10,10) -> (7,13)
        allocator.free(h)                    # bridges into (7,23)
        allocator.free(blocks[3])            # (7,33)
        allocator.free(i)                    # bridges into (7,43): one hole
        assert allocator.holes() == [(7, 43)]
        allocator.check_invariants()
        # The next search must not index past the shrunken list.
        assert allocator.allocate(5).address == 7
        assert allocator.holes() == [(12, 38)]
        allocator.check_invariants()

    def test_rover_survives_coalesce_below_it(self):
        """Regression: a merge *below* the rover used to leave it stale.

        Deleting holes below the rover shifts every later index down;
        the old code only reset the rover when it ran past the end, so
        here it silently slid from its hole back to the list head and
        next_fit degenerated into first_fit for one search.
        """
        allocator = FreeListAllocator(80, policy="next_fit")
        b0 = allocator.allocate(10)          # 0..10
        b1 = allocator.allocate(5)           # 10..15
        b2 = allocator.allocate(10)          # 15..25
        allocator.allocate(10)               # 25..35
        b4 = allocator.allocate(20)          # 35..55
        allocator.allocate(10)               # 55..65
        allocator.allocate(15)               # 65..80
        for block in (b0, b2, b4):
            allocator.free(block)
        # holes: [(0,10), (15,10), (35,20)], rover at 0.
        assert allocator.allocate(15).address == 35   # only hole 2 fits
        # holes: [(0,10), (15,10), (50,5)], rover -> hole 2.
        allocator.free(b1)   # three-way merge: [(0,25), (50,5)]
        assert allocator.holes() == [(0, 25), (50, 5)]
        # The rover's hole is now index 1; a stale index-2 rover would
        # wrap to the head and place this at 0.
        assert allocator.allocate(5).address == 50
        allocator.check_invariants()
