"""Hole bookkeeping of the free list, one rule at a time.

The free list keeps its holes in one address-sorted list.  These cases
pin that list's rules: coalescing on free, splitting on allocate, each
placement rule's choice and tie-break, the ``search_steps`` count each
request adds, the wholesale rebuild, and the invariant check.  The
chooser itself is diffed against the per-hole chooser it replaced,
kept in ``tests/alloc_reference.py``.  The
module keeps the name of the size-class hole index it used to test.
``test_alloc_freelist`` covers the allocator's public contract; the
churn test here compares the holes with the brute-force model in
``tests/alloc_reference.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.alloc import Allocation, FreeListAllocator
from repro.errors import OutOfMemory
from tests.alloc_reference import RULES, ReferenceFreeList, per_hole_choose_hole

POLICIES = ("first_fit", "best_fit", "worst_fit", "next_fit")


def with_holes(
    *holes: tuple[int, int], policy: str = "first_fit", capacity: int | None = None
) -> FreeListAllocator:
    """A free list whose free words are exactly ``holes``, freed in order.

    Storage ends with the last hole unless ``capacity`` is given; every
    word outside the holes belongs to a live block.
    """
    if capacity is None:
        capacity = max(address + size for address, size in holes)
    edges = sorted(
        {0, capacity}
        | {address for address, _ in holes}
        | {address + size for address, size in holes}
    )
    allocator = FreeListAllocator(capacity, policy=policy)
    # Filling from empty, every policy takes the front of the one hole.
    blocks = {
        start: allocator.allocate(end - start)
        for start, end in zip(edges, edges[1:])
    }
    for address, _ in holes:
        allocator.free(blocks[address])
    allocator.check_invariants()
    return allocator


class TestInsertCoalesce:
    def test_disjoint_holes_stay_separate(self):
        allocator = with_holes((0, 10), (20, 10))
        assert allocator.holes() == [(0, 10), (20, 10)]
        assert allocator.free_words == 20

    def test_merge_with_predecessor(self):
        allocator = FreeListAllocator(20)
        first, second, _ = (allocator.allocate(size) for size in (10, 5, 5))
        allocator.free(first)
        allocator.free(second)
        assert allocator.holes() == [(0, 15)]
        allocator.check_invariants()

    def test_merge_with_successor(self):
        allocator = FreeListAllocator(20)
        first, second, _ = (allocator.allocate(size) for size in (10, 5, 5))
        allocator.free(second)
        allocator.free(first)
        assert allocator.holes() == [(0, 15)]
        allocator.check_invariants()

    def test_merge_bridges_both_sides(self):
        allocator = with_holes((0, 10), (15, 10))
        (middle,) = allocator.allocations()
        allocator.free(middle)
        assert allocator.holes() == [(0, 25)]
        allocator.check_invariants()


class TestTake:
    def test_take_whole_hole(self):
        allocator = with_holes((0, 8), (20, 10))
        assert allocator.allocate(10).address == 20
        assert allocator.holes() == [(0, 8)]
        allocator.check_invariants()

    def test_take_prefix_leaves_remainder(self):
        allocator = FreeListAllocator(16)
        assert allocator.allocate(5).address == 0
        assert allocator.holes() == [(5, 11)]
        allocator.check_invariants()

    def test_remainder_does_not_coalesce_forward(self):
        # The remainder of a split hole keeps the split hole's end: the
        # live block behind it stays live.
        allocator = with_holes((0, 10), (10, 10), capacity=25)
        assert allocator.holes() == [(0, 20)]
        allocator.allocate(7)
        assert allocator.holes() == [(7, 13)]
        assert [a.address for a in allocator.allocations()] == [0, 20]
        allocator.check_invariants()


class TestFinders:
    def test_first_fit_is_lowest_address(self):
        allocator = with_holes((40, 8), (0, 8), (20, 8), policy="first_fit")
        assert allocator.allocate(5).address == 0

    def test_best_fit_prefers_tightest(self):
        allocator = with_holes((0, 50), (60, 7), (70, 9), policy="best_fit")
        assert allocator.allocate(6).address == 60

    def test_best_fit_tie_breaks_lowest_address(self):
        allocator = with_holes((30, 8), (0, 8), (15, 8), policy="best_fit")
        assert allocator.allocate(8).address == 0

    def test_worst_fit_tie_breaks_lowest_address(self):
        allocator = with_holes((30, 8), (0, 8), (15, 4), policy="worst_fit")
        assert allocator.allocate(2).address == 0

    def test_finders_return_none_when_nothing_fits(self):
        for policy in POLICIES:
            allocator = with_holes((0, 4), (10, 4), policy=policy)
            assert allocator._choose_hole(5) is None, policy
            with pytest.raises(OutOfMemory):
                allocator.allocate(5)
            assert allocator.holes() == [(0, 4), (10, 4)]

    def test_examined_counts_are_positive_and_bounded(self):
        holes = ((0, 4), (10, 8), (30, 8), (50, 64))
        for policy in POLICIES:
            allocator = with_holes(*holes, policy=policy)
            before = allocator.counters.search_steps
            allocator.allocate(5)
            examined = allocator.counters.search_steps - before
            assert 1 <= examined <= len(holes), policy
            if policy in ("best_fit", "worst_fit"):
                # The paper's bookkeeping: these rules examine every hole.
                assert examined == len(holes), policy


class TestMaintenance:
    def test_clear(self):
        allocator = with_holes((0, 10), (20, 10))
        allocator.rebuild({0: Allocation(0, 30)}, [])
        assert allocator.holes() == []
        assert allocator.free_words == 0
        assert allocator.largest_hole == 0
        assert allocator._choose_hole(1) is None
        allocator.check_invariants()

    def test_check_invariants_catches_corruption(self):
        allocator = with_holes((0, 10), capacity=20)
        allocator._holes[0] = (0, 99)   # lie about the size
        with pytest.raises(AssertionError):
            allocator.check_invariants()

    def test_randomized_churn_matches_brute_force(self):
        rng = random.Random(1967)
        for policy in RULES:
            allocator = FreeListAllocator(600, policy=policy)
            model = ReferenceFreeList(600, policy)
            live = []
            for step in range(500):
                if live and rng.random() < 0.5:
                    block = live.pop(rng.randrange(len(live)))
                    allocator.free(block)
                    model.free(block.address)
                else:
                    size = rng.randint(1, 40)
                    expected = model.allocate(size)
                    try:
                        block = allocator.allocate(size)
                    except OutOfMemory:
                        assert expected is None, f"{policy} step {step}"
                    else:
                        assert block.address == expected, f"{policy} step {step}"
                        live.append(block)
                allocator.check_invariants()
                assert allocator.holes() == model.holes(), f"{policy} step {step}"


def random_holes(rng: random.Random) -> list[tuple[int, int]]:
    """0–120 address-sorted holes, with sizes drawn from a small pool
    so that equal sizes, and so ties, are common."""
    pool = [rng.randint(1, 40) for _ in range(rng.randint(1, 12))]
    holes = []
    address = rng.randint(0, 5)
    for _ in range(rng.randint(0, 120)):
        size = rng.choice(pool) if rng.random() < 0.7 else rng.randint(1, 300)
        holes.append((address, size))
        address += size + rng.randint(1, 30)
    return holes


def probe_sizes(rng: random.Random, holes: list[tuple[int, int]]) -> list[int]:
    """Sizes that fit one hole exactly, fit several tied holes, fit
    none, or fall anywhere in between."""
    sizes = [hole_size for _, hole_size in holes]
    largest = max(sizes, default=0)
    probes = [largest + 1, largest + rng.randint(2, 50), 1]
    for _ in range(6):
        probes.append(rng.randint(1, largest + 5))
    if sizes:
        probes.append(rng.choice(sizes))        # an exact fit
        probes.append(largest)                  # the largest, maybe tied
        tied = [size for size in set(sizes) if sizes.count(size) > 1]
        if tied:
            size = rng.choice(tied)
            probes += [size, max(1, size - rng.randint(0, 3))]
    return probes


class TestChooseHoleDifferential:
    """``_choose_hole`` counts its search steps once per request; the
    per-hole chooser counted one per hole examined.  Both must pick
    the same hole and add the same steps, on any hole list."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", range(200))
    def test_same_index_and_search_steps(self, policy, seed):
        rng = random.Random(f"choose-hole:{policy}:{seed}")
        holes = random_holes(rng)
        capacity = holes[-1][0] + holes[-1][1] if holes else 1
        fast = FreeListAllocator(capacity, policy=policy)
        oracle = FreeListAllocator(capacity, policy=policy)
        for allocator in (fast, oracle):
            allocator.rebuild({}, holes)
        for size in probe_sizes(rng, holes):
            rover = rng.randint(0, 2 * len(holes) + 1)
            fast._rover = oracle._rover = rover
            before = fast.counters.search_steps
            oracle_before = oracle.counters.search_steps
            chosen = fast._choose_hole(size)
            expected = per_hole_choose_hole(oracle, size)
            where = f"size={size} rover={rover} holes={len(holes)}"
            assert chosen == expected, where
            assert (fast.counters.search_steps - before
                    == oracle.counters.search_steps - oracle_before), where
        assert fast.holes() == holes
