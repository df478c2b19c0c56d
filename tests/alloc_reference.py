"""A brute-force free list: the oracle ``FreeListAllocator`` must match.

The model keeps only the live blocks.  Its holes are the gaps between
them, derived afresh on every call, so it has no coalescing to get
wrong.  A request takes the front of the hole its policy's rule names:
first fit the lowest-addressed sufficient hole, best fit the smallest,
worst fit the largest, with ties going to the lowest address.
``tests/test_fastpath_equivalence.py::TestAllocatorEquivalence`` pins
the free list to it over seeded request schedules, and the modelled
walks of ``tests/test_check_fuzz.py`` across compactions.
"""

from __future__ import annotations

#: Each policy's choice among the sufficient ``(address, size)`` holes:
#: the one with the smallest key.
RULES = {
    "first_fit": lambda hole: hole[0],
    "best_fit": lambda hole: (hole[1], hole[0]),
    "worst_fit": lambda hole: (-hole[1], hole[0]),
}


class ReferenceFreeList:
    """Live blocks by address; holes and placement by exhaustive search."""

    def __init__(self, capacity: int, policy: str) -> None:
        self.capacity = capacity
        self.rule = RULES[policy]
        self.live: dict[int, int] = {}

    def holes(self) -> list[tuple[int, int]]:
        holes = []
        cursor = 0
        for address in sorted(self.live):
            if address > cursor:
                holes.append((cursor, address - cursor))
            cursor = address + self.live[address]
        if cursor < self.capacity:
            holes.append((cursor, self.capacity - cursor))
        return holes

    def allocate(self, size: int) -> int | None:
        """The new block's address, or None when no hole fits."""
        fits = [hole for hole in self.holes() if hole[1] >= size]
        if not fits:
            return None
        address = min(fits, key=self.rule)[0]
        self.live[address] = size
        return address

    def free(self, address: int) -> None:
        del self.live[address]
