"""A brute-force free list: the oracle ``FreeListAllocator`` must match.

The model keeps only the live blocks.  Its holes are the gaps between
them, derived afresh on every call, so it has no coalescing to get
wrong.  A request takes the front of the hole its policy's rule names:
first fit the lowest-addressed sufficient hole, best fit the smallest,
worst fit the largest, with ties going to the lowest address.
``tests/test_fastpath_equivalence.py::TestAllocatorEquivalence`` pins
the free list to it over seeded request schedules, and the modelled
walks of ``tests/test_check_fuzz.py`` across compactions.  The model
also counts the holes its rule examines, which the free list's
``search_steps`` must match.

``per_hole_choose_hole`` is the free list's hole chooser as it was
when it counted one search step per hole examined, kept verbatim as
the oracle for ``FreeListAllocator._choose_hole``
(``tests/test_fastpath_holes.py::TestChooseHoleDifferential``).
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
    """Live blocks by address; holes and placement by exhaustive search.

    ``search_steps`` adds the holes a request examines: every hole for
    best and worst fit, and for first fit the holes up to the first
    sufficient one, or all of them when none fits.
    """

    def __init__(self, capacity: int, policy: str) -> None:
        self.capacity = capacity
        self.policy = policy
        self.rule = RULES[policy]
        self.live: dict[int, int] = {}
        self.search_steps = 0

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
        holes = self.holes()
        fits = [hole for hole in holes if hole[1] >= size]
        if self.policy == "first_fit" and fits:
            self.search_steps += holes.index(fits[0]) + 1
        else:
            self.search_steps += len(holes)
        if not fits:
            return None
        address = min(fits, key=self.rule)[0]
        self.live[address] = size
        return address

    def free(self, address: int) -> None:
        del self.live[address]


def per_hole_choose_hole(self, size: int) -> int | None:
    """Return the index of the hole to allocate from, or None."""
    if self.policy == "first_fit":
        for index, (_, hole_size) in enumerate(self._holes):
            self.counters.search_steps += 1
            if hole_size >= size:
                return index
        return None
    if self.policy == "next_fit":
        count = len(self._holes)
        if count == 0:
            return None
        start = self._rover % count
        for step in range(count):
            index = (start + step) % count
            self.counters.search_steps += 1
            if self._holes[index][1] >= size:
                return index
        return None
    # best_fit / worst_fit examine every hole.
    chosen: int | None = None
    chosen_size = None
    for index, (_, hole_size) in enumerate(self._holes):
        self.counters.search_steps += 1
        if hole_size < size:
            continue
        better = (
            chosen is None
            or (self.policy == "best_fit" and hole_size < chosen_size)
            or (self.policy == "worst_fit" and hole_size > chosen_size)
        )
        if better:
            chosen, chosen_size = index, hole_size
    return chosen
