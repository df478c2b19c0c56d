"""Coalescing free-list allocator with selectable placement policy.

Implements the placement strategies of the paper's "Placement
Strategies" section over one free list:

- ``best_fit`` — "place the information in the smallest space which is
  sufficient to contain it" (the "common and frequently satisfactory"
  strategy; also the one "found to be effective" on the B5000).
- ``first_fit`` — take the lowest-addressed sufficient hole.
- ``next_fit`` — first-fit resuming from the previous allocation point
  (a rover), trading fragmentation behaviour for shorter searches.
- ``worst_fit`` — take the largest hole (a known-bad contrast case for
  the experiments).

Frees coalesce with both neighbours immediately, so the free list always
holds maximal holes.

The free list is an address-sorted list scanned per request.
``search_steps`` counts holes examined exactly as the paper's
bookkeeping-cost discussion assumes — best fit examines every hole —
which is what the CL-PLACE experiments measure.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

from repro.alloc.base import (
    Allocation,
    AllocatorCounters,
    check_free_known,
    check_request_size,
)
from repro.errors import OutOfMemory
from repro.observe.events import Free, Place
from repro.observe.tracer import Tracer, as_tracer

_POLICIES = ("first_fit", "best_fit", "worst_fit", "next_fit")

#: A hole's sort key in the address-ordered free list.
_ADDRESS = itemgetter(0)


class FreeListAllocator:
    """Variable-unit allocation from a single span of storage.

    Parameters
    ----------
    capacity:
        Words of storage managed (addresses 0 .. capacity-1).
    policy:
        One of ``first_fit``, ``best_fit``, ``worst_fit``, ``next_fit``.
    tracer:
        Optional :class:`~repro.observe.tracer.Tracer` receiving a
        ``Place`` event per successful allocation and a ``Free`` per
        release, timestamped by the running request+free count (the
        allocator keeps no clock).

    >>> allocator = FreeListAllocator(100, policy="best_fit")
    >>> block = allocator.allocate(30)
    >>> (block.address, block.size)
    (0, 30)
    """

    def __init__(
        self,
        capacity: int,
        policy: str = "first_fit",
        *,
        tracer: Tracer | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if policy not in _POLICIES:
            raise ValueError(f"unknown placement policy {policy!r}; choose from {_POLICIES}")
        self.capacity = capacity
        self.policy = policy
        self.tracer = as_tracer(tracer)
        self._live: dict[int, Allocation] = {}
        self._rover = 0  # index into _holes for next_fit
        self._next_block_id = 0
        self.counters = AllocatorCounters()
        self._holes = [(0, capacity)]  # sorted by address

    # -- inspection ------------------------------------------------------

    def holes(self) -> list[tuple[int, int]]:
        return list(self._holes)

    def allocations(self) -> list[Allocation]:
        return sorted(self._live.values(), key=lambda a: a.address)

    @property
    def free_words(self) -> int:
        return sum(size for _, size in self._holes)

    @property
    def used_words(self) -> int:
        return self.capacity - self.free_words

    @property
    def largest_hole(self) -> int:
        return max((size for _, size in self._holes), default=0)

    # -- placement -------------------------------------------------------

    def _choose_hole(self, size: int) -> int | None:
        """Return the index of the hole to allocate from, or None.

        ``search_steps`` grows once per request by the holes the policy
        examines, the same total as counting each hole as it is looked
        at.  First fit adds the holes up to and including the one it
        takes, next fit the holes from its rover to that one, and both
        add every hole they scanned when none fits.  Best fit and worst
        fit examine every hole, the paper's bookkeeping cost, so they
        add ``len(holes)`` up front and then scan with plain
        comparisons; best fit may stop at an exact fit, since no later
        hole can be smaller.  Ties go to the first sufficient hole in
        scan order.
        """
        holes = self._holes
        policy = self.policy
        if policy == "first_fit":
            for index, (_, hole_size) in enumerate(holes):
                if hole_size >= size:
                    self.counters.search_steps += index + 1
                    return index
            self.counters.search_steps += len(holes)
            return None
        if policy == "next_fit":
            count = len(holes)
            if count == 0:
                return None
            start = self._rover % count
            for step in range(count):
                index = (start + step) % count
                if holes[index][1] >= size:
                    self.counters.search_steps += step + 1
                    return index
            self.counters.search_steps += count
            return None
        # best_fit / worst_fit examine every hole.
        self.counters.search_steps += len(holes)
        chosen = chosen_size = None
        if policy == "best_fit":
            for index, (_, hole_size) in enumerate(holes):
                if hole_size >= size and (chosen is None or hole_size < chosen_size):
                    chosen, chosen_size = index, hole_size
                    if hole_size == size:
                        break
            return chosen
        for index, (_, hole_size) in enumerate(holes):
            if hole_size >= size and (chosen is None or hole_size > chosen_size):
                chosen, chosen_size = index, hole_size
        return chosen

    def allocate(self, size: int) -> Allocation:
        check_request_size(size)
        self.counters.record_request(size)
        index = self._choose_hole(size)
        if index is None:
            self.counters.record_failure(size)
            raise OutOfMemory(
                size,
                f"largest hole {self.largest_hole} of {self.free_words} free words "
                f"({self.policy})",
            )
        address, hole_size = self._holes[index]
        if hole_size == size:
            del self._holes[index]
            if self.policy == "next_fit":
                self._rover = index
        else:
            self._holes[index] = (address + size, hole_size - size)
            if self.policy == "next_fit":
                self._rover = index
        allocation = Allocation(address, size)
        self._live[address] = allocation
        if self.tracer.enabled:
            self._emit_place(allocation)
        return allocation

    def _emit_place(self, allocation: Allocation) -> None:
        # ``unit`` is a monotonic block id, not the address: addresses
        # are reused after frees, and an id keeps the lifetimes of two
        # blocks that happened to land at the same address distinct in
        # downstream analysis.
        block_id = self._next_block_id
        self._next_block_id += 1
        self.tracer.emit(Place(
            time=self.counters.requests + self.counters.frees,
            unit=block_id,
            where=allocation.address,
            size=allocation.size,
            policy=self.policy,
        ))

    # -- release ---------------------------------------------------------

    def free(self, allocation: Allocation) -> None:
        check_free_known(allocation, self._live, "FreeListAllocator")
        del self._live[allocation.address]
        self.counters.record_free(allocation.size)
        self._insert_hole(allocation.address, allocation.size)
        # Emit only once the hole is back on the free list: sinks may
        # inspect the allocator (the invariant sink does), and mid-free
        # the words are accounted nowhere.
        if self.tracer.enabled:
            self.tracer.emit(Free(
                time=self.counters.requests + self.counters.frees,
                address=allocation.address,
                size=allocation.size,
            ))

    def _insert_hole(self, address: int, size: int) -> None:
        """Insert a hole in address order, coalescing with neighbours."""
        # The next-fit rover is an *index* into the hole list; the
        # coalescing deletions and the insertion below shift which hole
        # any given index names.  Remember the rover's hole by address
        # and re-find it afterwards, so the rover keeps pointing at the
        # same logical hole (or at whatever hole absorbed it).
        rover_address = None
        if self.policy == "next_fit" and 0 <= self._rover < len(self._holes):
            rover_address = self._holes[self._rover][0]
        index = bisect_left(self._holes, address, key=_ADDRESS)
        # Coalesce with the predecessor?
        if index > 0:
            prev_address, prev_size = self._holes[index - 1]
            if prev_address + prev_size == address:
                address, size = prev_address, prev_size + size
                del self._holes[index - 1]
                index -= 1
        # Coalesce with the successor?
        if index < len(self._holes):
            next_address, next_size = self._holes[index]
            if address + size == next_address:
                size += next_size
                del self._holes[index]
        self._holes.insert(index, (address, size))
        if self.policy == "next_fit":
            self._rover = self._find_rover(rover_address)

    def _find_rover(self, rover_address: int | None) -> int:
        """Index of the hole containing ``rover_address`` (0 if unknown)."""
        if rover_address is None:
            return 0
        # Rightmost hole starting at or below the remembered address: a
        # coalesce can only have merged the rover's hole into one that
        # starts no later than it did.
        return max(0, bisect_right(self._holes, rover_address, key=_ADDRESS) - 1)

    # -- bulk state rebuild (compaction) ----------------------------------

    def rebuild(
        self, live: dict[int, Allocation], holes: list[tuple[int, int]]
    ) -> None:
        """Replace the allocator's state wholesale (post-compaction).

        ``holes`` must be maximal, non-overlapping, address-ascending.
        The next-fit rover restarts at the list head.
        """
        self._live = live
        self._rover = 0
        self._holes = list(holes)

    # -- integrity (used by property tests) ------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if internal state is inconsistent."""
        previous_end = None
        for address, size in self.holes():
            assert size > 0, "zero-size hole"
            assert 0 <= address and address + size <= self.capacity, "hole out of range"
            if previous_end is not None:
                assert address > previous_end, "holes unsorted or uncoalesced"
            previous_end = address + size
        spans = sorted(
            [(a.address, a.end) for a in self._live.values()]
            + [(addr, addr + size) for addr, size in self.holes()]
        )
        cursor = 0
        for start, end in spans:
            assert start >= cursor, "overlapping extents"
            cursor = end
        assert (
            self.free_words + sum(a.size for a in self._live.values()) == self.capacity
        ), "words lost or duplicated"

    def __repr__(self) -> str:
        return (
            f"FreeListAllocator(capacity={self.capacity}, policy={self.policy!r}, "
            f"used={self.used_words}, holes={len(self.holes())})"
        )
