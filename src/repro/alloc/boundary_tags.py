"""Boundary-tag allocation (Knuth's contemporaneous technique).

The paper's placement discussion weighs search cost against
fragmentation; the boundary-tag method (Knuth, vol. 1, developed in the
same years) attacks the *free* side instead: each block carries size
tags at both ends, so a freed block finds its physical neighbours in
constant time, with no address-ordered list to search.  The free list
can then be kept in any order — here, a LIFO list with a first-fit or
next-fit (roving pointer) search.

The two tag words per block are the method's storage overhead, counted
explicitly, in the same spirit as the Rice allocator's back-reference
word.
"""

from __future__ import annotations

from repro.alloc.base import (
    Allocation,
    AllocatorCounters,
    check_free_known,
    check_request_size,
)
from repro.errors import OutOfMemory

_TAG_WORDS = 2   # one size tag at each end of every block


class _Block:
    """A doubly linked description of one storage extent."""

    __slots__ = ("address", "size", "free", "prev_phys", "next_phys",
                 "prev_free", "next_free")

    def __init__(self, address: int, size: int, free: bool) -> None:
        self.address = address
        self.size = size
        self.free = free
        self.prev_phys: _Block | None = None
        self.next_phys: _Block | None = None
        self.prev_free: _Block | None = None
        self.next_free: _Block | None = None


class BoundaryTagAllocator:
    """First-fit / next-fit allocation with constant-time coalescing.

    Parameters
    ----------
    capacity:
        Words managed (tags included: a granted block of ``n`` words
        reserves ``n + 2``).
    policy:
        ``first_fit`` (search the free list from its head) or
        ``next_fit`` (resume from the last allocation point).

    >>> allocator = BoundaryTagAllocator(1000)
    >>> block = allocator.allocate(98)
    >>> block.size            # 98 requested + 2 tag words
    100
    """

    def __init__(self, capacity: int, policy: str = "first_fit") -> None:
        if capacity <= _TAG_WORDS:
            raise ValueError(
                f"capacity must exceed the {_TAG_WORDS} tag words, got {capacity}"
            )
        if policy not in ("first_fit", "next_fit"):
            raise ValueError(f"unknown policy {policy!r}")
        self.capacity = capacity
        self.policy = policy
        whole = _Block(0, capacity, free=True)
        self._free_head: _Block | None = whole
        self._phys_head = whole
        self._rover: _Block | None = whole
        self._by_address: dict[int, _Block] = {0: whole}
        self._live: dict[int, Allocation] = {}
        self.counters = AllocatorCounters()
        self.coalesce_operations = 0

    # -- free-list maintenance ---------------------------------------------

    def _free_insert(self, block: _Block) -> None:
        block.prev_free = None
        block.next_free = self._free_head
        if self._free_head is not None:
            self._free_head.prev_free = block
        self._free_head = block

    def _free_remove(self, block: _Block) -> None:
        if block.prev_free is not None:
            block.prev_free.next_free = block.next_free
        else:
            self._free_head = block.next_free
        if block.next_free is not None:
            block.next_free.prev_free = block.prev_free
        if self._rover is block:
            self._rover = block.next_free or self._free_head
        block.prev_free = block.next_free = None

    # -- allocate -------------------------------------------------------------

    def allocate(self, size: int) -> Allocation:
        check_request_size(size)
        gross = size + _TAG_WORDS
        self.counters.record_request(gross)
        block = self._find(gross)
        if block is None:
            self.counters.record_failure(gross)
            raise OutOfMemory(size, "no free block of sufficient size")
        self._free_remove(block)
        leftover = block.size - gross
        if leftover > _TAG_WORDS:
            # Split: the tail stays free.
            tail = _Block(block.address + gross, leftover, free=True)
            tail.prev_phys = block
            tail.next_phys = block.next_phys
            if block.next_phys is not None:
                block.next_phys.prev_phys = tail
            block.next_phys = tail
            block.size = gross
            self._by_address[tail.address] = tail
            self._free_insert(tail)
            if self.policy == "next_fit":
                # The roving pointer resumes just past this allocation.
                self._rover = tail
        block.free = False
        allocation = Allocation(block.address, block.size)
        self._live[block.address] = allocation
        return allocation

    def _candidates(self):
        """Free blocks in search order (rover-first for next_fit)."""
        if self.policy == "next_fit" and self._rover is not None:
            block = self._rover
            while block is not None:
                yield block
                block = block.next_free
            block = self._free_head
            while block is not None and block is not self._rover:
                yield block
                block = block.next_free
        else:
            block = self._free_head
            while block is not None:
                yield block
                block = block.next_free

    def _find(self, gross: int) -> _Block | None:
        for block in self._candidates():
            self.counters.search_steps += 1
            if block.size >= gross:
                return block
        return None

    # -- free -------------------------------------------------------------------

    def free(self, allocation: Allocation) -> None:
        check_free_known(allocation, self._live, "BoundaryTagAllocator")
        del self._live[allocation.address]
        self.counters.record_free(allocation.size)
        block = self._by_address[allocation.address]
        block.free = True
        # Constant-time coalescing via the physical neighbours (the tags).
        next_phys = block.next_phys
        if next_phys is not None and next_phys.free:
            self._absorb(block, next_phys)
            self.coalesce_operations += 1
        prev_phys = block.prev_phys
        if prev_phys is not None and prev_phys.free:
            self._free_remove(prev_phys)
            self._absorb(prev_phys, block)
            block = prev_phys
            self.coalesce_operations += 1
        self._free_insert(block)

    def _absorb(self, keeper: _Block, eaten: _Block) -> None:
        """Merge ``eaten`` (physically next) into ``keeper``."""
        if eaten.prev_free is not None or eaten.next_free is not None or (
            self._free_head is eaten
        ):
            self._free_remove(eaten)
        keeper.size += eaten.size
        keeper.next_phys = eaten.next_phys
        if eaten.next_phys is not None:
            eaten.next_phys.prev_phys = keeper
        del self._by_address[eaten.address]

    # -- inspection ----------------------------------------------------------------

    def holes(self) -> list[tuple[int, int]]:
        extents = []
        block = self._phys_head
        while block is not None:
            if block.free:
                extents.append((block.address, block.size))
            block = block.next_phys
        return extents

    def allocations(self) -> list[Allocation]:
        return sorted(self._live.values(), key=lambda a: a.address)

    @property
    def free_words(self) -> int:
        return sum(size for _, size in self.holes())

    @property
    def used_words(self) -> int:
        return self.capacity - self.free_words

    @property
    def largest_hole(self) -> int:
        return max((size for _, size in self.holes()), default=0)

    @property
    def tag_overhead_words(self) -> int:
        """Tag words reserved inside live blocks."""
        return len(self._live) * _TAG_WORDS

    def check_invariants(self) -> None:
        # Physical chain tiles storage exactly.
        cursor = 0
        block = self._phys_head
        seen_free = set()
        while block is not None:
            assert block.address == cursor, "physical chain has a gap"
            assert block.size > 0, "zero-size block"
            if block.free:
                seen_free.add(block.address)
                assert block.next_phys is None or not block.next_phys.free, (
                    "adjacent free blocks not coalesced"
                )
            cursor += block.size
            block = block.next_phys
        assert cursor == self.capacity, "chain does not reach the end"
        # Free list holds exactly the free blocks.
        listed = set()
        node = self._free_head
        while node is not None:
            assert node.free, "allocated block on the free list"
            assert node.address not in listed, "free-list cycle"
            listed.add(node.address)
            node = node.next_free
        assert listed == seen_free, "free list out of sync with chain"

    def __repr__(self) -> str:
        return (
            f"BoundaryTagAllocator(capacity={self.capacity}, "
            f"policy={self.policy!r}, live={len(self._live)})"
        )
