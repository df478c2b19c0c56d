"""The Rice University computer's allocation scheme (Appendix A.4).

Iliffe and Jodeit's scheme, as the paper summarizes it:

- Segments are "initially placed sequentially in storage in a block of
  contiguous locations, the first of which is a 'back reference' to the
  codeword of the segment" — so every active block carries one word of
  overhead.
- A block whose segment "loses its significance" is designated *inactive*
  and its first word is "set up with the size of the block and the
  location of the next inactive block in storage" — a singly linked chain
  of free blocks threaded through storage itself.
- Allocation searches the chain sequentially for a block of sufficient
  size; leftover space "replaces the original inactive block in the
  chain".
- If no sufficient block exists, adjacent inactive blocks are combined.
- If that also fails, a replacement algorithm is applied *iteratively*
  (see :meth:`RiceAllocator.allocate_with_replacement`) until a large
  enough block is released.

The chain is kept in the order blocks were freed (most recent first),
not address order — which is why combining adjacent blocks is a distinct,
more expensive step, faithfully modelled here.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.alloc.base import (
    Allocation,
    AllocatorCounters,
    check_free_known,
    check_request_size,
)
from repro.errors import OutOfMemory
from repro.observe.events import Free, Place
from repro.observe.tracer import Tracer, as_tracer


class RiceAllocator:
    """Inactive-block-chain allocation with back-reference overhead.

    Parameters
    ----------
    capacity:
        Words managed.
    back_reference_words:
        Overhead words prepended to every active block (1 in the paper:
        the back reference to the codeword).
    tracer:
        Optional :class:`~repro.observe.tracer.Tracer` receiving a
        ``Place`` per granted block (``size`` is the gross extent,
        back reference included) and a ``Free`` per block designated
        inactive, timestamped by the running request+free count.

    >>> allocator = RiceAllocator(1000)
    >>> block = allocator.allocate(99)
    >>> block.size                       # 99 requested + 1 back reference
    100
    >>> block.address
    0
    """

    def __init__(
        self,
        capacity: int,
        back_reference_words: int = 1,
        tracer: Tracer | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if back_reference_words < 0:
            raise ValueError("back_reference_words must be non-negative")
        self.capacity = capacity
        self.back_reference_words = back_reference_words
        self._sequential_next = 0      # bump pointer for virgin storage
        self._chain: list[tuple[int, int]] = []   # inactive blocks, freed order
        self._live: dict[int, Allocation] = {}
        self.counters = AllocatorCounters()
        self.tracer = as_tracer(tracer)
        self.combines = 0
        self.replacement_rounds = 0

    def _gross(self, size: int) -> int:
        return size + self.back_reference_words

    def allocate(self, size: int) -> Allocation:
        """Grant a block, searching the chain, then virgin storage, then
        combining adjacent inactive blocks.  Raises OutOfMemory if all
        three fail; callers wanting the paper's final recourse use
        :meth:`allocate_with_replacement`.

        The returned allocation's ``size`` includes the back-reference
        overhead; its usable extent starts ``back_reference_words`` past
        ``address``.
        """
        check_request_size(size)
        gross = self._gross(size)
        self.counters.record_request(gross)
        address = self._take(gross)
        if address is None:
            self.combine_adjacent()
            address = self._take(gross)
        if address is None:
            self.counters.record_failure(gross)
            raise OutOfMemory(
                size, f"chain of {len(self._chain)} inactive blocks insufficient"
            )
        allocation = Allocation(address, gross)
        self._live[address] = allocation
        if self.tracer.enabled:
            self.tracer.emit(Place(
                time=self.counters.requests + self.counters.frees,
                unit=address, where=address, size=gross, policy="rice",
            ))
        return allocation

    def _take(self, gross: int) -> int | None:
        # 1. Sequential search of the inactive-block chain (freed order).
        for index, (address, block_size) in enumerate(self._chain):
            self.counters.search_steps += 1
            if block_size >= gross:
                leftover = block_size - gross
                if leftover:
                    # "If any unused space is left over it replaces the
                    # original inactive block in the chain."
                    self._chain[index] = (address + gross, leftover)
                else:
                    del self._chain[index]
                return address
        # 2. Virgin storage past the sequential-placement pointer.
        if self.capacity - self._sequential_next >= gross:
            address = self._sequential_next
            self._sequential_next += gross
            return address
        return None

    def free(self, allocation: Allocation) -> None:
        """Designate a block inactive: thread it onto the chain head."""
        check_free_known(allocation, self._live, "RiceAllocator")
        del self._live[allocation.address]
        self.counters.record_free(allocation.size)
        if self.tracer.enabled:
            self.tracer.emit(Free(
                time=self.counters.requests + self.counters.frees,
                address=allocation.address, size=allocation.size,
            ))
        self._chain.insert(0, (allocation.address, allocation.size))

    def combine_adjacent(self) -> int:
        """Merge physically adjacent inactive blocks; returns merges done.

        The chain is rebuilt (still headed by the lowest-addressed merged
        block) — the bookkeeping step the paper describes as the fallback
        before replacement.  Inactive space adjacent to virgin storage is
        returned to the bump pointer.
        """
        if not self._chain:
            return 0
        merged: list[tuple[int, int]] = []
        merges = 0
        for address, size in sorted(self._chain):
            if merged and merged[-1][0] + merged[-1][1] == address:
                prev_address, prev_size = merged[-1]
                merged[-1] = (prev_address, prev_size + size)
                merges += 1
            else:
                merged.append((address, size))
        # Fold the topmost block back into virgin storage if adjacent.
        if merged and merged[-1][0] + merged[-1][1] == self._sequential_next:
            address, size = merged.pop()
            self._sequential_next = address
        self._chain = merged
        self.combines += merges
        return merges

    def allocate_with_replacement(
        self,
        size: int,
        victims: Iterable[Allocation],
        on_replace: Callable[[Allocation], None] | None = None,
    ) -> Allocation:
        """The full Appendix A.4 path: chain, combine, then iterative
        replacement.

        ``victims`` yields live allocations in the order the replacement
        algorithm would sacrifice them (the caller encodes "whether a copy
        exists in backing storage and whether or not a segment has been
        used since it was last considered").  Victims are freed one at a
        time, combining after each, "until a block of sufficient size is
        released".  ``on_replace`` is told about each sacrifice so the
        caller can write the segment back.
        """
        try:
            return self.allocate(size)
        except OutOfMemory:
            pass
        for victim in victims:
            self.replacement_rounds += 1
            if on_replace is not None:
                on_replace(victim)
            self.free(victim)
            self.combine_adjacent()
            try:
                return self.allocate(size)
            except OutOfMemory:
                continue
        raise OutOfMemory(size, "replacement exhausted every candidate")

    # -- inspection -------------------------------------------------------

    def holes(self) -> list[tuple[int, int]]:
        extents = sorted(self._chain)
        if self._sequential_next < self.capacity:
            extents.append((self._sequential_next, self.capacity - self._sequential_next))
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
    def chain_length(self) -> int:
        return len(self._chain)

    def check_invariants(self) -> None:
        spans = sorted(
            [(a.address, a.end) for a in self._live.values()]
            + [(addr, addr + size) for addr, size in self.holes()]
        )
        cursor = 0
        for start, end in spans:
            assert start >= cursor, "overlapping extents"
            cursor = end
        assert cursor <= self.capacity, "extent past end of storage"
        assert (
            self.free_words + sum(a.size for a in self._live.values())
            == self.capacity
        ), "words lost or duplicated"

    def __repr__(self) -> str:
        return (
            f"RiceAllocator(capacity={self.capacity}, live={len(self._live)}, "
            f"chain={len(self._chain)})"
        )
