"""The two-ends placement strategy.

"An alternative strategy, which involves less bookkeeping, is to place
large blocks of information starting at one end of storage and small
blocks starting at the other end."

Small requests grow upward from address 0; large requests grow downward
from the top.  Each end is a bump pointer, so a successful allocation
examines no free list at all — the "less bookkeeping" property, visible
in ``counters.search_steps`` staying near zero.  When an extent is freed
it is remembered on a per-end reuse list, checked before bumping, and the
bump pointers retreat when the block adjacent to them is freed.
"""

from __future__ import annotations

from repro.alloc.base import (
    Allocation,
    AllocatorCounters,
    check_free_known,
    check_request_size,
    coalesce,
)
from repro.errors import OutOfMemory
from repro.observe.events import Free, Place
from repro.observe.tracer import Tracer, as_tracer


class TwoEndsAllocator:
    """Large blocks from the top of storage, small blocks from the bottom.

    Parameters
    ----------
    capacity:
        Words managed.
    size_threshold:
        Requests of at least this many words count as "large".
    tracer:
        Optional :class:`~repro.observe.tracer.Tracer` receiving a
        ``Place`` per allocation and a ``Free`` per release,
        timestamped by the running request+free count.

    >>> allocator = TwoEndsAllocator(1000, size_threshold=100)
    >>> allocator.allocate(10).address        # small: from the bottom
    0
    >>> allocator.allocate(200).address       # large: from the top
    800
    """

    def __init__(
        self,
        capacity: int,
        size_threshold: int,
        tracer: Tracer | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if size_threshold <= 0:
            raise ValueError(f"size_threshold must be positive, got {size_threshold}")
        self.capacity = capacity
        self.size_threshold = size_threshold
        self._bottom = 0          # next free word for small blocks
        self._top = capacity      # one past the last used word for large blocks
        self._small_free: list[tuple[int, int]] = []
        self._large_free: list[tuple[int, int]] = []
        self._live: dict[int, Allocation] = {}
        self.counters = AllocatorCounters()
        self.tracer = as_tracer(tracer)

    def _is_large(self, size: int) -> bool:
        return size >= self.size_threshold

    def allocate(self, size: int) -> Allocation:
        check_request_size(size)
        self.counters.record_request(size)
        address = self._take_from_reuse(size)
        if address is None:
            address = self._bump(size)
        if address is None:
            self.counters.record_failure(size)
            raise OutOfMemory(
                size, f"two-ends gap is {self._top - self._bottom} words"
            )
        allocation = Allocation(address, size)
        self._live[address] = allocation
        if self.tracer.enabled:
            self.tracer.emit(Place(
                time=self.counters.requests + self.counters.frees,
                unit=address, where=address, size=size, policy="two_ends",
            ))
        return allocation

    def _take_from_reuse(self, size: int) -> int | None:
        """First-fit over the (short) per-end reuse list."""
        reuse = self._large_free if self._is_large(size) else self._small_free
        for index, (address, hole_size) in enumerate(reuse):
            self.counters.search_steps += 1
            if hole_size >= size:
                if hole_size == size:
                    del reuse[index]
                else:
                    reuse[index] = (address + size, hole_size - size)
                return address
        return None

    def _bump(self, size: int) -> int | None:
        if self._top - self._bottom < size:
            return None
        if self._is_large(size):
            self._top -= size
            return self._top
        address = self._bottom
        self._bottom += size
        return address

    def free(self, allocation: Allocation) -> None:
        check_free_known(allocation, self._live, "TwoEndsAllocator")
        del self._live[allocation.address]
        self.counters.record_free(allocation.size)
        if self.tracer.enabled:
            self.tracer.emit(Free(
                time=self.counters.requests + self.counters.frees,
                address=allocation.address, size=allocation.size,
            ))
        if self._is_large(allocation.size):
            self._large_free.append((allocation.address, allocation.size))
            self._large_free = coalesce(self._large_free)
            self._retreat_top()
        else:
            self._small_free.append((allocation.address, allocation.size))
            self._small_free = coalesce(self._small_free)
            self._retreat_bottom()

    def _retreat_bottom(self) -> None:
        """Pull the bottom pointer back over trailing freed space."""
        while self._small_free and (
            self._small_free[-1][0] + self._small_free[-1][1] == self._bottom
        ):
            address, size = self._small_free.pop()
            self._bottom = address

    def _retreat_top(self) -> None:
        """Push the top pointer up over leading freed space."""
        while self._large_free and self._large_free[0][0] == self._top:
            _, size = self._large_free.pop(0)
            self._top += size

    # -- inspection -------------------------------------------------------

    def holes(self) -> list[tuple[int, int]]:
        gap = [(self._bottom, self._top - self._bottom)] if self._top > self._bottom else []
        return coalesce(self._small_free + gap + self._large_free)

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

    def check_invariants(self) -> None:
        assert 0 <= self._bottom <= self._top <= self.capacity, "pointers crossed"
        spans = sorted(
            [(a.address, a.end) for a in self._live.values()]
            + [(addr, addr + size) for addr, size in self.holes()]
        )
        cursor = 0
        for start, end in spans:
            assert start >= cursor, "overlapping extents"
            cursor = end
        assert cursor == self.capacity or not spans, "coverage gap"
        assert (
            self.free_words + sum(a.size for a in self._live.values())
            == self.capacity
        ), "words lost or duplicated"

    def __repr__(self) -> str:
        return (
            f"TwoEndsAllocator(capacity={self.capacity}, "
            f"threshold={self.size_threshold}, bottom={self._bottom}, top={self._top})"
        )
