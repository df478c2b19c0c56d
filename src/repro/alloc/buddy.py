"""Binary buddy allocation.

A contrast case sitting between the paper's two poles: units are
variable, but quantized to powers of two, so every request is rounded up
(internal fragmentation, like paging) while the free space can still
fragment externally across size classes.  The experiments use it to show
that quantizing the unit trades one kind of fragmentation for the other —
the paper's "choosing the size of the unit" dilemma in allocator form.

Splitting and recombination follow Knowlton's scheme: a free block of
size 2^k splits into two buddies of size 2^(k-1); a freed block recombines
with its buddy (address XOR size) whenever the buddy is wholly free.
"""

from __future__ import annotations

from repro.alloc.base import (
    Allocation,
    AllocatorCounters,
    check_free_known,
    check_request_size,
)
from repro.errors import InvalidFree, OutOfMemory
from repro.observe.events import Free, Place
from repro.observe.tracer import Tracer, as_tracer


def _round_up_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


class BuddyAllocator:
    """Power-of-two block allocation with buddy recombination.

    Parameters
    ----------
    capacity:
        Words managed; must itself be a power of two.
    min_block:
        Smallest block ever handed out (grain of the size classes).
    tracer:
        Optional :class:`~repro.observe.tracer.Tracer` receiving a
        ``Place`` per allocation (``size`` is the *rounded* block
        actually reserved, so occupancy analysis sees the internal
        fragmentation) and a ``Free`` per release, timestamped by the
        running request+free count.

    >>> allocator = BuddyAllocator(256, min_block=16)
    >>> block = allocator.allocate(20)      # rounded up to 32
    >>> allocator.block_size(block)
    32
    """

    def __init__(
        self,
        capacity: int,
        min_block: int = 1,
        tracer: Tracer | None = None,
    ) -> None:
        if capacity <= 0 or capacity & (capacity - 1):
            raise ValueError(f"capacity must be a power of two, got {capacity}")
        if min_block <= 0 or min_block & (min_block - 1):
            raise ValueError(f"min_block must be a power of two, got {min_block}")
        if min_block > capacity:
            raise ValueError("min_block cannot exceed capacity")
        self.capacity = capacity
        self.min_block = min_block
        # free_lists[k] holds addresses of free blocks of size 2^k.
        self._free_lists: dict[int, set[int]] = {
            k: set() for k in range(min_block.bit_length() - 1,
                                    capacity.bit_length())
        }
        self._free_lists[capacity.bit_length() - 1].add(0)
        self._live: dict[int, Allocation] = {}      # address -> requested size
        self._block_orders: dict[int, int] = {}     # address -> order granted
        self.counters = AllocatorCounters()
        self.tracer = as_tracer(tracer)

    def _order_for(self, size: int) -> int:
        rounded = max(_round_up_pow2(size), self.min_block)
        return rounded.bit_length() - 1

    def allocate(self, size: int) -> Allocation:
        check_request_size(size)
        if size > self.capacity:
            self.counters.record_request(size)
            self.counters.record_failure(size)
            raise OutOfMemory(size, "exceeds buddy capacity")
        self.counters.record_request(size)
        order = self._order_for(size)
        source = order
        max_order = self.capacity.bit_length() - 1
        while source <= max_order and not self._free_lists[source]:
            self.counters.search_steps += 1
            source += 1
        if source > max_order:
            self.counters.record_failure(size)
            raise OutOfMemory(size, f"no free block of order >= {order}")
        address = min(self._free_lists[source])
        self._free_lists[source].discard(address)
        # Split down to the requested order.
        while source > order:
            source -= 1
            buddy = address + (1 << source)
            self._free_lists[source].add(buddy)
        allocation = Allocation(address, size)
        self._live[address] = allocation
        self._block_orders[address] = order
        if self.tracer.enabled:
            self.tracer.emit(Place(
                time=self.counters.requests + self.counters.frees,
                unit=address, where=address, size=1 << order, policy="buddy",
            ))
        return allocation

    def free(self, allocation: Allocation) -> None:
        check_free_known(allocation, self._live, "BuddyAllocator")
        del self._live[allocation.address]
        order = self._block_orders.pop(allocation.address)
        self.counters.record_free(allocation.size)
        if self.tracer.enabled:
            self.tracer.emit(Free(
                time=self.counters.requests + self.counters.frees,
                address=allocation.address, size=1 << order,
            ))
        address = allocation.address
        max_order = self.capacity.bit_length() - 1
        while order < max_order:
            buddy = address ^ (1 << order)
            if buddy not in self._free_lists[order]:
                break
            self._free_lists[order].discard(buddy)
            address = min(address, buddy)
            order += 1
        self._free_lists[order].add(address)

    def block_size(self, allocation: Allocation) -> int:
        """The rounded (actually reserved) size of a live allocation."""
        try:
            order = self._block_orders[allocation.address]
        except KeyError:
            raise InvalidFree(
                f"no live buddy block at {allocation.address}"
            ) from None
        return 1 << order

    # -- inspection -------------------------------------------------------

    def holes(self) -> list[tuple[int, int]]:
        extents = [
            (address, 1 << order)
            for order, addresses in self._free_lists.items()
            for address in addresses
        ]
        return sorted(extents)

    def allocations(self) -> list[Allocation]:
        return sorted(self._live.values(), key=lambda a: a.address)

    @property
    def free_words(self) -> int:
        return sum(size for _, size in self.holes())

    @property
    def used_words(self) -> int:
        """Words actually reserved (rounded blocks), not words requested."""
        return self.capacity - self.free_words

    @property
    def internal_waste(self) -> int:
        """Words reserved beyond what requests asked for."""
        return sum(
            (1 << self._block_orders[a.address]) - a.size
            for a in self._live.values()
        )

    @property
    def largest_hole(self) -> int:
        return max((size for _, size in self.holes()), default=0)

    def check_invariants(self) -> None:
        spans = sorted(
            [(a, a + (1 << order)) for a, order in self._block_orders.items()]
            + [(addr, addr + size) for addr, size in self.holes()]
        )
        cursor = 0
        for start, end in spans:
            assert start == cursor, f"gap or overlap at {start} (expected {cursor})"
            cursor = end
        assert cursor == self.capacity, "blocks do not tile storage"
        for order, addresses in self._free_lists.items():
            for address in addresses:
                assert address % (1 << order) == 0, "misaligned free block"

    def __repr__(self) -> str:
        return (
            f"BuddyAllocator(capacity={self.capacity}, min_block={self.min_block}, "
            f"live={len(self._live)})"
        )
