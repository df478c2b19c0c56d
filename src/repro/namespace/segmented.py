"""Segmented name spaces: linearly vs. symbolically segmented.

"The basic difference is that in the latter [symbolic] the segments are
in no sense ordered, since users are not provided with any means of
manipulating a segment name to produce another name. ... one does not
need to search a dictionary for a group of available contiguous segment
names, and more importantly, one does not have to reallocate names when
the dictionary has become fragmented. ... A symbolically segmented name
space consequently involves far less bookkeeping than a linearly
segmented name space."

Both classes implement the same operations — create a *group* of related
segments, destroy a group, address an item — and count their bookkeeping
(dictionary search steps, forced name reallocations) so the claim is
directly measurable.
"""

from __future__ import annotations

from typing import Hashable

from repro.alloc.base import Allocation
from repro.alloc.freelist import FreeListAllocator
from repro.errors import MissingSegment, OutOfMemory


class SymbolicallySegmentedNameSpace:
    """Unordered symbolic segment names (B5000 style).

    Creating a segment is one dictionary insertion; groups need no
    contiguity because names cannot be manipulated arithmetically.
    """

    kind = "symbolic"

    def __init__(self) -> None:
        self._extents: dict[Hashable, int] = {}
        self.search_steps = 0      # stays ~0: hash lookup, no scanning
        self.reallocations = 0     # stays 0: nothing to reallocate

    def create_group(self, group: str, extents: list[int]) -> list[Hashable]:
        """Create related segments; returns their (symbolic) names."""
        names = []
        for index, extent in enumerate(extents):
            if extent <= 0:
                raise ValueError("segment extents must be positive")
            name = (group, index)
            if name in self._extents:
                raise ValueError(f"segment {name!r} already exists")
            self._extents[name] = extent
            names.append(name)
        return names

    def destroy_group(self, group: str) -> int:
        """Destroy every segment of ``group``; returns how many."""
        victims = [name for name in self._extents if name[0] == group]
        for name in victims:
            del self._extents[name]
        return len(victims)

    def address(self, name: Hashable, item: int) -> tuple[Hashable, int]:
        """The two-part name of an item; symbolic names pass through."""
        try:
            extent = self._extents[name]
        except KeyError:
            raise MissingSegment(name) from None
        if not 0 <= item < extent:
            raise IndexError(f"item {item} outside segment of {extent}")
        return (name, item)

    def fork(self) -> "SymbolicallySegmentedNameSpace":
        """A child name space seeing every segment this one has now.

        Symbolic names make address-space forking cheap: because "users
        are not provided with any means of manipulating a segment name
        to produce another name", the same ``(group, index)`` tuple
        denotes the same segment in parent and child — no renumbering,
        no reallocation.  That stable identity is what lets forked
        tenants resolve shared segments to the same storage-service
        content keys (see :func:`segment_share_key` and
        ``docs/SERVING.md``).  The dictionary itself is copied at the
        fork, so later creations and destructions diverge.
        """
        child = SymbolicallySegmentedNameSpace()
        child._extents = dict(self._extents)
        return child

    @property
    def segment_count(self) -> int:
        return len(self._extents)

    def __contains__(self, name: Hashable) -> bool:
        return name in self._extents


def segment_share_key(tenant: str, shared_groups: frozenset[str] | set[str]):
    """A ``TenantView`` share-key rule over symbolic segment names.

    The view's "local pages" are segment names — ``(group, index)``
    tuples from a :class:`SymbolicallySegmentedNameSpace`.  Segments in
    ``shared_groups`` resolve to ``("shared", name)`` content keys every
    tenant agrees on (the shared-library groups); everything else is
    salted with the tenant's own name and stays private, so the tenant
    may not be named ``"shared"``.
    """
    from repro.serve.tenant import check_tenant

    check_tenant(tenant)
    members = frozenset(shared_groups)

    def key_for(name: Hashable) -> Hashable:
        group = name[0] if isinstance(name, tuple) and name else name
        if group in members:
            return ("shared", name)
        return (tenant, name)

    return key_for


class LinearlySegmentedNameSpace:
    """Ordered integer segment names carved from the address (360/67 style).

    "In both the IBM 360/67 and the MULTICS systems a sequence of bits at
    the most significant end of the address representation is considered
    to be the segment name."  Groups of related segments that programs
    index across need *contiguous* segment numbers, so the segment
    dictionary behaves like storage: it fragments, and when a group
    cannot be placed despite enough free numbers, the names must be
    reallocated (every live segment renumbered — invalidating stored
    names) or the fragmentation tolerated.

    Parameters
    ----------
    segment_name_bits:
        Size of the segment-number field (4 bits → 16 segments in the
        24-bit 360/67; 12 bits → 4096 in the 32-bit version).
    auto_reallocate:
        When True, a failed group creation compacts the dictionary
        (renumbering segments, counted in ``reallocations`` and
        ``segments_renamed``) and retries — the bookkeeping the paper
        says symbolic naming avoids.
    """

    kind = "linearly-segmented"

    def __init__(self, segment_name_bits: int, auto_reallocate: bool = True) -> None:
        if segment_name_bits <= 0:
            raise ValueError("segment_name_bits must be positive")
        self.segment_name_bits = segment_name_bits
        self.max_segments = 1 << segment_name_bits
        self.auto_reallocate = auto_reallocate
        self._numbers = FreeListAllocator(self.max_segments, policy="first_fit")
        self._groups: dict[str, Allocation] = {}
        self._extents: dict[int, int] = {}
        self.reallocations = 0
        self.segments_renamed = 0

    @property
    def search_steps(self) -> int:
        return self._numbers.counters.search_steps

    def create_group(self, group: str, extents: list[int]) -> list[int]:
        """Create related segments under contiguous segment numbers."""
        if group in self._groups:
            raise ValueError(f"group {group!r} already exists")
        for extent in extents:
            if extent <= 0:
                raise ValueError("segment extents must be positive")
        try:
            allocation = self._numbers.allocate(len(extents))
        except OutOfMemory:
            if not self.auto_reallocate:
                raise
            self._reallocate_names()
            allocation = self._numbers.allocate(len(extents))
        self._groups[group] = allocation
        numbers = list(range(allocation.address, allocation.end))
        for number, extent in zip(numbers, extents):
            self._extents[number] = extent
        return numbers

    def destroy_group(self, group: str) -> int:
        try:
            allocation = self._groups.pop(group)
        except KeyError:
            raise KeyError(f"no group {group!r}") from None
        for number in range(allocation.address, allocation.end):
            self._extents.pop(number, None)
        self._numbers.free(allocation)
        return allocation.size

    def _reallocate_names(self) -> None:
        """Compact the segment dictionary: renumber every live group.

        Every stored (segment, item) name in every program would now be
        stale — the heavy cost the paper alludes to with "if dynamic name
        reallocation is not possible, tolerate the fragmentation".
        """
        self.reallocations += 1
        groups = sorted(self._groups.items(), key=lambda kv: kv[1].address)
        old_extents = dict(self._extents)
        self._numbers = FreeListAllocator(self.max_segments, policy="first_fit")
        self._groups = {}
        self._extents = {}
        for group, old_allocation in groups:
            new_allocation = self._numbers.allocate(old_allocation.size)
            self._groups[group] = new_allocation
            for offset in range(old_allocation.size):
                old_number = old_allocation.address + offset
                new_number = new_allocation.address + offset
                self._extents[new_number] = old_extents[old_number]
                if new_number != old_number:
                    self.segments_renamed += 1

    def address(self, number: int, item: int) -> int:
        """Pack (segment number, item) into one linear address."""
        try:
            extent = self._extents[number]
        except KeyError:
            raise MissingSegment(number) from None
        if not 0 <= item < extent:
            raise IndexError(f"item {item} outside segment of {extent}")
        return number << 24 | item   # 24-bit within-segment field

    def group_numbers(self, group: str) -> list[int]:
        allocation = self._groups[group]
        return list(range(allocation.address, allocation.end))

    @property
    def segment_count(self) -> int:
        return len(self._extents)

    def fragmentation(self) -> float:
        free = self._numbers.free_words
        return 1.0 - self._numbers.largest_hole / free if free else 0.0

    def __contains__(self, number: int) -> bool:
        return number in self._extents
