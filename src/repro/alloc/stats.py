"""Fragmentation and utilization measures.

The paper's fragmentation discussion is twofold:

- With variable units, "the storage space available for further
  allocation becomes fragmented into numerous little sets of contiguous
  locations" — *external* fragmentation, measured here as the share of
  free storage unusable for a request the size of the largest hole's
  complement, plus hole-count and largest-hole series.
- With uniform units (paging), fragmentation is "not prevented, but just
  obscured ... the fragmentation occurs within pages" — *internal*
  fragmentation, measured as the share of reserved words not backing any
  request.

``fragmentation_stats`` works over any object with the allocator
inspection surface (holes / allocations / capacity), so every allocator
and the frame-level view of a pager can be measured identically.

These are *point-in-time* measures; the allocator's own running tallies
(requests, failures, search steps) live on
``FreeListAllocator.counters`` and fold into a run-wide registry via
:func:`repro.observe.counters.absorb_allocator_counters`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.alloc.base import Allocation


class _Inspectable(Protocol):
    capacity: int

    def holes(self) -> list[tuple[int, int]]: ...
    def allocations(self) -> list[Allocation]: ...


@dataclass(frozen=True)
class FragmentationStats:
    """A point-in-time fragmentation summary."""

    capacity: int
    used_words: int
    free_words: int
    hole_count: int
    largest_hole: int
    external_fragmentation: float
    """1 - largest_hole / free_words: 0 when free space is one hole, →1 as
    it shatters.  0 when storage is entirely full (no free space to
    fragment)."""
    utilization: float
    """used_words / capacity — Wald's acceptable-level measure."""

    def __str__(self) -> str:
        return (
            f"util={self.utilization:.3f} frag={self.external_fragmentation:.3f} "
            f"holes={self.hole_count} largest={self.largest_hole}"
        )


def fragmentation_stats(allocator: _Inspectable) -> FragmentationStats:
    """Measure an allocator's current fragmentation.

    Works on anything exposing ``capacity`` plus ``holes()`` /
    ``allocations()`` — every allocator in :mod:`repro.alloc` and the
    frame-level view of a pager.  The result is a frozen snapshot; call again after further
    requests to sample a series.
    """
    holes = allocator.holes()
    free_words = sum(size for _, size in holes)
    largest = max((size for _, size in holes), default=0)
    used = allocator.capacity - free_words
    external = 1.0 - (largest / free_words) if free_words else 0.0
    return FragmentationStats(
        capacity=allocator.capacity,
        used_words=used,
        free_words=free_words,
        hole_count=len(holes),
        largest_hole=largest,
        external_fragmentation=external,
        utilization=used / allocator.capacity,
    )


def internal_fragmentation(requested: list[int], reserved: list[int]) -> float:
    """Share of reserved words that back no request.

    For paging, ``reserved`` is page-frame words per unit; for the buddy
    allocator, rounded block sizes.  Returns 0 for an empty system.
    """
    if len(requested) != len(reserved):
        raise ValueError("requested and reserved must align")
    total_reserved = sum(reserved)
    if total_reserved == 0:
        return 0.0
    wasted = sum(r - q for q, r in zip(requested, reserved))
    if wasted < 0:
        raise ValueError("reserved cannot be smaller than requested")
    return wasted / total_reserved


def paging_internal_waste(request_sizes: list[int], page_size: int) -> tuple[int, int]:
    """(wasted words, reserved words) when each request is met with whole
    page frames — the paper's "many page frames will be only partly used".

    "It is only rarely that an allocation request will correspond exactly
    to the capacity of an integral number of page frames."
    """
    if page_size <= 0:
        raise ValueError("page_size must be positive")
    reserved = 0
    for size in request_sizes:
        if size <= 0:
            raise ValueError("request sizes must be positive")
        frames = -(-size // page_size)
        reserved += frames * page_size
    requested = sum(request_sizes)
    return reserved - requested, reserved


__all__ = [
    "FragmentationStats",
    "fragmentation_stats",
    "internal_fragmentation",
    "paging_internal_waste",
]
