"""Common allocator interface and bookkeeping.

All variable-unit allocators manage a single span of working storage,
hand out :class:`Allocation` records, and expose the same inspection
surface (holes, allocations, counters) so the placement experiments can
swap strategies over identical request streams.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.errors import InvalidFree, OutOfMemory


@dataclass(frozen=True, slots=True)
class Allocation:
    """A block of contiguous storage granted to a request."""

    address: int
    size: int

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"address must be non-negative, got {self.address}")
        if self.size <= 0:
            raise ValueError(f"size must be positive, got {self.size}")

    @property
    def end(self) -> int:
        """One past the last word of the block."""
        return self.address + self.size

    def overlaps(self, other: "Allocation") -> bool:
        return self.address < other.end and other.address < self.end


@runtime_checkable
class Allocator(Protocol):
    """The contract shared by every variable-unit allocator."""

    capacity: int

    def allocate(self, size: int) -> Allocation:
        """Grant a block of ``size`` contiguous words, or raise OutOfMemory."""
        ...

    def free(self, allocation: Allocation) -> None:
        """Return a previously granted block."""
        ...

    def holes(self) -> list[tuple[int, int]]:
        """Free extents as (address, size), ascending by address."""
        ...

    def allocations(self) -> list[Allocation]:
        """Live allocations, ascending by address."""
        ...


class AllocatorCounters:
    """Shared mutable counters every allocator keeps.

    ``search_steps`` counts free-list elements examined — the
    "bookkeeping" cost the paper trades off between placement strategies
    (best-fit searches the whole list; two-ends touches one pointer).
    """

    __slots__ = (
        "requests",
        "failures",
        "frees",
        "search_steps",
        "words_allocated",
        "words_freed",
    )

    def __init__(self) -> None:
        self.requests = 0
        self.failures = 0
        self.frees = 0
        self.search_steps = 0
        self.words_allocated = 0
        self.words_freed = 0

    def record_request(self, size: int) -> None:
        self.requests += 1
        self.words_allocated += size

    def record_failure(self, size: int) -> None:
        self.failures += 1
        self.words_allocated -= size  # undo the optimistic add

    def record_free(self, size: int) -> None:
        self.frees += 1
        self.words_freed += size


def check_int(value: int, name: str) -> None:
    """Reject a quantity ``name`` that is not a whole count.

    ``value`` must be an int (anything ``operator.index`` accepts)
    other than a ``bool``; anything else raises ``TypeError``.  The
    allocators' request sizes, the replay kernels' frame counts and
    the serving tier's pool, quota and sharing sizes all call it first,
    before any state changes, and then check their own range.
    """
    if type(value) is not int:
        if isinstance(value, bool):
            raise TypeError(f"{name} must be an int, got {value!r}")
        try:
            operator.index(value)
        except TypeError:
            raise TypeError(f"{name} must be an int, got {value!r}") from None


def check_request_size(size: int) -> None:
    """Reject a request size no word-addressed allocator can place.

    Called first in every ``allocate``, before any state changes: a
    size must pass :func:`check_int`, raising ``TypeError``, and be
    positive, raising ``ValueError``.
    """
    check_int(size, "allocation size")
    if size <= 0:
        raise ValueError(f"allocation size must be positive, got {size}")


def check_free_known(
    allocation: Allocation, live: dict[int, Allocation], kind: str
) -> None:
    """Validate a free request against the live-allocation map."""
    known = live.get(allocation.address)
    if known is None:
        raise InvalidFree(
            f"{kind}: no live allocation at address {allocation.address}"
        )
    if known.size != allocation.size:
        raise InvalidFree(
            f"{kind}: size mismatch at {allocation.address} "
            f"(allocated {known.size}, freeing {allocation.size})"
        )


def coalesce(holes: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge adjacent (address, size) holes; input may be unsorted."""
    if not holes:
        return []
    merged: list[tuple[int, int]] = []
    for address, size in sorted(holes):
        if merged and merged[-1][0] + merged[-1][1] == address:
            prev_address, prev_size = merged[-1]
            merged[-1] = (prev_address, prev_size + size)
        else:
            merged.append((address, size))
    return merged


__all__ = [
    "Allocation",
    "Allocator",
    "AllocatorCounters",
    "InvalidFree",
    "OutOfMemory",
    "check_free_known",
    "check_int",
    "check_request_size",
    "coalesce",
]
