"""Every variable-unit allocator takes whole words only.

Storage is word-addressed, so a request size must be a positive int.
A fractional, boolean or string size raises ``TypeError`` before the
allocator changes any state; a size of zero or less keeps raising
``ValueError``.
"""

from __future__ import annotations

import pytest

from repro.alloc import (
    BoundaryTagAllocator,
    BuddyAllocator,
    FreeListAllocator,
    RiceAllocator,
    TwoEndsAllocator,
)

ALLOCATORS = {
    "free_list": lambda: FreeListAllocator(128),
    "boundary_tags": lambda: BoundaryTagAllocator(128),
    "buddy": lambda: BuddyAllocator(128),
    "rice": lambda: RiceAllocator(128),
    "two_ends": lambda: TwoEndsAllocator(128, size_threshold=16),
}


def busy(kind: str):
    """An allocator with a few live blocks and a hole between them."""
    allocator = ALLOCATORS[kind]()
    blocks = [allocator.allocate(size) for size in (8, 4, 16)]
    allocator.free(blocks[1])
    return allocator


@pytest.mark.parametrize("kind", ALLOCATORS)
@pytest.mark.parametrize("size", [2.5, True, "8"])
def test_non_integer_size_rejected_before_any_change(kind, size):
    allocator = busy(kind)
    holes = allocator.holes()
    allocations = allocator.allocations()
    requests = allocator.counters.requests
    with pytest.raises(TypeError, match="allocation size must be an int"):
        allocator.allocate(size)
    assert allocator.holes() == holes
    assert allocator.allocations() == allocations
    assert allocator.counters.requests == requests


@pytest.mark.parametrize("kind", ALLOCATORS)
@pytest.mark.parametrize("size", [0, -3])
def test_non_positive_size_keeps_its_value_error(kind, size):
    allocator = busy(kind)
    holes = allocator.holes()
    with pytest.raises(ValueError, match="allocation size must be positive"):
        allocator.allocate(size)
    assert allocator.holes() == holes
