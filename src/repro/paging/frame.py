"""The page-frame pool.

A frame table records which information unit (an opaque page id) occupies
each equal-sized frame of working storage.  Because frames are uniform,
placement is trivial — any free frame will do — which is exactly the
"great virtue ... their simplicity" the paper credits paging systems
with.  (The fragmentation cost of that simplicity shows up *inside* the
frames and is measured elsewhere.)
"""

from __future__ import annotations

from typing import Hashable

from repro.alloc.base import check_int
from repro.errors import OutOfMemory


class FrameTable:
    """Tracks occupancy of a fixed set of page frames.

    >>> frames = FrameTable(3)
    >>> frames.acquire("page-A")
    0
    >>> frames.owner(0)
    'page-A'
    """

    __slots__ = ("_owners", "_frame_of", "_free")

    def __init__(self, frame_count: int) -> None:
        check_int(frame_count, "frame_count")
        if frame_count <= 0:
            raise ValueError(f"frame_count must be positive, got {frame_count}")
        self._owners: list[Hashable | None] = [None] * frame_count
        self._frame_of: dict[Hashable, int] = {}
        self._free: list[int] = list(range(frame_count - 1, -1, -1))

    @property
    def frame_count(self) -> int:
        return len(self._owners)

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def resident_count(self) -> int:
        return len(self._frame_of)

    def is_full(self) -> bool:
        return not self._free

    def acquire(self, page: Hashable) -> int:
        """Place ``page`` in any available frame; returns the frame number."""
        if page in self._frame_of:
            raise ValueError(f"page {page!r} is already resident in frame "
                             f"{self._frame_of[page]}")
        if not self._free:
            raise OutOfMemory(1, "no free page frame")
        frame = self._free.pop()
        self._owners[frame] = page
        self._frame_of[page] = frame
        return frame

    def release(self, page: Hashable) -> int:
        """Vacate the frame holding ``page``; returns the frame number."""
        try:
            frame = self._frame_of.pop(page)
        except KeyError:
            raise KeyError(f"page {page!r} is not resident") from None
        self._owners[frame] = None
        self._free.append(frame)
        return frame

    def frame_of(self, page: Hashable) -> int | None:
        return self._frame_of.get(page)

    def owner(self, frame: int) -> Hashable | None:
        if not 0 <= frame < len(self._owners):
            raise IndexError(f"no frame {frame}")
        return self._owners[frame]

    def resident_pages(self) -> list[Hashable]:
        return list(self._frame_of)

    def check_invariants(self) -> None:
        """Raise AssertionError if occupancy bookkeeping is inconsistent.

        The owner array, the reverse map, and the free list must
        partition the frames exactly: every frame is either free or
        owned by precisely the page that maps back to it.
        """
        assert len(self._frame_of) + len(self._free) == len(self._owners), (
            "frames lost or duplicated"
        )
        assert len(set(self._free)) == len(self._free), "free list duplicates"
        for frame in self._free:
            assert self._owners[frame] is None, f"free frame {frame} has owner"
        for page, frame in self._frame_of.items():
            assert self._owners[frame] == page, (
                f"frame {frame} owner mismatch for page {page!r}"
            )

    def __contains__(self, page: Hashable) -> bool:
        return page in self._frame_of

    def __repr__(self) -> str:
        return (
            f"FrameTable(frames={len(self._owners)}, "
            f"resident={len(self._frame_of)}, free={len(self._free)})"
        )
