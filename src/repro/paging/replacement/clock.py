"""Cyclic (second-chance / clock) replacement.

Appendix A.3 reports that on the B5000 "a replacement strategy which was
essentially cyclical" was among those "found to be effective".  The
classic formulation: a hand sweeps the resident pages in a fixed cyclic
order; a page whose reference bit is set is spared (bit cleared, hand
moves on), and the first page found with the bit clear is the victim.

The reference bit here is the policy's own copy of the hardware usage
sensor, set by ``on_access`` and cleared by the sweeping hand.
"""

from __future__ import annotations

from typing import Hashable

from repro.paging.replacement.base import ReplacementPolicy


class ClockPolicy(ReplacementPolicy):
    """Second-chance replacement with a cyclic hand."""

    __slots__ = ("_ring", "_hand", "_referenced")

    name = "clock"

    def __init__(self) -> None:
        self._ring: list[Hashable] = []   # cyclic order = load order
        self._hand = 0
        self._referenced: dict[Hashable, bool] = {}

    def on_load(self, page: Hashable, now: int, modified: bool = False) -> None:
        self._ring.append(page)
        self._referenced[page] = False   # loading is not a reference here;
        # the driver reports the triggering access via on_access.

    def on_access(self, page: Hashable, now: int, modified: bool = False) -> None:
        if page in self._referenced:
            self._referenced[page] = True

    def choose_victim(self, resident: list[Hashable], now: int) -> Hashable:
        """The first page under the hand with its bit clear that is one
        of ``resident``.

        A referenced page is spared (bit cleared, hand moves on),
        candidate or not.  An unreferenced page outside ``resident`` — a
        locked page, or the page a self-evicting caller must keep — is
        passed as well, not returned.  When ``resident`` is the whole
        ring, the sweep is the classic one.
        """
        if not self._ring:
            raise RuntimeError("clock ring empty but a victim was requested")
        candidates = set(resident)
        # Sweep at most two full turns: the first may clear every bit.
        for _ in range(2 * len(self._ring)):
            self._hand %= len(self._ring)
            page = self._ring[self._hand]
            if self._referenced.get(page, False):
                self._referenced[page] = False
                self._hand += 1
            elif page in candidates:
                return page
            else:
                self._hand += 1
        # No candidate is on the ring: the policy never loaded one.
        return resident[0]

    def on_evict(self, page: Hashable) -> None:
        try:
            index = self._ring.index(page)
        except ValueError:
            return
        del self._ring[index]
        if index < self._hand:
            self._hand -= 1
        self._referenced.pop(page, None)

    def reset(self) -> None:
        self._ring.clear()
        self._hand = 0
        self._referenced.clear()
