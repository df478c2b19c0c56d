"""The space-time product (Figure 3).

"A more significant measure of a strategy's effectiveness is the
space-time product."  The figure shades a program's storage occupancy
over real time, distinguishing intervals where the program is *active*
from intervals where it sits in core *awaiting a page*.  If fetches are
slow, "a large part of the space-time product for a program may well be
due to space occupied while the program is inactive awaiting further
pages".

:class:`SpaceTimeAccount` integrates ``occupied_words × dt`` piecewise,
attributing each interval to the active or the waiting component.

For run-wide reporting, fold an account into a counters registry with
:func:`repro.observe.counters.absorb_spacetime`, which records the two
components under ``spacetime.active`` / ``spacetime.waiting``:

>>> account = SpaceTimeAccount()
>>> account.accumulate(words=1024, duration=10, waiting=False)
>>> account.accumulate(words=1024, duration=40, waiting=True)
>>> account.breakdown.waiting_share
0.8
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SpaceTimeBreakdown:
    """The integral, decomposed as in Figure 3."""

    active: int
    """Word-cycles of storage held while the program computed."""
    waiting: int
    """Word-cycles of storage held while the program awaited pages."""

    @property
    def total(self) -> int:
        return self.active + self.waiting

    @property
    def waiting_share(self) -> float:
        """Fraction of the space-time product spent waiting (0 when empty)."""
        return self.waiting / self.total if self.total else 0.0


class SpaceTimeAccount:
    """Piecewise integrator of storage occupancy over time.

    Call :meth:`accumulate` once per interval during which the words
    held stayed constant; read the result from :attr:`breakdown`.  The
    account never resets — integrate one program (or one run) per
    instance.
    """

    __slots__ = ("_active", "_waiting")

    def __init__(self) -> None:
        self._active = 0
        self._waiting = 0

    def accumulate(self, words: int, duration: int, waiting: bool) -> None:
        """Record ``words`` held for ``duration`` cycles.

        ``waiting`` attributes the interval to the page-wait component.
        """
        if words < 0:
            raise ValueError(f"words must be non-negative, got {words}")
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        if duration == 0 or words == 0:
            return
        product = words * duration
        if waiting:
            self._waiting += product
        else:
            self._active += product

    @property
    def breakdown(self) -> SpaceTimeBreakdown:
        return SpaceTimeBreakdown(active=self._active, waiting=self._waiting)

    @property
    def total(self) -> int:
        return self._active + self._waiting

    def __repr__(self) -> str:
        b = self.breakdown
        return (
            f"SpaceTimeAccount(total={b.total}, "
            f"waiting_share={b.waiting_share:.3f})"
        )
