"""Belady's optimal (MIN) replacement.

The paper defers its replacement evaluation to Belady [1], whose MIN
algorithm — evict the resident page whose next use lies farthest in the
future — is the provably unbeatable yardstick.  CL-REPL plots every
realizable policy against this lower envelope.

MIN needs the future, so the policy is constructed with the complete
reference trace.  It keeps a cursor that advances on every ``on_access``
/ ``on_load`` event, and consults precomputed per-page occurrence lists
to find each page's next use past the cursor.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Hashable, Sequence

from repro.paging.replacement.base import ReplacementPolicy

_NEVER = float("inf")


class BeladyOptimalPolicy(ReplacementPolicy):
    """Clairvoyant MIN replacement over a known trace.

    Parameters
    ----------
    trace:
        The full future reference string, in the exact order the driver
        will report events.  Each ``on_load``/``on_access`` pair for a
        fault counts as ONE trace position (the faulting reference);
        drivers must call :meth:`advance`-compatible events consistently —
        the provided :func:`repro.paging.simulate.simulate_trace` does.
    """

    __slots__ = ("_trace", "_positions", "_cursor")

    name = "opt"

    def __init__(self, trace: Sequence[Hashable]) -> None:
        # Immutable-ish sequences (tuples, columnar traces) are
        # referenced without copying, so building MIN over a
        # 10M-reference trace is O(1) in time and memory; mutable lists
        # and arbitrary iterables are snapshotted as before.
        if isinstance(trace, Sequence) and not isinstance(
            trace, (list, str, bytes)
        ):
            self._trace: Sequence[Hashable] = trace
        else:
            self._trace = list(trace)
        # Occurrence lists are built lazily on the first next_use() call:
        # the batched kernels compute their own next-use columns, so a
        # fast-pathed run never pays the O(n) dict construction.
        self._positions: dict[Hashable, list[int]] | None = None
        self._cursor = 0   # number of references consumed so far

    def _verify(self, page: Hashable) -> None:
        expected = (
            self._trace[self._cursor] if self._cursor < len(self._trace) else None
        )
        if expected != page:
            raise ValueError(
                f"trace mismatch at position {self._cursor}: driver reported "
                f"{page!r} but the trace says {expected!r}"
            )

    def on_load(self, page: Hashable, now: int, modified: bool = False) -> None:
        # A load is triggered by the current reference; consume it.
        self._verify(page)
        self._cursor += 1

    def on_access(self, page: Hashable, now: int, modified: bool = False) -> None:
        self._verify(page)
        self._cursor += 1

    def next_use(self, page: Hashable) -> float:
        """Trace position of the next reference to ``page``, or infinity."""
        if self._positions is None:
            positions_map: dict[Hashable, list[int]] = defaultdict(list)
            for index, element in enumerate(self._trace):
                positions_map[element].append(index)
            self._positions = positions_map
        positions = self._positions.get(page, ())
        index = bisect.bisect_left(positions, self._cursor)
        return positions[index] if index < len(positions) else _NEVER

    def choose_victim(self, resident: list[Hashable], now: int) -> Hashable:
        return max(resident, key=self.next_use)

    def reset(self) -> None:
        self._cursor = 0

    @property
    def cursor(self) -> int:
        return self._cursor

    def matches_trace(self, trace: Sequence[Hashable]) -> bool:
        """True when this policy was built for exactly ``trace``.

        The batched OPT kernel (:func:`repro.fastpath.replay.replay_opt`)
        recomputes next-use indices from the driver's trace, so it may
        only replace the reference path when the two traces agree —
        otherwise the reference loop must run and raise its usual
        mismatch error.
        """
        if trace is self._trace:
            return True
        if len(trace) != len(self._trace):
            return False
        # ``==`` lets columnar traces compare at C speed
        # (and Python ``==`` never returns NotImplemented to callers).
        return self._trace == trace
