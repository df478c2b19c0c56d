"""Run-wide counters and timers.

The subsystems each keep their own stats records —
:class:`~repro.paging.pager.PagerStats`,
:class:`~repro.alloc.base.AllocatorCounters`, the associative memory's
hit/miss counts, :class:`~repro.sim.spacetime.SpaceTimeAccount` — which
is right for their unit tests but wrong for a *run*: an experiment wants
one flat, mergeable, exportable registry.  :class:`Counters` is that
registry; the ``absorb_*`` adapters pull every existing per-subsystem
record into it under dotted names (``pager.faults``, ``alloc.requests``,
``tlb.hits``, ``spacetime.waiting`` ...) without those subsystems
changing shape.

The ledger is filled after a run, never during one: no simulator takes
a ``Counters`` argument, and each run's totals come from its result
object alone (a :class:`~repro.paging.simulate.SimulationResult` reads
the same on every replay tier), so a caller that keeps a ledger absorbs
the result once the run returns.

>>> counters = Counters()
>>> counters.increment("pager.faults")
>>> counters.increment("pager.faults", 2)
>>> counters.value("pager.faults")
3
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:   # import cycle guards: adapters name these types only
    from repro.addressing.associative import AssociativeMemory
    from repro.alloc.base import AllocatorCounters
    from repro.paging.pager import PagerStats
    from repro.paging.simulate import SimulationResult
    from repro.serve.pool import ServeStats
    from repro.sim.spacetime import SpaceTimeAccount, SpaceTimeBreakdown


class Counters:
    """A flat registry of named integer counters and float timers."""

    __slots__ = ("_values", "_timers")

    def __init__(self) -> None:
        self._values: dict[str, int | float] = {}
        self._timers: dict[str, float] = {}

    # -- recording -----------------------------------------------------------

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to counter ``name``."""
        self._values[name] = self._values.get(name, 0) + amount

    def record(self, name: str, value: int | float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self._values[name] = value

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate wall-clock seconds spent in the ``with`` body.

        Timer totals appear in :meth:`snapshot` under ``name`` with a
        ``_seconds`` suffix.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._timers[name] = self._timers.get(name, 0.0) + elapsed

    # -- reading -------------------------------------------------------------

    def value(self, name: str) -> int | float:
        """Current value of ``name`` (0 if never touched)."""
        return self._values.get(name, 0)

    def snapshot(self) -> dict[str, int | float]:
        """All counters and timers, sorted by name; safe to mutate."""
        merged = dict(self._values)
        for name, seconds in self._timers.items():
            merged[f"{name}_seconds"] = round(seconds, 6)
        return dict(sorted(merged.items()))

    def __len__(self) -> int:
        return len(self._values) + len(self._timers)

    # -- combination ---------------------------------------------------------

    def merge_snapshot(self, snapshot: dict[str, int | float]) -> None:
        """Fold a :meth:`snapshot` dict into this registry (sums).

        How registries combine across processes: a worker ships its
        registry as a plain dict (JSON-safe, picklable) and the parent
        folds it in.  Timer entries arrive as already-suffixed
        ``*_seconds`` values and are summed like any other counter, so a
        merged snapshot round-trips through :meth:`snapshot` unchanged.
        Integer counters stay integers, which keeps merging associative
        and order-independent — the property the sweep engine's
        worker-count determinism rests on.

        Malformed entries raise rather than merge: a snapshot that
        crossed a process or file boundary with a non-string name or a
        non-numeric (or boolean) value would otherwise skew totals
        silently, and the error names the offending key.
        """
        for name, value in snapshot.items():
            if not isinstance(name, str):
                raise TypeError(
                    f"counter name must be a str, got {name!r}"
                )
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(
                    f"counter {name!r} must be a number, got {value!r}"
                )
            self._values[name] = self._values.get(name, 0) + value

    def __repr__(self) -> str:
        return f"Counters({len(self)} names)"


# -- adapters over the existing per-subsystem stats records -----------------


def absorb_pager_stats(
    counters: Counters, stats: "PagerStats", prefix: str = "pager"
) -> None:
    """Fold a pager's :class:`~repro.paging.pager.PagerStats` in."""
    counters.increment(f"{prefix}.accesses", stats.accesses)
    counters.increment(f"{prefix}.faults", stats.faults)
    counters.increment(f"{prefix}.evictions", stats.evictions)
    counters.increment(f"{prefix}.writebacks", stats.writebacks)
    counters.increment(f"{prefix}.prefetches", stats.prefetches)
    counters.increment(f"{prefix}.fetch_wait_cycles", stats.fetch_wait_cycles)
    counters.increment(f"{prefix}.writeback_cycles", stats.writeback_cycles)
    counters.increment(
        f"{prefix}.frame_cycles_resident", stats.frame_cycles_resident
    )


def absorb_allocator_counters(
    counters: Counters, stats: "AllocatorCounters", prefix: str = "alloc"
) -> None:
    """Fold an allocator's :class:`~repro.alloc.base.AllocatorCounters` in."""
    counters.increment(f"{prefix}.requests", stats.requests)
    counters.increment(f"{prefix}.failures", stats.failures)
    counters.increment(f"{prefix}.frees", stats.frees)
    counters.increment(f"{prefix}.search_steps", stats.search_steps)
    counters.increment(f"{prefix}.words_allocated", stats.words_allocated)
    counters.increment(f"{prefix}.words_freed", stats.words_freed)


def absorb_associative_memory(
    counters: Counters, memory: "AssociativeMemory", prefix: str = "tlb"
) -> None:
    """Fold an associative memory's hit/miss/eviction counts in."""
    counters.increment(f"{prefix}.hits", memory.hits)
    counters.increment(f"{prefix}.misses", memory.misses)
    counters.increment(f"{prefix}.evictions", memory.evictions)


def absorb_spacetime(
    counters: Counters,
    account: "SpaceTimeAccount | SpaceTimeBreakdown",
    prefix: str = "spacetime",
) -> None:
    """Fold a space-time account (or its breakdown) in, in word-cycles."""
    breakdown = getattr(account, "breakdown", account)
    counters.increment(f"{prefix}.active", breakdown.active)
    counters.increment(f"{prefix}.waiting", breakdown.waiting)


def absorb_simulation_result(
    counters: Counters, result: "SimulationResult", prefix: str = "replay"
) -> None:
    """Fold a trace-replay :class:`~repro.paging.simulate.SimulationResult` in.

    The one way replay totals reach a ledger: every replay tier (the
    batched kernels and the reference loop alike) returns the same
    result, so the ledger reads the same whichever tier ran — zero
    totals included.
    """
    counters.increment(f"{prefix}.references", result.references)
    counters.increment(f"{prefix}.faults", result.faults)
    counters.increment(f"{prefix}.cold_faults", result.cold_faults)
    counters.increment(f"{prefix}.evictions", result.evictions)


def absorb_serve_stats(
    counters: Counters, stats: "ServeStats", prefix: str = "serve"
) -> None:
    """Fold a shared pool's :class:`~repro.serve.pool.ServeStats` in.

    These are the serving-tier totals the per-tenant accounting
    (:attr:`~repro.serve.tenant.TenantView.stats`) must sum to.
    """
    counters.increment(f"{prefix}.acquires", stats.acquires)
    counters.increment(f"{prefix}.shares", stats.shares)
    counters.increment(f"{prefix}.dedup_hits", stats.dedup_hits)
    counters.increment(f"{prefix}.cow_breaks", stats.cow_breaks)
    counters.increment(f"{prefix}.releases", stats.releases)
    counters.increment(f"{prefix}.reclaims", stats.reclaims)


def absorb_simulation_summary(
    counters: Counters, summary, prefix: str = "mix"
) -> None:
    """Fold a multiprogramming run's whole-mix totals in.

    Takes a :class:`~repro.sim.multiprogramming.SimulationSummary`:
    processor busy/idle split, total faults and references across the
    mix, and the aggregate space-time product split active/waiting —
    the Figure 3 quantities, in mergeable form.
    """
    counters.increment(f"{prefix}.makespan", summary.makespan)
    counters.increment(f"{prefix}.cpu_busy", summary.cpu_busy)
    counters.increment(f"{prefix}.cpu_idle", summary.cpu_idle)
    counters.increment(f"{prefix}.faults", summary.total_faults)
    counters.increment(
        f"{prefix}.references",
        sum(program.references for program in summary.programs),
    )
    for program in summary.programs:
        counters.increment(f"{prefix}.spacetime.active", program.space_time.active)
        counters.increment(f"{prefix}.spacetime.waiting", program.space_time.waiting)


__all__ = [
    "Counters",
    "absorb_allocator_counters",
    "absorb_associative_memory",
    "absorb_pager_stats",
    "absorb_serve_stats",
    "absorb_simulation_result",
    "absorb_simulation_summary",
    "absorb_spacetime",
]
