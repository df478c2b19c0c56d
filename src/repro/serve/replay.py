"""Trace-driven replay over a shared frame pool.

The serving counterpart of :func:`repro.paging.simulate.simulate_trace`:
N tenants replay their reference strings, interleaved round-robin, over
one :class:`~repro.serve.pool.SharedFramePool`, each with its own
replacement policy and resident-page quota.  Local pages below
``shared_pages`` resolve to common content keys — the shared-library
region — so a tenant faulting on content another tenant already holds
attaches to the resident frame (a *share*: no fetch), and content still
cached zero-ref in the freed-dedup pool is revived by identity (a
*dedup hit*: no fetch).  Writes to shared pages break copy-on-write.

The replay runs in two phases.  Eviction is quota-local, so a tenant's
faults and victims depend only on its own trace, writes and policy; the
pool decides only how each fault is satisfied and which frame it gets.
Phase 1 therefore replays each tenant alone through ``simulate_trace``
and its kernel dispatch.  Phase 2 replays, in the round-robin
``(index, tenant)`` order, only the references that touch the pool —
faults (evict, then acquire, one pool ``release`` and one ``acquire``
call each) and each page's first write hit while its key is shared
(one ``cow_break`` call) — merging the tenants' event streams through
a heap.  Resident hits, the bulk of a local workload's references,
never reach the view or the pool.

The differential contract this driver is pinned to
(``tests/test_serve_differential.py``, 100 seeds): at sharing degree 1
with no shared pages, the per-tenant :class:`SimulationResult` and the
``replay.*`` telemetry counters are **bit-identical** to
``simulate_trace(trace, frames, policy, fast=False)``; at every degree
the results, pool statistics, event stream and telemetry are identical
to the per-reference loop in ``tests/serve_reference.py``.  Sharing
degree 1 *is* the unshared path; everything the serving tier adds
happens only when degree > 1 or shared pages exist.  Every total is
read off the finished result: per tenant in
:attr:`SharedReplayResult.tenants`, for the pool in its ``pool_stats``.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import heapify, heappop, heapreplace
from itertools import compress
from typing import Callable, Hashable, Sequence

from repro.alloc.base import check_int
from repro.fastpath.replay import _as_fast_sequence
from repro.observe.events import Evict, Fault
from repro.observe.telemetry.registry import TelemetryRegistry
from repro.observe.tracer import Tracer
from repro.paging.replacement.base import ReplacementPolicy
from repro.paging.simulate import (
    SimulationResult,
    record_replay_telemetry,
    simulate_trace,
)
from repro.serve.pool import REFUSED, ServeStats, SharedFramePool
from repro.serve.tenant import TenantView

#: Phase-2 stream kinds, by position in a tenant's stream pair: its
#: faults, then its first write hits on pages whose key is still shared.
_FAULT = 0


@dataclass(slots=True)
class SharedReplayResult:
    """Outcome of one multi-tenant shared replay."""

    sharing: int
    """Sharing degree: how many tenants replayed over the pool."""
    shared_pages: int
    pool_frames: int
    tenants: list[SimulationResult] = field(repr=False)
    """Per-tenant results, in tenant order — the degree-1 entry is the
    bit-identical twin of the unshared ``simulate_trace`` result."""
    pool_stats: ServeStats = field(repr=False)
    shares: int = 0
    dedup_hits: int = 0
    cow_breaks: int = 0
    shared_frame_cycles: int = 0
    """Pool-residency integral over virtual time: what the consolidated
    pool actually occupied — the storage half of space-time, shared."""
    private_frame_cycles: int = 0
    """Sum of the tenants' own residency integrals: what the same runs
    would have occupied without sharing."""

    @property
    def references(self) -> int:
        return sum(tenant.references for tenant in self.tenants)

    @property
    def faults(self) -> int:
        """Per-tenant misses (a share still misses the tenant's view)."""
        return sum(tenant.faults for tenant in self.tenants)

    @property
    def fetches(self) -> int:
        """Hard misses that paid a backing-store fetch."""
        return self.faults - self.shares - self.dedup_hits

    @property
    def evictions(self) -> int:
        return sum(tenant.evictions for tenant in self.tenants)

    @property
    def fault_rate(self) -> float:
        return self.faults / self.references if self.references else 0.0

    @property
    def fetch_rate(self) -> float:
        return self.fetches / self.references if self.references else 0.0

    @property
    def spacetime_saving(self) -> float:
        """Fraction of unshared space-time the shared pool avoided."""
        if not self.private_frame_cycles:
            return 0.0
        return 1.0 - self.shared_frame_cycles / self.private_frame_cycles


def simulate_shared(
    traces: Sequence[Sequence[Hashable]],
    frames: int,
    policy_factory: Callable[[int], ReplacementPolicy],
    shared_pages: int = 0,
    pool_frames: int | None = None,
    writes: Sequence[Sequence[bool]] | None = None,
    record_positions: bool = False,
    record_evictions: bool = False,
    tracer: Tracer | None = None,
    checked: bool = False,
    telemetry: TelemetryRegistry | None = None,
) -> SharedReplayResult:
    """Replay ``traces`` (one per tenant) over one shared frame pool.

    Parameters
    ----------
    traces:
        One page-reference sequence per tenant; the number of traces is
        the sharing degree.
    frames:
        Each tenant's resident-page quota (the per-tenant allotment).
    policy_factory:
        ``policy_factory(tenant_index)`` returns a fresh replacement
        policy for that tenant.  Tenants replay one after another in
        phase 1, so their policies must not share mutable state (such
        as one RNG): a shared object is refused with ``ValueError``.
    shared_pages:
        Local pages below this bound are common content across all
        tenants (the shared-library region); 0 shares nothing.
    pool_frames:
        Physical frames in the pool; defaults to ``frames × tenants``
        (no overcommit).  Smaller values overcommit: sharing is then
        what keeps the pool from exhaustion.
    writes:
        Optional per-tenant write flags aligned with the traces; writes
        to shared pages break copy-on-write.
    tracer:
        Optional enabled tracer receiving ``Fault``/``Evict`` events
        (timestamped by the tenant's own reference index, exactly as the
        unshared driver does) and the pool's ``Share`` / ``DedupHit`` /
        ``CoWBreak`` events.  At degree 1 the streams are identical.
    checked:
        Replay each tenant through ``simulate_trace``'s checked
        reference loop, and audit the pool and every tenant view with
        the invariant suite (refcount conservation included) before
        every 64th pool event plus once at the end.
    telemetry:
        Optional :class:`~repro.observe.telemetry.TelemetryRegistry`.
        The pool times ``acquire`` / ``cow_break`` as wall spans and
        tracks ``serve.resident_frames``; the finished run lands as
        ``replay.*`` / ``serve.*`` counter totals, the per-tenant
        ``serve.tenant_faults`` sketch, and — with positions recorded —
        the ``replay.fault_gap`` sketch.  All aggregates are read off
        the result after the run; telemetry changes no simulation bits.
    """
    if not traces:
        raise ValueError("need at least one tenant trace")
    check_int(frames, "frames")
    check_int(shared_pages, "shared_pages")
    if pool_frames is not None:
        check_int(pool_frames, "pool_frames")
    if frames <= 0:
        raise ValueError(f"frames must be positive, got {frames}")
    if shared_pages < 0:
        raise ValueError(f"shared_pages must be >= 0, got {shared_pages}")
    tenants = len(traces)
    if writes is not None and (
        len(writes) != tenants
        or any(len(flags) != len(trace)
               for flags, trace in zip(writes, traces))
    ):
        raise ValueError("writes must align with traces, tenant by tenant")
    if pool_frames is None:
        pool_frames = frames * tenants
    if pool_frames <= 0:
        raise ValueError(f"pool_frames must be positive, got {pool_frames}")

    tracing = tracer is not None and tracer.enabled
    pool = SharedFramePool(
        pool_frames,
        tracer=tracer if tracing else None,
        telemetry=telemetry,
    )
    views = [
        TenantView(pool, f"t{index}", quota=frames, shared_pages=shared_pages)
        for index in range(tenants)
    ]
    policies = [policy_factory(index) for index in range(tenants)]
    if len({id(policy) for policy in policies}) < tenants:
        raise ValueError(
            "policy_factory returned one policy object for several "
            "tenants; each tenant needs its own"
        )
    # Tenant labels ride the events only in actual multi-tenant runs, so
    # the degree-1 event stream stays byte-identical to the unshared one.
    labels = [f"t{index}" if tenants > 1 else None for index in range(tenants)]

    # Phase 1: each tenant alone.  Its faults and victims are the ones
    # the interleaved replay would produce, because its own quota, not
    # the pool, decides when and what it evicts.
    runs: list[SimulationResult] = []
    streams: list[array] = []      # per tenant: faults, then shared writes
    pages = [_as_fast_sequence(trace) for trace in traces]   # replay_view()
    for tenant, trace in enumerate(traces):
        flags = writes[tenant] if writes is not None else None
        run = simulate_trace(
            trace, frames, policies[tenant],
            record_positions=True, record_evictions=True,
            writes=flags, checked=checked,
        )
        positions = array("q", run.fault_positions)
        if not record_positions:
            run.fault_positions = []
        shared_writes = (
            _first_shared_writes(pages[tenant], flags, positions,
                                 views[tenant])
            if flags is not None else array("q")
        )
        runs.append(run)
        streams += (positions, shared_writes)

    # Phase 2: the pool events, in (index, tenant, kind) order.  Stream
    # ``tenant * 2 + kind`` keeps one integer code in the heap while it
    # has events left: its next index * width + its stream number, which
    # sorts exactly like that tuple.  No index is both a fault and a
    # first shared write of one tenant, so codes never tie.
    suite = None
    if checked:
        from repro.check.invariants import InvariantSuite

        suite = InvariantSuite()
    audited = [pool, *views]
    victims = [run.victims for run in runs]
    width = 2 * tenants
    cursors = [0] * width        # events taken, per stream
    heap = [
        stream[0] * width + number
        for number, stream in enumerate(streams)
        if stream
    ]
    heapify(heap)
    # Space-time, both ways of counting it: what the consolidated pool
    # holds vs. what the tenants' views add up to.  One shared frame
    # referenced by k tenants costs 1 in the pool and k in the
    # per-tenant sum — the gap is the serving tier's storage saving.
    # Both change only at events, so they integrate over the gaps.  The
    # pool's pinned count is read off its maps, as resident_count does.
    pool_keys, pool_cached = pool._frame_of, pool._cached
    acquire, release, cow_break = pool.acquire, pool.release, pool.cow_break
    refused = REFUSED
    shared_cycles = private_cycles = 0
    private_resident = 0
    since = 0           # the index from which the current state holds
    events = 0
    while heap:
        index, number = divmod(heap[0], width)
        if index != since:
            gap = index - since
            shared_cycles += (len(pool_keys) - len(pool_cached)) * gap
            private_cycles += private_resident * gap
            since = index
        if suite is not None and events % 64 == 0:
            suite.check_all(audited)
        events += 1
        pool.now = index
        tenant = number >> 1
        view = views[tenant]
        page = pages[tenant][index]
        cursor = cursors[number]
        if number & 1 == _FAULT:
            label = labels[tenant]
            if tracing:
                write = writes is not None and bool(writes[tenant][index])
                tracer.emit(Fault(
                    time=index, unit=page, write=write, program=label,
                ))
            if cursor >= frames:
                victim = victims[tenant][cursor - frames]
                release(view, victim)
                if tracing:
                    tracer.emit(Evict(time=index, unit=victim, program=label))
            else:
                private_resident += 1
            if acquire(view, page) is refused:
                raise pool.out_of_frames(view.key_for(page))
        elif cow_break(view, page) is refused:
            raise pool.out_of_frames(view._cow_key(page))
        stream = streams[number]
        cursor += 1
        cursors[number] = cursor
        if cursor < len(stream):
            heapreplace(heap, stream[cursor] * width + number)
        else:
            heappop(heap)
    longest = max(len(trace) for trace in traces)
    shared_cycles += pool.resident_count * (longest - since)
    private_cycles += private_resident * (longest - since)

    if suite is not None:
        suite.check_all(audited)
    if not record_evictions:
        for run in runs:
            run.victims = []
    shared_result = SharedReplayResult(
        sharing=tenants,
        shared_pages=shared_pages,
        pool_frames=pool_frames,
        tenants=runs,
        pool_stats=pool.stats,
        shares=pool.stats.shares,
        dedup_hits=pool.stats.dedup_hits,
        cow_breaks=pool.stats.cow_breaks,
        shared_frame_cycles=shared_cycles,
        private_frame_cycles=private_cycles,
    )
    record_shared_telemetry(telemetry, shared_result)
    return shared_result


def _first_shared_writes(
    trace: Sequence[Hashable],
    flags: Sequence[bool],
    positions: array,
    view: TenantView,
) -> array:
    """Indices of the tenant's first write hit on each shared-key page.

    These are the only writes that reach the pool.  A write that faults
    acquires the shared content without breaking it; a write hit on a
    shared key breaks copy-on-write, after which the page resolves to
    its private copy for good; and a page whose key is private never
    becomes shared.  So once a page has taken one write hit, no later
    write to it can break anything.  "Shared" is the view's own key
    rule, read before any break happened.
    """
    found = array("q")
    settled: set[Hashable] = set()
    faults = len(positions)
    for index in compress(range(len(flags)), flags):
        page = trace[index]
        if page in settled:
            continue
        if not view.is_shared_key(view.key_for(page)):
            settled.add(page)
            continue
        slot = bisect_left(positions, index)
        if slot < faults and positions[slot] == index:
            continue        # a write fault: the shared key stays intact
        found.append(index)
        settled.add(page)
    return found


def record_shared_telemetry(
    telemetry: TelemetryRegistry | None,
    result: SharedReplayResult,
) -> None:
    """Fold a finished shared replay into a telemetry registry.

    Per-tenant totals go through :func:`record_replay_telemetry` (so the
    ``replay.*`` names sum across tenants), pool accounting lands under
    ``serve.*``, and the per-tenant fault totals feed a sketch — the
    imbalance view the scalar sums cannot give.  Reads the result only.
    """
    if telemetry is None or not telemetry.enabled:
        return
    for tenant in result.tenants:
        record_replay_telemetry(telemetry, tenant)
    stats = result.pool_stats
    telemetry.counter("serve.acquires").increment(stats.acquires)
    telemetry.counter("serve.shares").increment(stats.shares)
    telemetry.counter("serve.dedup_hits").increment(stats.dedup_hits)
    telemetry.counter("serve.cow_breaks").increment(stats.cow_breaks)
    telemetry.counter("serve.releases").increment(stats.releases)
    telemetry.counter("serve.reclaims").increment(stats.reclaims)
    sketch = telemetry.histogram("serve.tenant_faults", unit="faults")
    for tenant in result.tenants:
        sketch.observe(tenant.faults)


def tenant_traces(
    tenants: int,
    pages: int,
    length: int,
    shared_fraction: float = 0.5,
    working_set: int = 4,
    phase_length: int = 100,
    locality: float = 0.95,
    seed: int = 0,
) -> tuple[list[list[int]], int]:
    """Per-tenant phased traces over a partially shared page space.

    Returns ``(traces, shared_pages)``: each tenant gets its own
    phased-locality trace (tenant-derived seeds) over the same ``pages``
    page space, of which the first ``shared_fraction`` are common
    content — the shared-library region the serving tier deduplicates.

    >>> traces, shared = tenant_traces(2, pages=16, length=50, seed=7)
    >>> len(traces), shared
    (2, 8)
    >>> traces[0] != traces[1]   # tenants have distinct access patterns
    True
    """
    if tenants <= 0:
        raise ValueError(f"tenants must be positive, got {tenants}")
    if not 0.0 <= shared_fraction <= 1.0:
        raise ValueError(
            f"shared_fraction must be in [0, 1], got {shared_fraction}"
        )
    from repro.workload.reference import phased_trace

    shared_pages = int(pages * shared_fraction)
    traces = [
        list(phased_trace(
            pages=pages,
            length=length,
            working_set=working_set,
            phase_length=phase_length,
            locality=locality,
            seed=(seed * 1_000_003 + tenant) & 0x7FFFFFFF,
        ))
        for tenant in range(tenants)
    ]
    return traces, shared_pages


def seeded_writes(
    length: int, fraction: float = 0.1, seed: int = 0
) -> list[bool]:
    """Deterministic per-reference write flags (drives CoW breaks)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    draw = random.Random(seed).random
    return [draw() < fraction for _ in range(length)]


__all__ = [
    "SharedReplayResult",
    "record_shared_telemetry",
    "seeded_writes",
    "simulate_shared",
    "tenant_traces",
]
