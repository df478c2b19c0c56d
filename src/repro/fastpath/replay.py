"""Batched trace-replay kernels.

Each kernel replays a whole reference trace against one replacement
strategy in a single tight loop over flat dict/list state, instead of
routing every reference through the ``ReplacementPolicy`` observer
interface and a ``FrameTable``.  The kernels are *bit-identical* to the
reference ``simulate_trace`` loop — same faults, same cold faults, same
fault positions, and the same victim at every eviction — which the
differential property tests assert over randomized traces.

How each kernel preserves reference semantics:

``fifo``
    The reference picks ``min(resident, key=loaded_at)``.  Load times are
    unique, so the victim is simply the longest-resident page: a dict in
    load order, evict the first key.
``lru``
    The reference picks ``min(resident, key=last_use)``.  Use times are
    unique, so a dict in recency order (move-to-end on hit) makes the
    first key the victim.
``clock``
    The kernel replicates the reference ring exactly: load order, a
    persistent hand, reference bits set only by *hits* (the reference
    driver reports a faulting access via ``on_load``, which leaves the
    bit clear), and the reference's post-eviction hand position.
``opt`` (Belady MIN)
    One backward pass precomputes every reference's next-use index, so
    victim selection needs no ``bisect`` over occurrence lists.  The
    resident map mirrors ``FrameTable``'s insertion order and victims are
    chosen with a strict ``>`` scan, reproducing ``max()``'s
    first-of-equals tie-break for pages that are never used again.

Write flags need no special handling here: none of these four strategies
lets the modified bit influence victim choice, so results are identical
with or without ``writes``.  Policies whose choices *do* depend on writes
(M44), on randomness (random) or on advice (``AdvisedReplacementPolicy``)
have no kernel and fall back to the reference loop.

The FIFO and LRU kernels carry two loop bodies — one that tracks the
reference index for fault-position recording, and a hotter one that does
not — because at millions of references per second even an ``enumerate``
tuple unpack is a measurable tax.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

from repro.alloc.base import check_int
from repro.fastpath.columnar import run_columnar
from repro.paging.replacement.base import ReplacementPolicy
from repro.paging.replacement.belady import BeladyOptimalPolicy
from repro.paging.replacement.clock import ClockPolicy
from repro.paging.replacement.simple import FifoPolicy, LruPolicy
from repro.paging.simulate import SimulationResult

_NEVER = float("inf")
_MISS = object()   # sentinel distinguishing "absent" from a stored None


def _as_fast_sequence(trace: Sequence[Hashable]) -> Sequence[Hashable]:
    """Unwrap a backed trace to its cheapest exact element view.

    Array-backed and columnar traces expose ``replay_view()`` — the raw
    backing column (or a lazy pair view for segmented traces) — so the
    kernels iterate them zero-copy instead of materializing a full list,
    which used to double peak memory for large traces.
    """
    view = getattr(trace, "replay_view", None)
    return view() if view is not None else trace


def replay_fifo(
    trace: Sequence[Hashable],
    frames: int,
    record_positions: bool = False,
    record_evictions: bool = False,
) -> SimulationResult:
    """Batched FIFO: evict the first key of a load-ordered dict."""
    refs = _as_fast_sequence(trace)
    resident: dict[Hashable, None] = {}
    seen: set[Hashable] = set()
    faults = cold_faults = evictions = 0
    positions: list[int] = []
    victims: list[Hashable] = []
    if record_positions:
        for index, page in enumerate(refs):
            if page in resident:
                continue
            faults += 1
            if page not in seen:
                cold_faults += 1
                seen.add(page)
            positions.append(index)
            if len(resident) == frames:
                victim = next(iter(resident))
                del resident[victim]
                evictions += 1
                if record_evictions:
                    victims.append(victim)
            resident[page] = None
    else:
        for page in refs:
            if page in resident:
                continue
            faults += 1
            if page not in seen:
                cold_faults += 1
                seen.add(page)
            if len(resident) == frames:
                victim = next(iter(resident))
                del resident[victim]
                evictions += 1
                if record_evictions:
                    victims.append(victim)
            resident[page] = None
    return SimulationResult(
        policy="fifo",
        frames=frames,
        references=len(refs),
        faults=faults,
        evictions=evictions,
        cold_faults=cold_faults,
        fault_positions=positions,
        victims=victims,
    )


def replay_lru(
    trace: Sequence[Hashable],
    frames: int,
    record_positions: bool = False,
    record_evictions: bool = False,
) -> SimulationResult:
    """Batched LRU: a recency-ordered dict, move-to-end on every hit.

    The hit path is a single ``dict.pop`` (with a sentinel default) plus
    a re-insert — resident values are always ``None``, so a ``None``
    return means "was resident, now moved to the recency tail".
    """
    refs = _as_fast_sequence(trace)
    resident: dict[Hashable, None] = {}
    resident_pop = resident.pop
    seen: set[Hashable] = set()
    faults = cold_faults = evictions = 0
    positions: list[int] = []
    victims: list[Hashable] = []
    if record_positions:
        for index, page in enumerate(refs):
            if resident_pop(page, _MISS) is None:
                resident[page] = None
                continue
            faults += 1
            if page not in seen:
                cold_faults += 1
                seen.add(page)
            positions.append(index)
            if len(resident) == frames:
                victim = next(iter(resident))
                del resident[victim]
                evictions += 1
                if record_evictions:
                    victims.append(victim)
            resident[page] = None
    else:
        for page in refs:
            if resident_pop(page, _MISS) is None:
                resident[page] = None
                continue
            faults += 1
            if page not in seen:
                cold_faults += 1
                seen.add(page)
            if len(resident) == frames:
                victim = next(iter(resident))
                del resident[victim]
                evictions += 1
                if record_evictions:
                    victims.append(victim)
            resident[page] = None
    return SimulationResult(
        policy="lru",
        frames=frames,
        references=len(refs),
        faults=faults,
        evictions=evictions,
        cold_faults=cold_faults,
        fault_positions=positions,
        victims=victims,
    )


def replay_clock(
    trace: Sequence[Hashable],
    frames: int,
    record_positions: bool = False,
    record_evictions: bool = False,
) -> SimulationResult:
    """Batched second-chance: the reference ring, hand, and bits inlined."""
    refs = _as_fast_sequence(trace)
    ring: list[Hashable] = []
    hand = 0
    referenced: dict[Hashable, bool] = {}   # keys double as the resident set
    seen: set[Hashable] = set()
    faults = cold_faults = evictions = 0
    positions: list[int] = []
    victims: list[Hashable] = []
    for index, page in enumerate(refs):
        if page in referenced:
            referenced[page] = True
            continue
        faults += 1
        if page not in seen:
            cold_faults += 1
            seen.add(page)
        if record_positions:
            positions.append(index)
        if len(ring) == frames:
            while True:
                if hand >= len(ring):
                    hand = 0
                victim = ring[hand]
                if referenced[victim]:
                    referenced[victim] = False
                    hand += 1
                else:
                    break
            # The reference on_evict deletes at the hand's index and
            # leaves the hand pointing at the element that slid into it.
            del ring[hand]
            del referenced[victim]
            evictions += 1
            if record_evictions:
                victims.append(victim)
        ring.append(page)
        referenced[page] = False   # a faulting access sets no bit
    return SimulationResult(
        policy="clock",
        frames=frames,
        references=len(refs),
        faults=faults,
        evictions=evictions,
        cold_faults=cold_faults,
        fault_positions=positions,
        victims=victims,
    )


def replay_opt(
    trace: Sequence[Hashable],
    frames: int,
    record_positions: bool = False,
    record_evictions: bool = False,
) -> SimulationResult:
    """Batched Belady MIN with next-use indices from one backward pass."""
    refs = _as_fast_sequence(trace)
    n = len(refs)
    next_use: list[float] = [0] * n
    last_seen: dict[Hashable, int] = {}
    for index in range(n - 1, -1, -1):
        page = refs[index]
        next_use[index] = last_seen.get(page, _NEVER)
        last_seen[page] = index
    resident: dict[Hashable, float] = {}   # page -> next-use; load order
    seen: set[Hashable] = set()
    faults = cold_faults = evictions = 0
    positions: list[int] = []
    victims: list[Hashable] = []
    for index, page in enumerate(refs):
        if page in resident:
            resident[page] = next_use[index]
            continue
        faults += 1
        if page not in seen:
            cold_faults += 1
            seen.add(page)
        if record_positions:
            positions.append(index)
        if len(resident) == frames:
            victim: Hashable = None
            farthest = -1.0
            for candidate, use in resident.items():
                if use > farthest:   # strict: first-of-equals, like max()
                    victim, farthest = candidate, use
            del resident[victim]
            evictions += 1
            if record_evictions:
                victims.append(victim)
        resident[page] = next_use[index]
    return SimulationResult(
        policy="opt",
        frames=frames,
        references=n,
        faults=faults,
        evictions=evictions,
        cold_faults=cold_faults,
        fault_positions=positions,
        victims=victims,
    )


_Kernel = Callable[..., SimulationResult]

#: Exact-type registry: a subclass may override ``choose_victim``, so only
#: the reference classes themselves are eligible for kernel dispatch.
FAST_KERNELS: dict[type, _Kernel] = {
    FifoPolicy: replay_fifo,
    LruPolicy: replay_lru,
    ClockPolicy: replay_clock,
    BeladyOptimalPolicy: replay_opt,
}


def run_fast(
    trace: Sequence[Hashable],
    frames: int,
    policy: ReplacementPolicy,
    record_positions: bool = False,
    record_evictions: bool = False,
    telemetry=None,
) -> SimulationResult | None:
    """Replay ``trace`` with a batched kernel, or return None to signal
    that the reference loop must be used.

    Dispatch order: the vectorized columnar kernels
    (:mod:`repro.fastpath.columnar`) are tried first for column-backed
    traces; when they decline (no numpy, small trace, sparse id space,
    fault-dominated workload) the list kernels here run instead, and a
    policy with no kernel at all returns None for the reference loop.
    Only the exact types in :data:`FAST_KERNELS` have a kernel, so an
    ``AdvisedReplacementPolicy`` runs the reference loop whatever its
    base.

    A Belady policy is only fast-pathed when it is fresh and was built
    for exactly this trace; otherwise the reference loop runs (and
    raises its usual trace-mismatch error), keeping error behaviour
    identical.  A ``frames`` that is not an int raises the reference
    loop's ``TypeError``, and a non-positive one its ``ValueError``.

    ``telemetry`` (a :class:`~repro.observe.telemetry.TelemetryRegistry`)
    reaches only the columnar tier, which times its chunk sweeps; the
    list kernels are single tight loops with nothing to bracket, and
    the caller records aggregates from the returned result.
    """
    check_int(frames, "frames")
    if frames <= 0:
        raise ValueError(f"frames must be positive, got {frames}")
    policy_type = type(policy)
    kernel = FAST_KERNELS.get(policy_type)
    if kernel is None:
        return None
    if policy_type is BeladyOptimalPolicy:
        if policy.cursor != 0 or not policy.matches_trace(trace):
            return None
    result = run_columnar(
        trace,
        frames,
        policy,
        record_positions=record_positions,
        record_evictions=record_evictions,
        telemetry=telemetry,
    )
    if result is not None:
        return result
    return kernel(
        trace,
        frames,
        record_positions=record_positions,
        record_evictions=record_evictions,
    )
