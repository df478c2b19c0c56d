"""Vectorized replay kernels over columnar traces.

These kernels replay a :class:`repro.trace.ColumnarTrace` — what every
workload generator and trace loader returns — against the
FIFO / LRU / CLOCK / Belady-OPT policies using numpy, while staying
**bit-identical** to the reference per-access loop — the same faults,
cold faults, fault positions, and the same victim at every eviction,
including every tie-break.  They extend the equivalence contract of
:mod:`repro.fastpath.replay` (DESIGN.md §6) to a third implementation
tier; the differential suite in ``tests/test_fastpath_columnar.py`` pins
all three together over randomized traces.

Exactness, not approximation
----------------------------
The driver scans the trace in chunks.  For each chunk it computes, in
one vectorized pass, the *candidate* positions — references whose page
was not resident at the chunk boundary.  Only candidates are touched by
Python code; the (overwhelmingly common, for local workloads) hit spans
between them update per-policy recency state with bulk scatter stores.
Two corrections keep the candidate set exact while residency changes
mid-chunk:

- a candidate whose page became resident since the chunk boundary is
  re-checked against the live residency mask and handled as a hit;
- after every eviction the chunk remainder is scanned for the victim's
  next occurrence, which is pushed into a heap of extra candidates —
  a reference that *was* resident at the boundary can only miss if its
  page got evicted earlier in the chunk, and this scan catches exactly
  those.

Per-policy state is dense over the page-id space (hence the
``MAX_DENSE_KEYS`` guard) and chosen so victim selection reproduces the
reference's tie-breaks:

``fifo``
    A circular queue of loaded pages.  Hits change nothing, so the j-th
    eviction is exactly the j-th-loaded resident page.
``lru``
    A ``last_use`` column scatter-updated by hit spans (later stores win,
    matching event order); the victim is the argmin over the resident
    slots.  Use times are unique, so no tie-break is needed.
``clock``
    The reference ring and hand verbatim, with the reference bits held
    in a numpy column so hit spans set them in bulk.
``opt``
    Each position's next-use index comes from one stable argsort of the
    page column.  Victim is the argmax of next-use over resident slots;
    finite next-use values are unique, and never-used-again ties are
    broken by earliest load order (a per-page load counter), mirroring
    ``max()``'s first-of-equals over the reference's insertion-ordered
    resident dict.

Segmented traces — elements ``(segment, page)`` — are replayed over the
encoded key ``segment * page_span + page`` and victims are decoded back
to tuples, so the two-level configurations get the same speedup.

The kernels need numpy (the ``perf`` extra), which :func:`load_numpy`
imports on the first column-backed replay of at least
``MIN_COLUMNAR_REFS`` references, not with this module, so callers that
replay only plain lists or short traces never load it.  Without numpy, or
for traces that are small, not column-backed, too sparse (huge id space), or too
fault-heavy for chunk skipping to pay (an early abort heuristic),
:func:`run_columnar` returns ``None`` and the caller falls back to the
list kernels — which consume a columnar trace zero-copy through
``replay_view()``, so behaviour is identical either way.
"""

from __future__ import annotations

import heapq
import sys
from typing import Hashable, Sequence

from repro.alloc.base import check_int
from repro.paging.replacement.base import ReplacementPolicy
from repro.paging.replacement.belady import BeladyOptimalPolicy
from repro.paging.replacement.clock import ClockPolicy
from repro.paging.replacement.simple import FifoPolicy, LruPolicy
from repro.paging.simulate import SimulationResult
from repro.trace.columnar import ColumnarTrace

_UNLOADED = object()

#: numpy once :func:`load_numpy` has run, None when it is not installed.
#: Setting it to None masks numpy (the no-numpy tests do).
_np = _UNLOADED


def load_numpy():
    """numpy, imported on first call; None when it is not installed.

    numpy is optional (the ``[perf]`` extra), and importing it grows
    resident memory by megabytes, so the import waits for the first
    column-backed replay long enough for the columnar tier
    (``MIN_COLUMNAR_REFS`` references or ``force=True``): list-trace
    callers such as the shared replay, and short columnar traces such
    as a sweep shard's, never pay for it.
    """
    global _np
    if _np is _UNLOADED:
        try:
            import numpy
        except ImportError:     # pragma: no cover - exercised via monkeypatch
            _np = None
        else:
            _np = numpy
    return _np

#: Traces shorter than this go straight to the list kernels (fixed
#: per-call numpy setup would dominate); ``force=True`` overrides.
MIN_COLUMNAR_REFS = 4096

#: Dense per-page state cap: 4M distinct keys = a few tens of MB of
#: kernel state.  Sparser id spaces fall back to the dict kernels.
MAX_DENSE_KEYS = 1 << 22

#: Abort heuristic: once this many references are processed, an
#: eviction rate above ``1 / _ABORT_EVICTION_FACTOR`` means chunk
#: skipping cannot pay for the per-eviction Python and rescan work —
#: bail out (losing only this prefix's work) and let the list kernels
#: replay from the start.  The check runs per eviction so a thrashing
#: trace is abandoned within the first couple of thousand references.
#: Evictions, not faults, drive the cost: cold faults that fit in the
#: frame budget are paid once and never recur, so a large-memory trace
#: with a cold warm-up phase is not penalised.
_ABORT_MIN_REFS = 1 << 10
_ABORT_EVICTION_FACTOR = 128

_MIN_CHUNK = 1 << 12
_MAX_CHUNK = 1 << 13
_INITIAL_CHUNK = 1 << 13

#: Traces longer than this fall back to the list kernels: the LRU
#: last-use column is int32 (for scatter bandwidth), and per-chunk
#: fixed costs are long amortized away by this point anyway.
_MAX_INT32_REFS = (1 << 31) - 1

#: The OPT next-use columns use the trace length ``n`` as the
#: "never referenced again" sentinel: every real next-use index is
#: ``< n``, and ``n`` fits the same int32 cells as the indices (trace
#: length is capped at _MAX_INT32_REFS), halving scatter bandwidth
#: against an int64 column with a huge sentinel.


class _FifoState:
    """Circular queue of loaded keys; hits are free."""

    #: Absolute index of the evicted key's next occurrence, set by
    #: ``fault`` when the state knows it exactly (only OPT does); None
    #: means unknown and the driver must rescan the chunk remainder.
    victim_next: int | None = None

    def __init__(self, np, space: int, frames: int) -> None:
        self.np = np
        self.resident = np.zeros(space, dtype=bool)
        self.queue: list[int] = [0] * frames    # plain ints: no scalar
        self.head = 0                           # numpy reads per fault
        self.count = 0
        self.frames = frames

    def bulk_hits(self, base: int, chunk, lo: int, hi: int) -> None:
        pass    # FIFO ignores use recency entirely

    def fault(self, index: int, key: int) -> int | None:
        victim = None
        if self.count == self.frames:
            victim = self.queue[self.head]
            self.resident[victim] = False
            self.head += 1
            if self.head == self.frames:
                self.head = 0
            self.count -= 1
        tail = self.head + self.count
        if tail >= self.frames:
            tail -= self.frames
        self.queue[tail] = key
        self.count += 1
        self.resident[key] = True
        return victim


class _LruState:
    """``last_use`` column + compact resident-slot array (argmin victim)."""

    victim_next: int | None = None

    def __init__(self, np, space: int, frames: int) -> None:
        self.np = np
        self.resident = np.zeros(space, dtype=bool)
        # int32 halves the scatter bandwidth of the hit spans; trace
        # length is capped at _MAX_INT32_REFS in run_columnar.
        self.last_use = np.zeros(space, dtype=np.int32)
        self.slots = np.empty(frames, dtype=np.int64)
        self.count = 0
        self.frames = frames

    def bulk_hits(self, base: int, chunk, lo: int, hi: int) -> None:
        np = self.np
        # Later stores win on duplicate keys — element assignments happen
        # in index order — which is exactly event order within the span.
        self.last_use[chunk[lo:hi]] = np.arange(
            base + lo, base + hi, dtype=np.int32
        )

    def fault(self, index: int, key: int) -> int | None:
        victim = None
        if self.count == self.frames:
            np = self.np
            occupied = self.slots[: self.count]
            slot = int(np.argmin(self.last_use[occupied]))
            victim = int(occupied[slot])
            self.resident[victim] = False
            self.count -= 1
            self.slots[slot] = self.slots[self.count]   # swap-remove
        self.slots[self.count] = key
        self.count += 1
        self.resident[key] = True
        self.last_use[key] = index
        return victim


class _ClockState:
    """The reference ring/hand with the referenced bits as a column."""

    victim_next: int | None = None

    def __init__(self, np, space: int, frames: int) -> None:
        self.np = np
        self.resident = np.zeros(space, dtype=bool)
        self.refbit = np.zeros(space, dtype=bool)
        self.ring: list[int] = []
        self.hand = 0
        self.frames = frames

    def bulk_hits(self, base: int, chunk, lo: int, hi: int) -> None:
        self.refbit[chunk[lo:hi]] = True

    def fault(self, index: int, key: int) -> int | None:
        victim = None
        ring = self.ring
        if len(ring) == self.frames:
            refbit = self.refbit
            hand = self.hand
            while True:
                if hand >= len(ring):
                    hand = 0
                candidate = ring[hand]
                if refbit[candidate]:
                    refbit[candidate] = False
                    hand += 1
                else:
                    break
            # The reference on_evict deletes at the hand's index and
            # leaves the hand pointing at the element that slid into it.
            del ring[hand]
            self.hand = hand
            self.resident[candidate] = False
            victim = candidate
        ring.append(key)
        self.refbit[key] = False    # a faulting access sets no bit
        self.resident[key] = True
        return victim


class _OptState:
    """Belady MIN: next-use column, argmax victim, load-order tie-break."""

    def __init__(self, np, space: int, frames: int, next_use, never: int) -> None:
        self.np = np
        self.resident = np.zeros(space, dtype=bool)
        self.res_next = np.zeros(space, dtype=np.int32)
        self.load_seq = np.zeros(space, dtype=np.int32)
        self.slots = np.empty(frames, dtype=np.int64)
        self.next_use = next_use
        self.never = never
        self.count = 0
        self.loads = 0
        self.frames = frames

    def bulk_hits(self, base: int, chunk, lo: int, hi: int) -> None:
        # Later stores win on duplicates = the reference's per-hit update.
        self.res_next[chunk[lo:hi]] = self.next_use[base + lo : base + hi]

    def fault(self, index: int, key: int) -> int | None:
        victim = None
        if self.count == self.frames:
            np = self.np
            never = self.never
            occupied = self.slots[: self.count]
            values = self.res_next[occupied]
            slot = int(np.argmax(values))
            if values[slot] == never:
                # Finite next-use indices are unique (one page per
                # position), so ties happen only among never-used-again
                # pages; the reference's strict ``>`` scan over its
                # insertion-ordered dict picks the earliest-loaded one.
                order = np.where(
                    values == never, self.load_seq[occupied], never
                )
                slot = int(np.argmin(order))
            victim = int(occupied[slot])
            # res_next holds the victim's next occurrence as of its
            # last access; every occurrence since then would itself
            # have been an access, so this is exact — the driver can
            # skip its recurrence rescan of the chunk remainder.
            self.victim_next = int(values[slot])
            self.resident[victim] = False
            self.count -= 1
            self.slots[slot] = self.slots[self.count]   # swap-remove
        self.slots[self.count] = key
        self.count += 1
        self.resident[key] = True
        self.res_next[key] = self.next_use[index]
        self.load_seq[key] = self.loads
        self.loads += 1
        return victim


def _next_use_column(np, keys, n: int):
    """Per-position next-occurrence indices via one composite sort.

    Sorting ``key << 32 | position`` puts each key's occurrences in
    consecutive, position-ordered runs; within a run each position's
    successor is its next use.  Run-final positions get the ``n``
    sentinel ("never again").  Composites are all distinct (the
    position bits differ), so the default unstable sort returns the
    same order a stable sort would — and is several times faster than
    a stable argsort at 10M+ refs.  Key ids are bounded by
    MAX_DENSE_KEYS (22 bits) and positions by _MAX_INT32_REFS, so the
    composite stays inside a non-negative int64.
    """
    if n == 0:
        return np.empty(0, dtype=np.int32)
    comp = keys << np.int64(32)
    comp += np.arange(n, dtype=np.int64)
    comp.sort()
    if sys.byteorder == "little":
        halves = comp.view(np.int32)    # zero-copy (position, key) pairs
        pos = halves[0::2]
        sorted_keys = halves[1::2]
    else:
        pos = (comp & np.int64(0xFFFFFFFF)).astype(np.int32)
        sorted_keys = (comp >> np.int64(32)).astype(np.int32)
    nxt = np.empty(n, dtype=np.int32)
    # Scatter every sorted successor, then patch the few run boundaries
    # (one per distinct key) — far cheaper than boolean-masked gathers.
    nxt[pos[:-1]] = pos[1:]
    boundary = (sorted_keys[1:] != sorted_keys[:-1]).nonzero()[0]
    nxt[pos[boundary]] = n
    nxt[pos[-1]] = n
    return nxt


def _columns_of(trace):
    """``(pages, segments, cached_spans)`` for a column-backed trace.

    Exact type only, mirroring the kernel registry: a subclass may
    change element semantics, so it falls back to the reference path.
    """
    if type(trace) is ColumnarTrace:
        return trace.pages, trace.segments, trace.cached_spans()
    return None


def run_columnar(
    trace: Sequence[Hashable],
    frames: int,
    policy: ReplacementPolicy,
    record_positions: bool = False,
    record_evictions: bool = False,
    force: bool = False,
    telemetry=None,
) -> SimulationResult | None:
    """Replay ``trace`` with a vectorized kernel, or None to fall back.

    ``telemetry`` (a :class:`~repro.observe.telemetry.TelemetryRegistry`)
    times each chunk sweep into ``fastpath.chunk_seconds`` and sketches
    per-chunk candidate counts into ``fastpath.chunk_candidates`` — the
    live view of how well span-skipping is paying on this workload.
    Instrumentation sits at chunk granularity (thousands of references
    per observation), never per reference, and reads loop-local values
    only, so results are bit-identical with it on or off.

    Returns ``None`` (no partial effects — per-call state only) when
    numpy is unavailable, the policy has no vectorized state, the trace
    is not column-backed, shorter than ``MIN_COLUMNAR_REFS``, has
    negative ids or an id space above ``MAX_DENSE_KEYS``, or the early
    fault-rate abort fires.  ``force=True`` disables the length
    threshold and the abort heuristic (for differential tests).

    A ``BeladyOptimalPolicy`` must be validated against the trace by the
    caller (``run_fast`` does), exactly as for the list kernels.  A
    ``frames`` that is not an int raises the reference loop's
    ``TypeError``, and a non-positive one its ``ValueError``.
    """
    check_int(frames, "frames")
    if frames <= 0:
        raise ValueError(f"frames must be positive, got {frames}")
    state_type = _STATE_TYPES.get(type(policy))
    if state_type is None:
        return None
    columns = _columns_of(trace)
    if columns is None:
        return None
    pages_col, segments_col, cached_spans = columns
    n = len(pages_col)
    if n > _MAX_INT32_REFS:
        return None     # int32 position columns would overflow
    if n < MIN_COLUMNAR_REFS and not force:
        return None
    np = load_numpy()
    if np is None:
        return None
    if n == 0:
        return SimulationResult(
            policy=policy.name, frames=frames, references=0, faults=0,
            evictions=0, cold_faults=0, fault_positions=[], victims=[],
        )

    pages = np.frombuffer(pages_col, dtype=np.int64)
    if cached_spans is not None:
        page_span, segment_span = cached_spans
    else:
        if int(pages.min()) < 0:
            return None
        page_span = int(pages.max()) + 1
        segment_span = 0
    if segments_col is not None:
        segments = np.frombuffer(segments_col, dtype=np.int64)
        if cached_spans is None:
            if int(segments.min()) < 0:
                return None
            segment_span = int(segments.max()) + 1
        space = page_span * segment_span
        if not 0 < space <= MAX_DENSE_KEYS:
            return None
        keys = segments * np.int64(page_span) + pages
    else:
        space = page_span
        if not 0 < space <= MAX_DENSE_KEYS:
            return None
        keys = pages

    if state_type is _OptState:
        state = _OptState(np, space, frames, _next_use_column(np, keys, n), n)
    else:
        state = state_type(np, space, frames)

    result = _drive(
        np, keys, n, frames, state,
        record_positions=record_positions,
        record_evictions=record_evictions,
        force=force,
        telemetry=telemetry,
    )
    if result is None:
        return None
    faults, cold_faults, evictions, positions, victim_keys = result
    if record_evictions and segments_col is not None:
        victims = [
            (key // page_span, key % page_span) for key in victim_keys
        ]
    else:
        victims = victim_keys
    return SimulationResult(
        policy=policy.name,
        frames=frames,
        references=n,
        faults=faults,
        evictions=evictions,
        cold_faults=cold_faults,
        fault_positions=positions,
        victims=victims,
    )


def _drive(
    np, keys, n: int, frames: int, state,
    record_positions: bool, record_evictions: bool, force: bool,
    telemetry=None,
):
    """The chunked candidate-scan loop shared by all policy states."""
    resident = state.resident
    seen = np.zeros(resident.shape[0], dtype=bool)
    faults = cold_faults = evictions = 0
    positions: list[int] = []
    victim_keys: list[int] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    bulk_hits = state.bulk_hits
    state_fault = state.fault

    chunk_span = candidate_sketch = None
    if telemetry is not None and telemetry.enabled:
        chunk_span = telemetry.span("fastpath.chunk_seconds")
        candidate_sketch = telemetry.histogram(
            "fastpath.chunk_candidates", unit="refs"
        )

    pos = 0
    chunk_size = _INITIAL_CHUNK
    while pos < n:
        if chunk_span is not None:
            chunk_span.start()
        end = min(n, pos + chunk_size)
        chunk = keys[pos:end]
        # ndarray.nonzero directly: the np.flatnonzero wrapper adds ~5x
        # call overhead, and this runs once per chunk and per rescan.
        candidates = (~resident[chunk]).nonzero()[0]
        # Offsets and keys come out as plain int lists in one bulk
        # conversion; per-candidate scalar numpy reads are far slower.
        if candidates.shape[0]:
            cand_offsets = candidates.tolist()
            cand_keys = chunk[candidates].tolist()
        else:
            cand_offsets = cand_keys = []
        total = len(cand_offsets)
        if candidate_sketch is not None:
            candidate_sketch.observe(total)
        cursor = 0
        extra: list[int] = []       # heap of eviction-rescan positions
        prev = 0                    # next unprocessed relative offset
        stale = 0                   # consecutive became-resident hits
        chunk_faults = 0
        while True:
            key = -1                # ids are non-negative: -1 = unknown
            if cursor < total:
                offset = cand_offsets[cursor]
                if extra and extra[0] < offset:
                    offset = heappop(extra)
                else:
                    key = cand_keys[cursor]
                    cursor += 1
            elif extra:
                offset = heappop(extra)
            else:
                break
            if offset < prev:       # duplicate rescan entry, already done
                continue
            if offset > prev:
                bulk_hits(pos, chunk, prev, offset)
            if key < 0:
                key = int(chunk[offset])
            if resident[key]:
                # Became resident since the chunk boundary: a hit.
                bulk_hits(pos, chunk, offset, offset + 1)
                prev = offset + 1
                stale += 1
                if stale >= 32 and cursor < total:
                    # A burst of loads (a phase change) turned many
                    # boundary candidates into hits; re-filter the tail
                    # in bulk instead of re-checking one by one.
                    tail = candidates[cursor:]
                    candidates = tail[~resident[chunk[tail]]]
                    cand_offsets = candidates.tolist()
                    cand_keys = chunk[candidates].tolist()
                    total = len(cand_offsets)
                    cursor = 0
                    stale = 0
                continue
            stale = 0
            faults += 1
            chunk_faults += 1
            if not seen[key]:
                cold_faults += 1
                seen[key] = True
            if record_positions:
                positions.append(pos + offset)
            victim = state_fault(pos + offset, key)
            if victim is not None:
                evictions += 1
                if (
                    not force
                    and pos + offset >= _ABORT_MIN_REFS
                    and evictions * _ABORT_EVICTION_FACTOR > pos + offset
                ):
                    if chunk_span is not None:
                        chunk_span.abandon()
                    return None     # eviction-dominated: list kernels win
                if record_evictions:
                    victim_keys.append(victim)
                # The victim was resident at the chunk boundary, so its
                # later occurrences are not candidates; flag the first
                # one (any after it are hits again once it re-faults).
                victim_next = state.victim_next
                if victim_next is not None:
                    # The state knows the exact next occurrence (OPT).
                    if victim_next < end:
                        heappush(extra, victim_next - pos)
                else:
                    # argmax finds the first match in one allocation-
                    # free pass (argmax of all-False is 0, so confirm).
                    rest = chunk[offset + 1 :]
                    if rest.shape[0]:
                        eq = rest == victim
                        first = int(eq.argmax())
                        if eq[first]:
                            heappush(extra, offset + 1 + first)
            prev = offset + 1
        span = end - pos
        if prev < span:
            bulk_hits(pos, chunk, prev, span)
        if chunk_span is not None:
            chunk_span.stop()
        pos = end
        if pos < n:
            if (
                not force
                and pos >= _ABORT_MIN_REFS
                and evictions * _ABORT_EVICTION_FACTOR > pos
            ):
                return None     # eviction-dominated: the list kernels win
            if chunk_faults == 0:
                chunk_size = min(_MAX_CHUNK, chunk_size * 2)
            elif chunk_faults > 64:
                chunk_size = max(_MIN_CHUNK, chunk_size // 2)
    return faults, cold_faults, evictions, positions, victim_keys


#: Exact-type registry, the columnar analogue of ``FAST_KERNELS``.
_STATE_TYPES: dict[type, type] = {
    FifoPolicy: _FifoState,
    LruPolicy: _LruState,
    ClockPolicy: _ClockState,
    BeladyOptimalPolicy: _OptState,
}


__all__ = [
    "MAX_DENSE_KEYS",
    "MIN_COLUMNAR_REFS",
    "load_numpy",
    "run_columnar",
]
