"""The per-reference traffic tick: the oracle ``simulate_traffic`` must match.

This is the loop ``repro.traffic.engine.simulate_traffic`` ran before
LRU and FIFO sessions ticked on the order of a resident dict: every
reference asks ``page in view`` and every hit, load and victim goes
through the session's policy object.  It is kept here, test-only and
unchanged, as the reference the differential suite
(``tests/test_traffic_differential.py``) pins the engine to.  The one
addition is a counter: :class:`ReferencePointResult` tallies the
self-evictions, so the suite can show that its seeds exercise them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import OutOfMemory
from repro.observe.telemetry.registry import TelemetryRegistry
from repro.traffic.admission import (
    ADMIT,
    QUEUE_QUOTA,
    QUEUE_WATERMARK,
    SHED_OVERSIZE,
    AdmissionController,
)
from repro.traffic.engine import (
    DRAIN_TICKS_FACTOR,
    TrafficPointResult,
    _record_telemetry,
    generate_sessions,
)
from repro.traffic.queueing import make_drain_policy
from repro.traffic.session import ActiveSession, SessionSpec


@dataclass(slots=True)
class ReferencePointResult(TrafficPointResult):
    """A traffic result that also counts self-evictions."""

    self_evictions: int = 0


def simulate_traffic_reference(
    spec: dict, telemetry: TelemetryRegistry | None = None
) -> ReferencePointResult:
    """Run one offered-load point; returns the measured result.

    With a ``telemetry`` registry the finished counts land under
    ``traffic.*`` counters/gauges and the wait sketches merge into the
    ``traffic.queue_wait`` / ``traffic.fault_wait`` histograms — all
    after the run, so telemetry changes no simulation bits.
    """
    from repro.serve.pool import SharedFramePool

    pool = SharedFramePool(spec["pool_frames"])
    controller = AdmissionController(
        spec["pool_frames"],
        watermark=spec["watermark"],
        overcommit=spec["overcommit"],
    )
    drain = make_drain_policy(spec["policy"])
    max_queue = spec.get("max_queue")
    refs_per_tick = spec["refs_per_tick"]
    fetch_time = spec["fetch_time"]
    horizon = spec["horizon"]
    replacement = spec["replacement"]

    result = ReferencePointResult()
    pending = deque(generate_sessions(spec))
    result.arrivals = len(pending)
    queue: list[SessionSpec] = []
    active: list[ActiveSession] = []
    committed = 0
    device_free_at = 0
    tick = 0
    deadline = horizon * DRAIN_TICKS_FACTOR

    while True:
        # -- arrivals (the horizon closes the front door) -----------------
        if tick < horizon:
            while pending and pending[0].arrival <= tick:
                session = pending.popleft()
                decision = controller.decide(session, pool, committed)
                if decision == SHED_OVERSIZE:
                    result.shed_oversize += 1
                elif max_queue is not None and len(queue) >= max_queue:
                    result.shed_overflow += 1
                else:
                    queue.append(session)
        elif queue:
            # Shutdown sheds the backlog; in-flight sessions finish.
            result.shed_drain += len(queue)
            queue.clear()

        # -- drain: offer queued specs in policy order --------------------
        while queue:
            admitted_one = False
            for index in drain.order(queue):
                decision = controller.decide(queue[index], pool, committed)
                if decision == ADMIT:
                    session_spec = queue.pop(index)
                    session = session_spec.materialize(pool, replacement)
                    session.admitted_at = tick
                    result.materialized += 1
                    result.admitted += 1
                    result.queue_wait.observe(tick - session_spec.arrival)
                    committed += session_spec.quota
                    active.append(session)
                    admitted_one = True
                    break
                if decision == QUEUE_WATERMARK:
                    result.queued_watermark += 1
                elif decision == QUEUE_QUOTA:
                    result.queued_quota += 1
                else:   # oversize after a config change; shed, keep going
                    queue.pop(index)
                    result.shed_oversize += 1
                    admitted_one = True
                    break
                if not drain.skip_refused:
                    break
            if not admitted_one:
                break

        # -- serve each active session one tick ---------------------------
        finished: list[ActiveSession] = []
        for session in active:
            if session.blocked_until > tick:
                continue   # still waiting on its fetch
            device_free_at = _serve_tick(
                session, tick, refs_per_tick, fetch_time, device_free_at,
                pool, result,
            )
            if session.done:
                finished.append(session)
        for session in finished:
            for page in session.view.resident_pages():
                session.view.release(page)
            pool.unregister_view(session.view)
            committed -= session.spec.quota
            result.completed += 1
            active.remove(session)

        result.max_active = max(result.max_active, len(active))
        result.max_queue_depth = max(result.max_queue_depth, len(queue))
        tick += 1
        if tick >= horizon and not active and not queue and not pending:
            break
        if tick > deadline:
            raise RuntimeError(
                f"traffic point {spec['point']!r} failed to drain within "
                f"{deadline} ticks ({len(active)} sessions still active)"
            )

    result.ticks = tick
    stats = pool.stats
    result.shares = stats.shares
    result.dedup_hits = stats.dedup_hits
    result.cow_breaks = stats.cow_breaks
    _record_telemetry(telemetry, result)
    return result


def _serve_tick(
    session: ActiveSession,
    tick: int,
    refs_per_tick: int,
    fetch_time: int,
    device_free_at: int,
    pool,
    result: TrafficPointResult,
) -> int:
    """Advance one session up to ``refs_per_tick`` references or its
    first hard fetch; returns the updated device clock."""
    view = session.view
    policy = session.policy
    served = 0
    while served < refs_per_tick and not session.done:
        position = session.position
        page = session.trace[position]
        write = session.writes[position]
        if page in view:
            if write:
                try:
                    view.note_write(page)
                except OutOfMemory:
                    if _retry_self_evicting(
                        session, view.note_write, page, position, result
                    ) is _STALLED:
                        break   # stalled: retry this reference next tick
            policy.on_access(page, position, modified=write)
            session.position += 1
            served += 1
            result.refs += 1
            continue
        # A fault against this session's view.
        if view.is_full():
            victim = policy.choose_victim(view.resident_pages(), position)
            view.release(victim)
            policy.on_evict(victim)
            result.evictions += 1
        try:
            detail = view.acquire_detail(page)
        except OutOfMemory:
            detail = _retry_self_evicting(
                session, view.acquire_detail, page, position, result
            )
            if detail is _STALLED:
                break   # stalled: retry this reference next tick
        hit = detail[1]
        policy.on_load(page, position, modified=write)
        session.position += 1
        served += 1
        result.refs += 1
        result.faults += 1
        session.faults += 1
        if hit is None:
            # Hard fetch: serialize on the backing device.  The wait is
            # the queueing delay plus the transfer — the open system's
            # tail under load — and the session *blocks* until the
            # device delivers, so a saturated device slows its tenants
            # (closed-loop backpressure) instead of queueing unboundedly.
            now = tick * refs_per_tick + served
            start = max(now, device_free_at)
            done_at = start + fetch_time
            device_free_at = done_at
            result.fault_wait.observe(done_at - now)
            result.fetches += 1
            session.fetches += 1
            session.blocked_until = -(-done_at // refs_per_tick)
            break   # the fetch consumes the rest of this tick
    return device_free_at


#: Sentinel ``_retry_self_evicting`` returns when the session must stall
#: (distinct from every value the retried call can return, including None).
_STALLED = object()


def _retry_self_evicting(
    session: ActiveSession,
    attempt: Callable,
    page,
    position: int,
    result: TrafficPointResult,
):
    """Retry ``attempt(page)`` after an ``OutOfMemory``, self-evicting
    the session's other resident pages until the pool yields a frame.

    Under overcommit every frame can be pinned when a session faults
    (``attempt`` is ``view.acquire_detail``) or breaks copy-on-write on
    a shared page it writes (``view.note_write``).  Releasing one of the
    session's own pages does not always free a frame — a victim mapping
    shared content still pinned by other tenants only drops a
    refcount — so the loop runs until ``attempt`` succeeds, returning
    its value.  ``page`` is never a victim: a faulting page is not
    resident yet, and a written page must stay mapped to break.  When
    no other page is left, the session stalls: the stall is counted
    and :data:`_STALLED` returned, and the session retries the same
    reference next tick, by which time some other session has
    completed and released (if *every* session stripped itself bare,
    all refcounts would be zero and an acquire could not fail — so
    global progress is guaranteed).
    """
    view = session.view
    policy = session.policy
    while True:
        others = [p for p in view.resident_pages() if p != page]
        if not others:
            result.stalls += 1
            return _STALLED
        victim = policy.choose_victim(others, position)
        view.release(victim)
        policy.on_evict(victim)
        result.evictions += 1
        result.self_evictions += 1
        try:
            return attempt(page)
        except OutOfMemory:
            continue
