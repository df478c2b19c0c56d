"""The open-arrival service loop and the traffic campaign runner.

``simulate_traffic`` runs one *point* of the offered-load axis: a
seeded arrival stream of lightweight session specs flows through an
:class:`~repro.traffic.admission.AdmissionController` into a
:class:`~repro.serve.pool.SharedFramePool`; admitted sessions replay
their reference streams in round-robin ticks, paying for hard fetches
on a serialized backing device.  The headline outputs are
*distributions under load* — queue wait and fault wait as
:class:`~repro.observe.telemetry.sketch.LogHistogram` sketches — not
means, following the finite-size-scaling view (PAPERS.md): an open
system's story is its tail.

Virtual time and determinism
----------------------------
The clock is a tick counter; each tick a session serves up to
``refs_per_tick`` references or until its first hard fetch.  Hard
fetches serialize on one device clock (``device_free_at``): the fetch
wait is the device queueing delay plus ``fetch_time``, all integer
cycles, so the wait histograms — and every other field except
``wall_s`` / ``refs_per_s`` — are pure functions of the point spec.
``run_campaign`` runs points on the sweep engine's coordinator, so any
worker count, any completion order, and a ``--resume`` restart all
yield bit-identical deterministic records.

Overcommit and progress
-----------------------
With ``overcommit > 1`` the quota ledger can promise more than the
pool holds, so an acquire can find every frame pinned.  The engine
then *self-evicts*: the faulting session gives up one of its own
resident pages and retries, which guarantees global progress (some
registered view always holds a pinned frame).  A session with nothing
left to give stalls one tick and retries — counted, never fatal.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from random import Random
from typing import Callable, Iterable

from repro.errors import InvariantViolation
from repro.observe.telemetry.registry import TelemetryRegistry
from repro.observe.telemetry.sketch import LogHistogram
from repro.paging.replacement import make_policy
from repro.serve.pool import REFUSED
from repro.serve.tenant import SHARED
from repro.sweep.engine import CampaignResult, coordinate
from repro.sweep.grid import SCHEMA, derive_seed
from repro.sweep.shard import run_safely
from repro.traffic.admission import (
    ADMIT,
    QUEUE_QUOTA,
    QUEUE_WATERMARK,
    SHED_OVERSIZE,
    AdmissionController,
)
from repro.traffic.arrivals import ARRIVAL_PROCESSES, make_arrivals
from repro.traffic.queueing import DRAIN_POLICIES, make_drain_policy
from repro.traffic.session import ActiveSession, SessionSpec, trace_length

#: Record schema version written into every traffic results line: the
#: campaign checkpoint schema, since ``repro.sweep.engine.read_results``
#: reads traffic results files too.
TRAFFIC_SCHEMA = SCHEMA

#: Hard cap on the drain phase after the arrival horizon closes, as a
#: multiple of the horizon — a runaway-loop backstop, far above any
#: configuration the tests run.
DRAIN_TICKS_FACTOR = 64

#: The two per-point size classes: ``quick`` finishes a 3-load campaign
#: in seconds.
POINT_SIZES: dict[str, dict] = {
    "quick": dict(
        pool_frames=48, quotas=(4, 6, 8), pages=64, session_length=96,
        shared_pages=16, write_fraction=0.1, refs_per_tick=8,
        fetch_time=2, horizon=300, watermark=0.0625, overcommit=1.25,
        max_queue=256,
    ),
    "full": dict(
        pool_frames=192, quotas=(6, 8, 12), pages=256, session_length=600,
        shared_pages=64, write_fraction=0.1, refs_per_tick=16,
        fetch_time=2, horizon=1500, watermark=0.0625, overcommit=1.25,
        max_queue=1024,
    ),
}

#: Offered-load axis when none is given: below, at, and above the
#: calibrated service capacity (the acceptance floor is three points).
DEFAULT_LOADS = (0.5, 1.0, 1.5)


@dataclass(slots=True)
class TrafficPointResult:
    """Everything one simulated point measured (deterministic)."""

    arrivals: int = 0
    admitted: int = 0
    shed_oversize: int = 0
    shed_overflow: int = 0
    shed_drain: int = 0
    """Queue remnants shed when the arrival horizon closed."""
    completed: int = 0
    materialized: int = 0
    refs: int = 0
    faults: int = 0
    fetches: int = 0
    shares: int = 0
    dedup_hits: int = 0
    cow_breaks: int = 0
    evictions: int = 0
    stalls: int = 0
    queued_watermark: int = 0
    """Refusal decisions charged to the watermark (one per offer)."""
    queued_quota: int = 0
    ticks: int = 0
    max_active: int = 0
    max_queue_depth: int = 0
    queue_wait: LogHistogram = field(default_factory=LogHistogram)
    """Admission delay per admitted session, in ticks."""
    fault_wait: LogHistogram = field(default_factory=LogHistogram)
    """Device wait per hard fetch (queueing delay + fetch time), cycles."""

    @property
    def shed(self) -> int:
        return self.shed_oversize + self.shed_overflow + self.shed_drain


def point_id(spec: dict) -> str:
    """The stable point identifier (axis values only; keys resume)."""
    return (
        f"arrivals={spec['arrivals']}/policy={spec['policy']}/"
        f"replacement={spec['replacement']}/offered={spec['offered']}/"
        f"seed={spec['seed']}"
    )


def build_points(
    loads: Iterable[float] = DEFAULT_LOADS,
    arrivals: str = "poisson",
    policy: str = "fcfs",
    replacement: str = "lru",
    seeds: Iterable[int] = (0,),
    quick: bool = True,
    base_seed: int = 1967,
    name: str = "traffic",
    trace_file: str | None = None,
    **overrides,
) -> list[dict]:
    """Expand the offered-load axis into picklable point specs.

    The arrival rate is calibrated so ``offered = 1.0`` sits at the
    system's estimated service capacity — the *lesser* of its two
    resources.  The pool sustains ``pool_frames / mean(quota)``
    concurrent sessions, each resident at least ``session_length /
    refs_per_tick`` ticks; the backing device sustains
    ``refs_per_tick / fetch_time`` fetches per tick against an
    estimated ``mean(quota)`` cold fetches per phase of the phased
    trace.  Whichever rate is lower is the knee the offered-load axis
    multiplies, so 0.5 / 1.0 / 1.5 land below, at, and above
    saturation.  ``overrides`` replace any sizing field
    (``pool_frames``, ``horizon``, ``watermark``, ...).

    ``loads`` and ``seeds`` may be any iterables, one-shot ones
    included: each is read once.

    Raises ``ValueError`` for anything that would fail every point in
    its worker, or never finish: an unknown axis value, a load that is
    not finite and positive, sizing a session or the admission
    controller cannot run (see :func:`_check_sizing`), or a replacement
    policy that sessions cannot build (an unknown name, or ``opt``,
    which needs the trace).
    """
    loads, seeds = tuple(loads), tuple(seeds)
    if arrivals not in ARRIVAL_PROCESSES:
        known = ", ".join(sorted(ARRIVAL_PROCESSES))
        raise ValueError(
            f"unknown arrival process {arrivals!r}; choose from {known}"
        )
    if policy not in DRAIN_POLICIES:
        known = ", ".join(sorted(DRAIN_POLICIES))
        raise ValueError(f"unknown drain policy {policy!r}; choose from {known}")
    sizing = dict(POINT_SIZES["quick" if quick else "full"])
    unknown = set(overrides) - set(sizing)
    if unknown:
        raise ValueError(f"unknown sizing overrides: {sorted(unknown)}")
    sizing.update(overrides)
    _check_sizing(sizing, synthetic=trace_file is None)
    try:
        make_policy(replacement)   # sessions build theirs the same way
    except TypeError:
        raise ValueError(
            f"replacement policy {replacement!r} needs the whole trace "
            "up front; traffic sessions cannot run it"
        ) from None
    quotas = tuple(sizing["quotas"])
    mean_quota = sum(quotas) / len(quotas)
    capacity = sizing["pool_frames"] / mean_quota
    length = sizing["session_length"]
    refs_per_tick = sizing["refs_per_tick"]
    duration = max(1.0, length / refs_per_tick)
    pool_rate = capacity / duration
    # The device-side capacity: each session cold-faults roughly its
    # quota once per trace phase, and the device retires
    # refs_per_tick / fetch_time fetches per tick.
    phase_length = max(16, length // 4)
    phases = -(-length // phase_length)
    fetches_per_session = max(1.0, mean_quota * phases)
    device_rate = (
        refs_per_tick / sizing["fetch_time"] / fetches_per_session
        if sizing["fetch_time"] > 0 else pool_rate
    )
    service_rate = min(pool_rate, device_rate)
    trace_refs = trace_length(trace_file) if trace_file else None
    points = []
    for offered in loads:
        if not 0 < offered < math.inf:
            raise ValueError(
                f"offered load must be finite and positive, got {offered}"
            )
        for seed in seeds:
            spec = {
                "schema": TRAFFIC_SCHEMA,
                "campaign": name,
                "arrivals": arrivals,
                "policy": policy,
                "replacement": replacement,
                "offered": offered,
                "seed": seed,
                "base_seed": base_seed,
                "rate": offered * service_rate,
                "trace_file": trace_file,
                "trace_refs": trace_refs,
                **{key: (tuple(value) if isinstance(value, (list, tuple))
                         else value)
                   for key, value in sizing.items()},
            }
            spec["quotas"] = list(quotas)
            spec["point"] = point_id(spec)
            points.append(spec)
    return points


def _check_sizing(sizing: dict, synthetic: bool) -> None:
    """Raise ``ValueError`` naming the first sizing field every point
    would fail on.

    Counts are integers: frames, pages, quotas and references per tick
    index things, ``horizon`` counts ticks, and ``fetch_time`` is whole
    device cycles, which keeps every wait an integer.  ``pages`` matters
    only to ``synthetic`` (generated, not file-backed) traces.  The
    admission controller checks ``watermark`` and ``overcommit``
    itself.
    """

    def require(field: str, ok: bool, rule: str) -> None:
        if not ok:
            raise ValueError(f"{field} must be {rule}, got {sizing[field]!r}")

    def integer(value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    def count(field: str, least: int, rule: str) -> None:
        require(field, integer(sizing[field]), "an integer")
        require(field, sizing[field] >= least, rule)

    count("pool_frames", 1, "positive")
    count("horizon", 1, "positive")
    count("refs_per_tick", 1, "positive")
    quotas = sizing["quotas"]
    require("quotas", len(quotas) > 0 and all(
        integer(quota) and quota > 0 for quota in quotas
    ), "a non-empty sequence of positive integers")
    # Sessions draw their lengths from max(8, L // 2) to 3L // 2.
    count("session_length", 6, "at least 6")
    count("fetch_time", 0, "non-negative")
    if synthetic:
        # A generated session's working set is at least two pages.
        count("pages", 2, "at least 2")
    count("shared_pages", 0, "non-negative")
    require("write_fraction", 0.0 <= sizing["write_fraction"] <= 1.0,
            "in [0, 1]")
    AdmissionController(
        sizing["pool_frames"],
        watermark=sizing["watermark"],
        overcommit=sizing["overcommit"],
    )


def generate_sessions(spec: dict) -> list[SessionSpec]:
    """The point's arrival stream as spec-only sessions, in tick order.

    Per-session variation (length jitter, quota rotation, trace-window
    placement) draws from one rng seeded by the point id, and each
    session's trace seed is derived independently — so the stream is a
    pure function of the point spec.
    """
    pid = spec["point"]
    base = spec["base_seed"] + spec["seed"]
    ticks = make_arrivals(
        spec["arrivals"], rate=spec["rate"], horizon=spec["horizon"],
        seed=derive_seed(base, pid, "arrivals"),
    )
    rng = Random(derive_seed(base, pid, "sessions"))
    quotas = tuple(spec["quotas"])
    mean_length = spec["session_length"]
    trace_refs = spec.get("trace_refs")
    sessions = []
    for sid, arrival in enumerate(ticks):
        length = rng.randint(max(8, mean_length // 2), mean_length * 3 // 2)
        offset = 0
        if trace_refs:
            length = min(length, trace_refs)
            offset = rng.randrange(max(1, trace_refs - length + 1))
        sessions.append(SessionSpec(
            sid=sid,
            arrival=arrival,
            quota=quotas[sid % len(quotas)],
            pages=spec["pages"],
            length=length,
            shared_pages=spec["shared_pages"],
            write_fraction=spec["write_fraction"],
            seed=derive_seed(base, pid, f"trace.{sid}"),
            trace_file=spec.get("trace_file"),
            trace_offset=offset,
        ))
    return sessions


def simulate_traffic(
    spec: dict,
    telemetry: TelemetryRegistry | None = None,
    *,
    checked: bool = False,
) -> TrafficPointResult:
    """Run one offered-load point; returns the measured result.

    With a ``telemetry`` registry the finished counts land under
    ``traffic.*`` counters/gauges and the wait sketches merge into the
    ``traffic.queue_wait`` / ``traffic.fault_wait`` histograms — all
    after the run, so telemetry changes no simulation bits.

    ``checked=True`` audits the pool and every live session's view with
    the invariant suite (refcount conservation included) before every
    64th pool event — a fault, a write hit or a session's completion —
    and once after the drain, when the pool must count no references.
    A violation raises ``InvariantViolation``; a clean run's result is
    the unchecked one.
    """
    from repro.serve.pool import SharedFramePool

    pool = SharedFramePool(spec["pool_frames"])
    audit = _Audit(pool) if checked else None
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

    result = TrafficPointResult()
    waits: dict[int, int] = {}   # every session's fetch waits: wait -> count
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
                    session.audit = audit
                    session.waits = waits
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
            if audit is not None:
                audit()
            view = session.view
            # Load order, as the view reports it: freed order decides
            # which cached content later claims reclaim.
            for page in view.resident_pages():
                pool.release(view, page)
            pool.unregister_view(view)
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

    if audit is not None:
        audit.drained()
    result.ticks = tick
    stats = pool.stats
    result.shares = stats.shares
    result.dedup_hits = stats.dedup_hits
    result.cow_breaks = stats.cow_breaks
    # Waits are whole cycles, so folding the tally is bit-identical to
    # observing each fetch's wait as it happened.
    for wait, count in waits.items():
        result.fault_wait.observe_repeated(wait, count)
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
    first hard fetch; returns the updated device clock.

    The session's resident dict answers every residency question.  A
    hit on an LRU session moves its page to the end of the dict, a hit
    on a FIFO session moves nothing, and any other policy hears
    ``on_access``; :func:`_evict` names victims the same way.  A fault
    on a full LRU or FIFO view evicts the dict's first key here: the
    faulting page is not resident, so that is the victim :func:`_evict`
    would pick.  Faults, evictions and copy-on-write breaks reach the
    pool in one call each, ``pool.acquire``, ``pool.release`` and
    ``pool.cow_break``; a full pool answers a fault or a break
    :data:`~repro.serve.pool.REFUSED`, and :func:`_evict` retries it.
    A write hit reaches ``pool.cow_break`` only while the page's cached
    key is shared: a private key breaks nothing.  Each hard fetch's wait
    is counted in ``session.waits`` (wait -> count), which the engine
    folds into ``result.fault_wait``.
    """
    view = session.view
    keys = view._keys
    acquire, release, cow_break = pool.acquire, pool.release, pool.cow_break
    refused = REFUSED
    resident = session.resident
    trace = session.trace
    writes = session.writes
    policy = None if session.kernel else session.policy
    recency = session.recency
    audit = session.audit
    quota = view.quota
    start = position = session.position
    end = min(start + refs_per_tick, len(trace))
    faults = 0
    for position in range(start, end):
        page = trace[position]
        write = writes[position]
        if page in resident:
            if write:
                if audit is not None:
                    audit()
                # Sessions key pages by the default rule, so a key is a
                # tuple whose first element is SHARED exactly when it
                # names shared content (no tenant may be named that).
                if (keys[page][0] == SHARED
                        and cow_break(view, page) is refused
                        and _evict(session, page, position, result,
                                   partial(cow_break, view)) is _STALLED):
                    break   # stalled: retry this reference next tick
            if recency:
                del resident[page]
                resident[page] = None
            elif policy is not None:
                policy.on_access(page, position, modified=write)
            continue
        # A fault against this session's view.
        if audit is not None:
            audit()
        if len(resident) >= quota:
            if policy is None:
                victim = next(iter(resident))
                release(view, victim)
                del resident[victim]
                result.evictions += 1
            else:
                _evict(session, page, position, result)
        detail = acquire(view, page)
        if detail is refused:
            detail = _evict(session, page, position, result,
                            partial(acquire, view))
            if detail is _STALLED:
                break   # stalled: retry this reference next tick
        resident[page] = None
        if policy is not None:
            policy.on_load(page, position, modified=write)
        faults += 1
        if detail[1] is None:
            # Hard fetch: serialize on the backing device.  The wait is
            # the queueing delay plus the transfer — the open system's
            # tail under load — and the session *blocks* until the
            # device delivers, so a saturated device slows its tenants
            # (closed-loop backpressure) instead of queueing unboundedly.
            position += 1
            now = tick * refs_per_tick + position - start
            begin = max(now, device_free_at)
            done_at = begin + fetch_time
            device_free_at = done_at
            tally = session.waits
            wait = done_at - now
            tally[wait] = tally.get(wait, 0) + 1
            result.fetches += 1
            session.fetches += 1
            session.blocked_until = -(-done_at // refs_per_tick)
            break   # the fetch consumes the rest of this tick
    else:
        position = end
    session.position = position
    result.refs += position - start
    result.faults += faults
    session.faults += faults
    return device_free_at


#: Sentinel ``_evict`` returns when the session must stall (distinct
#: from every value the retried call can return, including None).
_STALLED = object()


def _evict(
    session: ActiveSession,
    page,
    position: int,
    result: TrafficPointResult,
    attempt: Callable | None = None,
):
    """Release the session's next victim other than ``page``.

    A kernel session's victim is the first key of its resident dict that
    is not ``page``: the least ``last_use`` (LRU) or ``loaded_at``
    (FIFO) among the candidates, since those stamps are distinct
    positions.  Any other session asks ``policy.choose_victim`` over
    the same candidates, in load order.  ``page`` is never a victim: a
    faulting page is not resident yet, and a written page must stay
    mapped to break.

    Without ``attempt`` one victim is released: a fault on a full view.
    With it, ``attempt(page)`` has just answered
    :data:`~repro.serve.pool.REFUSED`.  Under overcommit every frame
    can be pinned when a session faults (``attempt`` is ``pool.acquire``
    bound to the view) or breaks copy-on-write on a shared page it
    writes (``pool.cow_break`` bound to the view; a refused break
    leaves the page's key shared, so a retry breaks or is refused
    again).  Releasing one of the session's own pages does not always
    free a frame — a victim mapping shared content still pinned by
    other tenants only drops a refcount — so victims go until
    ``attempt`` succeeds, and its value is returned.  When no other page is left, the session stalls: the
    stall is counted and :data:`_STALLED` returned, and the session
    retries the same reference next tick, by which time some other
    session has completed and released (if *every* session stripped
    itself bare, all refcounts would be zero and an acquire could not
    fail — so global progress is guaranteed).
    """
    view = session.view
    release = view.pool.release
    resident = session.resident
    policy = None if session.kernel else session.policy
    while True:
        if policy is None:
            for victim in resident:
                if victim != page:
                    break
            else:
                result.stalls += 1
                return _STALLED
        else:
            others = [other for other in resident if other != page]
            if not others:
                result.stalls += 1
                return _STALLED
            victim = policy.choose_victim(others, position)
        release(view, victim)
        del resident[victim]
        if policy is not None:
            policy.on_evict(victim)
        result.evictions += 1
        if attempt is None:
            return None
        outcome = attempt(page)
        if outcome is not REFUSED:
            return outcome


class _Audit:
    """Checked mode's hook: ``audit()`` counts one pool event and runs
    the invariant suite over the pool and its registered views — the
    live sessions' — before every 64th; ``drained()`` is the last
    audit."""

    __slots__ = ("pool", "suite", "events")

    def __init__(self, pool) -> None:
        from repro.check.invariants import InvariantSuite

        self.pool = pool
        self.suite = InvariantSuite()
        self.events = 0

    def __call__(self) -> None:
        if self.events % 64 == 0:
            self.suite.check_all([self.pool, *self.pool.views])
        self.events += 1

    def drained(self) -> None:
        """Every session has released its pages and left the ledger, so
        no tenant view holds a reference the pool may still count."""
        pool = self.pool
        self.suite.check_all([pool, *pool.views])
        if pool.ref_total:
            raise InvariantViolation(
                "refcount_conservation",
                f"drained pool still counts {pool.ref_total} references",
                pool,
            )


def _record_telemetry(
    telemetry: TelemetryRegistry | None, result: TrafficPointResult
) -> None:
    if telemetry is None or not telemetry.enabled:
        return
    for name in ("arrivals", "admitted", "completed", "shed", "refs",
                 "faults", "fetches", "shares", "dedup_hits", "cow_breaks",
                 "evictions", "stalls", "queued_watermark", "queued_quota"):
        telemetry.counter(f"traffic.{name}").increment(getattr(result, name))
    for name in ("max_active", "max_queue_depth"):
        gauge = telemetry.gauge(f"traffic.{name}")
        gauge.set(max(gauge.value, getattr(result, name)))
    telemetry.histogram("traffic.queue_wait", unit="ticks").merge(
        result.queue_wait)
    telemetry.histogram("traffic.fault_wait", unit="cycles").merge(
        result.fault_wait)


def wait_quantile(sketch: LogHistogram, q: float) -> float:
    """Quantile ``q`` of a wait sketch as records carry it: rounded to
    six places, or 0.0 when the sketch is empty."""
    return round(sketch.quantile(q), 6) if sketch.count else 0.0


def run_traffic_point(spec: dict) -> dict:
    """Execute one point spec; returns the flat checkpoint record."""
    started = time.perf_counter()
    telemetry = TelemetryRegistry(enabled=bool(spec.get("telemetry", True)))
    result = simulate_traffic(spec, telemetry=telemetry)
    record = {
        "schema": TRAFFIC_SCHEMA,
        "campaign": spec["campaign"],
        "point": spec["point"],
        "arrivals_kind": spec["arrivals"],
        "policy": spec["policy"],
        "replacement": spec["replacement"],
        "offered": spec["offered"],
        "seed": spec["seed"],
        "pool_frames": spec["pool_frames"],
        "horizon": spec["horizon"],
        "arrivals": result.arrivals,
        "admitted": result.admitted,
        "shed": result.shed,
        "shed_oversize": result.shed_oversize,
        "shed_overflow": result.shed_overflow,
        "shed_drain": result.shed_drain,
        "completed": result.completed,
        "refs": result.refs,
        "faults": result.faults,
        "fetches": result.fetches,
        "shares": result.shares,
        "dedup_hits": result.dedup_hits,
        "cow_breaks": result.cow_breaks,
        "evictions": result.evictions,
        "stalls": result.stalls,
        "queued_watermark": result.queued_watermark,
        "queued_quota": result.queued_quota,
        "ticks": result.ticks,
        "max_active": result.max_active,
        "max_queue_depth": result.max_queue_depth,
        "queue_wait_p50": wait_quantile(result.queue_wait, 0.50),
        "queue_wait_p99": wait_quantile(result.queue_wait, 0.99),
        "fault_wait_p50": wait_quantile(result.fault_wait, 0.50),
        "fault_wait_p99": wait_quantile(result.fault_wait, 0.99),
    }
    if telemetry.enabled:
        record["telemetry"] = telemetry.snapshot()
    wall = time.perf_counter() - started
    record["wall_s"] = round(wall, 4)
    record["refs_per_s"] = round(result.refs / wall) if wall else None
    return record


def run_point_safely(spec: dict) -> dict:
    """``run_traffic_point`` behind the shared worker boundary.

    Failures come back as ``{"point", "error"}`` records, and the
    ``inject_exit_once`` / ``inject_exit`` seams of
    :func:`repro.sweep.shard.run_safely` apply to point specs too.
    """
    return run_safely(run_traffic_point, spec, key="point")


def run_campaign(
    points: list[dict],
    workers: int = 1,
    results_path: str | Path | None = None,
    resume: bool = False,
    progress: Callable[[int, int, dict], None] | None = None,
) -> CampaignResult:
    """Execute ``points`` on the sweep coordinator.

    The loop is :func:`repro.sweep.engine.coordinate`, keyed by
    ``point`` and named by ``campaign``, so everything
    :func:`~repro.sweep.engine.run_sweep` documents holds here: the
    results file is append-only JSONL written one ``os.write`` per
    record, ``resume=True`` skips points already recorded for the same
    campaign name, a worker that dies hard is retried on a fresh pool
    instead of hanging the campaign, and a heartbeat at
    ``<results_path>.telemetry.json`` lands at most once per 250 ms
    while points land, at once when a point fails, and always at the
    end, in a ``finished`` or ``aborted`` state.  Merged telemetry
    folds resumed records in, so campaign totals are independent of
    how many runs it took — and of ``workers``.
    """
    return coordinate(
        points,
        points[0]["campaign"] if points else None,
        key="point",
        name_field="campaign",
        runner=run_point_safely,
        workers=workers,
        results_path=results_path,
        resume=resume,
        progress=progress,
    )


__all__ = [
    "DEFAULT_LOADS",
    "POINT_SIZES",
    "TRAFFIC_SCHEMA",
    "TrafficPointResult",
    "build_points",
    "generate_sessions",
    "point_id",
    "run_campaign",
    "run_point_safely",
    "run_traffic_point",
    "simulate_traffic",
    "wait_quantile",
]
