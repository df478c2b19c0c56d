"""The shared frame pool: refcounted frames, content dedup, CoW breaks.

One physical pool of page frames serving many address spaces.  Frames
are keyed by *content identity* — a hashable content key such as
``("shared", page)`` for a page every tenant maps, ``(tenant, page)``
for a private one, or a symbolic segment name — and carry refcounts:

- ``acquire(key)`` returns a frame holding that content.  If the
  content is already resident (another tenant holds it) the refcount
  grows — a *share*, no frame consumed, no fetch owed.  If it sits in
  the freed-dedup pool (zero refs, still cached) the frame is revived —
  a *dedup hit*, again no fetch owed.  Otherwise a frame is taken from
  the free list, or reclaimed from the content freed longest ago.
- ``release(key)`` drops one reference.  At zero the frame is not
  wiped: it joins the freed-dedup pool, where identical content can
  revive it until pressure reclaims it.
- ``cow_break(shared_key, private_key)`` re-homes a writer: one
  reference moves from the shared content to a fresh private frame
  (copy-on-write: shared until first write).

The pool alone keeps the serving ledger: the free list, the frame and
owner maps, and two dicts — ``_refs`` (content key → reference count,
deleted at zero) and ``_cached`` (zero-reference key → frame, in freed
order, the freed-dedup pool).  The key-level operations pin through one
claim path and drop through one unpin path.

A registered :class:`~repro.serve.tenant.TenantView` faults and
releases its pages through two view-level entries, each one call:

- ``acquire_page(view, page)`` resolves the page's content key through
  the view's key cache, pins it as ``acquire`` would, and maps the page
  in the view.  When every frame is pinned it answers ``None`` instead
  of raising, so a driver that self-evicts retries without an
  exception.
- ``release_page(view, page)`` unmaps the page and drops its reference
  as ``release`` would.

They carry their own copy of the claim and unpin rules because the
fault path is the serving tier's hot loop; ``tests/test_view_differential.py``
pins them, op by op, to the view and pool they replaced.

The lifecycle, the accounting rules, and the eviction policy are the
documented serving contract — ``docs/SERVING.md``.  The refcount-
conservation invariant (:class:`repro.check.invariants.RefCountConservation`)
recomputes the whole ledger from the outside: in-use + cached + free
frames partition the pool, and every registered tenant view's residency
sums to exactly the refcount total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from repro.alloc.base import check_int
from repro.errors import OutOfMemory
from repro.observe.events import CoWBreak, DedupHit, Share
from repro.observe.telemetry.registry import TelemetryRegistry
from repro.observe.tracer import Tracer, as_tracer

if TYPE_CHECKING:
    from repro.serve.tenant import TenantView

#: One acquire in this many carries the wall-clock span (power of two —
#: the sample test is a mask).  Sampling keeps pool instrumentation
#: inside the ≤2% overhead contract on a microsecond-scale operation.
ACQUIRE_SPAN_SAMPLE = 256

#: CoW-break span sampling: breaks are ~30× rarer than acquires, so a
#: lighter rate keeps the sketch populated at the same overhead.
COW_SPAN_SAMPLE = 32


@dataclass(slots=True)
class ServeStats:
    """Counters a shared pool accumulates (see ``absorb_serve_stats``)."""

    acquires: int = 0
    shares: int = 0
    """Acquires satisfied by a frame other references already pin."""
    dedup_hits: int = 0
    """Acquires satisfied by reviving a zero-ref cached frame."""
    cow_breaks: int = 0
    releases: int = 0
    reclaims: int = 0
    """Zero-ref cached frames reclaimed by allocation pressure."""

    @property
    def hits(self) -> int:
        """Acquires that owed no fetch: shares plus dedup revivals."""
        return self.shares + self.dedup_hits

    @property
    def dedup_ratio(self) -> float:
        """Fraction of acquires that consumed no new frame."""
        return self.hits / self.acquires if self.acquires else 0.0


class SharedFramePool:
    """A refcounted, content-addressed pool of page frames.

    Parameters
    ----------
    frame_count:
        Physical frames in the pool.
    tracer:
        Optional :class:`~repro.observe.tracer.Tracer` receiving
        ``Share`` / ``DedupHit`` / ``CoWBreak`` events.  Event times are
        the pool's running operation count — the pool keeps no clock,
        like the mappers.
    telemetry:
        Optional :class:`~repro.observe.telemetry.TelemetryRegistry`.
        ``acquire`` and ``acquire_page`` run under the wall-clock span
        ``serve.acquire_seconds``, ``cow_break`` under
        ``serve.cow_break_seconds``, and
        the ``serve.resident_frames`` gauge tracks pinned frames —
        attach-path instrumentation only; hits inside a tenant's own
        view never reach the pool.  An acquire takes single-digit
        microseconds, so timing every one would cost more than the
        operation: the acquire span samples 1 in
        :data:`ACQUIRE_SPAN_SAMPLE` calls (count-based, so which calls
        are sampled is deterministic), keeping the overhead contract
        while the sketch still sees thousands of brackets per campaign;
        the CoW span samples 1 in :data:`COW_SPAN_SAMPLE`.

    >>> pool = SharedFramePool(4)
    >>> frame, hit = pool.acquire(("shared", 7))
    >>> hit is None   # a miss: the caller owes a fetch
    True
    >>> pool.acquire(("shared", 7))[1]   # second tenant: a share
    'share'
    >>> pool.ref_count(("shared", 7))
    2
    """

    def __init__(
        self,
        frame_count: int,
        tracer: Tracer | None = None,
        telemetry: TelemetryRegistry | None = None,
    ) -> None:
        check_int(frame_count, "frame_count")
        if frame_count <= 0:
            raise ValueError(f"frame_count must be positive, got {frame_count}")
        self._owners: list[Hashable | None] = [None] * frame_count
        self._frame_of: dict[Hashable, int] = {}
        self._free: list[int] = list(range(frame_count - 1, -1, -1))
        # Content key -> reference count.  A count never stays at zero:
        # the key is deleted, so _refs holds exactly the pinned content.
        self._refs: dict[Hashable, int] = {}
        # The freed-dedup pool: zero-reference key -> the frame still
        # holding its content.  Insertion order is freed order, so the
        # first key is the one freed longest ago, the next to reclaim.
        self._cached: dict[Hashable, int] = {}
        self._views: list["TenantView"] = []
        self._ops = 0
        self.now: int | None = None
        """Optional externally-driven event timestamp.  A driver with a
        real notion of time (the shared replay's reference index) sets
        this before each step; left ``None``, events carry the pool's
        running operation count, like the mappers."""
        self.tracer = as_tracer(tracer)
        self.stats = ServeStats()
        if telemetry is not None and telemetry.enabled:
            self._acquire_span = telemetry.span("serve.acquire_seconds")
            self._cow_span = telemetry.span("serve.cow_break_seconds")
            self._resident_gauge = telemetry.gauge("serve.resident_frames")
        else:
            self._acquire_span = None
            self._cow_span = None
            self._resident_gauge = None

    def _time(self) -> int:
        return self._ops if self.now is None else self.now

    # -- capacity ----------------------------------------------------------

    @property
    def frame_count(self) -> int:
        return len(self._owners)

    @property
    def free_count(self) -> int:
        """Frames holding nothing at all (not even cached content)."""
        return len(self._free)

    @property
    def cached_count(self) -> int:
        """Zero-ref frames still caching content (the freed-dedup pool)."""
        return len(self._cached)

    @property
    def resident_count(self) -> int:
        """Frames pinned by at least one reference."""
        return len(self._frame_of) - len(self._cached)

    @property
    def ref_total(self) -> int:
        """Sum of all refcounts — what tenant residencies must add to."""
        return sum(self._refs.values())

    # -- the serving operations --------------------------------------------

    def acquire(
        self, key: Hashable, program: str | None = None
    ) -> tuple[int, str | None]:
        """Pin one reference to ``key``'s content; returns ``(frame, hit)``.

        ``hit`` names how the acquire was satisfied without a fetch —
        ``"share"`` (content already pinned by other references) or
        ``"dedup"`` (a zero-ref cached frame revived by content
        identity) — or is ``None`` for a miss, in which case the caller
        owes a fetch into the returned frame before use.
        """
        span = self._acquire_span
        if span is None or self._ops & (ACQUIRE_SPAN_SAMPLE - 1):
            return self._acquire(key, program)
        with span:
            result = self._acquire(key, program)
        self._resident_gauge.set(self.resident_count)
        return result

    def _acquire(
        self, key: Hashable, program: str | None = None
    ) -> tuple[int, str | None]:
        self._ops += 1
        stats = self.stats
        stats.acquires += 1
        frame = self._frame_of.get(key)
        if frame is not None:
            if self._cached.pop(key, None) is not None:
                # Content-addressed revival: the frame was freed but the
                # bytes are still there.
                self._refs[key] = 1
                stats.dedup_hits += 1
                if self.tracer.enabled:
                    self.tracer.emit(DedupHit(
                        time=self._time(), unit=key, where=frame,
                        program=program,
                    ))
                return frame, "dedup"
            refs = self._refs[key] + 1
            self._refs[key] = refs
            stats.shares += 1
            if self.tracer.enabled:
                self.tracer.emit(Share(
                    time=self._time(), unit=key, where=frame, refs=refs,
                    program=program,
                ))
            return frame, "share"
        return self._claim_frame(key), None

    def acquire_page(
        self, view: "TenantView", page: Hashable
    ) -> tuple[int, str | None] | None:
        """Fault ``page`` into ``view``; returns ``(frame, hit)``, or
        ``None`` when every frame is pinned.

        One call does what ``view.acquire_detail(page)`` did through
        ``acquire``: the view's checks (the page already resident, the
        view at its quota, the content key cached on first resolution,
        one local page per key), then a share, a dedup revival, or a
        frame from the free list or reclaimed from the content freed
        longest ago.  Both statistics records move, and ``Share`` /
        ``DedupHit`` events name the view's tenant.  A refused attempt
        counts one operation and one pool acquire, keeps the cached
        key, and changes nothing else.  The acquire span samples these
        calls as it samples ``acquire``.
        """
        view_frames = view._frame_of
        if page in view_frames:
            raise ValueError(
                f"page {page!r} is already resident for tenant {view.tenant}"
            )
        if len(view_frames) >= view.quota:
            raise ValueError(
                f"tenant {view.tenant} is at its quota of {view.quota}"
            )
        keys = view._keys
        key = keys.get(page)
        if key is None:
            key = keys[page] = view._share_key(page)
        page_of_key = view._page_of_key
        if key in page_of_key:
            # Within one view page→key must be 1:1: a second page on one
            # key would overwrite the reverse map, and the first page's
            # release would then corrupt it.
            raise ValueError(
                f"content key {key!r} is already mapped by local page "
                f"{page_of_key[key]!r} in tenant {view.tenant}; "
                f"a share_key must map each tenant page to a distinct key"
            )
        span = self._acquire_span
        timed = span is not None and not self._ops & (ACQUIRE_SPAN_SAMPLE - 1)
        if timed:
            span.start()
        self._ops += 1
        stats = self.stats
        stats.acquires += 1
        tenant_stats = view.stats
        frame_of = self._frame_of
        frame = frame_of.get(key)
        if frame is None:
            # A miss: _claim_frame's rule, answering None, not raising.
            hit = None
            if self._free:
                frame = self._free.pop()
            else:
                cached = self._cached
                if not cached:
                    if timed:
                        span.stop()
                    return None
                victim = next(iter(cached))
                frame = cached.pop(victim)
                del frame_of[victim]
                stats.reclaims += 1
            self._owners[frame] = key
            frame_of[key] = frame
            self._refs[key] = 1
        elif self._cached.pop(key, None) is not None:
            self._refs[key] = 1
            stats.dedup_hits += 1
            tenant_stats.dedup_hits += 1
            hit = "dedup"
            if self.tracer.enabled:
                self.tracer.emit(DedupHit(
                    time=self._time(), unit=key, where=frame,
                    program=view.tenant,
                ))
        else:
            refs = self._refs[key] + 1
            self._refs[key] = refs
            stats.shares += 1
            tenant_stats.shares += 1
            hit = "share"
            if self.tracer.enabled:
                self.tracer.emit(Share(
                    time=self._time(), unit=key, where=frame, refs=refs,
                    program=view.tenant,
                ))
        view_frames[page] = frame
        page_of_key[key] = page
        tenant_stats.acquires += 1
        if timed:
            span.stop()
            self._resident_gauge.set(self.resident_count)
        return frame, hit

    def release_page(self, view: "TenantView", page: Hashable) -> int:
        """Unmap ``page`` from ``view`` and drop its reference; returns
        the frame.

        One call does what ``view.release(page)`` did through
        ``release``, with ``_unpin``'s rule: at zero references the
        frame is parked at the back of the freed-dedup pool.
        """
        try:
            frame = view._frame_of.pop(page)
        except KeyError:
            raise KeyError(
                f"page {page!r} is not resident for tenant {view.tenant}"
            ) from None
        key = view._keys[page]
        del view._page_of_key[key]
        self._ops += 1
        refs = self._refs
        count = refs.get(key, 0) - 1
        if count > 0:
            refs[key] = count
        elif count < 0:
            raise ValueError(f"refcount underflow: {key!r} has no references")
        else:
            del refs[key]
            if key in self._cached:
                raise ValueError(f"content {key!r} already cached")
            self._cached[key] = frame
        self.stats.releases += 1
        view.stats.releases += 1
        return frame

    def release(self, key: Hashable) -> int:
        """Drop one reference to ``key``; returns its frame.

        At zero references the frame enters the freed-dedup pool, still
        mapped under ``key`` — it stays revivable until reclaimed.
        """
        self._ops += 1
        frame = self._frame_of.get(key)
        if frame is None:
            raise KeyError(f"content {key!r} is not in the pool")
        self._unpin(key, frame)
        self.stats.releases += 1
        return frame

    def cow_break(
        self,
        shared_key: Hashable,
        private_key: Hashable,
        program: str | None = None,
    ) -> int:
        """Move one reference from shared content to a private copy.

        The writer must currently hold a reference to ``shared_key``.
        Returns the fresh private frame (its content is a copy of the
        shared frame — the simulation carries identity, not bytes).
        """
        span = self._cow_span
        if span is None or self._ops & (COW_SPAN_SAMPLE - 1):
            return self._cow_break(shared_key, private_key, program)
        with span:
            return self._cow_break(shared_key, private_key, program)

    def _cow_break(
        self,
        shared_key: Hashable,
        private_key: Hashable,
        program: str | None = None,
    ) -> int:
        source = self._frame_of.get(shared_key)
        if source is None or shared_key in self._cached:
            raise KeyError(f"content {shared_key!r} is not resident")
        if private_key in self._frame_of:
            raise ValueError(f"private content {private_key!r} already exists")
        self._ops += 1
        # The writer may have been the last holder: the "shared" frame
        # then becomes revivable cached content like any other.
        refs = self._unpin(shared_key, source)
        try:
            frame = self._claim_frame(private_key)
        except OutOfMemory:
            # Exception safety: a refused break must not happen at all.
            # Only the still-shared case can get here — a sole holder's
            # own frame just became reclaimable, so _claim_frame takes
            # that instead of raising — and its decrement is undone.
            self._refs[shared_key] += 1
            raise
        self.stats.cow_breaks += 1
        if self.tracer.enabled:
            self.tracer.emit(CoWBreak(
                time=self._time(), unit=shared_key, where=frame, source=source,
                refs=refs, program=program,
            ))
        return frame

    # -- the ledger ----------------------------------------------------------

    def _claim_frame(self, key: Hashable) -> int:
        """Pin ``key``'s first reference in a frame of its own.

        The frame comes off the free list, else from the cached content
        freed longest ago, which is unmapped and counted as a reclaim.
        """
        if self._free:
            frame = self._free.pop()
        else:
            cached = self._cached
            if not cached:
                raise self.out_of_frames(key)
            victim = next(iter(cached))
            frame = cached.pop(victim)
            del self._frame_of[victim]
            self.stats.reclaims += 1
        self._owners[frame] = key
        self._frame_of[key] = frame
        self._refs[key] = 1
        return frame

    def out_of_frames(self, key: Hashable) -> OutOfMemory:
        """The error a refused claim for ``key`` raises: every frame is
        pinned.  ``acquire_page`` answers ``None`` instead; a caller
        that must fail raises this."""
        return OutOfMemory(
            1, f"all {len(self._owners)} frames are pinned "
               f"(acquiring {key!r})"
        )

    def _unpin(self, key: Hashable, frame: int) -> int:
        """Drop one reference to ``key`` in ``frame``; returns the rest.

        A drop with no reference left raises: a double release, the
        classic refcount bug, must fail loudly at the site rather than
        corrupt the ledger.  At zero the count is deleted and the frame
        parked at the back of the freed-dedup pool.
        """
        refs = self._refs
        count = refs.get(key, 0) - 1
        if count > 0:
            refs[key] = count
            return count
        if count < 0:
            raise ValueError(f"refcount underflow: {key!r} has no references")
        del refs[key]
        if key in self._cached:
            raise ValueError(f"content {key!r} already cached")
        self._cached[key] = frame
        return 0

    # -- inspection ----------------------------------------------------------

    def ref_count(self, key: Hashable) -> int:
        return self._refs.get(key, 0)

    def frame_of(self, key: Hashable) -> int | None:
        return self._frame_of.get(key)

    def owner(self, frame: int) -> Hashable | None:
        if not 0 <= frame < len(self._owners):
            raise IndexError(f"no frame {frame}")
        return self._owners[frame]

    def cached_keys(self) -> list[Hashable]:
        """Content keys in the freed-dedup pool, next to reclaim first."""
        return list(self._cached)

    def is_cached(self, key: Hashable) -> bool:
        """Content present at all — pinned or revivable zero-ref."""
        return key in self._frame_of

    def register_view(self, view: "TenantView") -> None:
        """Enroll a tenant view in the conservation ledger.

        The refcount-conservation invariant sums registered views'
        residencies against :attr:`ref_total`; a view acquiring frames
        outside the ledger would silently unbalance it, so views
        register themselves at construction.
        """
        self._views.append(view)

    def unregister_view(self, view: "TenantView") -> None:
        """Retire a tenant view from the conservation ledger.

        The open-arrival traffic tier churns through views — thousands
        of short sessions over one long-lived pool — so the ledger must
        shrink when a session completes or :meth:`check_invariants`
        sums retired state forever.  A view may only leave empty: it
        must release every resident page first, or the references it
        still pins would vanish from the view side of the conservation
        law while staying in :attr:`ref_total`.
        """
        if view.resident_count:
            raise ValueError(
                f"view {view.tenant!r} still holds {view.resident_count} "
                f"resident pages; release them before unregistering"
            )
        try:
            self._views.remove(view)
        except ValueError:
            raise ValueError(
                f"view {view.tenant!r} is not registered with this pool"
            ) from None

    @property
    def views(self) -> tuple["TenantView", ...]:
        return tuple(self._views)

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if the serving ledger is inconsistent.

        The partition law: pinned frames + cached zero-ref frames +
        free frames == frame_count, with the owner array, the content
        map, the refcounts and the freed-dedup pool all telling the
        same story.
        """
        cached = len(self._cached)
        pinned = len(self._frame_of) - cached
        assert pinned + cached + len(self._free) == len(self._owners), (
            f"partition broken: {pinned} pinned + {cached} cached "
            f"+ {len(self._free)} free != {len(self._owners)} frames"
        )
        assert len(set(self._free)) == len(self._free), "free list duplicates"
        for frame in self._free:
            assert self._owners[frame] is None, f"free frame {frame} has owner"
        for key, frame in self._frame_of.items():
            assert self._owners[frame] == key, (
                f"frame {frame} owner mismatch for content {key!r}"
            )
            refs = self._refs.get(key, 0)
            parked = key in self._cached
            assert (refs == 0) == parked, (
                f"content {key!r}: refs={refs} but "
                f"{'in' if parked else 'not in'} the freed-dedup pool"
            )
            assert not parked or self._cached[key] == frame, (
                f"cached content {key!r} parks frame {self._cached[key]}, "
                f"but is mapped to frame {frame}"
            )
        for key, refs in self._refs.items():
            assert key in self._frame_of, (
                f"referenced content {key!r} has no frame"
            )
            assert refs > 0, f"content {key!r} holds a count of {refs}"
        view_resident = sum(view.resident_count for view in self._views)
        if self._views:
            assert view_resident == self.ref_total, (
                f"tenant views hold {view_resident} pages but the pool "
                f"counts {self.ref_total} references"
            )

    def __repr__(self) -> str:
        return (
            f"SharedFramePool(frames={self.frame_count}, "
            f"pinned={self.resident_count}, cached={self.cached_count}, "
            f"free={self.free_count}, refs={self.ref_total})"
        )


__all__ = ["ServeStats", "SharedFramePool"]
