"""The shared frame pool: refcounted frames, content dedup, CoW breaks.

One physical pool of page frames serving many address spaces.  Frames
are keyed by *content identity* — a hashable content key such as
``("shared", page)`` for a page every tenant maps, ``(tenant, page)``
for a private one, or a symbolic segment name — and carry refcounts.
A registered :class:`~repro.serve.tenant.TenantView` resolves each of
its pages to a content key, and the pool serves the view through three
entries, one call each:

- ``acquire(view, page)`` pins the page's content and maps the page in
  the view; it returns ``(frame, hit)``.  If the content is already
  pinned (another tenant holds it) the refcount grows — a *share*, no
  frame consumed, no fetch owed.  If it sits in the freed-dedup pool
  (zero refs, still cached) the frame is revived — a *dedup hit*, again
  no fetch owed.  Otherwise a frame is taken from the free list, or
  reclaimed from the content freed longest ago.
- ``release(view, page)`` unmaps the page and drops one reference.  At
  zero the frame is not wiped: it joins the freed-dedup pool, where
  identical content can revive it until pressure reclaims it.
- ``cow_break(view, page)`` re-homes a writer: one reference moves from
  the page's shared content to a fresh private frame, and the page
  resolves to its private copy from then on (copy-on-write: shared
  until first write).

When every frame is pinned, ``acquire`` and ``cow_break`` answer
:data:`REFUSED` instead of raising, so a driver that self-evicts
retries without an exception; the view's facades turn that answer
into ``OutOfMemory``.

The pool alone keeps the serving ledger: the free list, the frame and
owner maps, and two dicts — ``_refs`` (content key → reference count,
deleted at zero) and ``_cached`` (zero-reference key → frame, in freed
order, the freed-dedup pool).  It is also the only writer of each
view's side of it: the view's residency maps, its content keys after a
break, and its ``TenantStats``.  ``acquire`` and ``release`` carry the
claim and unpin rules inline, and ``cow_break`` carries its own copy,
because the fault path is the serving tier's hot loop and a helper
call there costs about 5% of traffic throughput;
``tests/test_view_differential.py`` pins all three, op by op, to the
view and pool they replaced.

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

#: What ``acquire`` and ``cow_break`` answer when every frame is pinned.
#: Compare it by identity.  It is a pair, like a successful acquire's
#: ``(frame, hit)``, so a caller that reads ``answer[1]`` as the hit
#: kind reads a refusal as no hit.
REFUSED = (None, None)


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
        ``acquire`` runs under the wall-clock span
        ``serve.acquire_seconds``, a copy-on-write break under
        ``serve.cow_break_seconds``, and the ``serve.resident_frames``
        gauge tracks pinned frames — attach-path instrumentation only;
        hits inside a tenant's own view never reach the pool.  An
        acquire takes single-digit microseconds, so timing every one
        would cost more than the operation: the acquire span samples 1
        in :data:`ACQUIRE_SPAN_SAMPLE` calls (count-based, so which
        calls are sampled is deterministic), keeping the overhead
        contract while the sketch still sees thousands of brackets per
        campaign; the CoW span samples 1 in :data:`COW_SPAN_SAMPLE`.

    >>> from repro.serve.tenant import TenantView
    >>> pool = SharedFramePool(4)
    >>> alice = TenantView(pool, "alice", shared_pages=8)
    >>> bob = alice.fork("bob")
    >>> frame, hit = pool.acquire(alice, 7)
    >>> hit is None   # a miss: the caller owes a fetch
    True
    >>> pool.acquire(bob, 7)[1]   # second tenant: a share
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
        self._views: dict[str, "TenantView"] = {}   # live views by tenant
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
        self, view: "TenantView", page: Hashable
    ) -> tuple[int, str | None] | tuple[None, None]:
        """Fault ``page`` into ``view``; returns ``(frame, hit)``, or
        :data:`REFUSED` when every frame is pinned.

        ``hit`` names how the content was found without a fetch —
        ``"share"`` (already pinned by other references) or ``"dedup"``
        (a zero-ref cached frame revived by content identity) — or is
        ``None`` for a miss: the caller owes a fetch into the frame.
        The view's checks come first, in this order: the page already
        resident, the view at its quota, the content key (resolved once
        and cached in the view), one local page per key.  Both
        statistics records move, and ``Share`` / ``DedupHit`` events
        name the view's tenant.  A refused attempt counts one operation
        and one pool acquire, keeps the cached key, and changes nothing
        else.
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
            # A miss claims a frame: the free list first, else the
            # cached content freed longest ago, unmapped and reclaimed.
            hit = None
            if self._free:
                frame = self._free.pop()
            else:
                cached = self._cached
                if not cached:
                    if timed:
                        span.stop()
                    return REFUSED
                victim = next(iter(cached))
                frame = cached.pop(victim)
                del frame_of[victim]
                stats.reclaims += 1
            self._owners[frame] = key
            frame_of[key] = frame
            self._refs[key] = 1
        elif self._cached.pop(key, None) is not None:
            # Content-addressed revival: the frame was freed but the
            # bytes are still there.
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

    def release(self, view: "TenantView", page: Hashable) -> int:
        """Unmap ``page`` from ``view`` and drop its reference; returns
        the frame.

        At zero references the frame is parked at the back of the
        freed-dedup pool, still mapped under its key — it stays
        revivable until reclaimed.  A drop with no reference left
        raises: a double release, the classic refcount bug, must fail
        loudly at the site rather than corrupt the ledger.  Every guard
        is decided before anything moves, so a refused release changes
        no map, count or statistic.
        """
        view_frames = view._frame_of
        try:
            frame = view_frames[page]
        except KeyError:
            raise KeyError(
                f"page {page!r} is not resident for tenant {view.tenant}"
            ) from None
        key = view._keys[page]
        refs = self._refs
        count = refs.get(key, 0) - 1
        if count > 0:
            refs[key] = count
        elif count < 0:
            raise ValueError(f"refcount underflow: {key!r} has no references")
        elif key in self._cached:
            raise ValueError(f"content {key!r} already cached")
        else:
            del refs[key]
            self._cached[key] = frame
        del view_frames[page]
        del view._page_of_key[key]
        self._ops += 1
        self.stats.releases += 1
        view.stats.releases += 1
        return frame

    def cow_break(
        self, view: "TenantView", page: Hashable
    ) -> int | None | tuple[None, None]:
        """``view`` wrote its resident ``page``: break copy-on-write if
        the page maps shared content.

        Returns the fresh private frame (its content is a copy of the
        shared frame — the simulation carries identity, not bytes),
        ``None`` when the page already maps private content, or
        :data:`REFUSED` when every frame is pinned.  One reference moves
        from the shared key to the view's next private key,
        :meth:`TenantView._cow_key`, and the page resolves to that key
        from then on, across eviction and refault.  The break happens
        even for a sole holder: written content must never be revivable
        as the clean shared original, which parks in the freed-dedup
        pool (and under full pinning gives up its frame in place).  A
        refused break spends the view's break serial and changes
        nothing else.
        """
        view_frames = view._frame_of
        if page not in view_frames:
            raise KeyError(
                f"page {page!r} is not resident for tenant {view.tenant}"
            )
        key = view._keys[page]
        if not view.is_shared_key(key):
            return None
        view._cow_serial += 1
        private = view._cow_key(page)
        span = self._cow_span
        timed = span is not None and not self._ops & (COW_SPAN_SAMPLE - 1)
        if timed:
            span.start()
        frame_of = self._frame_of
        if private in frame_of:
            if timed:
                span.stop()
            raise ValueError(f"private content {private!r} already exists")
        self._ops += 1
        source = view_frames[page]
        refs = self._refs
        cached = self._cached
        rest = refs[key] - 1
        if rest:
            if not self._free and not cached:
                # Other holders still pin the shared frame and no frame
                # is left: the break must not happen at all.
                if timed:
                    span.stop()
                return REFUSED
            refs[key] = rest
        else:
            # The writer was the last holder: the shared original parks
            # at the back of the freed-dedup pool like any other
            # zero-ref content, and is reclaimed for the private copy
            # when no other frame is free or cached.
            del refs[key]
            cached[key] = source
        stats = self.stats
        if self._free:
            frame = self._free.pop()
        else:
            victim = next(iter(cached))
            frame = cached.pop(victim)
            del frame_of[victim]
            stats.reclaims += 1
        self._owners[frame] = private
        frame_of[private] = frame
        refs[private] = 1
        stats.cow_breaks += 1
        if self.tracer.enabled:
            self.tracer.emit(CoWBreak(
                time=self._time(), unit=key, where=frame, source=source,
                refs=rest, program=view.tenant,
            ))
        if timed:
            span.stop()
        view._keys[page] = private
        view_frames[page] = frame
        page_of_key = view._page_of_key
        del page_of_key[key]
        page_of_key[private] = page
        view.stats.cow_breaks += 1
        return frame

    def out_of_frames(self, key: Hashable) -> OutOfMemory:
        """The error a refused claim for ``key`` raises where a caller
        must fail: every frame is pinned."""
        return OutOfMemory(
            1, f"all {len(self._owners)} frames are pinned "
               f"(acquiring {key!r})"
        )

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
        register themselves at construction.  Tenant names are unique
        among the live views: a view's private and copy-on-write keys
        carry its name, so a second live view under that name would be
        served the first one's private pages as shares.  A name is free
        again once its view unregisters.
        """
        if view.tenant in self._views:
            raise ValueError(
                f"tenant {view.tenant!r} already has a live view on this pool"
            )
        self._views[view.tenant] = view

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
        if self._views.get(view.tenant) is not view:
            raise ValueError(
                f"view {view.tenant!r} is not registered with this pool"
            )
        del self._views[view.tenant]

    @property
    def views(self) -> tuple["TenantView", ...]:
        return tuple(self._views.values())

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
        view_resident = sum(
            view.resident_count for view in self._views.values()
        )
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


__all__ = ["REFUSED", "ServeStats", "SharedFramePool"]
