"""The shared frame pool and tenant view as they were before the pool
kept its own refcounts and served views through its own entries.

``SharedFramePool`` here is ``repro.serve.pool.SharedFramePool`` as it
stood when its refcounts lived in a ``RefCounter`` and its freed-dedup
order in an ``LRUEvictor``, both kept below with it, and when it
answered content keys: ``acquire(key)``, ``release(key)`` and
``cow_break(shared_key, private_key)``.  The three classes are kept
test-only and unchanged, except that the pool takes ``ServeStats`` and
the span sample rates from ``repro.serve.pool``, so both pools'
statistics compare equal.

``TenantView`` (with ``default_share_key`` and ``_rekeyed``) is
``repro.serve.tenant.TenantView`` as it stood when its
``acquire_detail``, ``release`` and ``note_write`` went through those
key-level operations, kept unchanged over the reference pool above,
except that it takes ``TenantStats`` from ``repro.serve.tenant``.
``tests/test_view_differential.py`` and
``tests/test_pool_differential.py`` pin the pool's entries,
``acquire(view, page)``, ``release(view, page)`` and
``cow_break(view, page)``, and the view facades over them, to it: return
values, errors, statistics, events, every refcount and frame, the
reclaim order and the telemetry must agree after every operation.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterator

from repro.alloc.base import check_int
from repro.errors import OutOfMemory
from repro.observe.events import CoWBreak, DedupHit, Share
from repro.observe.telemetry.registry import TelemetryRegistry
from repro.observe.tracer import Tracer, as_tracer
from repro.serve.pool import ACQUIRE_SPAN_SAMPLE, COW_SPAN_SAMPLE, ServeStats
from repro.serve.tenant import TenantStats


class RefCounter:
    """Per-key reference counts; absent means zero.

    Counts are always positive while stored — reaching zero removes the
    key, so iteration and ``live_count`` see only referenced keys.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: dict[Hashable, int] = {}

    def incr(self, key: Hashable) -> int:
        """Add one reference to ``key``; returns the new count."""
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        return count

    def decr(self, key: Hashable) -> int:
        """Drop one reference from ``key``; returns the new count.

        Raises ``ValueError`` when ``key`` has no references — a double
        release, the classic refcount bug, must fail loudly at the site
        rather than corrupt the pool's accounting.
        """
        count = self._counts.get(key, 0)
        if count <= 0:
            raise ValueError(f"refcount underflow: {key!r} has no references")
        count -= 1
        if count:
            self._counts[key] = count
        else:
            del self._counts[key]
        return count

    def get(self, key: Hashable) -> int:
        """Current count for ``key`` (0 when unreferenced)."""
        return self._counts.get(key, 0)

    @property
    def live_count(self) -> int:
        """How many keys hold at least one reference."""
        return len(self._counts)

    @property
    def total(self) -> int:
        """Sum of all counts — what per-tenant residency must add up to."""
        return sum(self._counts.values())

    def live_keys(self) -> Iterator[Hashable]:
        return iter(self._counts)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        return f"RefCounter(live={len(self._counts)}, total={self.total})"


class LRUEvictor:
    """Zero-ref cached frames, reclaimed least-recently-freed first.

    >>> evictor = LRUEvictor()
    >>> evictor.add("a", frame=0, freed_at=1)
    >>> evictor.add("b", frame=1, freed_at=2)
    >>> evictor.evict()
    ('a', 0)
    >>> evictor.remove("b")
    1
    """

    __slots__ = ("_cached",)

    def __init__(self) -> None:
        # key -> (frame, freed_at); insertion order is freed order, and
        # re-adding a key re-inserts it, so dict order is LRU order as
        # long as freed_at is monotonic (the pool's op counter is).
        self._cached: dict[Hashable, tuple[int, int]] = {}

    def add(self, key: Hashable, frame: int, freed_at: int) -> None:
        """Cache ``key``'s frame, freed at pool-op time ``freed_at``."""
        if key in self._cached:
            raise ValueError(f"content {key!r} already cached")
        self._cached[key] = (frame, freed_at)

    def remove(self, key: Hashable) -> int:
        """Revive ``key`` (a dedup hit); returns its frame."""
        try:
            frame, _ = self._cached.pop(key)
        except KeyError:
            raise KeyError(f"content {key!r} is not cached") from None
        return frame

    def evict(self) -> tuple[Hashable, int]:
        """Reclaim the least-recently-freed entry; returns (key, frame)."""
        if not self._cached:
            raise ValueError("nothing to evict: the cached pool is empty")
        key = next(iter(self._cached))
        frame, _ = self._cached.pop(key)
        return key, frame

    def freed_at(self, key: Hashable) -> int:
        return self._cached[key][1]

    def frames(self) -> list[int]:
        return [frame for frame, _ in self._cached.values()]

    def keys(self) -> list[Hashable]:
        return list(self._cached)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._cached

    def __len__(self) -> int:
        return len(self._cached)

    def __repr__(self) -> str:
        return f"LRUEvictor(cached={len(self._cached)})"


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
        ``acquire`` and ``cow_break`` run under wall-clock spans
        (``serve.acquire_seconds`` / ``serve.cow_break_seconds``) and
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
        if frame_count <= 0:
            raise ValueError(f"frame_count must be positive, got {frame_count}")
        self._owners: list[Hashable | None] = [None] * frame_count
        self._frame_of: dict[Hashable, int] = {}
        self._free: list[int] = list(range(frame_count - 1, -1, -1))
        self._refs = RefCounter()
        self._evictor = LRUEvictor()
        # The evictor's ordered dict (key -> (frame, freed_at), oldest
        # first), which acquire and release use in place on the fault
        # path; cow_break and forget go through the evictor's methods.
        self._cached = self._evictor._cached
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
        return self._refs.total

    def is_exhausted(self) -> bool:
        """True when every frame is pinned: no free, nothing reclaimable."""
        return not self._free and not self._cached

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
        frame_of = self._frame_of
        frame = frame_of.get(key)
        if frame is not None:
            if self._cached.pop(key, None) is not None:
                # Content-addressed revival: the frame was freed but the
                # bytes are still there.
                self._refs.incr(key)
                stats.dedup_hits += 1
                if self.tracer.enabled:
                    self.tracer.emit(DedupHit(
                        time=self._time(), unit=key, where=frame,
                        program=program,
                    ))
                return frame, "dedup"
            refs = self._refs.incr(key)
            stats.shares += 1
            if self.tracer.enabled:
                self.tracer.emit(Share(
                    time=self._time(), unit=key, where=frame, refs=refs,
                    program=program,
                ))
            return frame, "share"
        # A miss claims a frame in place, as _claim_frame does: the free
        # list first, else the cached content freed longest ago.
        if self._free:
            frame = self._free.pop()
        else:
            cached = self._cached
            if not cached:
                raise OutOfMemory(
                    1, f"all {len(self._owners)} frames are pinned "
                       f"(acquiring {key!r})"
                )
            victim = next(iter(cached))
            frame = cached.pop(victim)[0]
            del frame_of[victim]
            stats.reclaims += 1
        self._owners[frame] = key
        frame_of[key] = frame
        self._refs.incr(key)
        return frame, None

    def release(self, key: Hashable) -> int:
        """Drop one reference to ``key``; returns its frame.

        At zero references the frame enters the freed-dedup pool, still
        mapped under ``key`` — it stays revivable until reclaimed.
        """
        self._ops += 1
        frame = self._frame_of.get(key)
        if frame is None:
            raise KeyError(f"content {key!r} is not in the pool")
        if self._refs.decr(key) == 0:
            # LRUEvictor.add in place, its check included.
            cached = self._cached
            if key in cached:
                raise ValueError(f"content {key!r} already cached")
            cached[key] = (frame, self._ops)
        self.stats.releases += 1
        return frame

    def forget(self, key: Hashable) -> int:
        """Release ``key`` and drop its cached content immediately.

        The uncached release: used when the caller knows the content
        must not be revivable (e.g. it is stale).  Requires this to be
        the last reference.
        """
        frame = self.release(key)
        if key in self._evictor:
            self._evictor.remove(key)
            self._drop(key, frame)
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
        if source is None or shared_key in self._evictor:
            raise KeyError(f"content {shared_key!r} is not resident")
        if private_key in self._frame_of:
            raise ValueError(f"private content {private_key!r} already exists")
        self._ops += 1
        if self._refs.decr(shared_key) == 0:
            # The writer was the last holder: the "shared" frame becomes
            # revivable cached content like any other zero-ref frame.
            self._evictor.add(shared_key, source, freed_at=self._ops)
        try:
            frame = self._claim_frame(private_key)
        except OutOfMemory:
            # Exception safety: a refused break must not happen at all.
            # Only the still-shared case can get here — a sole holder's
            # own frame just became reclaimable, so _claim_frame takes
            # that instead of raising — and its decrement is undone.
            self._refs.incr(shared_key)
            raise
        self._owners[frame] = private_key
        self._frame_of[private_key] = frame
        self._refs.incr(private_key)
        self.stats.cow_breaks += 1
        if self.tracer.enabled:
            self.tracer.emit(CoWBreak(
                time=self._time(), unit=shared_key, where=frame, source=source,
                refs=self._refs.get(shared_key), program=program,
            ))
        return frame

    # -- frame supply -------------------------------------------------------

    def _claim_frame(self, for_key: Hashable) -> int:
        if self._free:
            return self._free.pop()
        if self._cached:
            victim_key, frame = self._evictor.evict()
            self._drop(victim_key, frame, to_free=False)
            self.stats.reclaims += 1
            return frame
        raise OutOfMemory(
            1, f"all {self.frame_count} frames are pinned "
               f"(acquiring {for_key!r})"
        )

    def _drop(self, key: Hashable, frame: int, to_free: bool = True) -> None:
        del self._frame_of[key]
        self._owners[frame] = None
        if to_free:
            self._free.append(frame)

    # -- inspection ----------------------------------------------------------

    def ref_count(self, key: Hashable) -> int:
        return self._refs.get(key)

    def frame_of(self, key: Hashable) -> int | None:
        return self._frame_of.get(key)

    def owner(self, frame: int) -> Hashable | None:
        if not 0 <= frame < len(self._owners):
            raise IndexError(f"no frame {frame}")
        return self._owners[frame]

    def cached_keys(self) -> list[Hashable]:
        """Content keys in the freed-dedup pool (zero refs, revivable)."""
        return self._evictor.keys()

    def is_resident(self, key: Hashable) -> bool:
        """Content pinned by at least one reference."""
        return key in self._frame_of and key not in self._evictor

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
        map, the refcounter and the evictor all telling the same story.
        """
        pinned = len(self._frame_of) - len(self._evictor)
        assert pinned + len(self._evictor) + len(self._free) == len(self._owners), (
            f"partition broken: {pinned} pinned + {len(self._evictor)} cached "
            f"+ {len(self._free)} free != {len(self._owners)} frames"
        )
        assert len(set(self._free)) == len(self._free), "free list duplicates"
        for frame in self._free:
            assert self._owners[frame] is None, f"free frame {frame} has owner"
        for key, frame in self._frame_of.items():
            assert self._owners[frame] == key, (
                f"frame {frame} owner mismatch for content {key!r}"
            )
            refs = self._refs.get(key)
            cached = key in self._evictor
            assert (refs == 0) == cached, (
                f"content {key!r}: refs={refs} but "
                f"{'in' if cached else 'not in'} the freed-dedup pool"
            )
        for key in self._refs.live_keys():
            assert key in self._frame_of, (
                f"referenced content {key!r} has no frame"
            )
        view_resident = sum(view.resident_count for view in self._views)
        if self._views:
            assert view_resident == self._refs.total, (
                f"tenant views hold {view_resident} pages but the pool "
                f"counts {self._refs.total} references"
            )

    def __repr__(self) -> str:
        return (
            f"SharedFramePool(frames={self.frame_count}, "
            f"pinned={self.resident_count}, cached={self.cached_count}, "
            f"free={self.free_count}, refs={self.ref_total})"
        )


def default_share_key(
    tenant: str, shared_pages: int
) -> Callable[[int], Hashable]:
    """The standard content-key rule: a shared prefix, then private.

    Pages below ``shared_pages`` are common content every tenant maps
    (the "shared library" region); the rest are private to the tenant.
    """

    def key_for(page: int) -> Hashable:
        if 0 <= page < shared_pages:
            return ("shared", page)
        return (tenant, page)

    return key_for


class TenantView:
    """One tenant's FrameTable-shaped view of a :class:`SharedFramePool`.

    Parameters
    ----------
    pool:
        The shared frame pool supplying physical frames.
    tenant:
        This tenant's name; it labels events and salts private keys.
    quota:
        Resident-page allotment: ``is_full`` reports True at this many
        resident pages, making the tenant evict — the partitioned
        discipline the multiprogramming mix uses.  Defaults to the whole
        pool.

        The quota charges **logical residency**: every resident local
        page costs exactly one unit against the quota, whether its
        content is private, shared with other tenants, or revived from
        the dedup cache.  Physical sharing never discounts the charge —
        a tenant mapping 8 shared pages is at 8/quota even if the pool
        spent one frame.  This is deliberate: the quota is the promise
        of *addressability* (how much of its working set a tenant may
        keep resident), and it is what makes the conservation law hold
        — ``sum(view.resident_count) == pool.ref_total`` — and what the
        traffic tier's admission controller budgets against.  Releases
        refund one unit; a CoW break is charge-neutral (the page stays
        resident, only its content key changes).
    shared_pages:
        Local pages below this bound resolve to ``("shared", page)``
        content keys common to all tenants; the rest are private.
    share_key:
        Full custom mapping from local page to content key, overriding
        ``shared_pages`` (e.g. symbolic segment names).  Return a
        ``("shared", ...)``-prefixed tuple — or any key yielded to more
        than one tenant — to share content.  It must be a pure function
        of the page: the view resolves each page once and caches its
        key until the view is discarded (every rule in the package —
        :func:`default_share_key`, a fork's re-keying,
        ``segment_share_key`` — is pure).

    >>> pool = SharedFramePool(8)
    >>> parent = TenantView(pool, "parent", shared_pages=4)
    >>> parent.acquire(0)
    0
    >>> child = parent.fork("child")
    >>> child.acquire(0), pool.ref_count(("shared", 0))
    (0, 2)
    """

    def __init__(
        self,
        pool: SharedFramePool,
        tenant: str,
        quota: int | None = None,
        shared_pages: int = 0,
        share_key: Callable[[int], Hashable] | None = None,
    ) -> None:
        if quota is not None:
            check_int(quota, "quota")
            if quota <= 0:
                raise ValueError(f"quota must be positive, got {quota}")
        check_int(shared_pages, "shared_pages")
        if shared_pages < 0:
            raise ValueError(f"shared_pages must be >= 0, got {shared_pages}")
        self.pool = pool
        self.tenant = tenant
        self.quota = quota if quota is not None else pool.frame_count
        self.shared_pages = shared_pages
        self._share_key = share_key or default_share_key(tenant, shared_pages)
        self._frame_of: dict[Hashable, int] = {}      # resident page -> frame
        # Every page's content key from its first resolution on, resident
        # or not; a CoW break overwrites the entry with the private key.
        # At most one entry per distinct page the view ever touched.
        self._keys: dict[Hashable, Hashable] = {}
        self._page_of_key: dict[Hashable, Hashable] = {}  # key -> page
        self._cow_serial = 0
        self.stats = TenantStats()
        pool.register_view(self)

    # -- key resolution ------------------------------------------------------

    def key_for(self, page: Hashable) -> Hashable:
        """The content key ``page`` resolves to, CoW breaks included.

        Once a tenant has broken copy-on-write on a page, that page
        resolves to its private copy forever — even across eviction and
        refault — so a write is never silently shared back.
        """
        key = self._keys.get(page)
        if key is None:
            key = self._keys[page] = self._share_key(page)
        return key

    def is_shared_key(self, key: Hashable) -> bool:
        """Whether ``key`` names content common to multiple tenants."""
        return isinstance(key, tuple) and len(key) > 0 and key[0] == "shared"

    # -- the FrameTable interface -------------------------------------------

    @property
    def frame_count(self) -> int:
        """The tenant's allotment (what ``is_full`` is measured against)."""
        return self.quota

    @property
    def free_count(self) -> int:
        return max(0, self.quota - len(self._frame_of))

    @property
    def resident_count(self) -> int:
        return len(self._frame_of)

    def is_full(self) -> bool:
        return len(self._frame_of) >= self.quota

    def acquire(self, page: Hashable) -> int:
        """Place ``page`` (FrameTable-compatible); returns the frame."""
        return self.acquire_detail(page)[0]

    def acquire_detail(self, page: Hashable) -> tuple[int, str | None]:
        """Acquire with the hit kind: ``"share"``, ``"dedup"`` or None."""
        frame_of = self._frame_of
        if page in frame_of:
            raise ValueError(
                f"page {page!r} is already resident for tenant {self.tenant}"
            )
        if len(frame_of) >= self.quota:
            raise ValueError(
                f"tenant {self.tenant} is at its quota of {self.quota}"
            )
        key = self._keys.get(page)
        if key is None:
            key = self._keys[page] = self._share_key(page)
        page_of_key = self._page_of_key
        if key in page_of_key:
            # A custom share_key mapped two distinct local pages to one
            # content key.  Before this guard the second acquire would
            # silently overwrite ``_page_of_key[key]``, after which the
            # first page's release would corrupt the reverse map (and
            # the quota would double-charge one frame's content with no
            # way to tell).  Within one view, page→key must be 1:1.
            raise ValueError(
                f"content key {key!r} is already mapped by local page "
                f"{page_of_key[key]!r} in tenant {self.tenant}; "
                f"a share_key must map each tenant page to a distinct key"
            )
        frame, hit = self.pool.acquire(key, program=self.tenant)
        frame_of[page] = frame
        page_of_key[key] = page
        stats = self.stats
        stats.acquires += 1
        if hit == "share":
            stats.shares += 1
        elif hit == "dedup":
            stats.dedup_hits += 1
        return frame, hit

    def release(self, page: Hashable) -> int:
        """Vacate ``page`` (FrameTable-compatible); returns the frame."""
        try:
            frame = self._frame_of.pop(page)
        except KeyError:
            raise KeyError(
                f"page {page!r} is not resident for tenant {self.tenant}"
            ) from None
        key = self._keys[page]
        del self._page_of_key[key]
        self.pool.release(key)
        self.stats.releases += 1
        return frame

    def frame_of(self, page: Hashable) -> int | None:
        return self._frame_of.get(page)

    def owner(self, frame: int) -> Hashable | None:
        """The local page this tenant holds in ``frame`` (None if none).

        Under sharing, several tenants legitimately answer for the same
        frame — each with its own local page.
        """
        key = self.pool.owner(frame)
        if key is None:
            return None
        return self._page_of_key.get(key)

    def resident_pages(self) -> list[Hashable]:
        return list(self._frame_of)

    def __contains__(self, page: Hashable) -> bool:
        return page in self._frame_of

    # -- the sharing hooks ---------------------------------------------------

    def peek_cached(self, page: Hashable) -> bool:
        """Would acquiring ``page`` be satisfied without a fetch?

        True when the content is pinned by other tenants (a share) or
        still cached zero-ref in the freed-dedup pool (a dedup hit).
        The pager consults this to skip the backing-store transfer.
        """
        return self.pool.is_cached(self.key_for(page))

    def note_write(self, page: Hashable) -> int | None:
        """A resident page was written; break copy-on-write if shared.

        Returns the fresh private frame when a break happened (the
        caller must remap page→frame), or None when the page already
        maps private content.  The break happens even for a sole
        holder: written content must never be revivable as the clean
        shared original.
        """
        if page not in self._frame_of:
            raise KeyError(
                f"page {page!r} is not resident for tenant {self.tenant}"
            )
        key = self._keys[page]
        if not self.is_shared_key(key):
            return None
        self._cow_serial += 1
        private = (self.tenant, "cow", page, self._cow_serial)
        frame = self.pool.cow_break(key, private, program=self.tenant)
        self._keys[page] = private
        self._frame_of[page] = frame
        del self._page_of_key[key]
        self._page_of_key[private] = page
        self.stats.cow_breaks += 1
        return frame

    def fork(self, tenant: str, quota: int | None = None) -> "TenantView":
        """A new address space sharing this view's shared mapping.

        The child resolves shared pages to the same content keys — and
        therefore the same frames — as the parent, until either side
        writes (copy-on-write).  Private pages are the child's own.
        CoW breaks the parent has already taken are *not* inherited:
        the child starts from the clean shared content.
        """
        return TenantView(
            self.pool,
            tenant,
            quota=quota if quota is not None else self.quota,
            shared_pages=self.shared_pages,
            share_key=(
                None if self._share_key.__qualname__.startswith(
                    "default_share_key"
                ) else _rekeyed(self._share_key, self.tenant, tenant)
            ),
        )

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if this view disagrees with its pool."""
        assert len(self._frame_of) == len(self._page_of_key), (
            "view maps out of step"
        )
        assert len(self._frame_of) <= self.quota, (
            f"tenant {self.tenant} over quota: "
            f"{len(self._frame_of)} > {self.quota}"
        )
        for page, view_frame in self._frame_of.items():
            assert page in self._keys, (
                f"resident page {page!r} has no cached content key"
            )
            key = self._keys[page]
            assert self._page_of_key.get(key) == page, (
                f"key {key!r} reverse-maps to "
                f"{self._page_of_key.get(key)!r}, not {page!r}"
            )
            frame = self.pool.frame_of(key)
            assert frame == view_frame, (
                f"page {page!r}: view says frame {view_frame}, "
                f"pool says {frame}"
            )
            assert self.pool.ref_count(key) > 0, (
                f"page {page!r} resident but content {key!r} unreferenced"
            )

    def __repr__(self) -> str:
        return (
            f"TenantView(tenant={self.tenant!r}, "
            f"resident={len(self._frame_of)}/{self.quota}, "
            f"shares={self.stats.shares}, cow={self.stats.cow_breaks})"
        )


def _rekeyed(
    share_key: Callable[[int], Hashable], old: str, new: str
) -> Callable[[int], Hashable]:
    """Adapt a custom share-key function for a forked tenant.

    Shared keys pass through untouched (that is the point of the fork);
    private keys that embed the parent's name are re-salted with the
    child's so the two address spaces never collide on private content.
    """

    def key_for(page: int) -> Hashable:
        key = share_key(page)
        if isinstance(key, tuple) and len(key) > 0 and key[0] == old:
            return (new,) + key[1:]
        return key

    return key_for
