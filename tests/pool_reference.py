"""The shared frame pool as it was before it kept its own refcounts.

``SharedFramePool`` here is ``repro.serve.pool.SharedFramePool`` as it
stood when its refcounts lived in a ``RefCounter`` and its freed-dedup
order in an ``LRUEvictor``, both kept below with it.  The three classes
are kept test-only and unchanged, except that the pool takes
``ServeStats`` and the span sample rates from ``repro.serve.pool``, so
both pools' statistics compare equal.  ``tests/test_pool_differential.py``
pins the pool to this oracle over random acquire, release and
copy-on-write walks: return values, errors, statistics, events, every
refcount and frame, the reclaim order and the telemetry must agree
after every operation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterator

from repro.errors import OutOfMemory
from repro.observe.events import CoWBreak, DedupHit, Share
from repro.observe.telemetry.registry import TelemetryRegistry
from repro.observe.tracer import Tracer, as_tracer
from repro.serve.pool import ACQUIRE_SPAN_SAMPLE, COW_SPAN_SAMPLE, ServeStats

if TYPE_CHECKING:
    from repro.serve.tenant import TenantView


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
