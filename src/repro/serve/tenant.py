"""Per-tenant views: one address space's window onto the shared pool.

A :class:`TenantView` translates a tenant's *local* page numbers into
the pool's content keys and implements the same occupancy interface as
:class:`~repro.paging.frame.FrameTable` — acquire/release/is_full/
resident_pages/owner — so a :class:`~repro.paging.pager.DemandPager`
(or the trace-replay drivers) runs over a shared pool unmodified.  Two
extra hooks make sharing visible to a pager without rewriting it:

- ``peek_cached(page)``: would this acquire be satisfied without a
  fetch?  The pager consults it before charging backing-store time.
- ``note_write(page)``: a resident page was written.  If the page maps
  shared content, copy-on-write breaks — a private frame is
  materialized, the shared refcount drops — and the new frame is
  returned so the pager can remap its page table.

Forking is what the shared pool exists for: ``fork()`` yields a new
view over the same pool with the same shared mapping, so parent and
child resolve shared pages to the same frames until one of them writes.

The view holds its page maps and statistics, but only the pool writes
them: ``acquire_detail``, ``release`` and ``note_write`` are facades
over the pool's one-call entries,
:meth:`~repro.serve.pool.SharedFramePool.acquire`,
:meth:`~repro.serve.pool.SharedFramePool.release` and
:meth:`~repro.serve.pool.SharedFramePool.cow_break`, which the serving
drivers call directly.  Where an entry answers
:data:`~repro.serve.pool.REFUSED` (every frame pinned), its facade
raises ``OutOfMemory``.

Content keys whose first element is ``"shared"`` name common content,
so ``"shared"`` is reserved: no tenant may take it as its name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

from repro.alloc.base import check_int
from repro.serve.pool import REFUSED, SharedFramePool

#: The first element of every shared content key; refused as a tenant
#: name, since a tenant's private keys start with its name.
SHARED = "shared"


def check_tenant(tenant: str) -> None:
    """Refuse the reserved tenant name :data:`SHARED`."""
    if tenant == SHARED:
        raise ValueError(
            f"tenant name {SHARED!r} is reserved: private keys start with "
            f"the tenant's name, and keys starting with {SHARED!r} name "
            f"shared content"
        )


@dataclass(slots=True)
class TenantStats:
    """Per-tenant serving counters (the per-tenant accounting contract)."""

    acquires: int = 0
    shares: int = 0
    dedup_hits: int = 0
    cow_breaks: int = 0
    releases: int = 0

    @property
    def hits(self) -> int:
        return self.shares + self.dedup_hits


def default_share_key(
    tenant: str, shared_pages: int
) -> Callable[[int], Hashable]:
    """The standard content-key rule: a shared prefix, then private.

    Pages below ``shared_pages`` are common content every tenant maps
    (the "shared library" region); the rest are private to the tenant.
    The tenant may not be named ``"shared"`` (:func:`check_tenant`).
    """
    check_tenant(tenant)

    def key_for(page: int) -> Hashable:
        if 0 <= page < shared_pages:
            return (SHARED, page)
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
        ``"shared"`` is reserved and refused with ``ValueError``.
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
        than one tenant — to share content.  Any callable will do (a
        function, a ``functools.partial``, an object with
        ``__call__``).  It must be a pure function of the page: the
        view resolves each page once and caches its key until the view
        is discarded (every rule in the package —
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
        check_tenant(tenant)
        self.pool = pool
        self.tenant = tenant
        self.quota = quota if quota is not None else pool.frame_count
        self.shared_pages = shared_pages
        # Whether the view built the default rule: a fork rebuilds it
        # for the child, and re-keys any rule it was given.
        self._default_rule = share_key is None
        self._share_key = (
            default_share_key(tenant, shared_pages)
            if share_key is None else share_key
        )
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
        return isinstance(key, tuple) and len(key) > 0 and key[0] == SHARED

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
        """Acquire with the hit kind: ``"share"``, ``"dedup"`` or None.

        The pool's :meth:`~SharedFramePool.acquire` does the work.
        Within one view, page→key must be 1:1: a ``share_key`` mapping
        two local pages to one content key is refused with
        ``ValueError`` at the second page's acquire, since its release
        would otherwise corrupt the reverse map.  When every frame is
        pinned this raises ``OutOfMemory``, where the pool entry answers
        :data:`~repro.serve.pool.REFUSED`.
        """
        detail = self.pool.acquire(self, page)
        if detail is REFUSED:
            raise self.pool.out_of_frames(self._keys[page])
        return detail

    def release(self, page: Hashable) -> int:
        """Vacate ``page`` (FrameTable-compatible); returns the frame.

        The pool's :meth:`~SharedFramePool.release` does the work.
        """
        return self.pool.release(self, page)

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

        The pool's :meth:`~SharedFramePool.cow_break` does the work.
        Returns the fresh private frame when a break happened (the
        caller must remap page→frame), or None when the page already
        maps private content.  The break happens even for a sole
        holder: written content must never be revivable as the clean
        shared original.  When every frame is pinned this raises
        ``OutOfMemory``, where the pool entry answers
        :data:`~repro.serve.pool.REFUSED`.
        """
        frame = self.pool.cow_break(self, page)
        if frame is REFUSED:
            raise self.pool.out_of_frames(self._cow_key(page))
        return frame

    def _cow_key(self, page: Hashable) -> Hashable:
        """The private key of this view's latest copy-on-write break
        of ``page``, refused or not: the serial counts every attempt."""
        return (self.tenant, "cow", page, self._cow_serial)

    def fork(self, tenant: str, quota: int | None = None) -> "TenantView":
        """A new address space sharing this view's shared mapping.

        The child resolves shared pages to the same content keys — and
        therefore the same frames — as the parent, until either side
        writes (copy-on-write).  Private pages are the child's own.
        CoW breaks the parent has already taken are *not* inherited:
        the child starts from the clean shared content.  A view that
        built the default rule gives the child the default rule under
        its own name; a rule the view was given, whatever callable it
        is, is re-keyed for the child (see :func:`_rekeyed`).
        """
        return TenantView(
            self.pool,
            tenant,
            quota=quota if quota is not None else self.quota,
            shared_pages=self.shared_pages,
            share_key=(
                None if self._default_rule
                else _rekeyed(self._share_key, self.tenant, tenant)
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


__all__ = ["TenantStats", "TenantView", "default_share_key"]
