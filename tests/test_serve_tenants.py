"""Tenant views: the FrameTable-shaped window onto a shared pool.

Covers the view's occupancy interface, quota discipline, content-key
resolution (CoW breaks are permanent), forking, the two pager hooks
(``peek_cached`` / ``note_write``), and the symbolic-segment share-key
rule from the namespace layer.
"""

import functools

import pytest

from repro.addressing import PageTable
from repro.clock import Clock
from repro.memory import BackingStore, StorageLevel
from repro.namespace import SymbolicallySegmentedNameSpace, segment_share_key
from repro.paging import DemandPager, FrameTable, LruPolicy
from repro.serve import SharedFramePool, TenantView, default_share_key


class TestKeyResolution:
    def test_shared_prefix_then_private(self):
        key_for = default_share_key("t0", shared_pages=4)
        assert key_for(0) == ("shared", 0)
        assert key_for(3) == ("shared", 3)
        assert key_for(4) == ("t0", 4)

    def test_views_agree_on_shared_disagree_on_private(self):
        pool = SharedFramePool(8)
        a = TenantView(pool, "a", shared_pages=2)
        b = TenantView(pool, "b", shared_pages=2)
        assert a.key_for(1) == b.key_for(1)
        assert a.key_for(5) != b.key_for(5)

    def test_is_shared_key(self):
        view = TenantView(SharedFramePool(4), "t0", shared_pages=2)
        assert view.is_shared_key(("shared", 1))
        assert not view.is_shared_key(("t0", 5))
        assert not view.is_shared_key(7)


class TestReservedTenantName:
    """A tenant named ``"shared"`` would give its private page p the key
    ``("shared", p)``, the shared-content key, so another tenant could
    attach to its private page and its writes would break copy-on-write
    on private content.  Every entry point that takes a tenant name for
    keys refuses it."""

    def test_view_refuses_the_name(self):
        pool = SharedFramePool(4)
        with pytest.raises(ValueError, match="reserved"):
            TenantView(pool, "shared")
        with pytest.raises(ValueError, match="reserved"):
            TenantView(pool, "shared", share_key=lambda page: ("x", page))
        assert pool.views == ()

    def test_fork_refuses_the_name(self):
        pool = SharedFramePool(4)
        parent = TenantView(pool, "parent", shared_pages=2)
        with pytest.raises(ValueError, match="reserved"):
            parent.fork("shared")
        assert pool.views == (parent,)

    def test_share_key_rules_refuse_the_name(self):
        with pytest.raises(ValueError, match="reserved"):
            default_share_key("shared", 4)
        with pytest.raises(ValueError, match="reserved"):
            segment_share_key("shared", {"lib"})


class TestLiveTenantNames:
    """A view's private and copy-on-write keys carry its tenant name,
    so two live views under one name would serve each other's private
    pages as shares.  A pool refuses a live name, and frees it when its
    view unregisters."""

    def test_second_live_name_refused(self):
        pool = SharedFramePool(4)
        first = TenantView(pool, "a")
        with pytest.raises(ValueError, match="'a' already has a live view"):
            TenantView(pool, "a", share_key=lambda page: ("x", page))
        assert pool.views == (first,)

    def test_fork_onto_live_name_refused(self):
        pool = SharedFramePool(4)
        parent = TenantView(pool, "parent", shared_pages=2)
        child = parent.fork("child")
        for name in ("parent", "child"):
            with pytest.raises(ValueError, match="already has a live view"):
                parent.fork(name)
        assert pool.views == (parent, child)

    def test_name_free_again_after_unregister(self):
        pool = SharedFramePool(4)
        first, other = TenantView(pool, "a"), TenantView(pool, "b")
        first.acquire(0)
        first.release(0)
        with pytest.raises(ValueError, match="already has a live view"):
            TenantView(pool, "a")
        pool.unregister_view(first)
        second = TenantView(pool, "a")
        assert pool.views == (other, second)     # registration order
        second.acquire(0)
        assert pool.ref_count(("a", 0)) == 1
        # The retired view is not the live one under its name.
        with pytest.raises(ValueError, match="not registered"):
            pool.unregister_view(first)
        assert pool.views == (other, second)
        pool.check_invariants()


class TestFrameTableInterface:
    def test_acquire_release_round_trip(self):
        pool = SharedFramePool(4)
        view = TenantView(pool, "t0")
        frame = view.acquire(3)
        assert 3 in view
        assert view.frame_of(3) == frame
        assert view.owner(frame) == 3
        assert view.resident_pages() == [3]
        view.release(3)
        assert 3 not in view
        assert view.resident_count == 0

    def test_quota_bounds_residency(self):
        pool = SharedFramePool(8)
        view = TenantView(pool, "t0", quota=2)
        view.acquire(0)
        view.acquire(1)
        assert view.is_full()
        assert view.free_count == 0
        with pytest.raises(ValueError, match="quota"):
            view.acquire(2)

    def test_double_acquire_raises(self):
        view = TenantView(SharedFramePool(4), "t0")
        view.acquire(0)
        with pytest.raises(ValueError, match="already resident"):
            view.acquire(0)

    def test_release_of_absent_page_raises(self):
        with pytest.raises(KeyError, match="not resident"):
            TenantView(SharedFramePool(4), "t0").release(9)

    def test_two_tenants_same_shared_page_one_frame(self):
        pool = SharedFramePool(4)
        a = TenantView(pool, "a", shared_pages=4)
        b = TenantView(pool, "b", shared_pages=4)
        frame_a = a.acquire(0)
        frame_b, hit = b.acquire_detail(0)
        assert frame_a == frame_b
        assert hit == "share"
        assert pool.resident_count == 1
        # Each view answers for the frame with its own local page.
        assert a.owner(frame_a) == 0
        assert b.owner(frame_a) == 0


class TestCoW:
    def test_write_to_shared_page_breaks(self):
        pool = SharedFramePool(4)
        a = TenantView(pool, "a", shared_pages=4)
        b = TenantView(pool, "b", shared_pages=4)
        shared = a.acquire(0)
        b.acquire(0)
        private = b.note_write(0)
        assert private is not None and private != shared
        assert a.frame_of(0) == shared       # the reader is undisturbed
        assert b.frame_of(0) == private
        assert pool.ref_count(("shared", 0)) == 1

    def test_write_to_private_page_is_a_no_op(self):
        view = TenantView(SharedFramePool(4), "t0", shared_pages=2)
        view.acquire(3)                      # private: key ("t0", 3)
        assert view.note_write(3) is None
        assert view.stats.cow_breaks == 0

    def test_break_survives_eviction_and_refault(self):
        pool = SharedFramePool(8)
        a = TenantView(pool, "a", shared_pages=4)
        b = TenantView(pool, "b", shared_pages=4)
        a.acquire(0)
        b.acquire(0)
        b.note_write(0)
        broken = b.key_for(0)
        b.release(0)                         # evicted...
        _, hit = b.acquire_detail(0)         # ...and refaulted
        assert b.key_for(0) == broken        # still the private copy
        assert hit == "dedup"                # its bytes were still cached
        assert pool.ref_count(("shared", 0)) == 1   # never re-shared

    def test_write_of_nonresident_page_raises(self):
        with pytest.raises(KeyError, match="not resident"):
            TenantView(SharedFramePool(4), "t0", shared_pages=2).note_write(0)

    def test_peek_cached_sees_shares_and_cached_content(self):
        pool = SharedFramePool(4)
        a = TenantView(pool, "a", shared_pages=4)
        b = TenantView(pool, "b", shared_pages=4)
        assert not b.peek_cached(0)
        a.acquire(0)
        assert b.peek_cached(0)              # a share: no fetch owed
        a.release(0)
        assert b.peek_cached(0)              # zero-ref but still cached


class TestFork:
    def test_child_shares_parent_mapping(self):
        pool = SharedFramePool(8)
        parent = TenantView(pool, "parent", shared_pages=2)
        frame = parent.acquire(0)
        child = parent.fork("child")
        assert child.acquire(0) == frame
        assert pool.ref_count(("shared", 0)) == 2

    def test_child_private_pages_are_its_own(self):
        pool = SharedFramePool(8)
        parent = TenantView(pool, "parent", shared_pages=2)
        parent.acquire(5)
        child = parent.fork("child")
        _, hit = child.acquire_detail(5)
        assert hit is None                   # distinct private content
        assert pool.resident_count == 2

    def test_parent_cow_breaks_are_not_inherited(self):
        pool = SharedFramePool(8)
        parent = TenantView(pool, "parent", shared_pages=2)
        parent.acquire(0)
        parent.note_write(0)
        child = parent.fork("child")
        assert child.key_for(0) == ("shared", 0)

    def test_custom_share_key_is_resalted(self):
        pool = SharedFramePool(8)
        space = SymbolicallySegmentedNameSpace()
        lib, = space.create_group("lib", [512])
        heap, = space.create_group("heap", [256])
        parent = TenantView(
            pool, "parent", share_key=segment_share_key("parent", {"lib"})
        )
        child = parent.fork("child")
        assert child.key_for(lib) == parent.key_for(lib) == ("shared", lib)
        assert parent.key_for(heap) == ("parent", heap)
        assert child.key_for(heap) == ("child", heap)

    @pytest.mark.parametrize("rule", ("partial", "callable object"))
    def test_any_callable_rule_is_resalted(self, rule):
        """A rule without ``__qualname__`` forks like a function does."""

        def split(tenant, bound, page):
            return ("shared", page) if page < bound else (tenant, page)

        class Split:
            def __call__(self, page):
                return split("parent", 4, page)

        share_key = (functools.partial(split, "parent", 4)
                     if rule == "partial" else Split())
        pool = SharedFramePool(8)
        parent = TenantView(pool, "parent", share_key=share_key)
        child = parent.fork("child")
        assert child.key_for(1) == parent.key_for(1) == ("shared", 1)
        assert parent.key_for(6) == ("parent", 6)
        assert child.key_for(6) == ("child", 6)
        assert child.acquire(1) == parent.acquire(1)
        assert pool.ref_count(("shared", 1)) == 2

    def test_forked_namespace_names_stay_stable(self):
        space = SymbolicallySegmentedNameSpace()
        names = space.create_group("lib", [128, 256])
        forked = space.fork()
        for name in names:
            assert name in forked
            assert forked.address(name, 0) == space.address(name, 0)
        forked.create_group("scratch", [64])
        assert ("scratch", 0) in forked
        assert ("scratch", 0) not in space   # divergence after the fork


class TestQuotaSemantics:
    """Quota charges *logical* residency — one unit per resident local
    page, regardless of physical sharing (see the TenantView docstring).
    The traffic tier's admission ledger sums quotas against the pool, so
    these semantics are load-bearing for its overcommit arithmetic."""

    def test_shared_hit_still_charges_a_unit(self):
        pool = SharedFramePool(8)
        a = TenantView(pool, "a", quota=2, shared_pages=4)
        b = TenantView(pool, "b", quota=2, shared_pages=4)
        a.acquire(0)
        b.acquire(0)                         # physically free (a share)...
        b.acquire(1)
        assert pool.resident_count == 2      # two frames pinned in total
        assert b.resident_count == 2         # ...but logically full
        assert b.is_full()
        with pytest.raises(ValueError, match="quota"):
            b.acquire(2)

    def test_dedup_hit_still_charges_a_unit(self):
        pool = SharedFramePool(8)
        view = TenantView(pool, "t0", quota=1, shared_pages=4)
        view.acquire(0)
        view.release(0)                      # zero-ref, content cached
        _, hit = view.acquire_detail(0)
        assert hit == "dedup"
        assert view.resident_count == 1
        assert view.is_full()

    def test_release_refunds_exactly_one_unit(self):
        pool = SharedFramePool(8)
        view = TenantView(pool, "t0", quota=2, shared_pages=4)
        view.acquire(0)
        view.acquire(1)
        view.release(0)
        assert view.resident_count == 1
        assert not view.is_full()
        view.acquire(2)                      # the refunded unit is usable

    def test_cow_break_is_charge_neutral(self):
        pool = SharedFramePool(8)
        a = TenantView(pool, "a", quota=1, shared_pages=4)
        b = TenantView(pool, "b", quota=1, shared_pages=4)
        a.acquire(0)
        b.acquire(0)
        assert b.is_full()
        b.note_write(0)                      # new frame, same logical page
        assert b.resident_count == 1
        assert b.is_full()

    def test_quota_sum_can_exceed_physical_frames(self):
        """The overcommit bet: three tenants, quota 2 each, over a
        4-frame pool — all full, yet only 2 frames pinned."""
        pool = SharedFramePool(4)
        views = [
            TenantView(pool, f"t{i}", quota=2, shared_pages=4)
            for i in range(3)
        ]
        for view in views:
            view.acquire(0)
            view.acquire(1)
        assert all(view.is_full() for view in views)
        assert pool.resident_count == 2
        pool.check_invariants()


class TestShareKeyAliasing:
    """A share_key must map each tenant page to a distinct key; an
    aliasing map would give two local pages one frame and break the
    quota/residency bookkeeping silently."""

    def test_aliasing_share_key_is_rejected(self):
        pool = SharedFramePool(8)
        view = TenantView(pool, "t0", share_key=lambda page: ("shared", 0))
        view.acquire(0)
        with pytest.raises(ValueError, match="already mapped"):
            view.acquire(1)

    def test_error_names_the_colliding_page_and_tenant(self):
        pool = SharedFramePool(8)
        view = TenantView(pool, "alias", share_key=lambda page: "same")
        view.acquire(7)
        with pytest.raises(ValueError, match=r"page 7.*tenant alias"):
            view.acquire(8)

    def test_rejection_leaves_no_partial_state(self):
        pool = SharedFramePool(8)
        view = TenantView(pool, "t0", share_key=lambda page: ("k", page % 2))
        view.acquire(0)
        with pytest.raises(ValueError, match="already mapped"):
            view.acquire(2)
        assert view.resident_pages() == [0]
        assert pool.ref_total == 1
        pool.check_invariants()

    def test_honest_share_keys_are_unaffected(self):
        pool = SharedFramePool(8)
        view = TenantView(pool, "t0", shared_pages=2)
        for page in range(4):
            view.acquire(page)
        assert view.resident_count == 4


class TestUnregisterView:
    def test_empty_view_leaves_the_ledger(self):
        pool = SharedFramePool(8)
        view = TenantView(pool, "t0")
        view.acquire(0)
        view.release(0)
        pool.unregister_view(view)
        pool.check_invariants()
        # The retired view no longer shadows the conservation sums.
        other = TenantView(pool, "t1")
        other.acquire(0)
        pool.check_invariants()

    def test_resident_view_is_refused(self):
        pool = SharedFramePool(8)
        view = TenantView(pool, "t0")
        view.acquire(0)
        with pytest.raises(ValueError, match="t0"):
            pool.unregister_view(view)

    def test_unknown_view_is_refused(self):
        pool = SharedFramePool(8)
        stranger = TenantView(SharedFramePool(8), "elsewhere")
        with pytest.raises(ValueError, match="not registered"):
            pool.unregister_view(stranger)

    def test_double_unregister_is_refused(self):
        pool = SharedFramePool(8)
        view = TenantView(pool, "t0")
        pool.unregister_view(view)
        with pytest.raises(ValueError, match="not registered"):
            pool.unregister_view(view)


def make_pager(frames, latency=500, **view_kwargs):
    clock = Clock()
    table = PageTable(page_size=128, pages=32)
    backing = BackingStore(
        StorageLevel("drum", 10**7, access_time=latency, transfer_rate=1.0),
        clock=clock,
    )
    if view_kwargs:
        pool = view_kwargs.pop("pool")
        frame_source = TenantView(pool, quota=frames, **view_kwargs)
    else:
        frame_source = FrameTable(frames)
    pager = DemandPager(table, frame_source, backing, LruPolicy(), clock)
    return pager, clock


class TestPagerIntegration:
    REFS = [(0, False), (1, True), (2, False), (0, False), (3, True),
            (1, False), (4, False), (0, True), (2, False), (5, False),
            (1, True), (0, False)]

    def test_unshared_view_is_bit_identical_to_frame_table(self):
        base, base_clock = make_pager(3)
        pool = SharedFramePool(3)
        served, served_clock = make_pager(3, pool=pool, tenant="t0")
        for page, write in self.REFS:
            base.access_page(page, write=write)
            served.access_page(page, write=write)
        assert served.stats == base.stats
        assert served_clock.now == base_clock.now

    def test_pager_skips_fetch_for_shared_content(self):
        pool = SharedFramePool(8)
        warm, _ = make_pager(4, pool=pool, tenant="warm", shared_pages=32)
        cold, cold_clock = make_pager(4, pool=pool, tenant="cold",
                                      shared_pages=32)
        for page in (0, 1, 2, 3):
            warm.access_page(page)
        before = cold_clock.now
        for page in (0, 1, 2, 3):
            cold.access_page(page)
        # All four faults attached to resident frames: no transfer time
        # (the clock moves only by mapping overhead, never by a fetch).
        assert cold.stats.faults == 4
        assert cold.stats.fetch_wait_cycles == 0
        assert cold_clock.now - before < 500
        assert pool.stats.shares == 4

    def test_pager_write_breaks_cow_and_remaps(self):
        pool = SharedFramePool(8)
        reader, _ = make_pager(4, pool=pool, tenant="reader", shared_pages=32)
        writer, _ = make_pager(4, pool=pool, tenant="writer", shared_pages=32)
        reader.access_page(0)
        writer.access_page(0)
        assert pool.stats.shares == 1
        writer.access_page(0, write=True)
        assert pool.stats.cow_breaks == 1
        entry = writer.page_table.entry(0)
        # The page table follows the view to the new private frame.
        assert entry.frame == writer.frames.frame_of(0)
        assert entry.frame != reader.frames.frame_of(0)
