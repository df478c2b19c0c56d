"""Fuzzing the serving ledger through the invariant engine.

Three attack surfaces, all seeded and deterministic:

- Random multi-tenant walks (acquire / release / write / fork) with
  :class:`~repro.check.invariants.RefCountConservation` run every few
  operations — the conservation law must hold at every reachable state.
- Deliberate corruptions of every bookkeeping structure (the pool's
  refcounts, freed-dedup pool and free list, the view maps) — each
  must be *detected*; a checker that never fires proves nothing.
- Fault injection under the pager: with a flaky backing store behind a
  bounded retry loop, a multi-tenant run must finish with stats
  bit-identical to the fault-free run and a clean ledger — transient
  device failures may cost retries, never references.
"""

import random

import pytest

from repro.addressing import PageTable
from repro.check import (
    FaultPlan,
    FlakyBackingStore,
    RetryPolicy,
    RetryingBackingStore,
    check_invariants,
)
from repro.check.invariants import InvariantSuite, RefCountConservation
from repro.clock import Clock
from repro.errors import InvariantViolation, OutOfMemory
from repro.memory import BackingStore, StorageLevel
from repro.paging import DemandPager, LruPolicy
from repro.paging.replacement import make_policy
from repro.serve import SharedFramePool, TenantView, simulate_shared
from repro.workload.reference import phased_trace

SEEDS = (0, 1, 2, 3, 4)


def fuzz_walk(seed, steps=400, frames=12, pages=16, shared_pages=8):
    """Random tenant ops with the conservation law checked as we go."""
    rng = random.Random(f"serve-fuzz:{seed}")
    suite = InvariantSuite()
    pool = SharedFramePool(frames)
    views = [TenantView(pool, "t0", quota=6, shared_pages=shared_pages)]
    performed = {"acquire": 0, "release": 0, "write": 0, "fork": 0, "oom": 0}
    for step in range(steps):
        view = rng.choice(views)
        roll = rng.random()
        if roll < 0.45:
            page = rng.randrange(pages)
            if page not in view and not view.is_full():
                try:
                    view.acquire(page)
                    performed["acquire"] += 1
                except OutOfMemory:
                    performed["oom"] += 1
        elif roll < 0.75:
            resident = view.resident_pages()
            if resident:
                view.release(rng.choice(resident))
                performed["release"] += 1
        elif roll < 0.95:
            resident = view.resident_pages()
            if resident:
                try:
                    view.note_write(rng.choice(resident))
                    performed["write"] += 1
                except OutOfMemory:
                    # A CoW break needs a frame of its own; a pinned-full
                    # pool refusing one is part of the contract.
                    performed["oom"] += 1
        elif len(views) < 4:
            views.append(view.fork(f"t{len(views)}"))
            performed["fork"] += 1
        if step % 8 == 0:
            suite.check_all([pool, *views])
    suite.check_all([pool, *views])
    return pool, views, performed


@pytest.mark.parametrize("seed", SEEDS)
def test_conservation_holds_through_random_walks(seed):
    pool, views, performed = fuzz_walk(seed)
    # The walk genuinely exercised the tier: every op kind happened.
    assert performed["acquire"] > 20
    assert performed["release"] > 10
    assert performed["write"] > 5
    assert performed["fork"] >= 1
    assert sum(view.resident_count for view in views) == pool.ref_total


@pytest.mark.parametrize("seed", SEEDS)
def test_checked_shared_replay_is_clean(seed):
    traces = [
        list(phased_trace(pages=24, length=200, working_set=5,
                          phase_length=40, locality=0.9, seed=seed * 10 + t))
        for t in range(3)
    ]
    result = simulate_shared(
        traces, 6, lambda _index: make_policy("lru"),
        shared_pages=12, checked=True,
    )
    assert result.shares + result.dedup_hits > 0


@pytest.mark.parametrize("nth", (5, 40, 90))
def test_checked_shared_replay_catches_a_planted_leak(nth, plant_leak):
    """A refcount leak partway through a replay trips the pool audit.

    The ``nth`` pin counts twice: the pool then holds a reference no
    tenant view accounts for.  Audits run before every 64th pool event
    and once at the end, so the leak is caught wherever it lands.
    """
    traces = [
        list(phased_trace(pages=24, length=200, working_set=5,
                          phase_length=40, locality=0.9, seed=t))
        for t in range(3)
    ]
    replay = dict(traces=traces, frames=6, shared_pages=12,
                  policy_factory=lambda _index: make_policy("lru"))
    pins = simulate_shared(**replay).pool_stats.acquires
    assert nth < pins
    calls = plant_leak(nth)
    with pytest.raises(InvariantViolation, match="refcount_conservation"):
        simulate_shared(**replay, checked=True)
    assert calls["n"] >= nth


class TestCorruptionsAreDetected:
    """Every ledger structure, when tampered with, must trip the check."""

    def healthy(self):
        pool = SharedFramePool(6)
        a = TenantView(pool, "a", quota=4, shared_pages=4)
        b = a.fork("b")
        a.acquire(0)
        b.acquire(0)
        a.acquire(5)
        b.acquire(1)
        b.release(1)
        check_invariants(pool)   # sanity: clean before tampering
        return pool, a, b

    def expect_violation(self, pool, match=None):
        with pytest.raises(InvariantViolation, match=match):
            check_invariants(pool)

    def test_phantom_reference(self):
        pool, a, b = self.healthy()
        pool._refs[("shared", 0)] += 1
        self.expect_violation(pool, "views hold 2 references")

    def test_leaked_reference(self):
        pool, a, b = self.healthy()
        pool._refs[("shared", 0)] -= 1
        self.expect_violation(pool, "views hold 2 references")

    def test_resident_content_marked_cached(self):
        pool, a, b = self.healthy()
        pool._cached[("a", 5)] = pool.frame_of(("a", 5))
        self.expect_violation(pool)

    def test_pinned_frame_on_free_list(self):
        pool, a, b = self.healthy()
        pool._free.append(pool.frame_of(("shared", 0)))
        self.expect_violation(pool, "partition broken")

    def test_view_remapped_behind_the_pool(self):
        pool, a, b = self.healthy()
        a._frame_of[5] = (a._frame_of[5] + 1) % pool.frame_count
        self.expect_violation(pool, "maps page")

    def test_view_holding_unreferenced_page(self):
        pool, a, b = self.healthy()
        b._frame_of[1] = 0                 # resurrect the released page
        b._page_of_key[b.key_for(1)] = 1
        self.expect_violation(pool)

    def test_refcount_conservation_applies_only_to_pools(self):
        invariant = RefCountConservation()
        assert invariant.applies(SharedFramePool(2))
        assert not invariant.applies(object())


def paged_tenant_run(plan=None, seed=3, length=250):
    """Two forked tenants under pagers; optionally a flaky drum."""
    rng = random.Random(f"serve-inject:{seed}")
    pool = SharedFramePool(8)
    clock = Clock()
    stats = []
    views = [
        TenantView(pool, "a", quota=4, shared_pages=16),
        TenantView(pool, "b", quota=4, shared_pages=16),
    ]
    pagers = []
    for view in views:
        backing = BackingStore(
            StorageLevel("drum", 10**7, access_time=200, transfer_rate=1.0),
            clock=clock,
        )
        if plan is not None:
            backing = RetryingBackingStore(
                FlakyBackingStore(backing, plan),
                RetryPolicy(max_attempts=4),
            )
        pagers.append(DemandPager(
            PageTable(page_size=128, pages=32), view, backing,
            LruPolicy(), clock,
        ))
    for _ in range(length):
        index = rng.randrange(2)
        page = rng.randrange(24)
        write = rng.random() < 0.15
        pagers[index].access_page(page, write=write)
    check_invariants([pool, *views])
    for pager in pagers:
        stats.append(pager.stats)
    return pool, stats


def test_recovered_faults_leave_stats_bit_identical():
    _, clean = paged_tenant_run(plan=None)
    plan = FaultPlan(7, fetch_rate=0.2, store_rate=0.2, max_consecutive=2)
    pool, flaky = paged_tenant_run(plan=plan)
    assert plan.total_injected > 0          # faults really were injected
    assert flaky == clean                   # ...and absorbed invisibly
    check_invariants(pool)
