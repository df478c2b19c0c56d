"""Differential tests: fastpath kernels vs. the reference implementations.

The contract (see ``repro.fastpath``) is bit-identity, not approximate
agreement: for every trace the batched kernels must produce the same
fault count, the same cold-fault count, the same fault positions, and
the same victim sequence as the per-access reference loop; the indexed
free list must hand out the same addresses and fail on the same requests
as the linear scan.  These tests sweep randomized workloads across 100+
seeds so a tie-break divergence anywhere shows up as a concrete seed.
"""

from __future__ import annotations

import random

import pytest

from repro.alloc import FreeListAllocator
from repro.errors import OutOfMemory
from repro.fastpath import run_columnar, run_fast
from repro.paging import (
    BeladyOptimalPolicy,
    ClockPolicy,
    FifoPolicy,
    LruPolicy,
    make_policy,
    simulate_trace,
)
from repro.trace import ColumnarTrace
from repro.workload import (
    exponential_requests,
    phased_trace,
    random_trace,
    request_schedule,
    zipf_trace,
)

SEEDS = range(100)

FAST_POLICIES = ("lru", "fifo", "clock", "opt")


def _make_policy(name: str, trace):
    if name == "opt":
        return BeladyOptimalPolicy(trace)
    return make_policy(name)


def _trace_for_seed(seed: int):
    """A varied workload: shape, size, and locality all depend on the seed."""
    rng = random.Random(seed)
    pages = rng.randint(4, 60)
    length = rng.randint(50, 600)
    kind = seed % 3
    if kind == 0:
        return random_trace(pages, length, seed=seed)
    if kind == 1:
        return zipf_trace(pages, length, skew=1.0 + rng.random(), seed=seed)
    return phased_trace(
        pages,
        length,
        working_set=rng.randint(2, max(2, pages // 2)),
        phase_length=rng.randint(10, 80),
        locality=0.7 + 0.25 * rng.random(),
        seed=seed,
    )


def _run_pair(name: str, trace, frames: int):
    slow = simulate_trace(
        trace,
        frames,
        _make_policy(name, trace),
        record_positions=True,
        record_evictions=True,
        fast=False,
    )
    fast = simulate_trace(
        trace,
        frames,
        _make_policy(name, trace),
        record_positions=True,
        record_evictions=True,
        fast=True,
    )
    return slow, fast


class TestReplayEquivalence:
    @pytest.mark.parametrize("name", FAST_POLICIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical_across_seeds(self, name, seed):
        trace = _trace_for_seed(seed)
        frames = random.Random(seed * 31 + 7).randint(1, 24)
        slow, fast = _run_pair(name, trace, frames)
        assert fast.faults == slow.faults, f"seed={seed} frames={frames}"
        assert fast.cold_faults == slow.cold_faults
        assert fast.evictions == slow.evictions
        assert fast.fault_positions == slow.fault_positions
        assert fast.victims == slow.victims
        assert fast.references == slow.references == len(trace)
        assert fast.policy == slow.policy

    @pytest.mark.parametrize("name", FAST_POLICIES)
    def test_empty_trace(self, name):
        trace = [] if name != "opt" else []
        slow, fast = _run_pair(name, trace, 4)
        assert fast == slow

    @pytest.mark.parametrize("name", FAST_POLICIES)
    def test_single_frame_thrash(self, name):
        trace = [0, 1, 0, 1, 2, 2, 0]
        slow, fast = _run_pair(name, trace, 1)
        assert fast == slow

    @pytest.mark.parametrize("name", FAST_POLICIES)
    def test_frames_exceed_pages(self, name):
        trace = [0, 1, 2, 0, 1, 2]
        slow, fast = _run_pair(name, trace, 16)
        assert fast == slow
        assert fast.evictions == 0

    def test_fast_false_forces_reference_loop(self):
        # The reference loop mutates the policy; the kernel must not.
        trace = [0, 1, 2, 3, 0, 1]
        policy = LruPolicy()
        simulate_trace(trace, 2, policy, fast=True)
        assert policy.last_use == {}
        simulate_trace(trace, 2, policy, fast=False)
        assert policy.last_use != {}


class TestFastDispatchGuards:
    def test_subclass_falls_back(self):
        # A subclass may override choose_victim; the kernel must not claim it.
        class SpitefulLru(LruPolicy):
            def choose_victim(self, resident, now):
                return max(resident, key=lambda p: self.last_use[p])

        trace = [0, 1, 2, 0, 3, 1]
        subclassed = simulate_trace(trace, 2, SpitefulLru(), fast=True)
        reference = simulate_trace(trace, 2, SpitefulLru(), fast=False)
        assert subclassed.faults == reference.faults
        assert subclassed.victims == reference.victims == []

    def test_opt_with_wrong_trace_falls_back_and_raises(self):
        policy = BeladyOptimalPolicy([0, 1, 2])
        with pytest.raises(ValueError, match="trace mismatch"):
            simulate_trace([9, 8, 7], 2, policy, fast=True)

    def test_opt_with_advanced_cursor_falls_back(self):
        trace = [0, 1, 2, 0, 1]
        policy = BeladyOptimalPolicy(trace)
        policy.on_load(0, 0)   # cursor now 1: kernel would desynchronize
        with pytest.raises(ValueError, match="trace mismatch"):
            simulate_trace(trace, 2, policy, fast=True)

    def test_writes_forces_reference_loop(self):
        trace = [0, 1, 0, 2, 1]
        writes = [True, False, True, False, False]
        policy = LruPolicy()
        result = simulate_trace(trace, 2, policy, writes=writes, fast=True)
        # The reference loop ran: the policy saw the modified bits.
        assert policy.modified != {} or result.faults > 0
        reference = simulate_trace(
            trace, 2, LruPolicy(), writes=writes, fast=False
        )
        assert result.faults == reference.faults

    @pytest.mark.parametrize("name", FAST_POLICIES)
    @pytest.mark.parametrize("frames", (0, -1))
    def test_non_positive_frames_rejected(self, name, frames):
        # The public entry points reject frames like the reference loop
        # does, instead of failing inside a kernel or replaying anyway.
        trace = [1, 2, 3, 1, 2]
        message = f"frames must be positive, got {frames}"
        with pytest.raises(ValueError, match=message):
            run_fast(trace, frames, _make_policy(name, trace))
        columnar = ColumnarTrace(trace)
        with pytest.raises(ValueError, match=message):
            run_columnar(
                columnar, frames, _make_policy(name, columnar), force=True
            )


def _drive(allocator: FreeListAllocator, requests):
    """(address sequence with -1 for failures, final holes) of a schedule."""
    live: dict[int, object] = {}
    addresses: list[int] = []
    for _, action, request in request_schedule(requests):
        if action == "allocate":
            try:
                allocation = allocator.allocate(request.size)
            except OutOfMemory:
                addresses.append(-1)
            else:
                live[id(request)] = allocation
                addresses.append(allocation.address)
        elif id(request) in live:
            allocator.free(live.pop(id(request)))
    allocator.check_invariants()
    return addresses, allocator.holes()


INDEXED_POLICIES = ("first_fit", "best_fit", "worst_fit")


class TestAllocatorEquivalence:
    @pytest.mark.parametrize("policy", INDEXED_POLICIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_identical_addresses_across_seeds(self, policy, seed):
        rng = random.Random(seed)
        capacity = rng.randint(2_000, 20_000)
        requests = exponential_requests(
            count=rng.randint(40, 250),
            mean_size=rng.randint(10, 200),
            mean_lifetime=rng.randint(5, 80),
            max_size=capacity // 2,
            seed=seed,
        )
        linear = FreeListAllocator(capacity, policy=policy)
        indexed = FreeListAllocator(capacity, policy=policy, indexed=True)
        linear_addresses, linear_holes = _drive(linear, requests)
        indexed_addresses, indexed_holes = _drive(indexed, requests)
        assert indexed_addresses == linear_addresses, f"seed={seed}"
        assert indexed_holes == linear_holes
        assert indexed.free_words == linear.free_words
        assert indexed.largest_hole == linear.largest_hole
        assert indexed.counters.failures == linear.counters.failures
        assert indexed.counters.words_allocated == linear.counters.words_allocated

    @pytest.mark.parametrize("policy", INDEXED_POLICIES)
    def test_exhaustion_and_reuse(self, policy):
        linear = FreeListAllocator(100, policy=policy)
        indexed = FreeListAllocator(100, policy=policy, indexed=True)
        for allocator in (linear, indexed):
            blocks = [allocator.allocate(10) for _ in range(10)]
            with pytest.raises(OutOfMemory):
                allocator.allocate(1)
            for block in blocks[::2]:
                allocator.free(block)
            allocator.check_invariants()
        assert linear.holes() == indexed.holes()
        # Refill the freed checkerboard: same addresses either way.
        assert [linear.allocate(10).address for _ in range(5)] == [
            indexed.allocate(10).address for _ in range(5)
        ]

    def test_indexed_next_fit_rejected(self):
        with pytest.raises(ValueError, match="next_fit"):
            FreeListAllocator(100, policy="next_fit", indexed=True)
