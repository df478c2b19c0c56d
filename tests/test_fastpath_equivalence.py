"""Differential tests: fastpath kernels vs. the reference implementations.

The contract (see ``repro.fastpath``) is bit-identity, not approximate
agreement: for every trace the batched kernels must produce the same
fault count, the same cold-fault count, the same fault positions, and
the same victim sequence as the per-access reference loop.  The free
list must hand out the addresses, fail on the requests and keep the
holes of the brute-force model in ``tests/alloc_reference.py``.  These
tests sweep randomized workloads across 100+ seeds so a tie-break
divergence anywhere shows up as a concrete seed.
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
from tests.alloc_reference import RULES, ReferenceFreeList

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

    @pytest.mark.parametrize("fast", (True, False))
    @pytest.mark.parametrize("name", FAST_POLICIES)
    @pytest.mark.parametrize("frames", (2.5, 4.0, True, "4"))
    def test_non_int_frames_rejected(self, frames, name, fast):
        # A fractional frame count would replay on the list kernels as
        # if no frame ever filled, and the reference loop could not
        # build its frame table: every tier refuses it up front.
        trace = phased_trace(pages=32, length=2000, working_set=8,
                             phase_length=100, locality=0.9, seed=1)
        message = f"frames must be an int, got {frames!r}"
        with pytest.raises(TypeError, match=message):
            simulate_trace(trace, frames, _make_policy(name, trace),
                           fast=fast)
        if fast:
            with pytest.raises(TypeError, match=message):
                run_fast(trace, frames, _make_policy(name, trace))
            columnar = ColumnarTrace(trace)
            with pytest.raises(TypeError, match=message):
                run_columnar(columnar, frames, _make_policy(name, columnar),
                             force=True)


MODEL_POLICIES = tuple(RULES)


class TestAllocatorEquivalence:
    @pytest.mark.parametrize("policy", MODEL_POLICIES)
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
        allocator = FreeListAllocator(capacity, policy=policy)
        model = ReferenceFreeList(capacity, policy)
        live = {}
        failures = 0
        for time, action, request in request_schedule(requests):
            where = f"seed={seed} t={time} {action} size={request.size}"
            if action == "allocate":
                expected = model.allocate(request.size)
                try:
                    allocation = allocator.allocate(request.size)
                except OutOfMemory:
                    assert expected is None, f"{where}: model placed at {expected}"
                    failures += 1
                else:
                    assert allocation.address == expected, where
                    live[id(request)] = allocation
            elif id(request) in live:
                allocation = live.pop(id(request))
                allocator.free(allocation)
                model.free(allocation.address)
            assert allocator.holes() == model.holes(), where
        allocator.check_invariants()
        assert allocator.counters.failures == failures
        assert allocator.counters.search_steps == model.search_steps

    @pytest.mark.parametrize("policy", MODEL_POLICIES)
    def test_exhaustion_and_reuse(self, policy):
        allocator = FreeListAllocator(100, policy=policy)
        model = ReferenceFreeList(100, policy)
        blocks = [allocator.allocate(10) for _ in range(10)]
        assert [block.address for block in blocks] == [
            model.allocate(10) for _ in range(10)
        ]
        with pytest.raises(OutOfMemory):
            allocator.allocate(1)
        assert model.allocate(1) is None
        for block in blocks[::2]:
            allocator.free(block)
            model.free(block.address)
        allocator.check_invariants()
        assert allocator.holes() == model.holes()
        # Refill the freed checkerboard: the model's addresses, in order.
        assert [allocator.allocate(10).address for _ in range(5)] == [
            model.allocate(10) for _ in range(5)
        ]
        assert allocator.holes() == model.holes() == []

    def test_indexed_next_fit_rejected(self):
        # The indexed backend is gone: asking for it, with next_fit or
        # the default policy, fails at construction.
        with pytest.raises(TypeError, match="indexed"):
            FreeListAllocator(100, policy="next_fit", indexed=True)
        with pytest.raises(TypeError, match="indexed"):
            FreeListAllocator(100, indexed=True)
