"""Seeded fuzzing of allocator state through the invariant engine.

Satellite of the checked-mode work: random allocate/free/compact
sequences across every placement policy, with ``check_invariants()``
run after every operation and an :class:`~repro.check.InvariantSink`
riding the allocator's tracer.
OutOfMemory rejections and post-compaction states are part of the walk —
exactly the regimes where the rover bug and the non-transactional
compact used to corrupt state silently.

A *modelled* walk also mirrors every step on the brute-force model in
``tests/alloc_reference.py``: each placement, each rejection and the
holes after each step, compactions included, must match it.  The model
has no next-fit rover, so next-fit walks are never modelled.
"""

import random

import pytest

from repro.alloc import FreeListAllocator
from repro.alloc.compaction import compact
from repro.check import InvariantSink, InvariantSuite, check_invariants
from repro.errors import OutOfMemory
from repro.observe.tracer import Tracer
from tests.alloc_reference import RULES, ReferenceFreeList

POLICIES = ("first_fit", "best_fit", "worst_fit", "next_fit")
SEEDS = (0, 1, 2)

CASES = [
    (policy, modelled, seed)
    for policy in POLICIES
    for modelled in (False, True)
    for seed in SEEDS
    if policy in RULES or not modelled
]


def fuzz_walk(policy, modelled, seed, steps=300):
    """One random walk; returns (allocator, ops-performed counters)."""
    rng = random.Random(f"fuzz:{policy}:{modelled}:{seed}")
    suite = InvariantSuite()
    sink = InvariantSink([], suite=suite, every=8)
    allocator = FreeListAllocator(2048, policy=policy, tracer=Tracer([sink]))
    sink.subjects.append(allocator)
    model = ReferenceFreeList(2048, policy) if modelled else None
    live = []
    performed = {"allocate": 0, "free": 0, "compact": 0, "oom": 0}
    for step in range(steps):
        roll = rng.random()
        if roll < 0.55:
            size = rng.choice((1, 3, 16, 64, 200, 700))
            expected = model.allocate(size) if model else None
            try:
                block = allocator.allocate(size)
            except OutOfMemory:
                performed["oom"] += 1
                assert expected is None, f"step {step}: model placed {size}"
            else:
                live.append(block)
                performed["allocate"] += 1
                assert model is None or block.address == expected, f"step {step}"
        elif roll < 0.9 and live:
            block = live.pop(rng.randrange(len(live)))
            allocator.free(block)
            if model:
                model.free(block.address)
            performed["free"] += 1
        elif roll >= 0.9:
            result = compact(allocator)
            performed["compact"] += 1
            # Compaction relocates: refresh handles via the map.
            live = [
                type(block)(result.relocations.get(block.address, block.address),
                            block.size)
                for block in live
            ]
            if model:
                model.live = {
                    result.relocations.get(address, address): size
                    for address, size in model.live.items()
                }
        check_invariants(allocator, suite=suite)
        if model:
            assert allocator.holes() == model.holes(), f"step {step}"
    return allocator, suite, performed


@pytest.mark.parametrize("policy,modelled,seed", CASES)
def test_fuzz_walk_stays_consistent(policy, modelled, seed):
    allocator, suite, performed = fuzz_walk(policy, modelled, seed)
    assert suite.ok
    assert suite.checks_run > 0
    assert performed["allocate"] > 0 and performed["free"] > 0
    assert performed["compact"] > 0
    allocator.check_invariants()


def test_fuzz_reaches_out_of_memory():
    """At least one walk must exercise the rejection path."""
    total_oom = 0
    for policy, modelled, seed in CASES:
        _, _, performed = fuzz_walk(policy, modelled, seed, steps=150)
        total_oom += performed["oom"]
    assert total_oom > 0


def test_fuzz_post_compaction_state_is_maximal_hole():
    """After compaction with no frees pending, one hole remains."""
    allocator, _, _ = fuzz_walk("best_fit", False, 0)
    compact(allocator)
    holes = allocator.holes()
    assert len(holes) <= 1
    check_invariants(allocator)
