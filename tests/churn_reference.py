"""The per-request churn leg: the oracle the sweep's churn leg must match.

This is ``_churn`` from ``repro.sweep.shard`` as it was before the leg
walked an integer schedule over int request columns.  It builds one
``AllocationRequest`` per request, orders ``(time, action, request)``
tuples, and keys live blocks by ``id(request)``.  Its stream and
schedule come from the per-draw generators in
``tests/workload_reference.py``, so nothing here shares code with the
columns it checks.  It is kept test-only and unchanged as the reference
``tests/test_requests_differential.py`` pins the leg's record, counters
and deterministic telemetry to.
"""

from __future__ import annotations

from repro.alloc.freelist import FreeListAllocator
from repro.alloc.stats import fragmentation_stats, paging_internal_waste
from repro.errors import OutOfMemory
from repro.observe.counters import Counters, absorb_allocator_counters
from repro.observe.telemetry.registry import TelemetryRegistry
from repro.sweep.grid import derive_seed
from repro.sweep.shard import CHECK_EVERY_OPS, SAMPLE_EVERY_OPS
from tests.workload_reference import exponential_requests, request_schedule


def churn(spec: dict, config, counters: Counters,
          telemetry: TelemetryRegistry) -> dict:
    requests = exponential_requests(
        spec["requests"],
        mean_size=60,
        mean_lifetime=spec["mean_lifetime"],
        max_size=max(64, min(2_000, spec["capacity"] // 8)),
        seed=derive_seed(spec["base_seed"], spec["shard"], "alloc"),
    )
    allocator = FreeListAllocator(spec["capacity"], policy=spec["placement"])
    checked = spec["checked"]
    suite = None
    if checked:
        from repro.check.invariants import InvariantSuite

        suite = InvariantSuite()
    size_sketch = telemetry.histogram("alloc.request_words", unit="words")
    live: dict[int, object] = {}
    sizes: list[int] = []
    ops = failures = 0
    # By the end of the schedule every request has died and the free
    # list has coalesced back to one hole, so fragmentation must be
    # sampled *under load*: keep the stats from the busiest sample.
    frag = fragmentation_stats(allocator)
    for _, action, request in request_schedule(requests):
        if action == "allocate":
            ops += 1
            sizes.append(request.size)
            try:
                live[id(request)] = allocator.allocate(request.size)
            except OutOfMemory:
                failures += 1
        elif id(request) in live:
            ops += 1
            allocator.free(live.pop(id(request)))
        if ops % SAMPLE_EVERY_OPS == 0:
            sample = fragmentation_stats(allocator)
            if sample.utilization >= frag.utilization:
                frag = sample
        if suite is not None and ops % CHECK_EVERY_OPS == 0:
            suite.check(allocator)
    if suite is not None:
        suite.check(allocator)
    # Every size is a whole word count, so one batch folds as a tally.
    size_sketch.observe_many(sizes)
    absorb_allocator_counters(counters, allocator.counters)
    wasted, reserved = paging_internal_waste(sizes, config.page_size)
    return {
        "alloc_ops": ops,
        "alloc_failures": failures,
        "free_words": frag.free_words,
        "holes": frag.hole_count,
        "largest_hole": frag.largest_hole,
        "external_frag": round(frag.external_fragmentation, 6),
        "utilization": round(frag.utilization, 6),
        "internal_frag": round(wasted / reserved, 6) if reserved else 0.0,
    }
