"""The serving tier's differential contract, pinned across 100 seeds.

Sharing degree 1 with nothing shared *is* the unshared path: the
shared-pool replay must be bit-identical — faults, cold faults,
evictions, fault positions, victim sequences, and the ``replay.*``
telemetry counters — to ``simulate_trace``'s reference loop, and a
DemandPager over an unshared TenantView must produce the exact
PagerStats a bare FrameTable does.  Everything the serving tier adds is provably inert
until a second tenant or a shared page exists.

At every degree, the event-driven ``simulate_shared`` (per-tenant
kernels, then only the pool events) must match the per-reference loop
it replaced, kept as the oracle in ``tests/serve_reference.py``:
results, pool statistics, the event stream in order, and telemetry —
and it must fail with the same ``OutOfMemory`` when the
pool is overcommitted.
"""

import random

import pytest

from repro.addressing import PageTable
from repro.clock import Clock
from repro.errors import OutOfMemory
from repro.memory import BackingStore, StorageLevel
from repro.observe.sinks import CallbackSink
from repro.observe.telemetry import TelemetryRegistry
from repro.observe.tracer import Tracer
from repro.paging import DemandPager, FrameTable, LruPolicy
from repro.paging.replacement import (
    REPLACEMENT_POLICIES,
    BeladyOptimalPolicy,
    make_policy,
)
from repro.paging.simulate import simulate_trace
from repro.serve import (
    SharedFramePool,
    TenantView,
    seeded_writes,
    simulate_shared,
)
from repro.workload.reference import phased_trace
from tests.serve_reference import simulate_shared_reference

SEEDS = range(100)
POLICIES = sorted(REPLACEMENT_POLICIES)


def degree_one_trace(seed):
    return phased_trace(
        pages=32, length=300, working_set=6, phase_length=60,
        locality=0.9, seed=seed,
    )


def replay_counters(telemetry):
    """A registry's ``replay.*`` counters."""
    return {name: value
            for name, value in telemetry.snapshot()["counters"].items()
            if name.startswith("replay.")}


@pytest.mark.parametrize("seed", SEEDS)
def test_degree_one_is_bit_identical(seed):
    trace = list(degree_one_trace(seed))
    base_telemetry = TelemetryRegistry()
    base = simulate_trace(
        trace, 8, make_policy("lru"),
        record_positions=True, record_evictions=True,
        telemetry=base_telemetry, fast=False,
    )
    served_telemetry = TelemetryRegistry()
    served = simulate_shared(
        [trace], 8, lambda _index: make_policy("lru"),
        record_positions=True, record_evictions=True,
        telemetry=served_telemetry,
    )
    tenant = served.tenants[0]
    assert tenant.faults == base.faults
    assert tenant.cold_faults == base.cold_faults
    assert tenant.evictions == base.evictions
    assert tenant.fault_positions == base.fault_positions
    assert tenant.victims == base.victims
    assert replay_counters(served_telemetry) == replay_counters(base_telemetry)


@pytest.mark.parametrize("seed", range(10))
def test_degree_one_with_writes_is_bit_identical(seed):
    trace = list(degree_one_trace(seed))
    writes = seeded_writes(len(trace), fraction=0.2, seed=seed)
    base = simulate_trace(
        trace, 8, make_policy("lru"), writes=writes,
        record_positions=True, record_evictions=True, fast=False,
    )
    served = simulate_shared(
        [trace], 8, lambda _index: make_policy("lru"), writes=[writes],
        record_positions=True, record_evictions=True,
    )
    tenant = served.tenants[0]
    assert (tenant.faults, tenant.evictions) == (base.faults, base.evictions)
    assert tenant.fault_positions == base.fault_positions
    assert tenant.victims == base.victims


def test_sharing_changes_fetches_not_tenant_results():
    """Sharing is invisible to each tenant's own fault accounting."""
    trace_a = list(degree_one_trace(1))
    trace_b = list(degree_one_trace(2))
    alone_a = simulate_shared([trace_a], 8, lambda _i: make_policy("lru"))
    alone_b = simulate_shared([trace_b], 8, lambda _i: make_policy("lru"))
    together = simulate_shared(
        [trace_a, trace_b], 8, lambda _i: make_policy("lru"),
        shared_pages=16,
    )
    assert together.tenants[0].faults == alone_a.tenants[0].faults
    assert together.tenants[1].faults == alone_b.tenants[0].faults
    assert together.shares + together.dedup_hits > 0
    assert together.fetches < together.faults


def make_pager(frames, frame_source, latency=500):
    clock = Clock()
    pager = DemandPager(
        PageTable(page_size=128, pages=32),
        frame_source,
        BackingStore(
            StorageLevel("drum", 10**7, access_time=latency,
                         transfer_rate=1.0),
            clock=clock,
        ),
        LruPolicy(),
        clock,
    )
    return pager, clock


@pytest.mark.parametrize("seed", range(10))
def test_pager_over_unshared_view_matches_frame_table(seed):
    trace = list(degree_one_trace(seed))
    writes = seeded_writes(len(trace), fraction=0.15, seed=seed + 1000)
    base, base_clock = make_pager(4, FrameTable(4))
    view = TenantView(SharedFramePool(4), "t0", quota=4)
    served, served_clock = make_pager(4, view)
    for page, write in zip(trace, writes):
        base.access_page(page, write=write)
        served.access_page(page, write=write)
    assert served.stats == base.stats
    assert served_clock.now == base_clock.now


def policy_factory(name, traces):
    def make(index):
        if name == "opt":
            return BeladyOptimalPolicy(traces[index])
        return make_policy(name)

    return make


def oracle_case(seed):
    """A seeded configuration: degree 1-4, uneven lengths, any policy.

    Odd seeds keep ``phased_trace``'s ``ColumnarTrace``, so the
    replay reads their pages through ``replay_view()``; even seeds
    replay plain lists.
    """
    rng = random.Random(f"serve-oracle:{seed}")
    tenants = 1 + seed % 4
    pages = rng.randint(8, 40)
    traces = []
    for _ in range(tenants):
        length = rng.randint(0, 400)
        trace = phased_trace(
            pages=pages, length=length, working_set=rng.randint(2, 8),
            phase_length=rng.randint(10, 80),
            locality=0.6 + 0.35 * rng.random(), seed=rng.randrange(1 << 30),
        ) if length else []
        traces.append(trace if seed % 2 else list(trace))
    fraction = rng.choice((None, 0.1, 0.3))
    writes = None if fraction is None else [
        seeded_writes(len(trace), fraction=fraction,
                      seed=rng.randrange(1 << 30))
        for trace in traces
    ]
    return dict(
        traces=traces,
        frames=rng.randint(1, 10),
        policy_factory=policy_factory(POLICIES[seed % len(POLICIES)], traces),
        shared_pages=rng.choice((0, pages // 2)),
        writes=writes,
    )


def instrumented_run(simulate, case):
    """``(result or OutOfMemory, events, telemetry)``."""
    events = []
    telemetry = TelemetryRegistry()
    try:
        outcome = simulate(
            **case, record_positions=True, record_evictions=True,
            tracer=Tracer([CallbackSink(events.append)]),
            telemetry=telemetry,
        )
    except OutOfMemory as error:
        outcome = error
    return outcome, events, telemetry.deterministic_snapshot()


@pytest.mark.parametrize("seed", SEEDS)
def test_event_driven_replay_matches_the_per_reference_loop(seed):
    case = oracle_case(seed)
    result, events, telemetry = instrumented_run(simulate_shared, case)
    expected, expected_events, expected_telemetry = instrumented_run(
        simulate_shared_reference, case
    )
    # Per-tenant results include fault positions and victim sequences.
    assert result.tenants == expected.tenants
    assert (result.shares, result.dedup_hits, result.cow_breaks) == (
        expected.shares, expected.dedup_hits, expected.cow_breaks
    )
    assert (result.shared_frame_cycles, result.private_frame_cycles) == (
        expected.shared_frame_cycles, expected.private_frame_cycles
    )
    assert result.pool_stats == expected.pool_stats
    assert result == expected
    assert events == expected_events
    assert telemetry == expected_telemetry


def test_oracle_cases_reach_every_pool_event():
    """The seeded cases exercise what the differential must cover."""
    seen = {"shares": 0, "dedup_hits": 0, "cow_breaks": 0, "evictions": 0}
    degrees, policies, kinds = set(), set(), set()
    for seed in SEEDS:
        case = oracle_case(seed)
        result = simulate_shared(**case)
        for name in seen:
            seen[name] += getattr(result, name)
        degrees.add(result.sharing)
        policies.add(result.tenants[0].policy)
        kinds.update(type(trace).__name__ for trace in case["traces"]
                     if len(trace))
    assert all(seen.values()), seen
    assert degrees == {1, 2, 3, 4}
    assert len(policies) == len(POLICIES)
    assert kinds == {"list", "ColumnarTrace"}


@pytest.mark.parametrize("seed", range(20))
def test_overcommitted_pool_fails_like_the_per_reference_loop(seed):
    case = oracle_case(seed)
    case["pool_frames"] = max(1, case["frames"] * len(case["traces"]) * 2 // 3)
    outcome, events, _ = instrumented_run(simulate_shared, case)
    expected, expected_events, _ = instrumented_run(
        simulate_shared_reference, case
    )
    assert type(outcome) is type(expected)
    if isinstance(expected, OutOfMemory):
        assert str(outcome) == str(expected)
    else:
        assert outcome == expected
    assert events == expected_events


def test_overcommit_raises_partway():
    traces = [list(degree_one_trace(seed)) for seed in range(3)]
    case = dict(traces=traces, frames=6,
                policy_factory=lambda _index: make_policy("lru"),
                shared_pages=16, pool_frames=10,
                writes=[seeded_writes(len(trace), fraction=0.3, seed=index)
                        for index, trace in enumerate(traces)])
    with pytest.raises(OutOfMemory) as caught:
        simulate_shared(**case)
    with pytest.raises(OutOfMemory) as expected:
        simulate_shared_reference(**case)
    assert str(caught.value) == str(expected.value)
    assert "all 10 frames are pinned" in str(caught.value)


def test_unrecorded_positions_and_victims_stay_empty():
    case = oracle_case(7)
    result = simulate_shared(**case)
    assert result.faults and result.evictions
    assert all(tenant.fault_positions == [] and tenant.victims == []
               for tenant in result.tenants)
    assert result == simulate_shared_reference(**case)


def test_shared_policy_object_is_refused():
    """Tenants replay one after another: one policy object cannot serve
    two of them without its state leaking between their replays."""
    policy = make_policy("random")
    traces = [list(degree_one_trace(1)), list(degree_one_trace(2))]
    with pytest.raises(ValueError, match="one policy object"):
        simulate_shared(traces, 8, lambda _index: policy)
    alone = simulate_shared(traces[:1], 8, lambda _index: policy)
    assert alone.tenants[0].faults > 0
