"""The per-reference shared replay: the oracle ``simulate_shared`` must match.

This is the round-robin loop ``repro.serve.replay.simulate_shared`` ran
before it split into a per-tenant kernel phase and a pool-event phase:
every reference of every tenant, in ``(index, tenant)`` order, goes
through ``TenantView`` → policy → ``SharedFramePool``.  It is kept here,
test-only and unchanged, as the reference the differential suite
(``tests/test_serve_differential.py``) pins the event-driven driver to.
The one deliberate difference: ``checked`` audits every 64 references
here and every 64 pool events there, so only clean runs are compared.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

from repro.observe.counters import Counters
from repro.observe.events import Evict, Fault
from repro.observe.telemetry.registry import TelemetryRegistry
from repro.observe.tracer import Tracer
from repro.paging.replacement.base import ReplacementPolicy
from repro.paging.simulate import SimulationResult
from repro.serve.pool import SharedFramePool
from repro.serve.replay import SharedReplayResult, record_shared_telemetry
from repro.serve.tenant import TenantView


def simulate_shared_reference(
    traces: Sequence[Sequence[Hashable]],
    frames: int,
    policy_factory: Callable[[int], ReplacementPolicy],
    shared_pages: int = 0,
    pool_frames: int | None = None,
    writes: Sequence[Sequence[bool]] | None = None,
    record_positions: bool = False,
    record_evictions: bool = False,
    tracer: Tracer | None = None,
    counters: Counters | None = None,
    checked: bool = False,
    telemetry: TelemetryRegistry | None = None,
) -> SharedReplayResult:
    """Replay ``traces`` over one shared pool, one reference at a time."""
    if not traces:
        raise ValueError("need at least one tenant trace")
    if frames <= 0:
        raise ValueError(f"frames must be positive, got {frames}")
    if shared_pages < 0:
        raise ValueError(f"shared_pages must be >= 0, got {shared_pages}")
    tenants = len(traces)
    if writes is not None and (
        len(writes) != tenants
        or any(len(flags) != len(trace)
               for flags, trace in zip(writes, traces))
    ):
        raise ValueError("writes must align with traces, tenant by tenant")
    if pool_frames is None:
        pool_frames = frames * tenants
    if pool_frames <= 0:
        raise ValueError(f"pool_frames must be positive, got {pool_frames}")

    tracing = tracer is not None and tracer.enabled
    counting = counters is not None and counters.enabled
    pool = SharedFramePool(
        pool_frames,
        tracer=tracer if tracing else None,
        telemetry=telemetry,
    )
    views = [
        TenantView(pool, f"t{index}", quota=frames, shared_pages=shared_pages)
        for index in range(tenants)
    ]
    policies = [policy_factory(index) for index in range(tenants)]
    # Tenant labels ride the events only in actual multi-tenant runs, so
    # the degree-1 event stream stays byte-identical to the unshared one.
    labels = [f"t{index}" if tenants > 1 else None for index in range(tenants)]

    suite = None
    if checked:
        from repro.check.invariants import InvariantSuite

        suite = InvariantSuite()

    faults = [0] * tenants
    cold_faults = [0] * tenants
    evictions = [0] * tenants
    seen: list[set[Hashable]] = [set() for _ in range(tenants)]
    positions: list[list[int]] = [[] for _ in range(tenants)]
    victims: list[list[Hashable]] = [[] for _ in range(tenants)]
    shared_cycles = 0
    private_cycles = 0

    longest = max(len(trace) for trace in traces)
    step = 0
    for index in range(longest):
        for tenant in range(tenants):
            trace = traces[tenant]
            if index >= len(trace):
                continue
            if suite is not None and step % 64 == 0:
                suite.check_all([pool, *views])
            step += 1
            pool.now = index
            page = trace[index]
            write = bool(writes[tenant][index]) if writes is not None else False
            view = views[tenant]
            policy = policies[tenant]
            label = labels[tenant]
            if page in view:
                if write:
                    new_frame = view.note_write(page)
                    if new_frame is not None and counting:
                        counters.increment("serve.cow_breaks")
                        if tenants > 1:
                            counters.increment(
                                f"serve.tenant.{label}.cow_breaks"
                            )
                policy.on_access(page, index, modified=write)
            else:
                faults[tenant] += 1
                cold = page not in seen[tenant]
                if cold:
                    cold_faults[tenant] += 1
                    seen[tenant].add(page)
                if counting:
                    counters.increment("replay.faults")
                    if cold:
                        counters.increment("replay.cold_faults")
                    if tenants > 1:
                        counters.increment(f"serve.tenant.{label}.faults")
                if tracing:
                    tracer.emit(Fault(
                        time=index, unit=page, write=write, program=label,
                    ))
                if record_positions:
                    positions[tenant].append(index)
                if view.is_full():
                    victim = policy.choose_victim(
                        view.resident_pages(), index
                    )
                    if victim not in view:
                        raise RuntimeError(
                            f"policy {policy.name} chose non-resident "
                            f"victim {victim!r}"
                        )
                    view.release(victim)
                    policy.on_evict(victim)
                    evictions[tenant] += 1
                    if counting:
                        counters.increment("replay.evictions")
                    if tracing:
                        tracer.emit(Evict(
                            time=index, unit=victim, program=label,
                        ))
                    if record_evictions:
                        victims[tenant].append(victim)
                _, hit = view.acquire_detail(page)
                if counting and hit is not None:
                    name = "shares" if hit == "share" else "dedup_hits"
                    counters.increment(f"serve.{name}")
                    if tenants > 1:
                        counters.increment(f"serve.tenant.{label}.{name}")
                policy.on_load(page, index, modified=write)
        # Space-time, both ways of counting it: what the consolidated
        # pool holds vs. what the tenants' views add up to.  One shared
        # frame referenced by k tenants costs 1 in the pool and k in the
        # per-tenant sum — the gap is the serving tier's storage saving.
        shared_cycles += pool.resident_count
        private_cycles += sum(view.resident_count for view in views)

    if suite is not None:
        suite.check_all([pool, *views])
    if counting:
        counters.increment(
            "replay.references", sum(len(trace) for trace in traces)
        )
    results = [
        SimulationResult(
            policy=policies[tenant].name,
            frames=frames,
            references=len(traces[tenant]),
            faults=faults[tenant],
            evictions=evictions[tenant],
            cold_faults=cold_faults[tenant],
            fault_positions=positions[tenant],
            victims=victims[tenant],
        )
        for tenant in range(tenants)
    ]
    shared_result = SharedReplayResult(
        sharing=tenants,
        shared_pages=shared_pages,
        pool_frames=pool_frames,
        tenants=results,
        pool_stats=pool.stats,
        shares=pool.stats.shares,
        dedup_hits=pool.stats.dedup_hits,
        cow_breaks=pool.stats.cow_breaks,
        shared_frame_cycles=shared_cycles,
        private_frame_cycles=private_cycles,
    )
    record_shared_telemetry(telemetry, shared_result)
    return shared_result
