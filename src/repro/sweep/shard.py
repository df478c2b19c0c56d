"""Execute one sweep shard: replay, mix, churn, serve and traffic legs.

A shard is one cell of the grid.  It runs the measurements the paper's
figures — and the serving tier's new figure family — are built from,
all seeded from the shard's own derived streams:

- *Replay* (Figure 2): a phased-locality trace through the shard's
  frame allotment under its replacement policy — fault rate against
  allotted space.
- *Mix* (Figure 3): a small multiprogrammed mix over the machine
  preset's page-fetch time — the space-time product split into active
  and page-wait components, plus processor utilization.
- *Churn* (Figure 4): an exponential request stream, drawn as integer
  size and lifetime columns and replayed in integer schedule order,
  through a free-list allocator under the shard's placement policy —
  failure counts, external fragmentation of the free list, and the
  internal fragmentation the same requests would suffer under
  whole-page allotment at the preset's page size.
- *Serve* (the sharing-degree family, ``EXPERIMENTS.md``): ``sharing``
  forked tenants replay tenant-derived traces over one shared frame
  pool with half the page space as common content — fetch rate, dedup
  ratio and the shared-vs-private space-time integrals against sharing
  degree.
- *Traffic* (the offered-load family, ``docs/TRAFFIC.md``): a short
  open-arrival campaign point at the shard's ``offered`` load over the
  shard's replacement policy and the machine's (scaled) fetch timing —
  admission, shedding and the queue/fault wait tails.

``run_shard`` takes and returns plain dicts so it can cross a
``multiprocessing`` boundary in either direction; the record's metric
fields are pure functions of the spec.  Wall time (``wall_s``) is the
one deliberately nondeterministic field.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from operator import add
from typing import Callable

from repro.alloc.freelist import FreeListAllocator
from repro.alloc.stats import fragmentation_stats, paging_internal_waste
from repro.core.builder import preset_config
from repro.errors import OutOfMemory
from repro.observe.counters import (
    Counters,
    absorb_allocator_counters,
    absorb_serve_stats,
    absorb_simulation_result,
    absorb_simulation_summary,
)
from repro.observe.telemetry.registry import TelemetryRegistry
from repro.paging.replacement import make_policy
from repro.paging.simulate import simulate_trace
from repro.sim.multiprogramming import MultiprogrammingSimulator, ProgramSpec
from repro.sim.scheduler import RoundRobinScheduler
from repro.sweep.grid import SCHEMA, derive_seed
from repro.workload.reference import phased_trace
from repro.workload.requests import exponential_columns, schedule_order

#: Ops between invariant audits of the allocator in checked mode.
CHECK_EVERY_OPS = 256

#: Ops between fragmentation samples of the allocator under load.
SAMPLE_EVERY_OPS = 64

#: Per-process memo of replay traces, keyed by the full generator
#: parameter set.  Shards differing only in machine, policy or frames
#: replay the *same* workload (see ``_replay``), so a grid with N frame
#: allotments would otherwise regenerate each trace N times per worker.
#: The mix and serve legs seed their traces from the full shard id, so
#: no other shard could reuse them; they call ``phased_trace`` directly
#: and never push a replay trace out.  Bounded because 100M-ref column
#: traces are not free to keep around.
_TRACE_CACHE: OrderedDict[tuple, object] = OrderedDict()

#: Distinct traces a worker process keeps alive at once.
TRACE_CACHE_LIMIT = 8


def _cached_phased_trace(**params):
    """``phased_trace(**params)``, memoized per worker process.

    The trace is a pure function of its parameters and is never mutated
    by replay, so sharing one object across shards cannot change any
    record — the cache only removes repeated generation cost.
    """
    key = tuple(sorted(params.items()))
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        trace = phased_trace(**params)
        _TRACE_CACHE[key] = trace
        while len(_TRACE_CACHE) > TRACE_CACHE_LIMIT:
            _TRACE_CACHE.popitem(last=False)
    else:
        _TRACE_CACHE.move_to_end(key)
    return trace


def _replay_workload_id(spec: dict) -> str:
    """Seed-derivation id for the replay trace: workload axes only.

    Deliberately excludes machine, policies and frames — those axes
    must observe a *fixed* workload, so shards that differ only there
    derive the same seed and hit the same cached trace.
    """
    return (
        f"workload/pages={spec['pages']}/length={spec['length']}/"
        f"seed={spec['seed']}"
    )


def _replay(spec: dict, counters: Counters,
            telemetry: TelemetryRegistry) -> dict:
    # The working set derives from the page population, never from the
    # frame allotment: the frames axis must sweep allotted space against
    # a fixed workload (Figure 2's x-axis), not reshape the workload.
    # The seed likewise derives from the workload axes alone (not the
    # full shard id), so every cell along the frames/policy/machine axes
    # replays one shared, cached trace.
    trace = _cached_phased_trace(
        pages=spec["pages"],
        length=spec["length"],
        working_set=max(4, spec["pages"] // 4),
        phase_length=max(50, spec["length"] // 40),
        locality=0.95,
        seed=derive_seed(spec["base_seed"], _replay_workload_id(spec),
                         "replay"),
    )
    # Positions feed the fault-gap sketch; the record reads only the
    # scalar totals, which do not depend on whether positions were kept.
    result = simulate_trace(
        trace,
        spec["frames"],
        make_policy(spec["replacement"]),
        record_positions=telemetry.enabled,
        checked=spec["checked"],
        telemetry=telemetry,
    )
    absorb_simulation_result(counters, result)
    return {
        "faults": result.faults,
        "cold_faults": result.cold_faults,
        "evictions": result.evictions,
        "fault_rate": round(result.fault_rate, 6),
    }


def _mix(spec: dict, config, counters: Counters) -> dict:
    base_seed = spec["base_seed"]
    per_program = max(2, spec["frames"] // spec["programs"])
    specs = []
    for index in range(spec["programs"]):
        trace = phased_trace(
            pages=spec["pages"],
            length=spec["program_length"],
            working_set=max(2, min(spec["pages"], per_program)),
            phase_length=max(50, spec["program_length"] // 10),
            locality=0.95,
            seed=derive_seed(base_seed, spec["shard"], f"mix.{index}"),
        )
        specs.append(ProgramSpec(
            name=f"p{index}",
            trace=trace,
            frames=per_program,
            policy=make_policy(spec["replacement"]),
        ))
    simulator = MultiprogrammingSimulator(
        specs,
        RoundRobinScheduler(quantum=64),
        fetch_time=config.page_fetch_time,
        page_size=config.page_size,
        checked=spec["checked"],
    )
    summary = simulator.run()
    absorb_simulation_summary(counters, summary)
    active = sum(p.space_time.active for p in summary.programs)
    waiting = sum(p.space_time.waiting for p in summary.programs)
    return {
        "mix_faults": summary.total_faults,
        "makespan": summary.makespan,
        "cpu_utilization": round(summary.cpu_utilization, 6),
        "spacetime_active": active,
        "spacetime_waiting": waiting,
        "spacetime": active + waiting,
    }


def _churn(spec: dict, config, counters: Counters,
           telemetry: TelemetryRegistry) -> dict:
    """The placement leg: an integer request stream through a free list.

    The stream is two int columns (:func:`exponential_columns`), and
    request ``i`` arrives at time ``i``.  The leg walks
    :func:`schedule_order`'s events over them, keeping each live block
    in a list slot indexed by request number, so no request objects,
    event tuples or ``id()`` maps are built.  ``ops`` counts allocation
    attempts and actual frees: freeing a request whose allocation
    failed counts nothing, but the fragmentation sample and the checked
    audit still test ``ops`` after it, as after every event.
    """
    count = spec["requests"]
    sizes, lifetimes = exponential_columns(
        count,
        mean_size=60,
        mean_lifetime=spec["mean_lifetime"],
        max_size=max(64, min(2_000, spec["capacity"] // 8)),
        seed=derive_seed(spec["base_seed"], spec["shard"], "alloc"),
    )
    allocator = FreeListAllocator(spec["capacity"], policy=spec["placement"])
    allocate = allocator.allocate
    free = allocator.free
    checked = spec["checked"]
    suite = None
    if checked:
        from repro.check.invariants import InvariantSuite

        suite = InvariantSuite()
    size_sketch = telemetry.histogram("alloc.request_words", unit="words")
    blocks: list = [None] * count
    ops = failures = 0
    # By the end of the schedule every request has died and the free
    # list has coalesced back to one hole, so fragmentation must be
    # sampled *under load*: keep the stats from the busiest sample.
    frag = fragmentation_stats(allocator)
    arrivals = range(count)
    for event in schedule_order(arrivals, list(map(add, arrivals, lifetimes))):
        if event >= count:
            event -= count
            ops += 1
            try:
                blocks[event] = allocate(sizes[event])
            except OutOfMemory:
                failures += 1
        elif (block := blocks[event]) is not None:
            ops += 1
            free(block)
        if ops % SAMPLE_EVERY_OPS == 0:
            sample = fragmentation_stats(allocator)
            if sample.utilization >= frag.utilization:
                frag = sample
        if suite is not None and ops % CHECK_EVERY_OPS == 0:
            suite.check(allocator)
    if suite is not None:
        suite.check(allocator)
    # Arrivals rise with the index, so ``sizes`` is also the order the
    # allocations were attempted in.  Every size is a whole word count,
    # so one batch folds as a tally.
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


def _serve(spec: dict, counters: Counters,
           telemetry: TelemetryRegistry) -> dict:
    """The sharing-degree leg: forked tenants over one shared pool.

    Each of the shard's ``sharing`` tenants replays its own derived
    phased trace (distinct access pattern, common page space) with the
    shard's frame allotment as its quota; the first half of the page
    space is shared content, and ~10% of references are writes, so CoW
    breaks happen at every degree above 1.  The pool is sized
    ``frames × sharing`` — no overcommit; what varies with degree is
    how much of that pool sharing and dedup leave idle.
    """
    from repro.serve import seeded_writes, simulate_shared

    tenants = spec["sharing"]
    length = spec["program_length"]
    base_seed = spec["base_seed"]
    traces = [
        phased_trace(
            pages=spec["pages"],
            length=length,
            working_set=max(4, spec["pages"] // 4),
            phase_length=max(50, length // 10),
            locality=0.95,
            seed=derive_seed(base_seed, spec["shard"], f"serve.{index}"),
        )
        for index in range(tenants)
    ]
    writes = [
        seeded_writes(
            length, fraction=0.1,
            seed=derive_seed(base_seed, spec["shard"], f"serve.writes.{index}"),
        )
        for index in range(tenants)
    ]
    result = simulate_shared(
        traces,
        spec["frames"],
        lambda _index: make_policy(spec["replacement"]),
        shared_pages=spec["pages"] // 2,
        writes=writes,
        checked=spec["checked"],
        telemetry=telemetry,
    )
    absorb_serve_stats(counters, result.pool_stats)
    return {
        "serve_faults": result.faults,
        "serve_fetches": result.fetches,
        "serve_fetch_rate": round(result.fetch_rate, 6),
        "serve_shares": result.shares,
        "serve_dedup_hits": result.dedup_hits,
        "serve_cow_breaks": result.cow_breaks,
        "serve_dedup_ratio": round(result.pool_stats.dedup_ratio, 6),
        "serve_spacetime_shared": result.shared_frame_cycles,
        "serve_spacetime_private": result.private_frame_cycles,
        "serve_spacetime_saving": round(result.spacetime_saving, 6),
    }


#: Cycles of machine page-fetch time per traffic-tick reference cycle.
#: Machine presets time fetches in word cycles (thousands); the traffic
#: leg's virtual ticks are reference-grained, so the preset timing is
#: scaled down — preserving the museum's *relative* device speeds
#: (atlas ≈ 4, baseline ≈ 8, m44 ≈ 15) at tick scale.
TRAFFIC_FETCH_SCALE = 1024


def _traffic(spec: dict, config, telemetry: TelemetryRegistry) -> dict:
    """The offered-load leg: one small open-arrival point per shard.

    The point inherits the shard's replacement policy and offered load,
    and the machine's fetch timing scaled to tick units; its seeds root
    at the shard's ``traffic`` channel, so the leg is bit-reproducible
    like the others and independent of every other leg.  A checked
    shard audits the point's pool and views as it runs.
    """
    from repro.traffic.engine import (
        build_points,
        simulate_traffic,
        wait_quantile,
    )

    spec_point = build_points(
        loads=(spec.get("offered", 1.0),),
        arrivals="poisson",
        policy="fcfs",
        replacement=spec["replacement"],
        seeds=(spec["seed"],),
        quick=True,
        base_seed=derive_seed(spec["base_seed"], spec["shard"], "traffic"),
        name=spec["sweep"],
        pool_frames=32,
        quotas=(4, 6),
        pages=48,
        session_length=64,
        shared_pages=8,
        horizon=160,
        fetch_time=max(1, round(config.page_fetch_time / TRAFFIC_FETCH_SCALE)),
    )[0]
    result = simulate_traffic(
        spec_point, telemetry=telemetry, checked=spec["checked"]
    )

    return {
        "traffic_arrivals": result.arrivals,
        "traffic_admitted": result.admitted,
        "traffic_shed": result.shed,
        "traffic_shed_rate": round(
            result.shed / result.arrivals, 6
        ) if result.arrivals else 0.0,
        "traffic_completed": result.completed,
        "traffic_refs": result.refs,
        "traffic_stalls": result.stalls,
        "traffic_queued_watermark": result.queued_watermark,
        "traffic_queued_quota": result.queued_quota,
        "traffic_queue_wait_p50": wait_quantile(result.queue_wait, 0.50),
        "traffic_queue_wait_p99": wait_quantile(result.queue_wait, 0.99),
        "traffic_fault_wait_p50": wait_quantile(result.fault_wait, 0.50),
        "traffic_fault_wait_p99": wait_quantile(result.fault_wait, 0.99),
    }


def run_shard(spec: dict) -> dict:
    """Execute one shard spec (see :meth:`~repro.sweep.grid.Shard.spec`).

    Returns the flat result record that lands in ``SWEEP_results.jsonl``:
    axis values, derived hardware parameters, the five legs'
    measurements, a counters snapshot for the parent to merge, and wall
    time.
    With telemetry on (``spec["telemetry"]``, default True) the record
    also carries a ``telemetry`` snapshot — per-leg wall spans plus the
    deterministic sketches the legs feed — for the parent to merge and
    the live view to render.
    """
    started = time.perf_counter()
    config = preset_config(
        spec["machine"],
        replacement_policy=spec["replacement"],
        placement_policy=spec["placement"],
    )
    counters = Counters()
    telemetry = TelemetryRegistry(enabled=bool(spec.get("telemetry", True)))
    record = {
        "schema": SCHEMA,
        "sweep": spec["sweep"],
        "shard": spec["shard"],
        "machine": spec["machine"],
        "replacement": spec["replacement"],
        "placement": spec["placement"],
        "frames": spec["frames"],
        "capacity": spec["capacity"],
        "sharing": spec["sharing"],
        "offered": spec.get("offered", 1.0),
        "seed": spec["seed"],
        "page_size": config.page_size,
        "fetch_time": config.page_fetch_time,
        "checked": spec["checked"],
    }
    with telemetry.span("sweep.shard_seconds"):
        with telemetry.span("sweep.replay_seconds"):
            record.update(_replay(spec, counters, telemetry))
        with telemetry.span("sweep.mix_seconds"):
            record.update(_mix(spec, config, counters))
        with telemetry.span("sweep.churn_seconds"):
            record.update(_churn(spec, config, counters, telemetry))
        with telemetry.span("sweep.serve_seconds"):
            record.update(_serve(spec, counters, telemetry))
        with telemetry.span("sweep.traffic_seconds"):
            record.update(_traffic(spec, config, telemetry))
    record["counters"] = counters.snapshot()
    if telemetry.enabled:
        record["telemetry"] = telemetry.snapshot()
    record["wall_s"] = round(time.perf_counter() - started, 4)
    return record


def run_safely(run: Callable[[dict], dict], spec: dict,
               key: str = "shard") -> dict:
    """``run(spec)``, with failures returned as records, never raised.

    The transport's unit of work for every kind of campaign: a sweep
    shard or a traffic point that dies (an invariant violation in
    checked mode, a bad configuration) must not tear down the whole
    campaign, so the error travels back as a ``{key, "error"}`` record
    — ``key`` is the spec's id field, ``"shard"`` or ``"point"`` — that
    the engine counts as failed and does not checkpoint.

    Three fault-injection seams ride in the spec, in the same spirit as
    :mod:`repro.check`'s seeded fault plans — how the tests (and the CI
    transport smoke) exercise worker death without a real OOM killer:

    - ``inject_exit_once``: a marker-file path; if the file does not
      exist yet, create it and die *hard* (``os._exit``, no exception,
      no cleanup) — the next attempt finds the marker and runs
      normally.  Simulates a worker lost once to a transient kill.
    - ``inject_exit``: truthy — die hard on every attempt.  Simulates a
      spec that kills any worker it lands on, for the give-up path.
    - ``inject_print``: a string printed to stdout mid-run, for
      proving the stream worker's protocol channel is shielded.
    """
    marker = spec.get("inject_exit_once")
    if marker is not None and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(13)
    if spec.get("inject_exit"):
        os._exit(13)
    if spec.get("inject_print"):
        print(spec["inject_print"])
    try:
        return run(spec)
    except Exception as error:   # noqa: BLE001 — the boundary by design
        return {
            key: spec.get(key, "?"),
            "error": f"{type(error).__name__}: {error}",
        }


def run_shard_safely(spec: dict) -> dict:
    """``run_shard`` behind :func:`run_safely`'s boundary."""
    return run_safely(run_shard, spec)


__all__ = [
    "CHECK_EVERY_OPS",
    "TRACE_CACHE_LIMIT",
    "run_safely",
    "run_shard",
    "run_shard_safely",
]
