"""Fast trace-driven replacement simulation.

The replacement experiments (CL-REPL) need fault counts for many
(policy, memory size) pairs over long reference strings; this driver
strips the machinery down to exactly what Belady [1] measured: a set of
frames, a policy, and a trace of page references.

Timing is in reference counts ("virtual time"), the standard measure for
replacement studies, so results are independent of fetch latency — the
latency-dependent picture is the space-time experiment's job (FIG3).

For the policies whose decisions are pure functions of the reference
string (FIFO, LRU, CLOCK, Belady-OPT), :mod:`repro.fastpath.replay`
provides batched whole-trace kernels that are bit-identical to the loop
below; ``fast=True`` (the default) auto-selects one when available and
falls back to the reference loop otherwise.  Dispatch is tiered: when
the trace is column-backed (a :class:`repro.trace.ColumnarTrace`, e.g.
mmap'd from an ``.rtrc`` file, or any generator's trace) and
numpy is importable, the vectorized kernels in
:mod:`repro.fastpath.columnar` run first; they decline — returning the
work to the list kernels — on unsupported shapes or eviction-dominated
workloads where chunked span-skipping cannot pay.  Every tier honours
the same contract: identical faults, positions and victim sequences,
differing only in wall-clock.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.alloc.base import check_int
from repro.observe.events import Evict, Fault
from repro.observe.telemetry.registry import TelemetryRegistry
from repro.observe.tracer import Tracer
from repro.paging.frame import FrameTable
from repro.paging.replacement.base import ReplacementPolicy


@dataclass(slots=True)
class SimulationResult:
    """Outcome of one trace-driven run."""

    policy: str
    frames: int
    references: int
    faults: int
    evictions: int
    cold_faults: int
    fault_positions: list[int] = field(default_factory=list, repr=False)
    victims: list[Hashable] = field(default_factory=list, repr=False)
    """Eviction sequence, in order — populated when ``record_evictions``."""

    @property
    def fault_rate(self) -> float:
        return self.faults / self.references if self.references else 0.0


def simulate_trace(
    trace: Sequence[Hashable],
    frames: int,
    policy: ReplacementPolicy,
    record_positions: bool = False,
    writes: Sequence[bool] | None = None,
    record_evictions: bool = False,
    fast: bool = True,
    tracer: Tracer | None = None,
    checked: bool = False,
    telemetry: TelemetryRegistry | None = None,
) -> SimulationResult:
    """Run ``trace`` through ``frames`` page frames under ``policy``.

    Parameters
    ----------
    trace:
        Page references in order.
    frames:
        Number of equal page frames available: a positive int (a
        ``bool`` or a fraction raises ``TypeError`` on every tier).
    policy:
        A (fresh or reset) replacement policy.  For
        :class:`~repro.paging.replacement.belady.BeladyOptimalPolicy` the
        policy must have been constructed with this same trace.
    record_positions:
        Keep the trace indices at which faults occurred (for fault-
        clustering plots).
    writes:
        Optional per-reference write flags (drives modified bits, which
        the M44 policy's classes depend on).
    record_evictions:
        Keep the victim sequence (for differential testing of the fast
        kernels against this loop).
    fast:
        Use a batched :mod:`repro.fastpath.replay` kernel when the policy
        has one.  Results are bit-identical; the only observable
        difference is that the kernel does not mutate ``policy``'s
        internal bookkeeping (the policy object stays fresh).  Pass
        ``fast=False`` to force the reference per-access loop.
    tracer:
        Optional enabled :class:`~repro.observe.tracer.Tracer` receiving
        ``Fault`` / ``Evict`` events timestamped by reference index
        (virtual time).  Per-event tracing requires the per-access loop,
        so an *enabled* tracer forces the reference path regardless of
        ``fast``.
    checked:
        Run the :mod:`repro.check` invariant suite over the frame table
        as the replay proceeds (sampled every 64 references, plus a
        final check).  Forces the reference loop, like tracing does —
        the kernels have no per-access state to check.  Raises
        :class:`~repro.errors.InvariantViolation` on the first failure.
    telemetry:
        Optional :class:`~repro.observe.telemetry.TelemetryRegistry`.
        The run lands as aggregate ``replay.*`` counters, a
        ``replay.kernel_seconds`` wall span, and — when fault positions
        are recorded — the ``replay.fault_gap`` inter-fault-distance
        sketch.  Aggregates are read off the result *after* the run
        (never inside the loop), so telemetry changes no simulation
        bits and never forces a slower tier — the 100-seed differential
        tests pin both properties.
    """
    check_int(frames, "frames")
    if frames <= 0:
        raise ValueError(f"frames must be positive, got {frames}")
    if writes is not None and len(writes) != len(trace):
        raise ValueError("writes must align with trace")

    span = None
    if telemetry is not None and telemetry.enabled:
        span = telemetry.span("replay.kernel_seconds").start()

    def finish(result: SimulationResult) -> SimulationResult:
        if span is not None:
            span.stop()
        record_replay_telemetry(telemetry, result)
        return result

    tracing = tracer is not None and tracer.enabled
    if fast and not tracing and not checked:
        from repro.fastpath.replay import run_fast

        result = run_fast(
            trace,
            frames,
            policy,
            record_positions=record_positions,
            record_evictions=record_evictions,
            telemetry=telemetry,
        )
        if result is not None:
            return finish(result)

    table = FrameTable(frames)
    suite = None
    if checked:
        from repro.check.invariants import InvariantSuite

        suite = InvariantSuite()
    faults = 0
    cold_faults = 0
    evictions = 0
    seen: set[Hashable] = set()
    positions: list[int] = []
    victims: list[Hashable] = []

    for index, page in enumerate(trace):
        if suite is not None and index % 64 == 0:
            suite.check(table)
        write = bool(writes[index]) if writes is not None else False
        if page in table:
            policy.on_access(page, index, modified=write)
            continue
        faults += 1
        if page not in seen:
            cold_faults += 1
            seen.add(page)
        if tracing:
            tracer.emit(Fault(time=index, unit=page, write=write))
        if record_positions:
            positions.append(index)
        if table.is_full():
            victim = policy.choose_victim(table.resident_pages(), index)
            if victim not in table:
                raise RuntimeError(
                    f"policy {policy.name} chose non-resident victim {victim!r}"
                )
            table.release(victim)
            policy.on_evict(victim)
            evictions += 1
            if tracing:
                tracer.emit(Evict(time=index, unit=victim))
            if record_evictions:
                victims.append(victim)
        table.acquire(page)
        policy.on_load(page, index, modified=write)

    if suite is not None:
        suite.check(table)
    return finish(SimulationResult(
        policy=policy.name,
        frames=frames,
        references=len(trace),
        faults=faults,
        evictions=evictions,
        cold_faults=cold_faults,
        fault_positions=positions,
        victims=victims,
    ))


def record_replay_telemetry(
    telemetry: TelemetryRegistry | None,
    result: SimulationResult,
    prefix: str = "replay",
) -> None:
    """Fold a finished replay into a telemetry registry.

    Every tier reports its totals the same way, by this call on its
    result: the ``replay.*`` counters (the names
    :func:`~repro.observe.counters.absorb_simulation_result` gives a
    ``Counters`` ledger), plus the ``fault_gap`` sketch (distance from
    each fault to the previous one, in references) when the run
    recorded fault positions.  Reads the result only — calling it can
    never perturb a simulation.
    """
    if telemetry is None or not telemetry.enabled:
        return
    telemetry.counter(f"{prefix}.references").increment(result.references)
    telemetry.counter(f"{prefix}.faults").increment(result.faults)
    telemetry.counter(f"{prefix}.cold_faults").increment(result.cold_faults)
    telemetry.counter(f"{prefix}.evictions").increment(result.evictions)
    positions = result.fault_positions
    if positions:
        # One batch, so an integer sketch folds it as a tally.
        telemetry.histogram(f"{prefix}.fault_gap", unit="refs").observe_many(
            [positions[0], *map(operator.sub, positions[1:], positions)])
