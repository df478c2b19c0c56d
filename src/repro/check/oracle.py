"""The differential oracle: validate simulators against independents.

Generalizes the repo's 100-seed equivalence *tests* into a reusable
cross-policy / cross-backend *runner*: the same checks, parameterized
over seeds and policies, returning a structured report instead of a
pytest failure — so `python -m repro check` can run them in CI, under
fault injection, or against a deliberately corrupted subject.

Four domains:

- **replacement** — the batched fastpath kernels vs. the per-access
  reference loop, bit-identical (faults, cold faults, evictions, fault
  positions, victim sequences).
- **placement** — the free list under seeded allocate/free churn, with
  the invariant suite run after every operation (including OutOfMemory
  and post-compaction states).
- **checked replay** — a fully traced demand-paging run with an
  :class:`~repro.check.invariants.InvariantSink` attached: zero
  violations expected.
- **fault recovery** — the same paging run, clean vs. under seeded
  transient backing-store faults behind a retry layer: final stats
  must be bit-identical (graceful degradation proven, not asserted).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.check.faults import FaultPlan, FlakyBackingStore, RetryingBackingStore, RetryPolicy
from repro.check.invariants import InvariantSink, InvariantSuite
from repro.errors import InvariantViolation, OutOfMemory


@dataclass(frozen=True, slots=True)
class OracleFinding:
    """One divergence or violation the oracle caught."""

    domain: str
    seed: int
    detail: str


@dataclass
class OracleReport:
    """Aggregate outcome of an oracle run."""

    checks: int = 0
    findings: list[OracleFinding] = field(default_factory=list)
    domains: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def record(self, domain: str, count: int = 1) -> None:
        self.checks += count
        self.domains[domain] = self.domains.get(domain, 0) + count

    def flag(self, domain: str, seed: int, detail: str) -> None:
        self.findings.append(OracleFinding(domain, seed, detail))

    def merge(self, other: "OracleReport") -> None:
        self.checks += other.checks
        self.findings.extend(other.findings)
        for domain, count in other.domains.items():
            self.domains[domain] = self.domains.get(domain, 0) + count


REPLACEMENT_POLICIES = ("lru", "fifo", "clock", "opt")
PLACEMENT_POLICIES = ("first_fit", "best_fit", "worst_fit", "next_fit")


def _oracle_trace(seed: int):
    """A varied paging workload (shape, size and locality per seed)."""
    from repro.workload import phased_trace, random_trace, zipf_trace

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


def replacement_oracle(
    seeds: Iterable[int],
    policies: Sequence[str] = REPLACEMENT_POLICIES,
) -> OracleReport:
    """Fast kernels vs. the reference loop, bit-identical per seed."""
    from repro.paging import BeladyOptimalPolicy, make_policy, simulate_trace

    def fresh_policy(name: str, trace):
        return BeladyOptimalPolicy(trace) if name == "opt" else make_policy(name)

    report = OracleReport()
    for seed in seeds:
        trace = _oracle_trace(seed)
        frames = random.Random(seed * 31 + 7).randint(1, 24)
        for name in policies:
            slow = simulate_trace(
                trace, frames, fresh_policy(name, trace),
                record_positions=True, record_evictions=True, fast=False,
            )
            fast = simulate_trace(
                trace, frames, fresh_policy(name, trace),
                record_positions=True, record_evictions=True, fast=True,
            )
            report.record("replacement")
            for attribute in (
                "faults", "cold_faults", "evictions",
                "fault_positions", "victims",
            ):
                if getattr(fast, attribute) != getattr(slow, attribute):
                    report.flag(
                        "replacement", seed,
                        f"policy={name} frames={frames}: {attribute} "
                        f"diverged (fast {getattr(fast, attribute)!r} vs "
                        f"reference {getattr(slow, attribute)!r})",
                    )
                    break
    return report


def _drive_allocator(allocator, requests, suite, report, seed) -> bool:
    """Replay one request schedule, checking invariants after each step.

    Returns False once a violation has been flagged.
    """
    from repro.workload import request_schedule

    live = {}
    for time, action, request in request_schedule(requests):
        if action == "allocate":
            try:
                live[id(request)] = allocator.allocate(request.size)
            except OutOfMemory:
                pass
        else:
            allocation = live.pop(id(request), None)
            if allocation is not None:
                allocator.free(allocation)
        try:
            suite.check(allocator)
        except InvariantViolation as violation:
            report.flag(
                "placement", seed,
                f"t={time} {action} {request!r}: {violation}",
            )
            return False
        report.record("placement")
    return True


def placement_oracle(
    seeds: Iterable[int],
    policies: Sequence[str] = PLACEMENT_POLICIES,
) -> OracleReport:
    """One free list per policy, invariants checked after every step.

    The suite runs again after compaction, whose wholesale rebuild of
    the hole list must leave the same invariants holding.
    """
    from repro.alloc import FreeListAllocator
    from repro.alloc.compaction import compact
    from repro.workload import exponential_requests

    report = OracleReport()
    for seed in seeds:
        rng = random.Random(seed ^ 0x5EED)
        capacity = rng.choice((256, 512, 1024))
        requests = exponential_requests(
            count=rng.randint(30, 120),
            mean_size=max(4, capacity // 16),
            mean_lifetime=rng.randint(5, 40),
            seed=seed,
        )
        suite = InvariantSuite()
        for policy in policies:
            allocator = FreeListAllocator(capacity, policy=policy)
            if not _drive_allocator(allocator, requests, suite, report, seed):
                continue
            compact(allocator)
            report.record("placement")
            try:
                suite.check(allocator)
            except InvariantViolation as violation:
                report.flag(
                    "placement", seed,
                    f"policy={policy} post-compaction: {violation}",
                )
    return report


def _build_pager(seed: int, length: int,
                 wrap_backing: Callable | None = None, tracer=None):
    """Build one demand-paging setup; returns (pager, clock, trace).

    ``wrap_backing`` lets the fault-recovery oracle interpose the flaky
    + retry layers; ``tracer`` threads an instrumented tracer through.
    """
    from repro.addressing.associative import AssociativeMemory
    from repro.addressing.page_table import PageTable
    from repro.clock import Clock
    from repro.memory.backing import BackingStore
    from repro.memory.hierarchy import StorageLevel
    from repro.paging.frame import FrameTable
    from repro.paging.pager import DemandPager
    from repro.paging.replacement import make_policy
    from repro.workload import phased_trace

    rng = random.Random(seed * 131 + 17)
    pages = rng.randint(24, 64)
    frames = rng.randint(4, 16)
    trace = phased_trace(
        pages=pages, length=length,
        working_set=max(2, pages // 6),
        phase_length=max(20, length // 10), seed=seed,
    )
    clock = Clock()
    level = StorageLevel(
        "drum", capacity=4 * pages * 512, access_time=2_000,
        transfer_rate=0.25,
    )
    backing = BackingStore(level, clock)
    if wrap_backing is not None:
        backing = wrap_backing(backing)
    pager = DemandPager(
        page_table=PageTable(
            page_size=512, pages=pages,
            associative_memory=AssociativeMemory(8),
        ),
        frames=FrameTable(frames),
        backing=backing,
        policy=make_policy("lru"),
        clock=clock,
        tracer=tracer,
    )
    return pager, clock, trace


def _drive(pager, trace) -> None:
    for index, page in enumerate(trace):
        pager.access_page(int(page), write=(index % 16 == 0))


def _paged_run(seed: int, length: int, wrap_backing: Callable | None = None):
    pager, clock, trace = _build_pager(seed, length, wrap_backing)
    _drive(pager, trace)
    return pager, clock


def _final_stats(pager, clock) -> dict:
    """The bit-identity surface: every externally visible total."""
    stats = pager.stats
    backing = pager.backing
    return {
        "accesses": stats.accesses,
        "faults": stats.faults,
        "evictions": stats.evictions,
        "writebacks": stats.writebacks,
        "fetch_wait_cycles": stats.fetch_wait_cycles,
        "writeback_cycles": stats.writeback_cycles,
        "clock": clock.now,
        "residency": pager.residency_cycles(),
        "backing_fetches": backing.fetches,
        "backing_stores": backing.stores,
        "backing_words_in": backing.words_in,
        "backing_words_out": backing.words_out,
        "resident": sorted(pager.frames.resident_pages()),
        "tlb_hits": pager.page_table.tlb.hits,
    }


def checked_replay_oracle(
    seeds: Iterable[int], length: int = 600, every: int = 32
) -> OracleReport:
    """A traced paging run with the invariant sink attached: must be clean."""
    from repro.observe.tracer import Tracer

    report = OracleReport()
    for seed in seeds:
        suite = InvariantSuite()
        sink = InvariantSink([], suite=suite, every=every)
        tracer = Tracer([sink])
        pager, clock, trace = _build_pager(seed, length, tracer=tracer)
        sink.subjects.append(pager)
        try:
            _drive(pager, trace)
            sink.run_checks()
        except InvariantViolation as violation:
            report.flag("checked_replay", seed, str(violation))
            continue
        report.record("checked_replay", suite.checks_run or 1)
        for violation in suite.violations:
            report.flag("checked_replay", seed, violation.detail)
    return report


def fault_recovery_oracle(
    seeds: Iterable[int],
    length: int = 600,
    fetch_rate: float = 0.15,
    store_rate: float = 0.10,
) -> OracleReport:
    """Clean run vs. injected-faults-with-retry run: stats bit-identical."""
    report = OracleReport()
    for seed in seeds:
        clean_pager, clean_clock = _paged_run(seed, length)
        plan = FaultPlan(
            seed, fetch_rate=fetch_rate, store_rate=store_rate,
            max_consecutive=2,
        )
        policy = RetryPolicy(max_attempts=4)
        retriers: list[RetryingBackingStore] = []

        def wrap(backing):
            layered = RetryingBackingStore(
                FlakyBackingStore(backing, plan), policy
            )
            retriers.append(layered)
            return layered

        faulty_pager, faulty_clock = _paged_run(seed, length, wrap_backing=wrap)
        report.record("fault_recovery")
        clean = _final_stats(clean_pager, clean_clock)
        # The faulty pager's backing attribute is the retry layer; its
        # passthrough exposes the underlying store's counters.
        faulty = _final_stats(faulty_pager, faulty_clock)
        if clean != faulty:
            delta = {
                key: (clean[key], faulty[key])
                for key in clean if clean[key] != faulty[key]
            }
            report.flag(
                "fault_recovery", seed,
                f"stats diverged after recovery: {delta}",
            )
        if plan.total_injected == 0:
            report.flag(
                "fault_recovery", seed,
                "no faults were injected (rates too low for this seed?)",
            )
        elif retriers and retriers[0].stats.exhausted:
            report.flag(
                "fault_recovery", seed,
                f"{retriers[0].stats.exhausted} operations exhausted retries",
            )
    return report


def run_oracle(
    seeds: Iterable[int] | None = None,
    quick: bool = False,
    domains: Sequence[str] = (
        "replacement", "placement", "checked_replay", "fault_recovery",
    ),
) -> OracleReport:
    """The composite oracle ``python -m repro check`` runs.

    ``quick`` shrinks the sweep for smoke jobs; explicit ``seeds``
    override both.
    """
    known = ("replacement", "placement", "checked_replay", "fault_recovery")
    unknown = [domain for domain in domains if domain not in known]
    if unknown:
        raise ValueError(f"unknown oracle domains {unknown}; choose from {known}")
    if seeds is None:
        seeds = range(8) if quick else range(40)
    seeds = list(seeds)
    report = OracleReport()
    if "replacement" in domains:
        report.merge(replacement_oracle(seeds))
    if "placement" in domains:
        report.merge(placement_oracle(seeds))
    if "checked_replay" in domains:
        report.merge(checked_replay_oracle(seeds[: max(4, len(seeds) // 4)]))
    if "fault_recovery" in domains:
        report.merge(fault_recovery_oracle(seeds[: max(4, len(seeds) // 4)]))
    return report


__all__ = [
    "OracleFinding",
    "OracleReport",
    "checked_replay_oracle",
    "fault_recovery_oracle",
    "placement_oracle",
    "replacement_oracle",
    "run_oracle",
]
