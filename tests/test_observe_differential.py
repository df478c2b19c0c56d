"""Fastpath and reference replay must report identical aggregate counters.

The batched kernels (``repro.fastpath.replay``) skip the per-access loop,
so nothing can count their events one at a time.  Every tier therefore
reports the same way: ``simulate_trace`` reads the totals off the
``SimulationResult`` it returns and lands them as ``replay.*`` telemetry
counters.  This suite pins the counters of a kernel run to those of the
reference loop (and of a traced run) across 100 seeds, zero-eviction
runs included — the observability half of the fastpath bit-identity
contract.
"""

from __future__ import annotations

import pytest

from repro.observe import RingBufferSink, TelemetryRegistry, Tracer
from repro.paging import make_policy, simulate_trace
from repro.workload import phased_trace, random_trace, zipf_trace

SEEDS = range(100)
FAST_POLICIES = ("lru", "fifo", "clock", "opt")

REPLAY_NAMES = (
    "replay.references", "replay.faults", "replay.cold_faults",
    "replay.evictions",
)


def make_trace(seed):
    generator = (phased_trace, random_trace, zipf_trace)[seed % 3]
    return generator(pages=48, length=400, seed=seed)


def counters_of(telemetry):
    """The registry's deterministic counters (wall-clock names dropped)."""
    return telemetry.deterministic_snapshot()["counters"]


def run(trace, policy_name, frames, fast, tracer=None):
    if policy_name == "opt":
        policy = make_policy("opt", trace=trace)
    else:
        policy = make_policy(policy_name)
    telemetry = TelemetryRegistry()
    result = simulate_trace(
        trace, frames=frames, policy=policy, fast=fast, tracer=tracer,
        telemetry=telemetry,
    )
    return result, counters_of(telemetry)


@pytest.mark.parametrize("policy_name", FAST_POLICIES)
def test_counter_totals_identical_across_100_seeds(policy_name):
    for seed in SEEDS:
        trace = make_trace(seed)
        # Every tenth seed holds the whole page set, so nothing is evicted.
        frames = len(set(trace)) if seed % 10 == 0 else 4 + seed % 13
        fast_result, fast_counts = run(trace, policy_name, frames, fast=True)
        ref_result, ref_counts = run(trace, policy_name, frames, fast=False)
        assert fast_counts == ref_counts, (
            f"counter divergence: policy={policy_name} seed={seed} "
            f"frames={frames}"
        )
        assert fast_result.faults == ref_result.faults


def test_counters_cover_every_replay_name():
    trace = make_trace(7)
    for frames in (8, len(set(trace))):
        for fast in (True, False):
            result, counts = run(trace, "lru", frames, fast=fast)
            assert set(counts) == set(REPLAY_NAMES)
            assert counts["replay.references"] == len(trace)
            assert counts["replay.cold_faults"] <= counts["replay.faults"]
            assert counts["replay.evictions"] == result.evictions
    assert counts["replay.evictions"] == 0


def test_enabled_tracer_forces_reference_loop_with_same_counters():
    """Tracing needs per-event resolution, so the kernel is bypassed —
    but the counter totals must not change."""
    trace = make_trace(11)
    for frames in (8, len(set(trace))):
        ring = RingBufferSink(8192)
        traced, traced_counts = run(
            trace, "lru", frames, fast=True, tracer=Tracer([ring]),
        )
        _, kernel_counts = run(trace, "lru", frames, fast=True)
        assert traced_counts == kernel_counts
        faults = [e for e in ring.events() if e.kind == "fault"]
        evicts = [e for e in ring.events() if e.kind == "evict"]
        assert len(faults) == traced.faults
        assert len(evicts) == traced.evictions
    assert traced.evictions == 0


def test_counters_accumulate_across_runs():
    """One registry can hold a whole experiment: totals sum over calls."""
    trace = make_trace(3)
    telemetry = TelemetryRegistry()
    a = simulate_trace(trace, frames=6, policy=make_policy("fifo"),
                       telemetry=telemetry)
    b = simulate_trace(trace, frames=12, policy=make_policy("fifo"),
                       telemetry=telemetry)
    counts = counters_of(telemetry)
    assert counts["replay.references"] == 2 * len(trace)
    assert counts["replay.faults"] == a.faults + b.faults
