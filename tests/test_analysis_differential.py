"""Derived series must agree with the independent aggregate accounting.

The analyzer derives its series from the event stream alone; the
simulation's ``SimulationResult`` counts faults and evictions as it
runs, and ``SpaceTimeAccount`` integrates occupancy piecewise.  These
are three independent accounting mechanisms over one run, and this
suite pins them to each other across 30 seeds — the analysis tier's
half of the observability consistency contract (the fastpath half
lives in ``test_observe_differential.py``).
"""

from __future__ import annotations

import pytest

from repro.observe import CallbackSink, RingBufferSink, Tracer
from repro.observe.analysis import RUN, TraceAnalyzer, analyze_events
from repro.paging import make_policy, simulate_trace
from repro.sim.spacetime import SpaceTimeAccount
from repro.workload import phased_trace, random_trace, zipf_trace

SEEDS = range(30)


def make_trace(seed):
    generator = (phased_trace, random_trace, zipf_trace)[seed % 3]
    return generator(pages=48, length=400, seed=seed)


def traced_run(seed):
    """One traced simulation: its events and result."""
    trace = make_trace(seed)
    ring = RingBufferSink(capacity=8192)
    result = simulate_trace(
        trace, frames=4 + seed % 13, policy=make_policy("lru"),
        tracer=Tracer([ring]),
    )
    return ring.events(), result


def test_fault_series_sums_to_counter_totals_across_30_seeds():
    for seed in SEEDS:
        events, result = traced_run(seed)
        analytics = analyze_events(events, window=50)
        assert sum(analytics.series["faults"].values) == result.faults, (
            f"fault series diverged from the result at seed={seed}"
        )
        assert analytics.kind_counts.get("evict", 0) == result.evictions
        assert analytics.kind_counts["fault"] == result.faults


def test_spacetime_endpoint_matches_independent_integration():
    """The series endpoint equals a SpaceTimeAccount fed the same run.

    The account integrates resident-pages x elapsed-references piecewise
    with its own resident-set bookkeeping — none of the analyzer's
    windowing or clamping machinery.
    """
    for seed in SEEDS:
        events, _ = traced_run(seed)
        account = SpaceTimeAccount()
        resident: set = set()
        last_time = None
        for event in events:
            if last_time is not None and event.time > last_time:
                account.accumulate(
                    words=len(resident), duration=event.time - last_time,
                    waiting=False,
                )
            last_time = event.time if last_time is None else max(
                last_time, event.time
            )
            if event.kind == "fault":
                resident.add(event.unit)
            elif event.kind == "evict":
                resident.discard(event.unit)
        analytics = analyze_events(events, window=50)
        assert analytics.series["spacetime"].final() == pytest.approx(
            account.total
        ), f"spacetime integral diverged at seed={seed}"


def test_live_sink_and_replayed_events_agree():
    """Riding the tracer live derives the same analytics as a replay."""
    trace = make_trace(7)
    live = TraceAnalyzer(window=50)
    ring = RingBufferSink(capacity=8192)
    simulate_trace(
        trace, frames=8, policy=make_policy("lru"),
        tracer=Tracer([CallbackSink(live.accept), ring]),
    )
    replayed = analyze_events(ring.events(), window=50)
    live_result = live.finish()
    for name, series in replayed.series.items():
        assert live_result.series[name].values == series.values
    assert live_result.kind_counts == replayed.kind_counts
    assert len(live_result.residency_spans) == len(replayed.residency_spans)


def test_window_choice_never_changes_totals():
    events, result = traced_run(11)
    for window in (1, 7, 50, 400, 10_000):
        analytics = analyze_events(events, window=window)
        assert sum(analytics.series["faults"].values) == result.faults, (
            f"window={window} changed the fault total"
        )
        assert analytics.series["spacetime"].final() == (
            analyze_events(events, window=50).series["spacetime"].final()
        )


def test_run_spacetime_equals_sum_of_program_splits():
    from repro.observe import Evict, Fault

    events = [
        Fault(time=0, unit=1, program="alpha"),
        Fault(time=3, unit=2, program="beta"),
        Fault(time=5, unit=3, program="alpha"),
        Evict(time=9, unit=1, program="alpha"),
        Evict(time=14, unit=2, program="beta"),
        Evict(time=20, unit=3, program="alpha"),
    ]
    analytics = analyze_events(events, window=100)
    split_total = sum(
        series.final() for series in analytics.spacetime_by_program.values()
    )
    assert analytics.series["spacetime"].final() == split_total
    assert RUN not in analytics.spacetime_by_program
