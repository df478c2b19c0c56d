"""The traffic tick's differential contract, pinned across seeds.

``simulate_traffic`` ticks LRU and FIFO sessions on the order of a
resident dict instead of their policy objects, and every other policy
over that dict's load order.  The per-reference loop it replaced is kept
as the oracle in ``tests/traffic_reference.py``; both must produce the
same :class:`TrafficPointResult` field for field (both wait sketches
included), the same pool statistics and the same deterministic
telemetry.  The points are saturated: a small pool, overcommitted twice
over with no watermark, at offered loads 1.2 and 2.5, so sessions
self-evict and stall, and the suite checks that both happen.
"""

from dataclasses import fields
from unittest import mock

import pytest

from repro.errors import OutOfMemory
from repro.observe.telemetry.registry import TelemetryRegistry
from repro.serve import pool as pool_module
from repro.traffic.engine import (
    TrafficPointResult,
    build_points,
    simulate_traffic,
)
from tests.traffic_reference import simulate_traffic_reference

LOADS = (1.2, 2.5)
SEEDS = {"lru": 100, "fifo": 100, "clock": 20, "random": 20,
         "working_set": 20}


def saturated_points(replacement, seeds):
    """``hundred_points`` sizing (tests/test_traffic_determinism.py)
    with the quota ledger promising twice the pool and no watermark."""
    return build_points(
        loads=LOADS, seeds=seeds, replacement=replacement,
        pool_frames=16, quotas=(3, 4), pages=24, session_length=32,
        shared_pages=8, horizon=48, overcommit=2.0, watermark=0.0,
    )


def run_capturing(simulate, spec):
    """Run ``simulate`` on ``spec``; returns its result, its pool's
    statistics and its deterministic telemetry."""
    captured = []
    real = pool_module.SharedFramePool

    class CapturingPool(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            captured.append(self)

    telemetry = TelemetryRegistry()
    with mock.patch.object(pool_module, "SharedFramePool", CapturingPool):
        result = simulate(spec, telemetry=telemetry)
    (pool,) = captured
    return result, pool.stats, telemetry.deterministic_snapshot()


def as_fields(result):
    """Every ``TrafficPointResult`` field, sketches as their records."""
    values = {}
    for spec in fields(TrafficPointResult):
        value = getattr(result, spec.name)
        values[spec.name] = (
            value.to_dict() if hasattr(value, "to_dict") else value
        )
    return values


@pytest.mark.parametrize("replacement", sorted(SEEDS))
def test_tick_matches_the_reference_loop(replacement):
    self_evictions = stalls = 0
    for spec in saturated_points(replacement, range(SEEDS[replacement])):
        result, stats, snapshot = run_capturing(simulate_traffic, spec)
        expected, expected_stats, expected_snapshot = run_capturing(
            simulate_traffic_reference, spec)
        point = spec["point"]
        assert as_fields(result) == as_fields(expected), point
        assert stats == expected_stats, point
        assert snapshot == expected_snapshot, point
        self_evictions += expected.self_evictions
        stalls += expected.stalls
    # The comparison proves nothing about the overcommit paths unless
    # they ran: the points must both self-evict and stall.
    assert self_evictions > 0
    assert stalls > 0


def test_refused_acquires_raise_nothing(monkeypatch):
    """A full pool answers a session's fault or break without an
    exception.

    Over saturated LRU points, no ``OutOfMemory`` is constructed at
    all: refused acquires, counted as pool acquires that did not become
    faults, and refused copy-on-write breaks both answer ``REFUSED``.
    """
    counts = {"constructed": 0, "refused_breaks": 0}
    init = OutOfMemory.__init__
    cow_break = pool_module.SharedFramePool.cow_break

    def counting_init(self, *args, **kwargs):
        counts["constructed"] += 1
        init(self, *args, **kwargs)

    def counting_cow_break(self, *args, **kwargs):
        answer = cow_break(self, *args, **kwargs)
        if answer is pool_module.REFUSED:
            counts["refused_breaks"] += 1
        return answer

    monkeypatch.setattr(OutOfMemory, "__init__", counting_init)
    monkeypatch.setattr(pool_module.SharedFramePool, "cow_break",
                        counting_cow_break)
    refused_acquires = 0
    for spec in saturated_points("lru", range(20)):
        result, stats, _ = run_capturing(simulate_traffic, spec)
        refused_acquires += stats.acquires - result.faults
    assert refused_acquires > 0
    assert counts["refused_breaks"] > 0
    assert counts["constructed"] == 0
