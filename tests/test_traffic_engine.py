"""The open-arrival engine: conservation laws, laziness, load behavior."""

import math

import pytest

from repro.observe.telemetry.registry import TelemetryRegistry
from repro.paging.replacement import make_policy
from repro.serve.pool import SharedFramePool
from repro.serve.tenant import TenantView
from repro.traffic.engine import (
    DEFAULT_LOADS,
    TrafficPointResult,
    _serve_tick,
    build_points,
    generate_sessions,
    point_id,
    run_point_safely,
    run_traffic_point,
    simulate_traffic,
)
from repro.traffic.session import ActiveSession, SessionSpec


def tiny_point(offered=1.0, seed=0, **overrides):
    """One fast point: a few dozen sessions, well under a second."""
    sizing = dict(pool_frames=24, quotas=(3, 4), pages=32,
                  session_length=48, shared_pages=8, horizon=120)
    sizing.update(overrides)
    return build_points(loads=(offered,), seeds=(seed,), **sizing)[0]


class TestBuildPoints:
    def test_default_axis_is_three_loads(self):
        points = build_points()
        assert [p["offered"] for p in points] == list(DEFAULT_LOADS)
        assert len({p["point"] for p in points}) == 3

    def test_point_id_carries_every_axis(self):
        pid = point_id(tiny_point(offered=1.5, seed=7))
        assert "offered=1.5" in pid and "seed=7" in pid
        assert "arrivals=poisson" in pid and "policy=fcfs" in pid

    def test_rate_scales_linearly_with_offered_load(self):
        half = tiny_point(offered=0.5)
        double = tiny_point(offered=2.0)
        assert double["rate"] == pytest.approx(4 * half["rate"])

    def test_unknown_axis_values_rejected(self):
        with pytest.raises(ValueError, match="arrival"):
            build_points(arrivals="sawtooth")
        with pytest.raises(ValueError, match="drain"):
            build_points(policy="priority")
        with pytest.raises(ValueError, match="overrides"):
            build_points(bogus_knob=1)
        with pytest.raises(ValueError, match="offered"):
            build_points(loads=(0.0,))

    @pytest.mark.parametrize("field, value", [
        ("refs_per_tick", 0), ("refs_per_tick", -4), ("refs_per_tick", 2.5),
        ("quotas", ()), ("quotas", (0,)), ("quotas", (2.5,)),
        ("pool_frames", 2.5),
        ("session_length", 0), ("session_length", -5),
        ("session_length", 5),
        ("fetch_time", -1), ("fetch_time", 1.5),
        ("pages", 0), ("pages", 1), ("shared_pages", -1),
        ("watermark", -0.1), ("watermark", 1.5),
        ("overcommit", 0), ("overcommit", 0.5),
        ("write_fraction", 1.5),
        ("horizon", 2.5), ("horizon", math.inf), ("horizon", math.nan),
    ])
    def test_sizing_that_fails_every_point_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            build_points(**{field: value})

    def test_one_shot_iterables_are_read_once(self):
        points = build_points(loads=iter((0.5, 1.0)),
                              seeds=(seed for seed in range(2)))
        assert [(point["offered"], point["seed"]) for point in points] == [
            (0.5, 0), (0.5, 1), (1.0, 0), (1.0, 1)]

    @pytest.mark.parametrize("load", (math.inf, -math.inf, math.nan))
    def test_non_finite_load_rejected(self, load):
        # An infinite rate never advances the arrival clock: the point
        # would draw arrivals until memory ran out.
        with pytest.raises(ValueError, match="offered load must be finite"):
            build_points(loads=(load,))

    def test_smallest_accepted_sizing_runs(self):
        """The bounds are tight: one step inside each, points complete."""
        for sizing in (dict(session_length=6), dict(pages=2),
                       dict(fetch_time=0)):
            result = simulate_traffic(tiny_point(**sizing))
            assert result.completed == result.admitted > 0, sizing


class TestSessionGeneration:
    def test_stream_is_a_pure_function_of_the_spec(self):
        spec = tiny_point()
        assert generate_sessions(spec) == generate_sessions(spec)

    def test_quotas_rotate_and_lengths_jitter(self):
        sessions = generate_sessions(tiny_point())
        assert len(sessions) > 4
        assert {s.quota for s in sessions} == {3, 4}
        assert len({s.length for s in sessions}) > 1
        assert all(s.arrival <= t.arrival
                   for s, t in zip(sessions, sessions[1:]))


class TestConservation:
    def test_every_arrival_is_accounted_for(self):
        for offered in (0.5, 1.0, 1.5):
            result = simulate_traffic(tiny_point(offered=offered))
            assert result.arrivals == result.admitted + result.shed
            assert result.completed == result.admitted

    def test_materialization_equals_admission(self):
        """Queued and shed sessions never pay for traces or views."""
        result = simulate_traffic(tiny_point(offered=1.5))
        assert result.materialized == result.admitted
        assert result.shed > 0

    def test_refs_equal_the_admitted_sessions_lengths(self):
        spec = tiny_point()
        lengths = {s.sid: s.length for s in generate_sessions(spec)}
        result = simulate_traffic(spec)
        # Every admitted session replays its full trace; with zero shed
        # the served references are exactly the arrival stream's total.
        if result.shed == 0:
            assert result.refs == sum(lengths.values())
        else:
            assert result.refs <= sum(lengths.values())

    def test_pool_is_empty_after_drain(self, monkeypatch):
        """Completion releases every page and retires every view, so
        the engine's own pool ends with zero references and zero
        registered views — the conservation ledger fully unwound."""
        from repro.serve import pool as pool_module

        captured = []
        real = pool_module.SharedFramePool

        class CapturingPool(real):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                captured.append(self)

        monkeypatch.setattr(pool_module, "SharedFramePool", CapturingPool)
        result = simulate_traffic(tiny_point(offered=1.5))
        assert result.completed == result.admitted
        (pool,) = captured
        assert pool.ref_total == 0
        assert not pool._views
        pool.check_invariants()


class TestStalls:
    """A session with nothing left to self-evict stalls for the tick:
    the stall is counted and the same reference is retried later."""

    @staticmethod
    def serve_one_tick(pool, view, trace, writes):
        spec = SessionSpec(sid=0, arrival=0, quota=view.quota, pages=8,
                           length=len(trace), shared_pages=view.shared_pages,
                           write_fraction=0.0, seed=0)
        session = ActiveSession(spec, view, make_policy("lru"), trace, writes)
        result = TrafficPointResult()
        _serve_tick(session, tick=0, refs_per_tick=4, fetch_time=1,
                    device_free_at=0, pool=pool, result=result)
        return session, result

    def test_fault_into_a_pool_pinned_by_another_view(self):
        pool = SharedFramePool(2)
        other = TenantView(pool, "other")
        other.acquire(0)
        other.acquire(1)
        view = TenantView(pool, "s0", quota=2)
        session, result = self.serve_one_tick(pool, view, [5], [False])
        assert result.stalls == 1
        assert session.position == 0
        assert (result.refs, result.faults, result.evictions) == (0, 0, 0)
        assert view.resident_count == 0
        pool.check_invariants()

    def test_cow_break_with_only_the_written_page_resident(self):
        pool = SharedFramePool(2)
        view = TenantView(pool, "s0", quota=2, shared_pages=1)
        view.acquire(0)
        other = TenantView(pool, "other", shared_pages=1)
        other.acquire(0)   # pins the shared frame a second time
        other.acquire(1)   # and fills the pool
        session, result = self.serve_one_tick(pool, view, [0], [True])
        assert result.stalls == 1
        assert session.position == 0
        assert (result.refs, result.evictions) == (0, 0)
        assert view.key_for(0) == ("shared", 0)
        assert pool.ref_count(("shared", 0)) == 2
        pool.check_invariants()


class TestClockSessions:
    def test_full_size_point_at_the_knee_completes(self):
        """Clock used to answer a self-eviction with the written page
        itself, outside the candidates it was given, and the point
        failed with ``KeyError``."""
        spec = build_points(loads=(1.0,), replacement="clock",
                            quick=False)[0]
        result = simulate_traffic(spec)
        assert result.completed == result.admitted > 0
        assert result.evictions > 0


class TestChecked:
    """``checked=True`` audits the pool and the live sessions' views
    before every 64th pool event and once after the drain."""

    def test_checked_record_equals_the_unchecked_one(self, monkeypatch):
        from repro.traffic import engine, strip_nondeterministic

        spec = tiny_point(offered=1.5, overcommit=2.0, watermark=0.0)
        unchecked = run_traffic_point(spec)
        simulate = engine.simulate_traffic
        monkeypatch.setattr(
            engine, "simulate_traffic",
            lambda spec, telemetry=None: simulate(
                spec, telemetry, checked=True),
        )
        checked = run_traffic_point(spec)
        assert checked["stalls"] > 0 and checked["cow_breaks"] > 0
        assert strip_nondeterministic(checked) == \
            strip_nondeterministic(unchecked)

    @pytest.mark.parametrize("nth", (1, 300, 636))
    def test_planted_leak_is_caught(self, nth, plant_leak):
        """The ``nth`` pin counts twice, so the pool holds a reference
        no session accounts for.  The tiny point pins 636 times: an
        audit within 64 events stops the run, except after the last
        pin, whose leak shows once every session has drained."""
        from repro.errors import InvariantViolation

        spec = tiny_point(offered=1.5)
        calls = plant_leak(0)
        simulate_traffic(spec)
        assert calls["n"] == 636
        plant_leak(nth)
        with pytest.raises(InvariantViolation,
                           match="refcount_conservation"):
            simulate_traffic(spec, checked=True)
        assert calls["n"] == 636 if nth == 636 else nth <= calls["n"] < 636


class TestLoadBehavior:
    def test_underload_has_no_queueing(self):
        result = simulate_traffic(tiny_point(offered=0.3))
        assert result.shed == 0
        assert result.queue_wait.count == result.admitted
        assert result.queue_wait.quantile(0.99) == 0.0

    def test_overload_queues_and_sheds(self):
        calm = simulate_traffic(tiny_point(offered=0.5))
        slammed = simulate_traffic(tiny_point(offered=1.6))
        assert slammed.shed > calm.shed
        assert slammed.queue_wait.quantile(0.99) > \
            calm.queue_wait.quantile(0.99)

    def test_both_queue_reasons_fire_at_saturation(self):
        """The acceptance criterion: watermark and quota refusals both
        exercised at offered load >= 1.0."""
        result = simulate_traffic(tiny_point(offered=1.5))
        assert result.queued_watermark > 0
        assert result.queued_quota > 0

    def test_overflow_cap_sheds_instead_of_growing(self):
        capped = simulate_traffic(tiny_point(offered=2.0, max_queue=2))
        assert capped.shed_overflow > 0
        assert capped.max_queue_depth <= 2

    def test_fault_waits_grow_with_device_pressure(self):
        fast = simulate_traffic(tiny_point(fetch_time=1))
        slow = simulate_traffic(tiny_point(fetch_time=6))
        assert slow.fault_wait.quantile(0.5) > fast.fault_wait.quantile(0.5)


class TestPointRecords:
    def test_record_is_flat_and_json_safe(self):
        import json

        record = run_traffic_point(tiny_point())
        assert record["schema"] == 1
        assert record["queue_wait_p99"] >= record["queue_wait_p50"] >= 0
        assert record["fault_wait_p99"] >= record["fault_wait_p50"] > 0
        assert "traffic.refs" in record["telemetry"]["counters"]
        json.dumps(record)

    def test_telemetry_changes_no_simulation_bits(self):
        from repro.traffic import strip_nondeterministic

        spec = tiny_point()
        with_telemetry = run_traffic_point(spec)
        without = run_traffic_point({**spec, "telemetry": False})
        keys = set(strip_nondeterministic(without)) - {"telemetry"}
        for key in keys:
            assert with_telemetry[key] == without[key], key

    def test_errors_become_records_not_exceptions(self):
        record = run_point_safely({"point": "broken"})
        assert record["point"] == "broken"
        assert "error" in record

    def test_telemetry_counters_match_the_result(self):
        telemetry = TelemetryRegistry()
        result = simulate_traffic(tiny_point(), telemetry=telemetry)
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["traffic.refs"] == result.refs
        assert snapshot["counters"]["traffic.admitted"] == result.admitted
        histograms = snapshot["histograms"]
        assert histograms["traffic.fault_wait"]["count"] == \
            result.fault_wait.count
