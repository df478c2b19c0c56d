"""TelemetryRegistry: instrument lifecycle, snapshots, merge, null form."""

import pickle

import pytest

from repro.observe.telemetry.registry import (
    NULL_TELEMETRY,
    TelemetryRegistry,
    WALL_CLOCK_SUFFIX,
    as_telemetry,
)
from repro.observe.telemetry.sketch import LogHistogram
from repro.observe.telemetry.spans import NULL_SPAN


class TestInstruments:
    def test_counter_is_idempotent(self):
        registry = TelemetryRegistry()
        first = registry.counter("replay.refs")
        first.increment(3)
        assert registry.counter("replay.refs") is first
        assert registry.counter_value("replay.refs") == 3

    def test_counter_cannot_decrease(self):
        registry = TelemetryRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            registry.counter("x").increment(-1)

    def test_gauge_is_last_write_wins(self):
        registry = TelemetryRegistry()
        registry.gauge("pool.resident").set(5)
        registry.gauge("pool.resident").set(2)
        assert registry.gauge_value("pool.resident") == 2

    def test_histogram_records_unit_on_first_use(self):
        registry = TelemetryRegistry()
        registry.histogram("alloc.request_words", unit="words").observe(8)
        assert registry.unit("alloc.request_words") == "words"
        assert registry.unit("never.registered") == ""

    def test_name_is_one_kind_only(self):
        registry = TelemetryRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("x")

    def test_bad_names_rejected(self):
        registry = TelemetryRegistry()
        with pytest.raises(TypeError):
            registry.counter("")
        with pytest.raises(TypeError):
            registry.gauge(None)

    def test_unread_instruments_read_as_zero(self):
        registry = TelemetryRegistry()
        assert registry.counter_value("no.such") == 0
        assert registry.gauge_value("no.such") == 0
        assert registry.histogram_sketch("no.such") is None


class TestSpans:
    def test_wall_clock_span_requires_seconds_suffix(self):
        registry = TelemetryRegistry()
        with pytest.raises(ValueError, match=WALL_CLOCK_SUFFIX):
            registry.span("pool.acquire")

    def test_wall_clock_span_records_durations(self):
        registry = TelemetryRegistry()
        span = registry.span("pool.acquire_seconds")
        with span:
            pass
        sketch = registry.histogram_sketch("pool.acquire_seconds")
        assert sketch.count == 1
        assert registry.unit("pool.acquire_seconds") == "seconds"

    def test_injected_clock_needs_no_suffix(self):
        registry = TelemetryRegistry()
        ticks = iter(range(0, 100, 7))
        span = registry.span("fault.cycles", clock=lambda: next(ticks))
        with span:
            pass
        assert registry.histogram_sketch("fault.cycles").maximum == 7


class TestDisabledRegistry:
    def test_instruments_are_noops(self):
        registry = TelemetryRegistry(enabled=False)
        registry.counter("x").increment(5)
        registry.gauge("y").set(2)
        registry.histogram("z").observe(1)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["gauges"] == {}
        assert snapshot["histograms"] == {}

    def test_span_is_the_null_span(self):
        registry = TelemetryRegistry(enabled=False)
        span = registry.span("anything.goes")
        assert span is NULL_SPAN
        with span:
            pass
        assert not span

    def test_bool_reflects_enabled(self):
        assert TelemetryRegistry()
        assert not TelemetryRegistry(enabled=False)

    def test_null_telemetry_cannot_be_enabled(self):
        assert not NULL_TELEMETRY.enabled
        with pytest.raises(AttributeError, match="cannot be enabled"):
            NULL_TELEMETRY.enabled = True

    def test_as_telemetry_normalizes(self):
        assert as_telemetry(None) is NULL_TELEMETRY
        registry = TelemetryRegistry()
        assert as_telemetry(registry) is registry


def first_bucket(value):
    """A record edit that sets the lowest bucket's count to ``value``."""
    def edit(record):
        record["counts"][next(iter(record["counts"]))] = value
    return edit


class TestSnapshots:
    def filled(self):
        registry = TelemetryRegistry()
        registry.counter("replay.faults").increment(7)
        registry.gauge("pool.resident").set(12)
        registry.histogram("replay.fault_gap", unit="refs").observe_many(
            [1, 4, 64]
        )
        ticks = iter(range(0, 1000, 5))
        with registry.span("shard.wall_seconds",
                           clock=lambda: next(ticks)):
            pass
        return registry

    def test_snapshot_is_json_and_pickle_safe(self):
        import json

        snapshot = self.filled().snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot

    def test_snapshot_sections_are_sorted(self):
        registry = TelemetryRegistry()
        registry.counter("b").increment()
        registry.counter("a").increment()
        assert list(registry.snapshot()["counters"]) == ["a", "b"]

    def test_deterministic_snapshot_strips_wall_clock(self):
        snapshot = self.filled().deterministic_snapshot()
        names = [name for section in snapshot.values()
                 for name in section]
        assert "shard.wall_seconds" not in names
        assert "replay.faults" in snapshot["counters"]
        assert "replay.fault_gap" in snapshot["histograms"]

    def test_merge_snapshot_sums_maxes_and_merges(self):
        first, second = self.filled(), self.filled()
        second.gauge("pool.resident").set(30)
        parent = TelemetryRegistry()
        parent.merge_snapshot(first.snapshot())
        parent.merge_snapshot(second.snapshot())
        assert parent.counter_value("replay.faults") == 14
        assert parent.gauge_value("pool.resident") == 30
        assert parent.histogram_sketch("replay.fault_gap").count == 6
        assert parent.unit("replay.fault_gap") == "refs"

    def test_merge_order_does_not_matter(self):
        first, second = self.filled(), self.filled()
        second.counter("extra").increment(2)
        ab = TelemetryRegistry()
        ab.merge_snapshot(first.snapshot())
        ab.merge_snapshot(second.snapshot())
        ba = TelemetryRegistry()
        ba.merge_snapshot(second.snapshot())
        ba.merge_snapshot(first.snapshot())
        assert ab.deterministic_snapshot() == ba.deterministic_snapshot()

    def test_from_snapshot_round_trips(self):
        registry = self.filled()
        clone = TelemetryRegistry.from_snapshot(registry.snapshot())
        assert clone.snapshot() == registry.snapshot()

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown telemetry"):
            TelemetryRegistry().merge_snapshot({"surprise": {}})

    def test_mistyped_counter_rejected(self):
        registry = TelemetryRegistry()
        with pytest.raises(TypeError, match="must be an int"):
            registry.merge_snapshot({"counters": {"x": "7"}})
        with pytest.raises(TypeError, match="must be an int"):
            registry.merge_snapshot({"counters": {"x": True}})

    def test_mistyped_gauge_rejected(self):
        registry = TelemetryRegistry()
        with pytest.raises(TypeError, match="must be a number"):
            registry.merge_snapshot({"gauges": {"x": [1]}})

    def test_malformed_histogram_rejected(self):
        registry = TelemetryRegistry()
        with pytest.raises(ValueError, match="malformed"):
            registry.merge_snapshot({"histograms": {"x": {"bad": 1}}})

    @pytest.mark.parametrize("field, edit", [
        pytest.param("count", lambda r: r.update(count=40),
                     id="count-inflated"),
        pytest.param(r"counts\[", first_bucket(-1), id="negative-bucket"),
        pytest.param(r"counts\[", first_bucket("1"), id="string-bucket"),
        pytest.param(r"counts\[", first_bucket(True), id="bool-bucket"),
        pytest.param("zeros", lambda r: r.update(zeros=True),
                     id="bool-zeros"),
        pytest.param("zeros", lambda r: r.update(zeros=-1, count=3),
                     id="negative-zeros"),
        pytest.param("min", lambda r: r.update(min=None), id="min-missing"),
        pytest.param("min", lambda r: r.update(min=500), id="min-above-max"),
        pytest.param("min/max", lambda r: r.update(
            counts={}, count=0, sum=0), id="empty-with-bounds"),
    ])
    def test_inconsistent_histogram_record_rejected(self, field, edit):
        """A record whose fields disagree must not merge: an inflated
        count would otherwise move p50 from ~2 to 100."""
        worker = TelemetryRegistry()
        worker.histogram("gap").observe_many([1, 2, 3, 100])
        snapshot = worker.snapshot()
        edit(snapshot["histograms"]["gap"])
        parent = TelemetryRegistry()
        with pytest.raises(ValueError, match=f"malformed histogram record: "
                                             f"{field}"):
            parent.merge_snapshot(snapshot)
        assert "gap" not in parent.snapshot()["histograms"]

    def test_merged_histogram_is_exact(self):
        """Registry-level fan-in inherits the sketch's exact merge."""
        whole = LogHistogram()
        parent = TelemetryRegistry()
        for shard_values in ([1, 2, 3], [100, 200], [0, 7]):
            worker = TelemetryRegistry()
            sketch = worker.histogram("gap")
            for value in shard_values:
                sketch.observe(value)
                whole.observe(value)
            parent.merge_snapshot(worker.snapshot())
        assert (parent.histogram_sketch("gap").to_dict()
                == whole.to_dict())
