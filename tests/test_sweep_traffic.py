"""The offered-load axis: grid plumbing, the traffic leg, the report.

The open-arrival traffic tier rides the sweep the same way the serve
leg does, so the axis threads grid validation → shard ids (which are
also the derive_seed roots — the stability hazard) → the traffic leg's
record fields → the marginal table the CLI prints.
"""

import math

import pytest

from repro.sweep.cli import AXES, MARGINAL_HEADERS, build_parser, resolve_grid
from repro.sweep.engine import marginals, run_sweep
from repro.sweep.grid import Shard, SweepGrid, quick_grid
from repro.sweep.shard import run_shard


def tiny_grid(**overrides):
    base = dict(
        name="tiny-traffic",
        machines=("baseline",),
        replacement=("lru",),
        placement=("best_fit",),
        frames=(8,),
        capacities=(20_000,),
        seeds=(0,),
        length=200,
        pages=16,
        requests=40,
        program_length=150,
    )
    base.update(overrides)
    return SweepGrid(**base)


class TestGridAxis:
    def test_offered_multiplies_grid_size(self):
        assert tiny_grid().size == 1
        assert tiny_grid(offered=(0.5, 1.0, 1.5)).size == 3

    def test_offered_defaults_to_the_knee(self):
        assert quick_grid().offered == (1.0,)

    def test_nonpositive_load_rejected(self):
        with pytest.raises(ValueError, match="offered load"):
            tiny_grid(offered=(0.0,))

    @pytest.mark.parametrize("load", (math.inf, math.nan))
    def test_non_finite_load_rejected(self, load):
        with pytest.raises(ValueError, match="offered load must be finite"):
            tiny_grid(offered=(load,))
        with pytest.raises(ValueError):
            tiny_grid(offered=())
        with pytest.raises(ValueError):
            tiny_grid(offered=(1.5, 1.5))

    def test_round_trips_through_dict(self):
        grid = tiny_grid(offered=(0.5, 1.5))
        assert SweepGrid.from_dict(grid.to_dict()) == grid


class TestSeedStability:
    """Shard.id roots every derive_seed stream, so the default load must
    not stamp an ``offered=`` segment into it — that would silently
    re-seed, and re-answer, every previously recorded campaign."""

    def test_default_load_leaves_ids_unchanged(self):
        shard = next(iter(tiny_grid().shards()))
        assert shard.offered == 1.0
        assert "offered=" not in shard.id
        assert shard.id == (
            "machine=baseline/replacement=lru/placement=best_fit/"
            "frames=8/capacity=20000/sharing=1/seed=0"
        )

    def test_non_default_loads_are_distinct_resume_keys(self):
        ids = [s.id for s in tiny_grid(offered=(0.5, 1.0, 1.5)).shards()]
        assert sum("offered=" in shard_id for shard_id in ids) == 2
        assert len(set(ids)) == 3

    def test_pre_axis_specs_still_run(self):
        """A Shard built without the field (an old grid or record) gets
        the default load, and run_shard tolerates specs missing it."""
        shard = next(iter(tiny_grid().shards()))
        assert Shard(**{
            field: getattr(shard, field)
            for field in shard.__dataclass_fields__
            if field != "offered"
        }).offered == 1.0


class TestTrafficLeg:
    def test_record_carries_the_traffic_fields(self):
        shard = next(iter(tiny_grid().shards()))
        record = run_shard(shard.spec())
        assert record["offered"] == 1.0
        for key in ("traffic_arrivals", "traffic_admitted", "traffic_shed",
                    "traffic_shed_rate", "traffic_completed", "traffic_refs",
                    "traffic_stalls", "traffic_queued_watermark",
                    "traffic_queued_quota", "traffic_queue_wait_p50",
                    "traffic_queue_wait_p99", "traffic_fault_wait_p50",
                    "traffic_fault_wait_p99"):
            assert key in record, key
        assert record["traffic_admitted"] <= record["traffic_arrivals"]
        assert record["traffic_refs"] > 0

    def test_offered_load_changes_the_answer(self):
        calm, slammed = (
            run_shard(next(iter(
                tiny_grid(offered=(load,)).shards()
            )).spec())
            for load in (0.5, 1.6)
        )
        assert slammed["traffic_arrivals"] > calm["traffic_arrivals"]
        assert slammed["traffic_shed_rate"] >= calm["traffic_shed_rate"]
        assert slammed["traffic_queue_wait_p99"] >= \
            calm["traffic_queue_wait_p99"]

    def test_leg_is_deterministic_across_workers(self):
        grid = tiny_grid(offered=(0.5, 1.5))
        serial = run_sweep(grid, workers=1)
        pooled = run_sweep(grid, workers=4)
        pairs = zip(serial.records, pooled.records)
        for left, right in pairs:
            assert left["traffic_refs"] == right["traffic_refs"]
            assert left["traffic_queue_wait_p99"] == \
                right["traffic_queue_wait_p99"]


class TestCheckedTrafficLeg:
    """``sweep --checked`` audits the traffic leg like every other."""

    @staticmethod
    def leg(checked):
        from repro.core.builder import preset_config
        from repro.observe.telemetry.registry import TelemetryRegistry
        from repro.sweep.shard import _traffic

        spec = next(iter(tiny_grid(offered=(1.5,)).shards())).spec(
            checked=checked)
        config = preset_config(spec["machine"],
                               replacement_policy=spec["replacement"],
                               placement_policy=spec["placement"])
        return _traffic(spec, config, TelemetryRegistry())

    def test_checked_leg_answers_as_the_unchecked_one(self):
        assert self.leg(checked=True) == self.leg(checked=False)

    def test_checked_leg_catches_a_planted_leak(self, plant_leak):
        from repro.errors import InvariantViolation

        plant_leak(1)
        self.leg(checked=False)   # unchecked, the leak goes unnoticed
        plant_leak(1)
        with pytest.raises(InvariantViolation,
                           match="refcount_conservation"):
            self.leg(checked=True)


class TestReport:
    def test_offered_is_a_reported_axis(self):
        assert "offered" in AXES

    def test_marginal_rows_match_the_headers(self):
        result = run_sweep(tiny_grid(offered=(0.5, 1.5)), workers=1)
        rows = marginals(result.records, "offered")
        assert [row[0] for row in rows] == [0.5, 1.5]
        assert all(len(row) == len(MARGINAL_HEADERS) for row in rows)

    def test_new_columns_appended_not_inserted(self):
        """The marginal table is position-indexed downstream; the
        traffic columns must ride at the end."""
        assert MARGINAL_HEADERS[-2:] == ("shed rate", "qwait p99")
        assert MARGINAL_HEADERS[7] == "alloc fails"

    def test_cli_offered_override(self):
        options = build_parser().parse_args(
            ["--quick", "--offered", "0.5", "1.5"]
        )
        grid = resolve_grid(options)
        assert grid.offered == (0.5, 1.5)
        assert grid.size == quick_grid().size * 2
