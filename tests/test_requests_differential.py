"""The request streams' differential contract, pinned across seeds.

``exponential_requests``, ``exponential_columns`` and
``uniform_requests`` draw a stream as two int columns in one loop that
inlines ``expovariate`` for a plain ``random.Random``, and
``request_schedule`` and the sweep's churn leg follow one integer
order, ``schedule_order``.  The per-draw generators and the tuple sort
they replaced are the oracle in ``tests/workload_reference.py``; the
per-request churn loop is the oracle in ``tests/churn_reference.py``.

- For 100 seeds on a grid of counts, means, caps and interarrival
  times, the requests, the columns and the final ``getstate()`` of a
  caller-owned generator must match the oracle, and so must a subclass
  that overrides ``random()`` (the per-draw fallback) and one that
  overrides ``expovariate`` (which only the fallback honours).
- The schedule must match the oracle's, event for event and object for
  object, on generated streams, on tied departures, and on hand-made
  lists whose arrivals are unsorted.
- The churn leg must give the oracle's record, counters and
  deterministic telemetry on the bench sweep's 128 shard specs, checked
  and unchecked, and on 100 random specs over all four placements with
  capacities small enough to fail.
"""

from __future__ import annotations

import dataclasses
import random
from itertools import product

import pytest

from repro.core.builder import MACHINE_PRESETS, preset_config
from repro.observe.counters import Counters
from repro.observe.telemetry.registry import TelemetryRegistry
from repro.sweep import quick_grid
from repro.sweep.shard import _churn
from repro.workload.requests import (
    AllocationRequest,
    exponential_columns,
    exponential_requests,
    request_schedule,
    schedule_order,
    uniform_requests,
)
from tests import churn_reference
from tests import workload_reference as oracle

SEEDS = range(100)
PLACEMENTS = ("first_fit", "best_fit", "worst_fit", "next_fit")

#: Mean size 1 rounds many draws to 0 (clamped to 1); mean lifetime 1
#: clamps many lifetimes and ties most departures with arrivals; cap 2
#: binds on almost every draw, cap 64 on the tail.
EXPONENTIAL_GRID = [
    dict(count=count, mean_size=mean_size, mean_lifetime=mean_lifetime,
         max_size=max_size, interarrival=interarrival)
    for count, mean_size, mean_lifetime, max_size, interarrival in product(
        (1, 60), (1, 60), (1, 40), (None, 2, 64), (1, 3),
    )
]

UNIFORM_GRID = [
    dict(count=count, min_size=low, max_size=high,
         mean_lifetime=mean_lifetime, interarrival=interarrival)
    for count, (low, high), mean_lifetime, interarrival in product(
        (1, 60), ((1, 1), (1, 7), (10, 300)), (1, 40), (1, 3),
    )
]


def shape_id(shape):
    return "-".join(f"{key}{value}" for key, value in shape.items())


def columns_of(requests):
    return ([request.size for request in requests],
            [request.lifetime for request in requests])


class RandomOnly(random.Random):
    """Overrides ``random()`` alone; not exactly ``random.Random``, so
    it takes the per-draw fallback."""

    def random(self):
        return super().random()


class HalvedExpovariate(random.Random):
    """An ``expovariate`` the inlined body would not reproduce."""

    def expovariate(self, lambd=1.0):
        return super().expovariate(lambd) / 2


class TestExponentialMatchesOracle:
    @pytest.mark.parametrize("shape", EXPONENTIAL_GRID, ids=shape_id)
    def test_requests_columns_and_rng_state(self, shape):
        column_shape = {k: v for k, v in shape.items() if k != "interarrival"}
        for seed in SEEDS:
            expected_rng, requests_rng, columns_rng = (
                random.Random(seed) for _ in range(3))
            expected = oracle.exponential_requests(rng=expected_rng, **shape)
            context = f"seed {seed}, {shape}"
            assert exponential_requests(rng=requests_rng, **shape) \
                == expected, context
            assert exponential_columns(rng=columns_rng, **column_shape) \
                == columns_of(expected), context
            assert requests_rng.getstate() == expected_rng.getstate(), context
            assert columns_rng.getstate() == expected_rng.getstate(), context

    @pytest.mark.parametrize("shape", EXPONENTIAL_GRID[::4], ids=shape_id)
    def test_seed_path_matches(self, shape):
        column_shape = {k: v for k, v in shape.items() if k != "interarrival"}
        for seed in SEEDS:
            expected = oracle.exponential_requests(seed=seed, **shape)
            assert exponential_requests(seed=seed, **shape) == expected, seed
            assert exponential_columns(seed=seed, **column_shape) \
                == columns_of(expected), seed

    @pytest.mark.parametrize("rng_type", [RandomOnly, HalvedExpovariate])
    @pytest.mark.parametrize("shape", EXPONENTIAL_GRID[::5], ids=shape_id)
    def test_other_types_take_the_per_draw_fallback(self, shape, rng_type):
        for seed in SEEDS:
            expected_rng, actual_rng = rng_type(seed), rng_type(seed)
            expected = oracle.exponential_requests(rng=expected_rng, **shape)
            assert exponential_requests(rng=actual_rng, **shape) \
                == expected, seed
            assert actual_rng.getstate() == expected_rng.getstate(), seed

    def test_an_overridden_expovariate_changes_the_stream(self):
        """The fallback matters: inlining would ignore the override."""
        shape = dict(count=50, mean_size=60, mean_lifetime=40)
        assert (oracle.exponential_requests(rng=HalvedExpovariate(1), **shape)
                != oracle.exponential_requests(rng=random.Random(1), **shape))


class TestUniformMatchesOracle:
    @pytest.mark.parametrize("shape", UNIFORM_GRID, ids=shape_id)
    def test_requests_and_rng_state(self, shape):
        for seed in SEEDS:
            expected_rng, actual_rng = random.Random(seed), random.Random(seed)
            expected = oracle.uniform_requests(rng=expected_rng, **shape)
            assert uniform_requests(rng=actual_rng, **shape) == expected, seed
            assert actual_rng.getstate() == expected_rng.getstate(), seed
            assert uniform_requests(seed=seed, **shape) == expected, seed

    @pytest.mark.parametrize("rng_type", [RandomOnly, HalvedExpovariate])
    @pytest.mark.parametrize("shape", UNIFORM_GRID[::4], ids=shape_id)
    def test_other_types_take_the_per_draw_fallback(self, shape, rng_type):
        for seed in SEEDS:
            expected_rng, actual_rng = rng_type(seed), rng_type(seed)
            expected = oracle.uniform_requests(rng=expected_rng, **shape)
            assert uniform_requests(rng=actual_rng, **shape) == expected, seed
            assert actual_rng.getstate() == expected_rng.getstate(), seed


def assert_schedule_matches(requests, context):
    # Equal requests may be distinct objects: compare them by identity.
    expected = [(time, action, id(request))
                for time, action, request in oracle.request_schedule(requests)]
    assert [(time, action, id(request))
            for time, action, request in request_schedule(requests)] \
        == expected, context


def hand_made(rng, count):
    """Unsorted arrivals over a short span, so times tie often."""
    return [
        AllocationRequest(arrival=rng.randint(0, 12),
                          size=rng.randint(1, 9),
                          lifetime=rng.randint(1, 6))
        for _ in range(count)
    ]


class TestScheduleMatchesOracle:
    @pytest.mark.parametrize("shape", EXPONENTIAL_GRID[::3], ids=shape_id)
    def test_generated_streams(self, shape):
        for seed in SEEDS:
            requests = exponential_requests(seed=seed, **shape)
            assert_schedule_matches(requests, f"seed {seed}, {shape}")

    def test_hand_made_lists_with_unsorted_arrivals(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            requests = hand_made(rng, rng.randint(1, 40))
            assert_schedule_matches(requests, f"seed {seed}")

    def test_tied_departures(self):
        """Five departures and two arrivals at t=5, one request listed
        twice: frees first, each kind in list order."""
        repeated = AllocationRequest(arrival=1, size=4, lifetime=4)
        requests = [
            AllocationRequest(arrival=3, size=1, lifetime=2),
            AllocationRequest(arrival=5, size=2, lifetime=1),
            AllocationRequest(arrival=0, size=3, lifetime=5),
            repeated,
            AllocationRequest(arrival=5, size=5, lifetime=3),
            repeated,
            AllocationRequest(arrival=2, size=6, lifetime=3),
        ]
        assert_schedule_matches(requests, "hand-made ties")
        at_five = [(action, request.size)
                   for time, action, request in request_schedule(requests)
                   if time == 5]
        assert at_five == [("free", 1), ("free", 3), ("free", 4), ("free", 4),
                           ("free", 6), ("allocate", 2), ("allocate", 5)]

    def test_empty(self):
        assert list(request_schedule([])) == []
        assert schedule_order([], []) == []


def bench_sweep_specs():
    """The bench sweep's 128 shard specs at its default seed 1967 (the
    grid ``bench/workloads.py`` builds from ``quick_grid``)."""
    grid = dataclasses.replace(
        quick_grid(), name="bench-sweep", placement=("best_fit", "first_fit"),
        sharing=(1, 4), seeds=tuple(range(4)), base_seed=1967,
    )
    return [shard.spec() for shard in grid.shards()]


def random_specs():
    """100 specs over every placement and machine, 1–400 requests and
    capacities 64–20,000 words, about 30% of them checked."""
    rng = random.Random(0xC4A2)
    machines = sorted(MACHINE_PRESETS)
    return [
        dict(
            base_seed=rng.randrange(1 << 32),
            shard=f"random/{index}",
            machine=rng.choice(machines),
            replacement="lru",
            placement=PLACEMENTS[index % 4],
            requests=rng.randint(1, 400),
            mean_lifetime=rng.choice((1, 7, 60, 400, 3_000)),
            capacity=rng.choice((64, 200, 1_000, 5_000, 20_000)),
            checked=rng.random() < 0.3,
        )
        for index in range(100)
    ]


def run_leg(leg, spec):
    config = preset_config(spec["machine"],
                           replacement_policy=spec["replacement"],
                           placement_policy=spec["placement"])
    counters = Counters()
    telemetry = TelemetryRegistry()
    record = leg(spec, config, counters, telemetry)
    return record, counters.snapshot(), telemetry.deterministic_snapshot()


class TestChurnLegMatchesOracle:
    @pytest.mark.parametrize("checked", [False, True],
                             ids=["unchecked", "checked"])
    def test_bench_sweep_specs(self, checked):
        specs = bench_sweep_specs()
        assert len(specs) == 128
        for spec in specs:
            spec["checked"] = checked
            assert run_leg(_churn, spec) \
                == run_leg(churn_reference.churn, spec), spec["shard"]

    def test_random_specs(self):
        failing = 0
        for spec in random_specs():
            expected = run_leg(churn_reference.churn, spec)
            assert run_leg(_churn, spec) == expected, spec
            failing += expected[0]["alloc_failures"] > 0
        # The failure path (a free of a request that never got a block)
        # must be exercised, not just the clean one.
        assert failing >= 20
