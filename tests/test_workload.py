"""Tests for workload generators."""

import pytest

from repro.workload import (
    AllocationRequest,
    cyclic_trace,
    exponential_requests,
    matrix_traversal_trace,
    overlay_phases_trace,
    phased_trace,
    random_trace,
    request_schedule,
    sequential_trace,
    uniform_requests,
    zipf_trace,
)


class TestReferenceTraces:
    def test_sequential(self):
        assert sequential_trace(3, sweeps=2) == [0, 1, 2, 0, 1, 2]

    def test_cyclic(self):
        assert cyclic_trace(3, 7) == [0, 1, 2, 0, 1, 2, 0]

    def test_random_is_seeded(self):
        assert random_trace(10, 50, seed=1) == random_trace(10, 50, seed=1)
        assert random_trace(10, 50, seed=1) != random_trace(10, 50, seed=2)

    def test_random_within_range(self):
        assert all(0 <= p < 10 for p in random_trace(10, 200, seed=0))

    def test_zipf_skews_to_low_pages(self):
        trace = zipf_trace(50, 5000, skew=1.5, seed=0)
        low = sum(1 for p in trace if p < 10)
        assert low > len(trace) / 2

    def test_zipf_zero_skew_is_roughly_uniform(self):
        trace = zipf_trace(10, 5000, skew=0.0, seed=0)
        counts = [trace.count(p) for p in range(10)]
        assert min(counts) > 300

    def test_phased_locality(self):
        trace = phased_trace(
            pages=100, length=1000, working_set=5, phase_length=200,
            locality=1.0, seed=3,
        )
        # With locality 1.0, each 200-reference phase touches ≤5 pages.
        for start in range(0, 1000, 200):
            phase = set(trace[start : start + 200])
            assert len(phase) <= 5

    def test_phased_is_seeded(self):
        a = phased_trace(20, 100, seed=7)
        b = phased_trace(20, 100, seed=7)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            sequential_trace(0)
        with pytest.raises(ValueError):
            cyclic_trace(3, 0)
        with pytest.raises(ValueError):
            phased_trace(10, 100, working_set=11)
        with pytest.raises(ValueError):
            phased_trace(10, 100, locality=1.5)
        with pytest.raises(ValueError):
            zipf_trace(10, 10, skew=-1)


class TestPrograms:
    def test_row_major_walks_pages_once(self):
        trace = matrix_traversal_trace(rows=8, cols=64, page_size=64, order="row")
        # Sequential: page changes only forward.
        assert trace == sorted(trace)
        assert set(trace) == set(range(8))

    def test_column_major_strides(self):
        trace = matrix_traversal_trace(rows=8, cols=64, page_size=64, order="col")
        # The first 8 references (one column) touch 8 different pages.
        assert len(set(trace[:8])) == 8

    def test_order_validation(self):
        with pytest.raises(ValueError):
            matrix_traversal_trace(2, 2, order="diagonal")

    def test_overlay_phases_touch_own_pages_plus_root(self):
        trace = overlay_phases_trace(
            phases=3, pages_per_phase=4, shared_pages=1,
            references_per_phase=100, seed=0,
        )
        first_phase = set(trace[:100])
        assert first_phase <= {0, 1, 2, 3, 4}
        last_phase = set(trace[200:])
        assert last_phase <= {0, 9, 10, 11, 12}

    def test_overlay_validation(self):
        with pytest.raises(ValueError):
            overlay_phases_trace(0, 1)
        with pytest.raises(ValueError):
            overlay_phases_trace(1, 1, shared_pages=-1)


class TestAllocationRequests:
    def test_uniform_sizes_in_range(self):
        requests = uniform_requests(100, 10, 50, mean_lifetime=20, seed=0)
        assert all(10 <= r.size <= 50 for r in requests)
        assert all(r.lifetime >= 1 for r in requests)

    def test_arrivals_spaced(self):
        requests = uniform_requests(5, 1, 2, mean_lifetime=3, interarrival=7)
        assert [r.arrival for r in requests] == [0, 7, 14, 21, 28]

    def test_exponential_mean_roughly_right(self):
        requests = exponential_requests(2000, mean_size=40, mean_lifetime=30,
                                        seed=1)
        mean = sum(r.size for r in requests) / len(requests)
        assert 30 < mean < 50

    def test_exponential_cap(self):
        requests = exponential_requests(500, mean_size=100, mean_lifetime=10,
                                        max_size=120, seed=2)
        assert max(r.size for r in requests) <= 120

    @pytest.mark.parametrize("max_size", [0, -5, 2.5, True])
    def test_exponential_cap_must_be_a_positive_int(self, max_size):
        with pytest.raises(ValueError, match="max_size"):
            exponential_requests(10, mean_size=20, mean_lifetime=5,
                                 max_size=max_size)

    def test_seeded(self):
        a = exponential_requests(50, 10, 10, seed=5)
        b = exponential_requests(50, 10, 10, seed=5)
        assert a == b

    def test_request_validation(self):
        with pytest.raises(ValueError):
            AllocationRequest(arrival=-1, size=1, lifetime=1)
        with pytest.raises(ValueError):
            AllocationRequest(arrival=0, size=0, lifetime=1)
        with pytest.raises(ValueError):
            AllocationRequest(arrival=0, size=1, lifetime=0)

    def test_departure(self):
        assert AllocationRequest(arrival=5, size=1, lifetime=10).departure == 15

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3"], ids=repr)
    @pytest.mark.parametrize("make, kwargs, name", [
        pytest.param(make, kwargs, name, id=f"{make.__name__}-{name}")
        for make, kwargs, names in (
            (AllocationRequest, dict(arrival=0, size=3, lifetime=3),
             ("arrival", "size", "lifetime")),
            (exponential_requests, dict(count=3, mean_size=10,
                                        mean_lifetime=5),
             ("count", "interarrival")),
            (uniform_requests, dict(count=3, min_size=1, max_size=2,
                                    mean_lifetime=5),
             ("count", "interarrival", "min_size", "max_size")),
        )
        for name in names
    ])
    def test_rejects_a_value_that_is_not_an_int(self, make, kwargs, name,
                                                value):
        """Times, sizes and counts are whole numbers, checked before any
        draw: a caller's generator is left untouched."""
        import random

        if make is not AllocationRequest:
            kwargs = dict(kwargs, rng=random.Random(1))
        with pytest.raises(TypeError, match=name):
            make(**dict(kwargs, **{name: value}))
        if make is not AllocationRequest:
            assert kwargs["rng"].getstate() == random.Random(1).getstate()


class TestRequestSchedule:
    def test_interleaves_in_time_order(self):
        requests = [
            AllocationRequest(arrival=0, size=10, lifetime=5),
            AllocationRequest(arrival=2, size=20, lifetime=10),
        ]
        events = list(request_schedule(requests))
        times = [t for t, _, _ in events]
        assert times == sorted(times)
        assert [a for _, a, _ in events] == [
            "allocate", "allocate", "free", "free"
        ]

    def test_free_before_allocate_at_same_instant(self):
        requests = [
            AllocationRequest(arrival=0, size=10, lifetime=5),
            AllocationRequest(arrival=5, size=20, lifetime=5),
        ]
        events = list(request_schedule(requests))
        at_five = [(action, r.size) for t, action, r in events if t == 5]
        assert at_five == [("free", 10), ("allocate", 20)]

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            uniform_requests(0, 1, 2, 3)
        with pytest.raises(ValueError):
            uniform_requests(1, 5, 2, 3)
        with pytest.raises(ValueError):
            exponential_requests(1, 0, 3)


class TestExplicitRng:
    """Generators accept a shared ``rng`` that wins over ``seed``."""

    def test_rng_matches_equivalent_seed(self):
        import random

        assert random_trace(16, 50, rng=random.Random(7)) == random_trace(
            16, 50, seed=7
        )
        assert zipf_trace(16, 50, rng=random.Random(7)) == zipf_trace(
            16, 50, seed=7
        )
        assert phased_trace(16, 50, rng=random.Random(7)) == phased_trace(
            16, 50, seed=7
        )
        assert overlay_phases_trace(3, 4, rng=random.Random(7)) == (
            overlay_phases_trace(3, 4, seed=7)
        )
        assert uniform_requests(5, 1, 9, 3, rng=random.Random(7)) == (
            uniform_requests(5, 1, 9, 3, seed=7)
        )
        assert exponential_requests(5, 10, 3, rng=random.Random(7)) == (
            exponential_requests(5, 10, 3, seed=7)
        )

    def test_rng_takes_precedence_over_seed(self):
        import random

        with_rng = random_trace(16, 50, seed=999, rng=random.Random(7))
        assert with_rng == random_trace(16, 50, seed=7)

    def test_shared_rng_advances_between_calls(self):
        import random

        rng = random.Random(7)
        first = random_trace(16, 50, rng=rng)
        second = random_trace(16, 50, rng=rng)
        assert first != second   # the stream continued, not restarted
