"""Tests for the event kernel, schedulers, space-time accounting, and the
multiprogramming simulator."""

import pytest

from repro.paging import LruPolicy
from repro.sim import (
    EventQueue,
    FcfsScheduler,
    MultiprogrammingSimulator,
    ProgramSpec,
    RoundRobinScheduler,
    SpaceTimeAccount,
)
from repro.workload import cyclic_trace, phased_trace


class TestEventQueue:
    def test_time_ordering(self):
        queue = EventQueue()
        queue.schedule(10, "late")
        queue.schedule(5, "early")
        assert queue.pop() == (5, "early")
        assert queue.pop() == (10, "late")

    def test_ties_in_insertion_order(self):
        queue = EventQueue()
        queue.schedule(5, "first")
        queue.schedule(5, "second")
        assert queue.pop()[1] == "first"
        assert queue.pop()[1] == "second"

    def test_pop_empty(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.schedule(7, "x")
        assert queue.peek_time() == 7
        assert len(queue) == 1

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-1, "x")

    def test_counters(self):
        queue = EventQueue()
        queue.schedule(1, "a")
        queue.pop()
        assert queue.scheduled == 1 and queue.delivered == 1


class TestSchedulers:
    def test_round_robin_cycles(self):
        scheduler = RoundRobinScheduler(quantum=10)
        scheduler.make_ready("a")
        scheduler.make_ready("b")
        assert scheduler.next_program() == "a"
        scheduler.make_ready("a")
        assert scheduler.next_program() == "b"

    def test_empty_queue_returns_none(self):
        assert RoundRobinScheduler(quantum=10).next_program() is None

    def test_duplicate_ready_rejected(self):
        scheduler = RoundRobinScheduler(quantum=10)
        scheduler.make_ready("a")
        with pytest.raises(ValueError):
            scheduler.make_ready("a")

    def test_quantum_validation(self):
        with pytest.raises(ValueError):
            RoundRobinScheduler(quantum=0)

    def test_fcfs_slice_is_effectively_unbounded(self):
        scheduler = FcfsScheduler()
        assert scheduler.time_slice("a") > 10**15

    def test_remove(self):
        scheduler = RoundRobinScheduler(quantum=10)
        scheduler.make_ready("a")
        scheduler.remove("a")
        assert scheduler.next_program() is None
        scheduler.remove("ghost")   # no-op


class TestSpaceTimeAccount:
    def test_active_and_waiting_split(self):
        account = SpaceTimeAccount()
        account.accumulate(100, 10, waiting=False)
        account.accumulate(100, 30, waiting=True)
        breakdown = account.breakdown
        assert breakdown.active == 1000
        assert breakdown.waiting == 3000
        assert breakdown.total == 4000
        assert breakdown.waiting_share == 0.75

    def test_zero_intervals_ignored(self):
        account = SpaceTimeAccount()
        account.accumulate(100, 0, waiting=False)
        account.accumulate(0, 50, waiting=False)
        assert account.total == 0

    def test_validation(self):
        account = SpaceTimeAccount()
        with pytest.raises(ValueError):
            account.accumulate(-1, 1, waiting=False)
        with pytest.raises(ValueError):
            account.accumulate(1, -1, waiting=False)

    def test_empty_share(self):
        assert SpaceTimeAccount().breakdown.waiting_share == 0.0


def spec(name, trace, frames=4, reference_time=1):
    return ProgramSpec(name, trace, frames, LruPolicy(),
                       reference_time=reference_time)


class TestMultiprogrammingSimulator:
    def test_single_program_completes(self):
        trace = phased_trace(pages=6, length=200, working_set=3, seed=1)
        summary = MultiprogrammingSimulator(
            [spec("p", trace)], RoundRobinScheduler(50), fetch_time=100
        ).run()
        result = summary.programs[0]
        assert result.references == 200
        assert result.compute_cycles == 200
        assert result.faults > 0
        assert summary.makespan == summary.cpu_busy + summary.cpu_idle

    def test_single_program_wait_dominates_with_slow_fetch(self):
        """Figure 3: slow fetches make waiting the bulk of the product."""
        trace = cyclic_trace(pages=8, length=200)
        summary = MultiprogrammingSimulator(
            [spec("p", trace, frames=4)], RoundRobinScheduler(50),
            fetch_time=10_000,
        ).run()
        assert summary.programs[0].space_time.waiting_share > 0.9

    def test_fast_fetch_shrinks_waiting_share(self):
        trace = cyclic_trace(pages=8, length=200)
        shares = []
        for fetch_time in (10_000, 10):
            summary = MultiprogrammingSimulator(
                [spec("p", trace, frames=4)], RoundRobinScheduler(50),
                fetch_time=fetch_time,
            ).run()
            shares.append(summary.programs[0].space_time.waiting_share)
        assert shares[1] < shares[0]

    def test_overlap_raises_cpu_utilization(self):
        """The multiprogramming payoff the paper describes."""
        def mix(degree):
            traces = [
                phased_trace(pages=10, length=300, working_set=3, seed=s)
                for s in range(degree)
            ]
            return MultiprogrammingSimulator(
                [spec(f"p{i}", t, frames=2) for i, t in enumerate(traces)],
                RoundRobinScheduler(25),
                fetch_time=500,
            ).run()
        single = mix(1).cpu_utilization
        quad = mix(4).cpu_utilization
        assert quad > single

    def test_enough_frames_means_cold_faults_only(self):
        trace = cyclic_trace(pages=4, length=100)
        summary = MultiprogrammingSimulator(
            [spec("p", trace, frames=4)], RoundRobinScheduler(50),
            fetch_time=100,
        ).run()
        assert summary.programs[0].faults == 4

    def test_departed_program_frees_storage(self):
        trace = cyclic_trace(pages=2, length=20)
        simulator = MultiprogrammingSimulator(
            [spec("p", trace, frames=4)], RoundRobinScheduler(50),
            fetch_time=10,
        )
        simulator.run()
        program = simulator._programs["p"]
        assert program.frames.resident_count == 0

    def test_quantum_rotation_interleaves(self):
        long_trace = cyclic_trace(pages=2, length=400)
        summary = MultiprogrammingSimulator(
            [spec("a", long_trace, frames=2), spec("b", long_trace, frames=2)],
            RoundRobinScheduler(10),
            fetch_time=50,
        ).run()
        a, b = summary.programs
        # Neither finishes twice as fast as the other under fair slicing.
        assert abs(a.completion_time - b.completion_time) < 100

    def test_wait_cycles_accounted(self):
        trace = [0, 1, 0, 1]
        summary = MultiprogrammingSimulator(
            [spec("p", trace, frames=2)], RoundRobinScheduler(50),
            fetch_time=100,
        ).run()
        assert summary.programs[0].wait_cycles == 200   # two cold fetches

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiprogrammingSimulator([], RoundRobinScheduler(10), fetch_time=1)
        with pytest.raises(ValueError):
            ProgramSpec("p", [], 2, LruPolicy())
        with pytest.raises(ValueError):
            ProgramSpec("p", [0], 0, LruPolicy())
        with pytest.raises(ValueError):
            MultiprogrammingSimulator(
                [spec("p", [0]), spec("p", [0])],
                RoundRobinScheduler(10), fetch_time=1,
            )

    def test_fcfs_runs_to_block(self):
        trace = cyclic_trace(pages=2, length=50)
        summary = MultiprogrammingSimulator(
            [spec("a", trace, frames=2), spec("b", trace, frames=2)],
            FcfsScheduler(),
            fetch_time=100,
        ).run()
        assert all(p.references == 50 for p in summary.programs)
