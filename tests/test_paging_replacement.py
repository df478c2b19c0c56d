"""Tests for the replacement-policy zoo."""

import pytest

from repro.paging import (
    REPLACEMENT_POLICIES,
    AtlasLearningPolicy,
    BeladyOptimalPolicy,
    ClockPolicy,
    FifoPolicy,
    LfuPolicy,
    LruPolicy,
    M44ClassRandomPolicy,
    RandomPolicy,
    WorkingSetPolicy,
    make_policy,
    simulate_trace,
)


class TestRegistry:
    def test_all_names_instantiate(self):
        for name in REPLACEMENT_POLICIES:
            if name == "opt":
                policy = make_policy(name, trace=[0, 1])
            else:
                policy = make_policy(name)
            assert policy.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_policy("crystal_ball")


class TestFifo:
    def test_evicts_oldest_load(self):
        policy = FifoPolicy()
        policy.on_load("a", 0)
        policy.on_load("b", 1)
        policy.on_access("a", 5)   # recency must not matter
        assert policy.choose_victim(["a", "b"], 6) == "a"


class TestLru:
    def test_evicts_least_recent(self):
        policy = LruPolicy()
        policy.on_load("a", 0)
        policy.on_load("b", 1)
        policy.on_access("a", 5)
        assert policy.choose_victim(["a", "b"], 6) == "b"

    def test_eviction_forgets_state(self):
        policy = LruPolicy()
        policy.on_load("a", 0)
        policy.on_evict("a")
        assert "a" not in policy.last_use


class TestLfu:
    def test_evicts_least_frequent(self):
        policy = LfuPolicy()
        policy.on_load("a", 0)
        policy.on_load("b", 1)
        policy.on_access("a", 2)
        policy.on_access("a", 3)
        policy.on_access("b", 4)
        assert policy.choose_victim(["a", "b"], 5) == "b"

    def test_tie_broken_by_recency(self):
        policy = LfuPolicy()
        policy.on_load("a", 0)
        policy.on_load("b", 1)
        policy.on_access("a", 10)
        policy.on_access("b", 11)
        assert policy.choose_victim(["a", "b"], 12) == "a"


class TestRandom:
    def test_seeded_and_repeatable(self):
        picks = []
        for _ in range(2):
            policy = RandomPolicy(seed=3)
            for page in ("a", "b", "c"):
                policy.on_load(page, 0)
            picks.append([policy.choose_victim(["a", "b", "c"], 1) for _ in range(5)])
        assert picks[0] == picks[1]

    def test_reset_restores_sequence(self):
        policy = RandomPolicy(seed=3)
        for page in ("a", "b", "c"):
            policy.on_load(page, 0)
        first = [policy.choose_victim(["a", "b", "c"], 1) for _ in range(5)]
        policy.reset()
        for page in ("a", "b", "c"):
            policy.on_load(page, 0)
        again = [policy.choose_victim(["a", "b", "c"], 1) for _ in range(5)]
        assert first == again


class TestClock:
    def test_second_chance(self):
        policy = ClockPolicy()
        policy.on_load("a", 0)
        policy.on_load("b", 1)
        policy.on_access("a", 2)   # a gets its reference bit
        assert policy.choose_victim(["a", "b"], 3) == "b"

    def test_full_sweep_clears_bits(self):
        policy = ClockPolicy()
        for page in ("a", "b"):
            policy.on_load(page, 0)
            policy.on_access(page, 1)
        # Both referenced: the hand clears both, then takes the first.
        assert policy.choose_victim(["a", "b"], 2) == "a"

    def test_hand_advances_cyclically(self):
        policy = ClockPolicy()
        for page in ("a", "b", "c"):
            policy.on_load(page, 0)
        first = policy.choose_victim(["a", "b", "c"], 1)
        policy.on_evict(first)
        second = policy.choose_victim([p for p in ("a", "b", "c") if p != first], 2)
        assert second != first

    def test_strict_subset_is_honoured(self):
        """A page outside the candidates is passed like a referenced
        one, never returned: the hand stops at the first candidate."""
        policy = ClockPolicy()
        for page in ("a", "b", "c"):
            policy.on_load(page, 0)
        policy.on_access("b", 1)
        # a is passed, b's bit cleared, c taken.
        assert policy.choose_victim(["b", "c"], 2) == "c"
        policy.on_evict("c")
        assert policy.choose_victim(["b"], 3) == "b"

    def test_eviction_keeps_ring_consistent(self):
        policy = ClockPolicy()
        for page in ("a", "b", "c"):
            policy.on_load(page, 0)
        policy.on_evict("b")
        victim = policy.choose_victim(["a", "c"], 1)
        assert victim in ("a", "c")


class TestAtlasLearning:
    def test_prefers_page_idle_beyond_its_period(self):
        policy = AtlasLearningPolicy(margin=1.0)
        policy.on_load("looper", 0)
        policy.on_load("dead", 0)
        # looper re-used every 10; dead never re-used.
        for t in (10, 20, 30):
            policy.on_access("looper", t)
        assert policy.choose_victim(["looper", "dead"], 31) == "dead"

    def test_all_in_use_chooses_last_needed(self):
        policy = AtlasLearningPolicy(margin=1.0)
        policy.on_load("short", 0)
        policy.on_load("long", 0)
        policy.on_access("short", 5)    # period 5
        policy.on_access("long", 9)     # period 9
        policy.on_access("short", 10)   # period 5 again
        # At t=11: short idle 1 < 10, long idle 2 < 18 — both in use.
        # Predicted next use: short 10+5=15, long 9+9=18 -> evict long.
        assert policy.choose_victim(["short", "long"], 11) == "long"

    def test_learns_period_from_inactivity(self):
        policy = AtlasLearningPolicy()
        policy.on_load("p", 0)
        policy.on_access("p", 7)
        assert policy.period["p"] == 7

    def test_rejects_negative_margin(self):
        with pytest.raises(ValueError):
            AtlasLearningPolicy(margin=-0.5)


class TestM44Classes:
    def test_clean_infrequent_preferred(self):
        policy = M44ClassRandomPolicy(seed=0)
        policy.on_load("hot_dirty", 0)
        policy.on_load("cold_clean", 0)
        for t in range(1, 6):
            policy.on_access("hot_dirty", t, modified=True)
        assert policy.choose_victim(["hot_dirty", "cold_clean"], 10) == "cold_clean"

    def test_dirty_spared_within_frequency_class(self):
        policy = M44ClassRandomPolicy(seed=0)
        policy.on_load("dirty", 0)
        policy.on_load("clean", 0)
        policy.on_access("dirty", 1, modified=True)
        policy.on_access("clean", 2)
        # Same use count: the clean page is the cheaper victim.
        assert policy.choose_victim(["dirty", "clean"], 3) == "clean"

    def test_classes_partition_residents(self):
        policy = M44ClassRandomPolicy()
        for page in ("a", "b", "c", "d"):
            policy.on_load(page, 0)
        policy.on_access("a", 1)
        policy.on_access("a", 2)
        policy.on_access("b", 3, modified=True)
        buckets = policy.classes(["a", "b", "c", "d"])
        assert sorted(sum(buckets, [])) == ["a", "b", "c", "d"]


class TestWorkingSet:
    def test_evicts_outside_window(self):
        policy = WorkingSetPolicy(window=10)
        policy.on_load("old", 0)
        policy.on_load("fresh", 0)
        policy.on_access("fresh", 50)
        assert policy.choose_victim(["old", "fresh"], 55) == "old"

    def test_pressure_falls_back_to_lru(self):
        policy = WorkingSetPolicy(window=100)
        policy.on_load("a", 0)
        policy.on_load("b", 5)
        assert policy.choose_victim(["a", "b"], 10) == "a"
        assert policy.pressure_evictions == 1

    def test_working_set_membership(self):
        policy = WorkingSetPolicy(window=10)
        policy.on_load("a", 0)
        policy.on_load("b", 95)
        assert policy.working_set(["a", "b"], 100) == {"b"}

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            WorkingSetPolicy(window=0)


class TestBeladyOpt:
    def test_evicts_farthest_next_use(self):
        trace = ["a", "b", "c", "a", "b", "d", "a"]
        policy = BeladyOptimalPolicy(trace)
        policy.on_load("a", 0)
        policy.on_load("b", 1)
        policy.on_load("c", 2)
        # Cursor at 3: next uses a->3, b->4, c->never.
        assert policy.choose_victim(["a", "b", "c"], 3) == "c"

    def test_trace_mismatch_detected(self):
        policy = BeladyOptimalPolicy(["a", "b"])
        with pytest.raises(ValueError):
            policy.on_load("b", 0)

    def test_next_use_infinite_for_unseen(self):
        policy = BeladyOptimalPolicy(["a"])
        assert policy.next_use("zzz") == float("inf")

    def test_opt_is_lower_envelope(self):
        """MIN beats every realizable policy on every trace and size."""
        from repro.workload import phased_trace
        trace = phased_trace(pages=20, length=600, working_set=5, seed=42)
        for frames in (3, 5, 8):
            opt = simulate_trace(trace, frames, BeladyOptimalPolicy(trace))
            for name in ("fifo", "lru", "clock", "random", "lfu", "atlas", "m44"):
                other = simulate_trace(trace, frames, make_policy(name))
                assert opt.faults <= other.faults, (name, frames)


class TestSimulateTrace:
    def test_cold_faults_counted(self):
        result = simulate_trace([0, 1, 2, 0, 1], 3, LruPolicy())
        assert result.faults == 3
        assert result.cold_faults == 3
        assert result.evictions == 0

    def test_eviction_on_overflow(self):
        result = simulate_trace([0, 1, 2], 2, LruPolicy())
        assert result.faults == 3
        assert result.evictions == 1

    def test_fault_rate(self):
        result = simulate_trace([0, 0, 0, 0], 1, LruPolicy())
        assert result.fault_rate == 0.25

    def test_fault_positions_recorded(self):
        result = simulate_trace([0, 0, 1], 2, LruPolicy(), record_positions=True)
        assert result.fault_positions == [0, 2]

    def test_writes_drive_modified_classes(self):
        trace = [0, 1, 0, 1, 2]
        writes = [True, False, True, False, False]
        policy = M44ClassRandomPolicy(seed=1)
        result = simulate_trace(trace, 2, policy, writes=writes)
        assert result.faults == 3   # page 1 (clean) evicted before page 0

    def test_writes_must_align(self):
        with pytest.raises(ValueError):
            simulate_trace([0, 1], 2, LruPolicy(), writes=[True])

    def test_more_frames_never_hurt_lru(self):
        """LRU is a stack algorithm: no Belady anomaly."""
        from repro.workload import phased_trace
        trace = phased_trace(pages=15, length=500, working_set=4, seed=9)
        faults = [
            simulate_trace(trace, frames, LruPolicy()).faults
            for frames in range(2, 10)
        ]
        assert all(a >= b for a, b in zip(faults, faults[1:]))

    def test_rejects_bad_frames(self):
        with pytest.raises(ValueError):
            simulate_trace([0], 0, LruPolicy())
