"""Tests for predictive information: directives, advised pager, ACSI-MATIC."""

import pytest

from repro.addressing import PageTable
from repro.advice import (
    Advice,
    AdviceKind,
    AdvisedPager,
    AdvisedReplacementPolicy,
    ProgramDescription,
    keep_resident,
    will_need,
    wont_need,
)
from repro.clock import Clock
from repro.memory import BackingStore, StorageLevel
from repro.paging import (
    ClockPolicy,
    DemandPager,
    FrameTable,
    LruPolicy,
    simulate_trace,
)


class TestDirectives:
    def test_shorthand_constructors(self):
        assert will_need("p").kind is AdviceKind.WILL_NEED
        assert wont_need("p").kind is AdviceKind.WONT_NEED
        assert keep_resident("p").kind is AdviceKind.KEEP_RESIDENT

    def test_str(self):
        assert str(will_need(3)) == "will_need(3)"

    def test_frozen(self):
        advice = will_need("p")
        with pytest.raises(AttributeError):
            advice.unit = "q"


class TestAdvisedReplacementPolicy:
    def test_discard_hint_preferred(self):
        policy = AdvisedReplacementPolicy(LruPolicy())
        policy.on_load("a", 0)
        policy.on_load("b", 1)
        policy.on_access("b", 5)
        policy.hint_discard("b")
        # LRU would pick a; the hint overrides.
        assert policy.choose_victim(["a", "b"], 6) == "b"
        assert policy.hints_honoured == 1

    def test_hint_retired_by_real_access(self):
        policy = AdvisedReplacementPolicy(LruPolicy())
        policy.on_load("a", 0)
        policy.on_load("b", 1)
        policy.hint_discard("a")
        policy.on_access("a", 5)   # advice was wrong: page is live again
        assert policy.choose_victim(["a", "b"], 6) == "b"

    def test_lock_protects(self):
        policy = AdvisedReplacementPolicy(LruPolicy())
        policy.on_load("a", 0)
        policy.on_load("b", 1)
        policy.lock("a")
        assert policy.choose_victim(["a", "b"], 2) == "b"

    @pytest.mark.parametrize("base", (LruPolicy, ClockPolicy))
    def test_lock_protects_over_a_replay(self, base):
        """A clock base must honour the unlocked candidates too: it used
        to sweep the whole ring and evict the locked page."""
        policy = AdvisedReplacementPolicy(base())
        policy.lock(1)
        result = simulate_trace([1, 2, 3, 4, 5, 6, 1], 3, policy,
                                record_evictions=True, fast=False)
        assert result.victims == [2, 3, 4]

    def test_all_locked_falls_back(self):
        """Advice must never wedge the system."""
        policy = AdvisedReplacementPolicy(LruPolicy())
        policy.on_load("a", 0)
        policy.lock("a")
        assert policy.choose_victim(["a"], 1) == "a"

    def test_unlock(self):
        policy = AdvisedReplacementPolicy(LruPolicy())
        policy.on_load("a", 0)
        policy.on_load("b", 1)
        policy.lock("a")
        policy.unlock("a")
        assert policy.choose_victim(["a", "b"], 2) == "a"

    def test_reset_clears_advice(self):
        policy = AdvisedReplacementPolicy(LruPolicy())
        policy.on_load("a", 0)
        policy.lock("a")
        policy.hint_discard("a")
        policy.reset()
        assert not policy.locked and not policy.discard_hints

    def test_name_reflects_base(self):
        assert AdvisedReplacementPolicy(LruPolicy()).name == "advised-lru"


def make_advised(frames=4, latency=1000):
    clock = Clock()
    table = PageTable(page_size=512, pages=32)
    backing = BackingStore(
        StorageLevel("drum", 10**7, access_time=latency, transfer_rate=1.0),
        clock=clock,
    )
    pager = DemandPager(table, FrameTable(frames), backing, LruPolicy(), clock)
    return AdvisedPager.wrap(pager), clock


class TestAdvisedPager:
    def test_wrap_decorates_policy(self):
        advised, _ = make_advised()
        assert isinstance(advised.pager.policy, AdvisedReplacementPolicy)

    def test_plain_policy_rejected_without_wrap(self):
        clock = Clock()
        table = PageTable(page_size=512, pages=4)
        backing = BackingStore(
            StorageLevel("d", 10**6, access_time=10), clock=clock
        )
        pager = DemandPager(table, FrameTable(2), backing, LruPolicy(), clock)
        with pytest.raises(TypeError):
            AdvisedPager(pager)

    def test_will_need_prefetches_without_wait(self):
        advised, clock = make_advised()
        before = clock.now
        advised.advise(will_need(3))
        assert clock.now == before        # overlapped
        assert 3 in advised.pager.frames
        advised.access_page(3)
        assert advised.stats.faults == 0  # the advice paid off

    def test_will_need_when_full_only_displaces_hinted(self):
        advised, _ = make_advised(frames=2)
        advised.access_page(0)
        advised.access_page(1)
        advised.advise(will_need(2))
        assert 2 not in advised.pager.frames   # nothing hinted: ignored
        advised.advise(wont_need(0))
        advised.advise(will_need(2))
        assert 2 in advised.pager.frames
        assert 0 not in advised.pager.frames

    def test_wont_need_prioritizes_victim(self):
        advised, _ = make_advised(frames=2)
        advised.access_page(0)
        advised.access_page(1)
        advised.access_page(0)      # LRU victim would be 1
        advised.advise(wont_need(0))
        advised.access_page(2)
        assert 0 not in advised.pager.frames
        assert 1 in advised.pager.frames

    def test_keep_resident_survives_pressure(self):
        advised, _ = make_advised(frames=2)
        advised.access_page(0)
        advised.advise(keep_resident(0))
        for page in (1, 2, 3, 4):
            advised.access_page(page)
        assert 0 in advised.pager.frames

    def test_advice_about_nonexistent_page_ignored(self):
        advised, _ = make_advised()
        advised.advise(will_need(99))   # past the 32-page table
        assert advised.prefetches_started == 0

    def test_advice_counted(self):
        advised, _ = make_advised()
        advised.advise(will_need(1))
        advised.advise(wont_need(1))
        assert advised.advice_received == 2


class TestProgramDescription:
    def test_medium_prediction(self):
        description = ProgramDescription("payroll")
        description.set_medium("master", "drum")
        assert description.preferred_medium("master") == "drum"
        assert description.preferred_medium("other") == "core"

    def test_overlay_rules(self):
        description = ProgramDescription("p")
        description.forbid_overlay("phase2", "phase1")
        description.permit_overlay("phase3", "phase1")
        assert not description.may_overlay("phase2", "phase1")
        assert description.may_overlay("phase3", "phase1")
        assert description.may_overlay("unstated", "phase1")   # default allow

    def test_replacement_candidates_respect_rules(self):
        description = ProgramDescription("p")
        for segment, group in (("a", "g1"), ("b", "g2"), ("c", "g3")):
            description.assign_group(segment, group)
        description.assign_group("incoming", "gX")
        description.forbid_overlay("gX", "g2")
        candidates = description.replacement_candidates(
            "incoming", ["a", "b", "c"]
        )
        assert candidates == ["a", "c"]

    def test_ungrouped_segments_always_candidates(self):
        description = ProgramDescription("p")
        description.assign_group("incoming", "gX")
        assert description.replacement_candidates("incoming", ["loose"]) == ["loose"]

    def test_descriptions_vary_dynamically(self):
        description = ProgramDescription("p")
        description.set_medium("s", "core")
        description.set_medium("s", "drum")   # revised at run time
        assert description.preferred_medium("s") == "drum"
        assert description.revisions == 2

    def test_rules_listing(self):
        description = ProgramDescription("p")
        description.forbid_overlay("a", "b")
        rules = description.rules()
        assert len(rules) == 1
        assert rules[0].overlayer == "a" and not rules[0].allowed
