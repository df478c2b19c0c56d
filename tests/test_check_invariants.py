"""The invariant engine: healthy subjects pass, seeded corruption is caught."""

import pytest

from repro.alloc import FreeListAllocator
from repro.alloc.buddy import BuddyAllocator
from repro.check import (
    CheckedSystem,
    InvariantSink,
    InvariantSuite,
    check_invariants,
    discover_subjects,
)
from repro.check.oracle import _build_pager, _drive
from repro.errors import InvariantViolation
from repro.paging.frame import FrameTable
from repro.sim.spacetime import SpaceTimeAccount


def healthy_allocator():
    allocator = FreeListAllocator(256, policy="best_fit")
    keep = allocator.allocate(64)
    gone = allocator.allocate(32)
    allocator.allocate(16)
    allocator.free(gone)
    return allocator, keep


class TestAllocatorInvariants:
    def test_healthy_allocator_passes(self):
        allocator, _ = healthy_allocator()
        assert check_invariants(allocator) == []

    def test_word_conservation_catches_duplicated_hole(self):
        allocator, keep = healthy_allocator()
        allocator._holes.insert(0, (keep.address, keep.size))
        with pytest.raises(InvariantViolation) as caught:
            check_invariants(allocator)
        assert caught.value.invariant == "word_conservation"

    def test_extent_overlap_detected(self):
        allocator, keep = healthy_allocator()
        # Shift an existing hole to overlap the live block without
        # changing the total free word count (conservation still holds).
        address, size = allocator._holes[0]
        allocator._holes[0] = (keep.address + 1, size)
        allocator._holes.sort()
        suite = InvariantSuite()
        violations = suite.check(allocator, raise_on_violation=False)
        assert any(v.invariant == "extent_non_overlap" for v in violations)

    def test_uncoalesced_holes_detected(self):
        allocator, _ = healthy_allocator()
        address, size = allocator._holes[-1]
        assert size >= 2
        allocator._holes[-1] = (address, 1)
        allocator._holes.append((address + 1, size - 1))
        suite = InvariantSuite()
        violations = suite.check(allocator, raise_on_violation=False)
        assert any(v.invariant == "hole_maximality" for v in violations)

    def test_self_check_folds_in_buddy(self):
        buddy = BuddyAllocator(256)
        block = buddy.allocate(30)
        assert check_invariants(buddy) == []
        buddy.free(block)
        assert check_invariants(buddy) == []


class TestPagerInvariants:
    def test_healthy_pager_passes(self):
        pager, _, trace = _build_pager(seed=3, length=400)
        _drive(pager, trace)
        assert check_invariants(pager) == []

    def test_frame_table_corruption_detected(self):
        pager, _, trace = _build_pager(seed=3, length=400)
        _drive(pager, trace)
        frame = next(iter(pager.frames._frame_of.values()))
        pager.frames._free.append(frame)  # frame both owned and free
        with pytest.raises(InvariantViolation) as caught:
            check_invariants(pager)
        assert caught.value.invariant == "page_frame_bijection"

    def test_stale_tlb_entry_detected(self):
        pager, _, trace = _build_pager(seed=5, length=400)
        _drive(pager, trace)
        tlb = pager.page_table.tlb
        resident = pager.frames.resident_pages()
        page = resident[0]
        wrong = pager.frames.frame_of(page) + 1
        tlb._entries[page] = wrong
        suite = InvariantSuite()
        violations = suite.check(pager, raise_on_violation=False)
        assert any(v.invariant == "tlb_coherence" for v in violations)


class TestFrameAndAccountInvariants:
    def test_frame_table_self_check(self):
        table = FrameTable(4)
        table.acquire("a")
        table.acquire("b")
        assert check_invariants(table) == []
        table._free.append(table.frame_of("a"))
        with pytest.raises(InvariantViolation) as caught:
            check_invariants(table)
        assert caught.value.invariant == "frame_accounting"

    def test_spacetime_monotonicity_uses_memo(self):
        account = SpaceTimeAccount()
        account.accumulate(100, 10, waiting=False)
        suite = InvariantSuite()
        assert suite.check(account) == []
        account.accumulate(100, 5, waiting=True)
        assert suite.check(account) == []
        account._active -= 50  # regress the integral
        with pytest.raises(InvariantViolation) as caught:
            suite.check(account)
        assert caught.value.invariant == "spacetime_monotonicity"


class TestSuiteMechanics:
    def test_collect_mode_accumulates_instead_of_raising(self):
        allocator, keep = healthy_allocator()
        allocator._holes.insert(0, (keep.address, keep.size))
        suite = InvariantSuite()
        violations = suite.check(allocator, raise_on_violation=False)
        assert violations and not suite.ok
        assert suite.violations == violations

    def test_sink_samples_every_n_events(self):
        allocator, _ = healthy_allocator()
        sink = InvariantSink([allocator], every=4)
        before = sink.suite.checks_run
        for _ in range(8):
            sink.accept(object())
        assert sink.seen == 8
        assert sink.suite.checks_run > before
        sink.close()

    def test_sink_raises_on_corruption(self):
        allocator, keep = healthy_allocator()
        sink = InvariantSink([allocator], every=1)
        allocator._holes.insert(0, (keep.address, keep.size))
        with pytest.raises(InvariantViolation):
            sink.accept(object())

    def test_check_invariants_accepts_sequences(self):
        a, _ = healthy_allocator()
        b = FrameTable(2)
        assert check_invariants([a, b]) == []


class TestCheckedSystem:
    def workload(self, system):
        for i in range(30):
            system.create(f"s{i}", 48 + 32 * (i % 5))
            system.access(f"s{i}", 1)
        for i in range(0, 30, 2):
            system.destroy(f"s{i}")
        return system.stats()

    def test_checked_recommended_system_runs_clean(self):
        from repro import recommended_system

        system = recommended_system(checked=True)
        assert isinstance(system, CheckedSystem)
        stats = self.workload(system)
        assert stats.accesses == 30
        assert system.suite.checks_run > 0
        assert system.suite.ok

    def test_discovery_finds_components(self):
        from repro import recommended_system

        system = recommended_system(checked=True)
        names = {type(s).__name__ for s in discover_subjects(system._system)}
        assert "FreeListAllocator" in names
        assert "FrameTable" in names

    def test_checked_system_raises_on_planted_corruption(self):
        from repro import recommended_system

        system = recommended_system(checked=True)
        self.workload(system)
        allocator = next(
            s for s in discover_subjects(system._system)
            if isinstance(s, FreeListAllocator)
        )
        block = allocator.allocations()[0]
        allocator._holes.insert(0, (block.address, block.size))
        allocator._holes.sort()
        with pytest.raises(InvariantViolation):
            system.stats()

    def test_builder_returns_bare_system_by_default(self):
        from repro import recommended_system

        system = recommended_system()
        assert not isinstance(system, CheckedSystem)


class TestCheckedSimulateTrace:
    def test_checked_replay_matches_unchecked(self):
        from repro.paging.replacement import make_policy
        from repro.paging.simulate import simulate_trace
        from repro.workload.reference import phased_trace

        trace = phased_trace(pages=40, length=1500, working_set=6, seed=11)
        checked = simulate_trace(trace, 10, make_policy("lru"), checked=True)
        plain = simulate_trace(trace, 10, make_policy("lru"))
        assert (checked.faults, checked.evictions, checked.cold_faults) == (
            plain.faults, plain.evictions, plain.cold_faults
        )


class TestCheckedMultiprogramming:
    def build(self, shared, checked=True, tracer=None):
        import random

        from repro.paging.replacement import make_policy
        from repro.sim.multiprogramming import (
            MultiprogrammingSimulator,
            ProgramSpec,
        )
        from repro.sim.scheduler import RoundRobinScheduler

        rng = random.Random(7)
        specs = [
            ProgramSpec(
                name=name,
                trace=[rng.randrange(16) for _ in range(500)],
                frames=5,
                policy=make_policy("lru"),
            )
            for name in ("a", "b")
        ]
        kwargs = {}
        if shared:
            kwargs = dict(shared_frames=8, shared_policy=make_policy("lru"))
        return MultiprogrammingSimulator(
            specs, RoundRobinScheduler(quantum=40), fetch_time=200,
            checked=checked, tracer=tracer, **kwargs,
        )

    def test_partitioned_checked_run_matches_unchecked(self):
        checked = self.build(shared=False).run()
        plain = self.build(shared=False, checked=False).run()
        assert checked == plain

    def test_planned_partition_corruption_detected(self):
        """The LRU programs here are planned, so their hits never touch
        the frame table; a phantom page slipped into one at the 40th
        placement must still fail the next 32-fetch audit."""
        from repro.observe import CallbackSink, Tracer

        places = []

        def corrupt(event):
            if event.kind != "place":
                return
            places.append(event)
            if len(places) == 40:
                frames = sim._programs[event.program].frames
                frames._frame_of["phantom"] = 0

        sim = self.build(shared=False, tracer=Tracer([CallbackSink(corrupt)]))
        with pytest.raises(InvariantViolation) as caught:
            sim.run()
        assert caught.value.invariant == "frame_accounting"
        assert all(program.fault_plan is not None
                   for program in sim._programs.values())
        assert sim._fetches_seen == 64

    def test_shared_pool_checked_run(self):
        sim = self.build(shared=True)
        sim.run()
        assert sim._suite.checks_run > 0

    def test_shared_pool_ledger_violation_detected(self):
        sim = self.build(shared=True)
        sim.run()
        program = next(iter(sim._programs.values()))
        program.external_resident = (program.external_resident or 0) + 1
        with pytest.raises(InvariantViolation) as caught:
            sim._check()
        assert caught.value.invariant == "pool_residency_ledger"
