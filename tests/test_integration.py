"""Integration tests: whole-system scenarios crossing module boundaries."""

import pytest

from repro import (
    Clock,
    SystemConfig,
    build_system,
    recommended_system,
)
from repro.advice import keep_resident, will_need, wont_need
from repro.core import (
    AllocationUnit,
    Contiguity,
    NameSpaceKind,
    PredictiveInformation,
    SystemCharacteristics,
)
from repro.machines import all_machines, atlas, rice
from repro.paging import LruPolicy
from repro.sim import MultiprogrammingSimulator, ProgramSpec, RoundRobinScheduler
from repro.workload import (
    matrix_traversal_trace,
    overlay_phases_trace,
    phased_trace,
    working_set_sizes,
)


class TestCompilerScenario:
    """A compiler-shaped program on the recommended system."""

    def test_full_compilation_run(self):
        system = recommended_system()
        # Per-pass dynamic segments of very different sizes.
        system.create("source", 30_000)         # paged
        system.create("tokens", 900)            # contiguous
        system.create("symbols", 700)           # contiguous
        system.create("tree", 15_000)           # paged
        system.advise(keep_resident("symbols"))

        # Pass 1: scan source sequentially, build tokens and symbols.
        for position in range(0, 30_000, 64):
            system.access("source", position)
            system.access("tokens", position % 900, write=True)
            system.access("symbols", (position * 7) % 700, write=True)
        # Pass 2: source no longer needed; walk the tree.
        system.advise(wont_need("source"))
        system.advise(will_need("tree"))
        for position in range(0, 15_000, 32):
            system.access("tree", position, write=True)
            system.access("symbols", position % 700)
        # Tokens shrink once consumed (dynamic segments).
        system.resize("tokens", 100)
        system.access("tokens", 50)

        stats = system.stats()
        assert stats.accesses > 1_400
        assert 0 < stats.fault_rate < 0.2
        # Pinned symbols never refetched after load.
        assert "symbols" in system.small.resident_segments()

    def test_same_program_across_the_design_space(self):
        """The identical workload runs on every valid combination."""
        def workload(system):
            system.create("data", 2_000)
            for position in range(0, 2_000, 37):
                system.access("data", position, write=(position % 5 == 0))
            return system.stats()

        from itertools import product
        from repro.errors import ConfigurationError

        fault_rates = {}
        for axes in product(
            NameSpaceKind, PredictiveInformation, Contiguity, AllocationUnit
        ):
            characteristics = SystemCharacteristics(*axes)
            try:
                system = build_system(
                    characteristics,
                    SystemConfig(capacity_words=4_096, page_size=256),
                )
            except ConfigurationError:
                continue
            stats = workload(system)
            fault_rates[characteristics] = stats.fault_rate
            assert stats.accesses == len(range(0, 2_000, 37))
        assert len(fault_rates) == 18
        # Resident (nonuniform linear) systems never fault; paged ones do.
        resident = SystemCharacteristics(
            NameSpaceKind.LINEAR, PredictiveInformation.NONE,
            Contiguity.REAL, AllocationUnit.NONUNIFORM,
        )
        paged = SystemCharacteristics(
            NameSpaceKind.LINEAR, PredictiveInformation.NONE,
            Contiguity.ARTIFICIAL, AllocationUnit.UNIFORM,
        )
        assert fault_rates[resident] == 0.0
        assert fault_rates[paged] > 0.0


class TestMachineScenarios:
    def test_atlas_one_level_store_illusion(self):
        """A program bigger than core runs unmodified on ATLAS."""
        machine = atlas()
        system = machine.system
        system.create("big-array", 40_000)   # 2.4x the 16K core
        trace = matrix_traversal_trace(rows=40, cols=1_000, page_size=512,
                                       order="row")
        for page in trace[:5_000]:
            system.access("big-array", (page * 512) % 40_000)
        stats = system.stats()
        assert stats.faults > 0
        assert stats.fault_rate < 0.05   # sequential locality pays

    def test_rice_compaction_free_lifecycle(self):
        """Create/destroy churn on the Rice chain allocator stays sound."""
        machine = rice()
        system = machine.system
        for generation in range(6):
            for index in range(5):
                name = f"g{generation}s{index}"
                system.create(name, 400 + 100 * index)
                system.access(name, 0)
            if generation >= 1:
                for index in range(0, 5, 2):
                    system.destroy(f"g{generation - 1}s{index}")
        allocator = system.manager.allocator
        assert allocator.used_words + allocator.free_words == allocator.capacity

    def test_all_machines_survive_destroy_recreate_cycles(self):
        for machine in all_machines():
            system = machine.system
            for cycle in range(3):
                system.create(f"seg{cycle}", 300)
                system.access(f"seg{cycle}", 299)
                system.destroy(f"seg{cycle}")
            # The name is reusable after destruction.
            system.create("seg0", 300)
            system.access("seg0", 0)


class TestWorkloadMeetsSimulator:
    def test_working_set_predicts_fault_knee(self):
        """The trace analyzer's working-set estimate locates the frame
        count at which a program stops thrashing — modules agreeing."""
        trace = phased_trace(pages=32, length=2_000, working_set=6,
                             phase_length=400, locality=0.97, seed=77)
        estimated = round(
            sum(working_set_sizes(trace, 100)) / len(trace)
        )

        def faults_with(frames):
            summary = MultiprogrammingSimulator(
                [ProgramSpec("p", trace, frames, LruPolicy())],
                RoundRobinScheduler(100),
                fetch_time=500,
            ).run()
            return summary.programs[0].faults

        starved = faults_with(max(1, estimated - 4))
        satisfied = faults_with(estimated + 2)
        assert satisfied < starved / 2

    def test_overlay_program_under_three_regimes(self):
        trace = overlay_phases_trace(phases=5, pages_per_phase=3,
                                     shared_pages=1,
                                     references_per_phase=150, seed=9)
        results = {}
        for frames in (2, 4, 16):
            summary = MultiprogrammingSimulator(
                [ProgramSpec("overlay", trace, frames, LruPolicy())],
                RoundRobinScheduler(100),
                fetch_time=500,
            ).run()
            results[frames] = summary.programs[0].faults
        # More storage, monotonically fewer faults; with frames for every
        # page ever touched, cold faults only.
        assert results[2] >= results[4] >= results[16]
        assert results[16] == 16   # 5 phases x 3 pages + 1 shared


class TestCliEntryPoint:
    def test_matrix_command(self, capsys):
        from repro.__main__ import main
        assert main(["matrix"]) == 0
        out = capsys.readouterr().out
        assert "ATLAS" in out and "MULTICS" in out

    def test_space_command(self, capsys):
        from repro.__main__ import main
        assert main(["space"]) == 0
        out = capsys.readouterr().out
        assert out.count("x ") >= 6   # the six invalid corners

    def test_policies_command(self, capsys):
        from repro.__main__ import main
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "atlas" in out and "opt" in out

    def test_unknown_command(self, capsys):
        from repro.__main__ import main
        assert main(["bogus"]) == 2
