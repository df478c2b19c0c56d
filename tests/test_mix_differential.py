"""The planned multiprogramming mix against its per-reference loop.

In partitioned mode ``MultiprogrammingSimulator`` plans every program
whose policy is exactly ``LruPolicy`` or ``FifoPolicy`` and whose trace
has no ``Think`` markers: ``run_fast`` gives it its fault positions and
victims up front, and each slice jumps over the hits before the next
fault.  The per-reference loop stays in the simulator for every other
program, and it is the oracle here.  Dispatch is by exact type, so an
empty subclass (``LoopLru``, ``LoopFifo``) runs the loop on the same
decisions.  Over 100 random mixes per policy both must give the same
summary, the same ``Fault``/``Place``/``Evict`` stream, the same
scheduler dispatches and scheduled events, and the same counters.
"""

from __future__ import annotations

import random
from dataclasses import asdict
from unittest import mock

import pytest

from repro.fastpath import replay
from repro.fastpath.columnar import load_numpy
from repro.observe import RingBufferSink, Tracer
from repro.observe.counters import Counters, absorb_simulation_summary
from repro.paging import ClockPolicy, FifoPolicy, LruPolicy
from repro.sim import multiprogramming
from repro.sim.multiprogramming import (
    MultiprogrammingSimulator,
    ProgramSpec,
    Think,
)
from repro.sim.scheduler import FcfsScheduler, RoundRobinScheduler
from repro.workload import phased_trace

SEEDS = range(100)
RING = 1 << 16


class LoopLru(LruPolicy):
    pass


class LoopFifo(FifoPolicy):
    pass


POLICIES = {"lru": (LruPolicy, LoopLru), "fifo": (FifoPolicy, LoopFifo)}


def long_trace(seed):
    """At least 4,096 references at locality 0.999 over a working set the
    partition holds: few enough evictions for the columnar tier."""
    rng = random.Random(seed)
    length = rng.randint(4_096, 6_000)
    return phased_trace(pages=64, length=length, working_set=8,
                        phase_length=length // 2, locality=0.999,
                        seed=seed), 16


def recipe(seed):
    """A random mix shape: 1–4 programs, frames 1–10, reference times
    1–5, some late arrivals, FCFS or round robin with quanta 1–1000 and
    fetch times 1–8,048.  Every tenth seed gives its first program a
    long columnar-eligible trace in 16 frames; every seventh forces
    1-frame partitions on the others."""
    rng = random.Random(seed)
    programs = []
    for index in range(rng.randint(1, 4)):
        if index == 0 and seed % 10 == 0:
            trace, frames = long_trace(seed)
        else:
            pages = rng.randint(1, 24)
            length = rng.randint(1, 400)
            if rng.random() < 0.5:
                trace = phased_trace(
                    pages=pages, length=length,
                    working_set=rng.randint(1, pages),
                    phase_length=rng.randint(1, 100),
                    locality=rng.choice((0.5, 0.9, 0.99)),
                    seed=rng.getrandbits(32),
                )
            else:
                trace = [rng.randrange(pages) for _ in range(length)]
            frames = 1 if seed % 7 == 0 else rng.randint(1, 10)
        programs.append(dict(
            name=f"p{index}",
            trace=trace,
            frames=frames,
            reference_time=rng.randint(1, 5),
            arrival=rng.choice((0, 0, rng.randint(1, 5_000))),
        ))
    quantum = None if rng.random() < 0.25 else rng.randint(1, 1_000)
    return dict(
        programs=programs,
        quantum=quantum,
        fetch_time=rng.randint(1, 8_048),
        checked=seed % 3 == 0,
        traced=seed % 2 == 0,
    )


def observe(shape, policy_type):
    """Run the mix with every program on ``policy_type``; return all the
    outputs the two paths must agree on, and the simulator."""
    specs = [
        ProgramSpec(policy=policy_type(), **program)
        for program in shape["programs"]
    ]
    quantum = shape["quantum"]
    scheduler = (
        FcfsScheduler() if quantum is None else RoundRobinScheduler(quantum)
    )
    ring = RingBufferSink(RING) if shape["traced"] else None
    simulator = MultiprogrammingSimulator(
        specs, scheduler, fetch_time=shape["fetch_time"],
        tracer=Tracer([ring]) if ring is not None else None,
        checked=shape["checked"],
    )
    summary = simulator.run()
    counters = Counters()
    absorb_simulation_summary(counters, summary)
    if ring is not None:
        assert ring.accepted <= RING, "ring too small to compare streams"
    return {
        "summary": asdict(summary),
        "events": ring.events() if ring is not None else None,
        "dispatches": scheduler.dispatches,
        "scheduled": simulator._events.scheduled,
        "counters": counters.snapshot(),
    }, simulator


def assert_paths_agree(shape, planned_type, loop_type):
    planned, planned_sim = observe(shape, planned_type)
    expected, loop_sim = observe(shape, loop_type)
    assert planned == expected
    assert all(program.fault_plan is not None
               for program in planned_sim._programs.values())
    assert all(program.fault_plan is None
               for program in loop_sim._programs.values())
    for simulator in (planned_sim, loop_sim):
        for program in simulator._programs.values():
            policy = program.spec.policy
            assert not policy.loaded_at and not policy.last_use


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_planned_mix_matches_the_loop(policy, seed):
    assert_paths_agree(recipe(seed), *POLICIES[policy])


def single(trace, frames, reference_time, quantum, fetch_time=7):
    return dict(
        programs=[dict(name="p", trace=trace, frames=frames,
                       reference_time=reference_time, arrival=0)],
        quantum=quantum, fetch_time=fetch_time, checked=True, traced=True,
    )


EDGES = {
    # One page: after its fault, its 40 references fill four slices of
    # 10 exactly, so the trace ends on a slice boundary.
    "ends_on_slice_boundary": single([0] * 40, 1, 1, 10),
    # The second page's first reference is the first of a fresh slice.
    "fault_on_slice_boundary": single([0] * 10 + [1] * 5, 1, 1, 10),
    # Reference time 3 does not divide the quantum of 10.
    "reference_time_not_dividing_quantum": single(
        [0, 1, 0, 1, 2, 0, 2, 1] * 20, 2, 3, 10),
    "one_frame_two_programs": dict(
        programs=[
            dict(name="a", trace=[0, 0, 1, 1, 0] * 30, frames=1,
                 reference_time=2, arrival=0),
            dict(name="b", trace=[3, 4] * 40, frames=1,
                 reference_time=1, arrival=5),
        ],
        quantum=4, fetch_time=9, checked=True, traced=True,
    ),
}


@pytest.mark.parametrize("edge", sorted(EDGES))
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_slice_edges_match_the_loop(policy, edge):
    assert_paths_agree(EDGES[edge], *POLICIES[policy])


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_long_programs_plan_on_the_columnar_tier(policy):
    """With numpy, the long program's plan comes from the columnar
    kernels; without it, from the list kernels."""
    planned_type, _ = POLICIES[policy]
    real = replay.run_columnar
    for seed in SEEDS[::10]:
        accepted = []

        def recording(*args, **kwargs):
            result = real(*args, **kwargs)
            accepted.append(result is not None)
            return result

        with mock.patch.object(replay, "run_columnar", recording):
            observe(recipe(seed), planned_type)
        # Programs are planned in order, and the long one is the first.
        assert accepted[0] == (load_numpy() is not None), seed


def plans_built(specs, **kwargs):
    """How many plans ``run()`` asks ``run_fast`` for, and which
    programs ended up planned."""
    simulator = MultiprogrammingSimulator(
        specs, RoundRobinScheduler(8), fetch_time=20, **kwargs)
    with mock.patch.object(multiprogramming, "run_fast",
                           wraps=multiprogramming.run_fast) as spy:
        simulator.run()
    planned = {name for name, program in simulator._programs.items()
               if program.fault_plan is not None}
    return spy.call_count, planned


def mix_spec(name, policy, trace=(0, 1, 2, 0, 3, 1) * 5):
    return ProgramSpec(name=name, trace=list(trace), frames=2, policy=policy)


def test_lru_and_fifo_programs_are_planned():
    specs = [mix_spec("a", LruPolicy()), mix_spec("b", FifoPolicy())]
    assert plans_built(specs) == (2, {"a", "b"})


@pytest.mark.parametrize("case", [
    "clock", "think_trace", "subclassed_policy", "global_pool",
])
def test_ineligible_programs_build_no_plan(case):
    kwargs = {}
    if case == "clock":
        specs = [mix_spec("a", ClockPolicy())]
    elif case == "think_trace":
        specs = [mix_spec("a", LruPolicy(),
                          trace=[0, 1, Think(5), 0, 2, 1])]
    elif case == "subclassed_policy":
        specs = [mix_spec("a", LoopLru())]
    else:
        specs = [mix_spec("a", LruPolicy()), mix_spec("b", FifoPolicy())]
        kwargs = dict(shared_frames=3, shared_policy=LruPolicy())
    assert plans_built(specs, **kwargs) == (0, set())
