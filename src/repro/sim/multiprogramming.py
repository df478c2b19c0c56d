"""Multiprogrammed demand paging over one processor.

The simulator reproduces the regime the paper analyzes around Figure 3
and in Appendix A.1/A.2: several trace-driven programs coexist in
working storage, each demand-paged within its own core partition; when
one blocks awaiting a page, the processor switches to another that is
ready — "the time spent on fetching pages can normally be overlapped
with the execution of other programs".

Each program's storage occupancy is integrated into a space-time account
split between *active* and *awaiting page* intervals (Figure 3), and the
processor's busy/idle split gives the CPU-utilization series of
CL-OVERLAP.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable, Iterator, Sequence


@dataclass(frozen=True)
class Think:
    """A think-time marker inside an interactive program's trace.

    Time-sharing exists "to improve response times to individual users";
    an interactive program alternates bursts of references with user
    think time.  Encountering ``Think(duration)`` ends the current
    interaction (its response time is recorded) and takes the program
    off the processor for ``duration`` cycles — its storage, however,
    stays resident, which is exactly why coexistence in working storage
    matters for time-sharing.
    """

    duration: int

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("think duration must be positive")

from repro.alloc.base import check_int
from repro.fastpath.replay import run_fast
from repro.observe.events import Evict, Fault, Place
from repro.observe.tracer import Tracer, as_tracer
from repro.paging.frame import FrameTable
from repro.paging.replacement.base import ReplacementPolicy
from repro.paging.replacement.simple import FifoPolicy, LruPolicy
from repro.sim.engine import EventQueue
from repro.sim.scheduler import RoundRobinScheduler
from repro.sim.spacetime import SpaceTimeAccount, SpaceTimeBreakdown


@dataclass
class ProgramSpec:
    """One program offered to the multiprogramming mix.

    Parameters
    ----------
    name:
        Unique program identifier.
    trace:
        Page reference string (page ids local to the program).
    frames:
        Size of the program's core partition, in page frames.
    policy:
        A fresh replacement policy instance for this program.  When the
        simulator plans the program (see
        :class:`MultiprogrammingSimulator`), the policy object is never
        called, as with ``simulate_trace(fast=True)``'s kernels.  On
        either path a fresh ``TrackingPolicy`` is empty after ``run()``:
        the loop evicts every page of a departing program, and a planned
        program's policy is never filled.
    reference_time:
        Processor cycles per reference (compute speed).
    arrival:
        Simulated time at which the program enters the mix.  "The arrival
        and duration of these programs will in general be unpredictable"
        — nonzero arrivals model the open system that motivates dynamic
        allocation.
    """

    name: str
    trace: Sequence[Hashable]
    frames: int
    policy: ReplacementPolicy
    reference_time: int = 1
    arrival: int = 0

    def __post_init__(self) -> None:
        check_int(self.frames, "frames")
        if not self.trace:
            raise ValueError(f"program {self.name!r} has an empty trace")
        if self.frames <= 0:
            raise ValueError(f"program {self.name!r} needs at least one frame")
        if self.reference_time <= 0:
            raise ValueError("reference_time must be positive")
        if self.arrival < 0:
            raise ValueError("arrival must be non-negative")


@dataclass(frozen=True)
class ProgramResult:
    """Per-program outcome of a simulation."""

    name: str
    completion_time: int
    references: int
    faults: int
    compute_cycles: int
    wait_cycles: int
    space_time: SpaceTimeBreakdown
    think_cycles: int = 0
    response_times: list[int] = field(default_factory=list)

    @property
    def mean_response_time(self) -> float:
        """Mean interaction response time (0.0 if no interactions ended)."""
        if not self.response_times:
            return 0.0
        return sum(self.response_times) / len(self.response_times)


@dataclass(frozen=True)
class SimulationSummary:
    """Whole-mix outcome."""

    makespan: int
    cpu_busy: int
    cpu_idle: int
    programs: list[ProgramResult] = field(default_factory=list)

    @property
    def cpu_utilization(self) -> float:
        return self.cpu_busy / self.makespan if self.makespan else 0.0

    @property
    def total_space_time(self) -> int:
        return sum(p.space_time.total for p in self.programs)

    @property
    def total_faults(self) -> int:
        return sum(p.faults for p in self.programs)


#: Policies a partitioned program is planned for, by exact type: a
#: subclass may override ``choose_victim``.  Clock is left out because
#: the mix's re-executed faulting reference sets its reference bit.
_PLANNED = (FifoPolicy, LruPolicy)


class _State(enum.Enum):
    READY = "ready"
    WAITING = "waiting"     # awaiting a page (occupies storage, Fig. 3)
    THINKING = "thinking"   # awaiting the user (occupies storage, idle CPU)
    DONE = "done"


class _Program:
    """Mutable per-program simulation state."""

    def __init__(self, spec: ProgramSpec, page_size: int) -> None:
        self.spec = spec
        self.page_size = page_size
        self.position = 0
        self.frames = FrameTable(spec.frames)
        self.state = _State.READY
        self.account = SpaceTimeAccount()
        self.last_update = 0
        self.faults = 0
        self.compute_cycles = 0
        self.wait_cycles = 0
        self.think_cycles = 0
        self.completion_time = 0
        self.interaction_start = spec.arrival
        self.response_times: list[int] = []
        self.references = sum(
            1 for item in spec.trace if not isinstance(item, Think)
        )
        # Set (to an int) by the simulator in shared-pool mode, where the
        # private frame table is unused.
        self.external_resident: int | None = None
        # Set by ``MultiprogrammingSimulator._plan`` when the program's
        # faults are known ahead: the fault positions and victims still
        # to come, and the next fault position (the trace length once
        # none is left).
        self.fault_plan: Iterator[int] | None = None
        self.victim_plan: Iterator[Hashable] | None = None
        self.next_fault = 0

    def occupancy_words(self) -> int:
        count = (
            self.external_resident
            if self.external_resident is not None
            else self.frames.resident_count
        )
        return count * self.page_size

    def settle(self, now: int) -> None:
        """Integrate the interval since the last state change."""
        duration = now - self.last_update
        waiting = self.state is _State.WAITING
        self.account.accumulate(self.occupancy_words(), duration, waiting)
        if waiting:
            self.wait_cycles += duration
        elif self.state is _State.THINKING:
            self.think_cycles += duration
        self.last_update = now


class MultiprogrammingSimulator:
    """N trace-driven programs, one processor, partitioned core.

    In partitioned mode a program's faults and victims depend only on
    its own trace and partition, so a program whose policy is exactly
    ``LruPolicy`` or ``FifoPolicy`` and whose trace has no ``Think``
    markers is *planned*: ``run()`` first replays its trace through
    ``run_fast``, the dispatch ``simulate_trace`` uses, for its fault
    positions and victims, and each slice then jumps over the hits
    before the next fault in one step.  This is exact because the
    program's ``on_load`` and ``on_access`` stamps rise strictly with
    trace position, so ``min(last_use)`` and ``min(loaded_at)`` pick the
    kernels' victims.  Clock is not planned: the mix re-executes a
    faulting reference as a hit, which sets the reference bit that
    ``simulate_trace`` leaves clear.  Faults, fetch completions, the
    scheduler order, events and the checked audit stay event by event.
    Every other program, and global-pool mode, runs the per-reference
    loop, which ``tests/test_mix_differential.py`` keeps as the oracle.

    Parameters
    ----------
    specs:
        The program mix.
    scheduler:
        A ready-queue scheduler (round robin reproduces the M44/44X).
    fetch_time:
        Cycles a page fetch takes (latency + transfer at the backing
        level) — the independent variable of Figure 3 and CL-OVERLAP.
    page_size:
        Words per page; only scales the space-time product.
    shared_frames / shared_policy:
        When given, core is one *global* pool of ``shared_frames`` frames
        replaced by ``shared_policy`` over (program, page) units, instead
        of per-program partitions — global vs. local replacement, the
        storage-allocation/scheduling coupling of conclusion (i).  In
        this mode each spec's ``frames`` and ``policy`` are unused.
    tracer:
        Optional :class:`~repro.observe.tracer.Tracer` receiving
        ``Fault`` / ``Place`` / ``Evict`` events tagged with the owning
        program's name, in global simulated-time order — the
        multiprogrammed interleaving the per-program results can't show.
    checked:
        Run the :mod:`repro.check` invariant suite over the mix as it
        executes (sampled every 32 fetch completions, plus a final pass
        at summary time): per-program frame accounting, space-time
        monotonicity, and in shared-pool mode the pool-residency ledger
        (``sum(external_resident) == pool.resident_count``).  Raises
        :class:`~repro.errors.InvariantViolation` on the first failure.
    """

    def __init__(
        self,
        specs: Sequence[ProgramSpec],
        scheduler: RoundRobinScheduler,
        fetch_time: int,
        page_size: int = 512,
        shared_frames: int | None = None,
        shared_policy: ReplacementPolicy | None = None,
        tracer: Tracer | None = None,
        checked: bool = False,
    ) -> None:
        if not specs:
            raise ValueError("need at least one program")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate program names in {names}")
        for reserved in ("arrival", "wakeup"):
            if reserved in names:
                raise ValueError(
                    f"{reserved!r} is reserved; rename the program"
                )
        if fetch_time <= 0:
            raise ValueError("fetch_time must be positive")
        if (shared_frames is None) != (shared_policy is None):
            raise ValueError(
                "shared_frames and shared_policy must be given together"
            )
        self.scheduler = scheduler
        self.fetch_time = fetch_time
        self.page_size = page_size
        self.tracer = as_tracer(tracer)
        self._programs = {
            spec.name: _Program(spec, page_size) for spec in specs
        }
        self._pool: FrameTable | None = None
        self._pool_policy: ReplacementPolicy | None = None
        if shared_frames is not None:
            if shared_frames <= 0:
                raise ValueError("shared_frames must be positive")
            self._pool = FrameTable(shared_frames)
            self._pool_policy = shared_policy
            for program in self._programs.values():
                program.external_resident = 0
        self._events = EventQueue()
        self.now = 0
        self.cpu_busy = 0
        self._suite = None
        self._fetches_seen = 0
        if checked:
            from repro.check.invariants import InvariantSuite

            self._suite = InvariantSuite()

    # -- public ----------------------------------------------------------------

    def run(self) -> SimulationSummary:
        """Simulate to completion of every program."""
        if self._pool is None:
            self._plan()
        for name, program in self._programs.items():
            arrival = program.spec.arrival
            if arrival == 0:
                self.scheduler.make_ready(name)
            else:
                self._events.schedule(arrival, ("arrival", name))

        while True:
            self._deliver_due_events()
            name = self.scheduler.next_program()
            if name is not None:
                self._run_slice(self._programs[name])
                continue
            if self._events:
                # Nobody ready: the processor idles until an event lands.
                time, payload = self._events.pop()
                self.now = max(self.now, time)
                self._dispatch_event(payload, time)
                continue
            break   # no ready programs, no pending fetches: all done

        return self._summary()

    # -- mechanics ---------------------------------------------------------------

    def _plan(self) -> None:
        """Give each plannable program its fault positions and victims."""
        for program in self._programs.values():
            spec = program.spec
            trace = spec.trace
            if (
                type(spec.policy) not in _PLANNED
                or program.references != len(trace)
            ):
                continue
            plan = run_fast(
                trace, spec.frames, spec.policy,
                record_positions=True, record_evictions=True,
            )
            program.fault_plan = iter(plan.fault_positions)
            program.victim_plan = iter(plan.victims)
            program.next_fault = next(program.fault_plan, len(trace))

    def _deliver_due_events(self) -> None:
        while self._events:
            time = self._events.peek_time()
            if time is None or time > self.now:
                break
            time, payload = self._events.pop()
            self._dispatch_event(payload, time)

    def _dispatch_event(self, payload: tuple, time: int) -> None:
        if payload[0] in ("arrival", "wakeup"):
            program = self._programs[payload[1]]
            program.settle(max(time, program.last_update))
            program.state = _State.READY
            program.interaction_start = max(time, program.last_update)
            self.scheduler.make_ready(payload[1])
            return
        self._complete_fetch(payload, time)

    def _run_slice(self, program: _Program) -> None:
        spec = program.spec
        slice_end = self.now + self.scheduler.time_slice(spec.name)
        if program.fault_plan is not None:
            self._run_planned(program, slice_end)
            return
        while self.now < slice_end:
            if program.position >= len(spec.trace):
                self._finish(program)
                return
            page = spec.trace[program.position]
            if isinstance(page, Think):
                # End of an interaction: record its response time, leave
                # the processor until the user responds.
                program.settle(self.now)
                program.response_times.append(
                    self.now - program.interaction_start
                )
                program.state = _State.THINKING
                program.position += 1
                self._events.schedule(
                    self.now + page.duration, ("wakeup", spec.name)
                )
                return
            if self._is_resident(program, page):
                program.settle(self.now)
                self.now += spec.reference_time
                self.cpu_busy += spec.reference_time
                program.compute_cycles += spec.reference_time
                program.settle(self.now)
                self._note_access(program, page)
                program.position += 1
                continue
            self._fault(program, page)
            return
        # Quantum expired with work remaining: rotate to the tail.
        self.scheduler.make_ready(spec.name)

    def _run_planned(self, program: _Program, slice_end: int) -> None:
        """One slice of a planned program, in O(1) however many hits.

        Every reference before ``next_fault`` hits, and neither the
        partition's occupancy nor the program's state changes over them,
        so the settle that precedes the next change integrates the run
        exactly.  The loop tests the slice end before the trace end or a
        fault, so a run of hits that fills the slice rotates to the ready
        queue even when it stops on a fault position or the trace end.
        """
        spec = program.spec
        reference_time = spec.reference_time
        hits = min(
            -((self.now - slice_end) // reference_time),
            program.next_fault - program.position,
        )
        if hits > 0:
            cycles = hits * reference_time
            self.now += cycles
            self.cpu_busy += cycles
            program.compute_cycles += cycles
            program.position += hits
        if self.now >= slice_end:
            self.scheduler.make_ready(spec.name)
        elif program.position == program.references:   # no Think markers
            self._finish(program)
        else:
            self._fault(program, spec.trace[program.position])
            program.next_fault = next(program.fault_plan, program.references)

    def _fault(self, program: _Program, page: Hashable) -> None:
        """Block ``program`` for the fetch of ``page``.

        In partitioned mode the victim is chosen now (the partition is
        private); in shared mode room is made when the fetch lands (the
        pool is contended meanwhile).
        """
        spec = program.spec
        program.faults += 1
        program.settle(self.now)
        if self.tracer.enabled:
            self.tracer.emit(Fault(
                time=self.now, unit=page, program=spec.name,
            ))
        if self._pool is None and program.frames.is_full():
            if program.fault_plan is None:
                victim = spec.policy.choose_victim(
                    program.frames.resident_pages(), self.now
                )
                program.frames.release(victim)
                spec.policy.on_evict(victim)
            else:
                victim = next(program.victim_plan)
                program.frames.release(victim)
            if self.tracer.enabled:
                self.tracer.emit(Evict(
                    time=self.now, unit=victim, program=spec.name,
                ))
        program.state = _State.WAITING
        self._events.schedule(self.now + self.fetch_time, (spec.name, page))

    def _complete_fetch(self, payload: tuple[str, Hashable], time: int) -> None:
        name, page = payload
        program = self._programs[name]
        program.settle(time)
        if self._pool is not None:
            unit = (name, page)
            if unit not in self._pool:
                if self._pool.is_full():
                    self._evict_from_pool(time)
                frame = self._pool.acquire(unit)
                program.external_resident += 1
                self._pool_policy.on_load(unit, time)
                if self.tracer.enabled:
                    self.tracer.emit(Place(
                        time=time, unit=page, where=frame, program=name,
                    ))
        else:
            frame = program.frames.acquire(page)
            if program.fault_plan is None:
                program.spec.policy.on_load(page, time)
            if self.tracer.enabled:
                self.tracer.emit(Place(
                    time=time, unit=page, where=frame, program=name,
                ))
        program.state = _State.READY
        self.scheduler.make_ready(name)
        if self._suite is not None:
            self._fetches_seen += 1
            if self._fetches_seen % 32 == 0:
                self._check()

    def _check(self) -> None:
        """Checked mode: run the invariant suite over the whole mix."""
        suite = self._suite
        for program in self._programs.values():
            suite.check(program.frames)
            suite.check(program.account)
        if self._pool is not None:
            suite.check(self._pool)
            ledger = sum(
                program.external_resident or 0
                for program in self._programs.values()
            )
            if ledger != self._pool.resident_count:
                from repro.errors import InvariantViolation

                raise InvariantViolation(
                    "pool_residency_ledger",
                    f"sum of per-program residency {ledger} != pool "
                    f"resident count {self._pool.resident_count}",
                    subject="MultiprogrammingSimulator",
                )

    # -- residency, in either mode ------------------------------------------

    def _is_resident(self, program: _Program, page: Hashable) -> bool:
        if self._pool is not None:
            return (program.spec.name, page) in self._pool
        return page in program.frames

    def _note_access(self, program: _Program, page: Hashable) -> None:
        if self._pool is not None:
            self._pool_policy.on_access((program.spec.name, page), self.now)
        else:
            program.spec.policy.on_access(page, self.now)

    def _evict_from_pool(self, time: int) -> None:
        """Global replacement: the victim may belong to anyone.

        Deferred event delivery can date ``time`` before the owner's last
        accounting instant (the owner ran meanwhile); occupancy is
        settled at whichever is later, so intervals stay non-negative.
        """
        victim = self._pool_policy.choose_victim(
            self._pool.resident_pages(), time
        )
        owner = self._programs[victim[0]]
        owner.settle(max(time, owner.last_update))
        self._pool.release(victim)
        owner.external_resident -= 1
        self._pool_policy.on_evict(victim)
        if self.tracer.enabled:
            self.tracer.emit(Evict(
                time=time, unit=victim[1], program=victim[0],
            ))

    def _finish(self, program: _Program) -> None:
        program.settle(self.now)
        if program.position and not isinstance(
            program.spec.trace[-1], Think
        ):
            # The trailing interaction ends with the program.
            program.response_times.append(
                self.now - program.interaction_start
            )
        # Departure: the program's storage is released to the system.
        if self._pool is not None:
            name = program.spec.name
            for unit in list(self._pool.resident_pages()):
                if unit[0] == name:
                    self._pool.release(unit)
                    self._pool_policy.on_evict(unit)
            program.external_resident = 0
        else:
            for page in program.frames.resident_pages():
                program.frames.release(page)
                if program.fault_plan is None:
                    program.spec.policy.on_evict(page)
        program.state = _State.DONE
        program.completion_time = self.now

    def _summary(self) -> SimulationSummary:
        if self._suite is not None:
            self._check()
        makespan = self.now
        results = []
        for program in self._programs.values():
            results.append(
                ProgramResult(
                    name=program.spec.name,
                    completion_time=program.completion_time,
                    references=program.references,
                    faults=program.faults,
                    compute_cycles=program.compute_cycles,
                    wait_cycles=program.wait_cycles,
                    space_time=program.account.breakdown,
                    think_cycles=program.think_cycles,
                    response_times=list(program.response_times),
                )
            )
        return SimulationSummary(
            makespan=makespan,
            cpu_busy=self.cpu_busy,
            cpu_idle=makespan - self.cpu_busy,
            programs=results,
        )
