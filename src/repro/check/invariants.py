"""The runtime invariant engine.

Each :class:`Invariant` is an *independent* checker: it recomputes what
must hold from a subject's public inspection surface rather than
trusting the subject's own bookkeeping (the differential-oracle
argument — a simulator validated only against itself proves nothing).
The suite dispatches by subject shape, so one ``check`` call handles an
allocator, a pager, a frame table, or a space-time account alike.

Two ways to run the suite:

- Directly — :func:`check_invariants` raises
  :class:`~repro.errors.InvariantViolation` on the first failure.
- As a sampling tracer sink — :class:`InvariantSink` re-checks its
  subjects every ``every`` events, which is what ``checked=True`` in
  the builder, ``simulate_trace`` and the multiprogramming simulator
  wire up.  Sampling keeps the overhead contract (≤10% on the quick
  bench; see ``docs/CHECKING.md``).

>>> from repro.alloc import FreeListAllocator
>>> allocator = FreeListAllocator(100)
>>> block = allocator.allocate(30)
>>> check_invariants(allocator)
[]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import InvariantViolation


@dataclass(frozen=True, slots=True)
class Violation:
    """One invariant failure, in record (non-raising) form."""

    invariant: str
    subject: str
    detail: str

    def to_exception(self) -> InvariantViolation:
        return InvariantViolation(self.invariant, f"{self.subject}: {self.detail}")


class Invariant:
    """One named property that must hold of a subject.

    Subclasses say which subjects they understand (``applies``) and
    verify the property (``verify``), raising
    :class:`~repro.errors.InvariantViolation` on failure.  ``memo`` is
    per-(subject, invariant) scratch state the suite preserves between
    checks — how the monotonicity invariants remember the last value
    they saw.
    """

    name = "invariant"

    def applies(self, subject: object) -> bool:
        raise NotImplementedError

    def verify(self, subject: object, memo: dict) -> None:
        raise NotImplementedError

    def fail(self, detail: str, subject: object = None) -> None:
        raise InvariantViolation(self.name, detail, subject)


def _is_freelist(subject: object) -> bool:
    from repro.alloc.freelist import FreeListAllocator

    return isinstance(subject, FreeListAllocator)


class WordConservation(Invariant):
    """Live words plus free words equal capacity — storage is neither
    created nor destroyed by allocate/free/compact."""

    name = "word_conservation"

    def applies(self, subject: object) -> bool:
        return _is_freelist(subject)

    def verify(self, subject, memo: dict) -> None:
        live = sum(a.size for a in subject.allocations())
        free = sum(size for _, size in subject.holes())
        if live + free != subject.capacity:
            self.fail(
                f"live {live} + free {free} != capacity {subject.capacity}",
                subject,
            )


class ExtentNonOverlap(Invariant):
    """Allocations and holes are disjoint, in-range extents."""

    name = "extent_non_overlap"

    def applies(self, subject: object) -> bool:
        return _is_freelist(subject)

    def verify(self, subject, memo: dict) -> None:
        spans = sorted(
            [(a.address, a.end, "block") for a in subject.allocations()]
            + [(addr, addr + size, "hole") for addr, size in subject.holes()]
        )
        cursor = 0
        for start, end, kind in spans:
            if start < 0 or end > subject.capacity:
                self.fail(f"{kind} [{start},{end}) outside storage", subject)
            if end <= start:
                self.fail(f"empty or inverted {kind} [{start},{end})", subject)
            if start < cursor:
                self.fail(
                    f"{kind} [{start},{end}) overlaps extent ending at {cursor}",
                    subject,
                )
            cursor = end


class HoleMaximality(Invariant):
    """No two holes are adjacent: frees coalesce immediately, so every
    hole is maximal (the free list's defining contract)."""

    name = "hole_maximality"

    def applies(self, subject: object) -> bool:
        return _is_freelist(subject)

    def verify(self, subject, memo: dict) -> None:
        previous_end = None
        for address, size in subject.holes():
            if size <= 0:
                self.fail(f"zero-size hole at {address}", subject)
            if previous_end is not None and address <= previous_end:
                self.fail(
                    f"hole at {address} adjacent to or overlapping hole "
                    f"ending at {previous_end} (uncoalesced)",
                    subject,
                )
            previous_end = address + size


class PageFrameBijection(Invariant):
    """Present page-table entries and frame-table occupancy are the same
    mapping read from both ends."""

    name = "page_frame_bijection"

    def applies(self, subject: object) -> bool:
        from repro.paging.pager import DemandPager

        return isinstance(subject, DemandPager)

    def verify(self, subject, memo: dict) -> None:
        table = subject.page_table
        frames = subject.frames
        try:
            frames.check_invariants()
        except AssertionError as error:
            self.fail(f"frame table inconsistent: {error}", subject)
        present: dict[int, int] = {}
        for page in table.resident_pages():
            entry = table.entry(page)
            if entry.frame is None:
                self.fail(f"present page {page} has no frame", subject)
            present[page] = entry.frame
        for page, frame in present.items():
            if frames.owner(frame) != page:
                self.fail(
                    f"page {page} maps to frame {frame} owned by "
                    f"{frames.owner(frame)!r}",
                    subject,
                )
        for page in frames.resident_pages():
            if page not in present:
                self.fail(
                    f"frame-resident page {page!r} absent from page table",
                    subject,
                )


class TlbCoherence(Invariant):
    """Every associative-memory entry agrees with the page table: a
    cached (page → frame) pair must name a present page in that frame."""

    name = "tlb_coherence"

    def applies(self, subject: object) -> bool:
        from repro.paging.pager import DemandPager

        return isinstance(subject, DemandPager) and subject.page_table.tlb is not None

    def verify(self, subject, memo: dict) -> None:
        table = subject.page_table
        for page, frame in table.tlb.entries().items():
            entry = table.entry(page)
            if not entry.present:
                self.fail(f"TLB caches non-present page {page}", subject)
            if entry.frame != frame:
                self.fail(
                    f"TLB maps page {page} to frame {frame}, "
                    f"page table says {entry.frame}",
                    subject,
                )


class SpaceTimeMonotonicity(Invariant):
    """Space-time integrals only grow: the active and waiting components
    are non-negative and non-decreasing between checks."""

    name = "spacetime_monotonicity"

    def applies(self, subject: object) -> bool:
        from repro.sim.spacetime import SpaceTimeAccount

        return isinstance(subject, SpaceTimeAccount)

    def verify(self, subject, memo: dict) -> None:
        breakdown = subject.breakdown
        if breakdown.active < 0 or breakdown.waiting < 0:
            self.fail(
                f"negative component: active={breakdown.active} "
                f"waiting={breakdown.waiting}",
                subject,
            )
        last = memo.get("last")
        if last is not None:
            if breakdown.active < last[0] or breakdown.waiting < last[1]:
                self.fail(
                    f"integral regressed: ({breakdown.active}, "
                    f"{breakdown.waiting}) < {last}",
                    subject,
                )
        memo["last"] = (breakdown.active, breakdown.waiting)


class FrameAccounting(Invariant):
    """A bare frame table's owner array, reverse map and free list
    partition the frames exactly."""

    name = "frame_accounting"

    def applies(self, subject: object) -> bool:
        from repro.paging.frame import FrameTable

        return isinstance(subject, FrameTable)

    def verify(self, subject, memo: dict) -> None:
        try:
            subject.check_invariants()
        except AssertionError as error:
            self.fail(str(error), subject)


class RefCountConservation(Invariant):
    """The serving ledger balances, recomputed from the outside.

    For a :class:`~repro.serve.pool.SharedFramePool`: pinned + cached +
    free frames partition the pool; every freed-dedup entry has zero
    references (no frame is freed while referenced); and — walking the
    registered tenant views' own resident pages through their public
    key mapping — per-key reference tallies match the pool's refcounts
    exactly, so the sum of per-tenant residency equals the pool's
    reference total.  Nothing here trusts the pool's internal counts:
    the tally is rebuilt from the views, the comparison is against the
    pool's public inspection surface.
    """

    name = "refcount_conservation"

    def applies(self, subject: object) -> bool:
        from repro.serve.pool import SharedFramePool

        return isinstance(subject, SharedFramePool)

    def verify(self, subject, memo: dict) -> None:
        pinned = subject.resident_count
        cached = subject.cached_count
        free = subject.free_count
        if pinned + cached + free != subject.frame_count:
            self.fail(
                f"frame partition broken: {pinned} pinned + {cached} cached "
                f"+ {free} free != {subject.frame_count} frames",
                subject,
            )
        for key in subject.cached_keys():
            refs = subject.ref_count(key)
            if refs != 0:
                self.fail(
                    f"content {key!r} in the freed-dedup pool with "
                    f"{refs} live references",
                    subject,
                )
        tally: dict = {}
        for view in subject.views:
            for page in view.resident_pages():
                key = view.key_for(page)
                tally[key] = tally.get(key, 0) + 1
                pool_frame = subject.frame_of(key)
                view_frame = view.frame_of(page)
                if pool_frame != view_frame:
                    self.fail(
                        f"tenant {view.tenant} maps page {page!r} to frame "
                        f"{view_frame}, pool holds {key!r} in {pool_frame}",
                        subject,
                    )
        for key, count in tally.items():
            refs = subject.ref_count(key)
            if refs != count:
                self.fail(
                    f"content {key!r}: views hold {count} references, "
                    f"pool counts {refs}",
                    subject,
                )
        if subject.views:
            held = sum(tally.values())
            if held != subject.ref_total:
                self.fail(
                    f"tenant views hold {held} pages, pool counts "
                    f"{subject.ref_total} references",
                    subject,
                )
        # The pool's own ledger check folds in here (like FrameAccounting
        # does for FrameTable), normalizing its AssertionErrors.
        try:
            subject.check_invariants()
        except AssertionError as error:
            self.fail(str(error), subject)


class SelfCheck(Invariant):
    """Fold in a subject's own ``check_invariants`` method (buddy
    allocator, free list, ...), normalizing its AssertionErrors."""

    name = "self_check"

    def applies(self, subject: object) -> bool:
        from repro.paging.frame import FrameTable
        from repro.serve.pool import SharedFramePool

        # FrameTable's self-check is already FrameAccounting, and
        # SharedFramePool's is folded into RefCountConservation; skip
        # the duplicates.  Everything else with the method qualifies.
        return (
            callable(getattr(subject, "check_invariants", None))
            and not isinstance(subject, (FrameTable, SharedFramePool))
        )

    def verify(self, subject, memo: dict) -> None:
        try:
            subject.check_invariants()
        except AssertionError as error:
            self.fail(str(error), subject)


DEFAULT_INVARIANTS: tuple[Invariant, ...] = (
    WordConservation(),
    ExtentNonOverlap(),
    HoleMaximality(),
    PageFrameBijection(),
    TlbCoherence(),
    SpaceTimeMonotonicity(),
    FrameAccounting(),
    RefCountConservation(),
    SelfCheck(),
)


class InvariantSuite:
    """A composable set of invariants with per-subject memo state.

    ``check`` runs every applicable invariant against one subject;
    violations either raise (default) or accumulate on
    :attr:`violations` for batch reporting (``raise_on_violation=False``).
    """

    def __init__(self, invariants: Iterable[Invariant] | None = None) -> None:
        self.invariants: tuple[Invariant, ...] = tuple(
            DEFAULT_INVARIANTS if invariants is None else invariants
        )
        self.checks_run = 0
        self.violations: list[Violation] = []
        self._memo: dict[tuple[int, str], dict] = {}
        # Which invariants apply is stable per subject; dispatching is
        # 8 isinstance probes, which dominates cheap sampled checks, so
        # it is resolved once.  Keyed by (type, id) — the type guard
        # keeps a recycled id from inheriting a foreign dispatch.
        self._applicable: dict[tuple[type, int], tuple[Invariant, ...]] = {}

    def _applicable_to(self, subject: object) -> tuple[Invariant, ...]:
        key = (type(subject), id(subject))
        cached = self._applicable.get(key)
        if cached is None:
            cached = tuple(
                invariant for invariant in self.invariants
                if invariant.applies(subject)
            )
            self._applicable[key] = cached
        return cached

    def check(
        self, subject: object, raise_on_violation: bool = True
    ) -> list[Violation]:
        """Run all applicable invariants; returns violations found now."""
        found: list[Violation] = []
        for invariant in self._applicable_to(subject):
            memo = self._memo.setdefault((id(subject), invariant.name), {})
            self.checks_run += 1
            try:
                invariant.verify(subject, memo)
            except InvariantViolation as violation:
                record = Violation(
                    invariant=invariant.name,
                    subject=type(subject).__name__,
                    detail=violation.detail,
                )
                found.append(record)
                self.violations.append(record)
                if raise_on_violation:
                    raise
        return found

    def check_all(
        self, subjects: Sequence[object], raise_on_violation: bool = True
    ) -> list[Violation]:
        found: list[Violation] = []
        for subject in subjects:
            found.extend(self.check(subject, raise_on_violation))
        return found

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        return (
            f"InvariantSuite(invariants={len(self.invariants)}, "
            f"checks={self.checks_run}, violations={len(self.violations)})"
        )


class InvariantSink:
    """A tracer sink that re-checks subjects as events flow.

    Attach it to any :class:`~repro.observe.tracer.Tracer` alongside the
    normal sinks; every ``every`` accepted events (and on ``close``) it
    runs the suite over its subjects.  ``every=1`` checks on every
    event — maximal sensitivity, maximal cost; the default samples.
    """

    def __init__(
        self,
        subjects: Sequence[object],
        suite: InvariantSuite | None = None,
        every: int = 64,
        raise_on_violation: bool = True,
    ) -> None:
        if every <= 0:
            raise ValueError(f"every must be positive, got {every}")
        self.subjects = list(subjects)
        self.suite = suite if suite is not None else InvariantSuite()
        self.every = every
        self.raise_on_violation = raise_on_violation
        self.seen = 0

    def accept(self, event: object) -> None:
        self.seen += 1
        if self.seen % self.every == 0:
            self.run_checks()

    def run_checks(self) -> list[Violation]:
        return self.suite.check_all(self.subjects, self.raise_on_violation)

    def close(self) -> None:
        """Final full check when the tracer closes."""
        self.run_checks()

    @property
    def violations(self) -> list[Violation]:
        return self.suite.violations

    def __repr__(self) -> str:
        return (
            f"InvariantSink(subjects={len(self.subjects)}, every={self.every}, "
            f"seen={self.seen}, violations={len(self.violations)})"
        )


def check_invariants(
    subject: object | Sequence[object],
    suite: InvariantSuite | None = None,
    raise_on_violation: bool = True,
) -> list[Violation]:
    """One-shot check of a subject (or sequence of subjects).

    Returns the violations found (empty when healthy); raises the first
    one unless ``raise_on_violation=False``.
    """
    suite = suite if suite is not None else InvariantSuite()
    subjects = (
        list(subject)
        if isinstance(subject, (list, tuple))
        else [subject]
    )
    return suite.check_all(subjects, raise_on_violation)


__all__ = [
    "DEFAULT_INVARIANTS",
    "ExtentNonOverlap",
    "FrameAccounting",
    "HoleMaximality",
    "Invariant",
    "InvariantSink",
    "InvariantSuite",
    "PageFrameBijection",
    "RefCountConservation",
    "SelfCheck",
    "SpaceTimeMonotonicity",
    "TlbCoherence",
    "Violation",
    "WordConservation",
    "check_invariants",
]
