"""Tenant sessions: spec-only until admitted, materialized lazily.

The scale story of the traffic tier lives here.  A :class:`SessionSpec`
is a handful of integers — no trace, no view, no policy — so millions
of arrived-but-not-admitted address spaces are just millions of small
frozen records in the queue.  Only when the
:class:`~repro.traffic.admission.AdmissionController` admits a spec
does :meth:`SessionSpec.materialize` build the expensive state: a
:class:`~repro.serve.tenant.TenantView` over the shared pool, a
replacement policy, and the reference stream (a generated phased trace,
or a window of an on-disk ``.rtrc`` columnar trace).  The engine's
tests pin that the number of materializations equals the number of
admissions — queued and shed sessions never pay.

An :class:`ActiveSession` keeps its resident pages in one dict, and the
engine's tick asks it, not the view, whether a reference hits.  For a
policy that is exactly :class:`~repro.paging.replacement.LruPolicy` or
:class:`~repro.paging.replacement.FifoPolicy` the dict's order *is* the
replacement state: the first key is the next victim.  Every other policy
keeps its object and the dict stays in load order, the order
``TenantView.resident_pages`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.paging.replacement.simple import FifoPolicy, LruPolicy
from repro.serve.tenant import TenantView

if TYPE_CHECKING:
    from repro.serve.pool import SharedFramePool

#: Per-process cache of opened columnar traces, keyed by path.  A trace
#: file is immutable once written, so sharing one mmap across sessions
#: changes no results — it only avoids reopening per session.
_OPEN_TRACES: dict[str, object] = {}

#: Policies whose state is the order of a session's resident dict,
#: selected by exact type as ``FAST_KERNELS`` is (a subclass may
#: override ``choose_victim``).  The value says whether a hit moves its
#: page to the end: LRU orders by last use, FIFO by load.
KERNEL_POLICIES: dict[type, bool] = {LruPolicy: True, FifoPolicy: False}


@dataclass(frozen=True, slots=True)
class SessionSpec:
    """One arrived session, before any storage is committed to it."""

    sid: int
    arrival: int
    """Arrival tick (virtual time)."""
    quota: int
    """Resident-page allotment the session will be admitted against."""
    pages: int
    length: int
    """References the session will replay."""
    shared_pages: int
    write_fraction: float
    seed: int
    """Trace/write seed, derived per session from the point id."""
    trace_file: str | None = None
    trace_offset: int = 0
    """Window start when replaying a ``.rtrc`` reference stream."""

    def materialize(
        self, pool: "SharedFramePool", replacement: str
    ) -> "ActiveSession":
        """Build the session's runtime state — admission's price tag."""
        from repro.paging.replacement import make_policy
        from repro.serve.replay import seeded_writes

        view = TenantView(
            pool, f"s{self.sid}", quota=self.quota,
            shared_pages=self.shared_pages,
        )
        trace = self._references()
        writes = seeded_writes(
            len(trace), fraction=self.write_fraction, seed=self.seed,
        )
        return ActiveSession(
            spec=self,
            view=view,
            policy=make_policy(replacement),
            trace=trace,
            writes=writes,
        )

    def _references(self) -> list[int]:
        if self.trace_file is not None:
            trace = _open_trace(self.trace_file)
            end = min(self.trace_offset + self.length, len(trace))
            return [trace[index] for index in range(self.trace_offset, end)]
        from repro.workload.reference import phased_trace

        return list(phased_trace(
            pages=self.pages,
            length=self.length,
            working_set=max(2, min(self.pages, self.quota)),
            phase_length=max(16, self.length // 4),
            locality=0.9,
            seed=self.seed,
        ))


class ActiveSession:
    """A materialized session making progress over the shared pool."""

    __slots__ = ("spec", "view", "policy", "trace", "writes", "resident",
                 "kernel", "recency", "audit", "waits", "position",
                 "admitted_at", "blocked_until", "faults", "fetches")

    def __init__(self, spec: SessionSpec, view: TenantView, policy,
                 trace: list[int], writes: list[bool]) -> None:
        self.spec = spec
        self.view = view
        self.policy = policy
        self.trace = trace
        self.writes = writes
        self.resident: dict[int, None] = dict.fromkeys(view.resident_pages())
        """The view's resident pages; the first key is the next victim
        when :attr:`kernel` is set, else they are in load order."""
        recency = KERNEL_POLICIES.get(type(policy))
        self.kernel = recency is not None
        """The dict's order replaces the policy object."""
        self.recency = bool(recency)
        """A hit moves its page to the end of the dict (LRU)."""
        self.audit = None
        """Checked mode's hook, called before each fault and write hit."""
        self.waits: dict[int, int] = {}
        """Hard-fetch waits in cycles, as ``{wait: count}``.  The engine
        points every session of a point at one tally and folds it into
        ``TrafficPointResult.fault_wait`` when the point ends."""
        self.position = 0
        self.admitted_at = -1
        self.blocked_until = 0
        """First tick the session may run again after a hard fetch —
        the backpressure that makes device saturation slow tenants."""
        self.faults = 0
        self.fetches = 0

    @property
    def done(self) -> bool:
        return self.position >= len(self.trace)

    def __repr__(self) -> str:
        return (
            f"ActiveSession(sid={self.spec.sid}, "
            f"position={self.position}/{len(self.trace)})"
        )


def _open_trace(path: str):
    trace = _OPEN_TRACES.get(path)
    if trace is None:
        from repro.trace import read_trace

        trace = read_trace(path)
        _OPEN_TRACES[path] = trace
    return trace


def trace_length(path: str) -> int:
    """Reference count of an ``.rtrc`` file (for window derivation)."""
    return len(_open_trace(path))


__all__ = ["ActiveSession", "SessionSpec", "trace_length"]
