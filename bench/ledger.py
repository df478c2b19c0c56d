"""The layer ledger: what each layer a reference crosses costs, per ref.

One seeded reference stream — the serve workload's tenant-0 trace and
its write flags — replays through successively deeper stacks, with no
wrappers anywhere:

1. the LRU list kernel (``repro.fastpath.replay.replay_lru``);
2. the ``simulate_trace`` reference loop (``fast=False``);
3. a ``DemandPager`` over a bare ``FrameTable``;
4. a ``DemandPager`` over a degree-1 ``TenantView`` of a shared pool;
5. ``simulate_shared`` at degree 1;
6. ``simulate_shared`` at degree 4 (the serve workload's own pass).

Each stack's ns/ref minus the previous one's is the marginal cost of the
layer it adds.  Every stack is timed beside a
:class:`common.SpeedSampler` and scaled to the reference host speed,
like the end-to-end metrics, so stacks timed in different host states
stay comparable.  The stacks replay the same reference string under the
same policy, so their fault counts must agree (the degree-1 pins of the
serving tier); :func:`measure` checks that too.
"""

from __future__ import annotations

import statistics
import time

import common
from workloads import Check

#: Stack labels, in order, and the per-layer metric each difference feeds.
STACKS = [
    ("list kernel", "ledger.list_kernel_ns"),
    ("simulate_trace reference loop", "ledger.reference_loop_ns"),
    ("DemandPager + FrameTable", "ledger.demand_pager_ns"),
    ("DemandPager + TenantView (degree 1)", "ledger.tenant_view_ns"),
    ("simulate_shared (degree 1)", "ledger.shared_driver_ns"),
    ("simulate_shared (degree 4)", "ledger.sharing_degree4_ns"),
]

#: Span self time per reference on the traced serve pass must agree with
#: the ledger's degree-4 ns/ref within this share (see README).
SPAN_TOLERANCE = 0.6


def _pager(frame_source, quota: int):
    from repro.addressing.page_table import PageTable
    from repro.clock import Clock
    from repro.memory.backing import BackingStore
    from repro.memory.hierarchy import StorageLevel
    from repro.paging.pager import DemandPager
    from repro.paging.replacement import make_policy

    clock = Clock()
    return DemandPager(
        PageTable(page_size=128, pages=4096),
        frame_source,
        BackingStore(StorageLevel("drum", 10**8, access_time=500),
                     clock=clock),
        make_policy("lru"),
        clock,
    )


def _replay_pager(pager, trace, writes) -> int:
    access = pager.access_page
    for page, write in zip(trace, writes):
        access(page, write=write)
    return pager.stats.faults


def stacks(traces, writes, shared_pages: int, quota: int):
    """``(label, refs, run)`` per stack; ``run()`` returns tenant-0 faults."""
    from repro.fastpath.replay import replay_lru
    from repro.paging import simulate_trace
    from repro.paging.frame import FrameTable
    from repro.paging.replacement import make_policy
    from repro.serve import SharedFramePool, TenantView, simulate_shared

    trace, flags = traces[0], writes[0]
    lru = lambda _tenant: make_policy("lru")   # noqa: E731

    def view():
        return TenantView(SharedFramePool(quota), "t0", quota=quota,
                          shared_pages=shared_pages)

    runs = [
        lambda: replay_lru(trace, quota).faults,
        lambda: simulate_trace(trace, quota, make_policy("lru"),
                               writes=flags, fast=False).faults,
        lambda: _replay_pager(_pager(FrameTable(quota), quota), trace, flags),
        lambda: _replay_pager(_pager(view(), quota), trace, flags),
        lambda: simulate_shared([trace], quota, lru, shared_pages=shared_pages,
                                writes=[flags]).tenants[0].faults,
        lambda: simulate_shared(traces, quota, lru, shared_pages=shared_pages,
                                writes=writes).tenants[0].faults,
    ]
    refs = [len(trace)] * 5 + [sum(len(each) for each in traces)]
    return [(label, count, run)
            for (label, _), count, run in zip(STACKS, refs, runs)]


def measure(traces, writes, shared_pages: int, quota: int,
            repeats: int = 3) -> tuple[list[dict], list[Check]]:
    """Time every stack (median of ``repeats``, at the reference host
    speed); rows plus the checks."""
    rows, faults = [], []
    for label, refs, run in stacks(traces, writes, shared_pages, quota):
        seconds = []
        with common.SpeedSampler() as sampler:
            for _ in range(repeats):
                start = time.perf_counter()
                result = run()
                seconds.append(time.perf_counter() - start)
        faults.append(result)
        seconds_at_reference = (statistics.median(seconds)
                                * common.speed(sampler.probe_s))
        rows.append({"stack": label, "refs": refs,
                     "ns_per_ref": seconds_at_reference / refs * 1e9})
    checks = [Check("ledger.stacks_agree_on_faults", len(set(faults)) == 1,
                    f"tenant-0 faults per stack: {faults}")]
    return rows, checks


def differences(rows: list[dict]) -> dict[str, float]:
    """The ``ledger.*`` metrics: stack 1 absolute, then each step's delta."""
    values = {}
    previous = 0.0
    for (_, metric), row in zip(STACKS, rows):
        values[metric] = row["ns_per_ref"] - previous
        previous = row["ns_per_ref"]
    return values
