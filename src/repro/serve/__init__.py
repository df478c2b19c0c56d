"""The storage-service tier: refcounted shared frames over one pool.

Randell & Kuehner treat each program's address space as private; this
package adds the serving discipline modern storage services layer on
top of the same mechanisms: frames carry reference counts (zero is
free-but-cached), address-space forks share pages copy-on-write, and
identical page content deduplicates into a single frame with LRU
eviction over the freed pool.  ``docs/SERVING.md`` is the written
contract this package implements; ``examples/shared_tenants.py`` is
the tour.

Layering: the pool sits *beneath* the existing layers and is the one
owner of the serving ledger — frames, refcounts and the freed-dedup
order (:class:`~repro.serve.pool.SharedFramePool`).  A
:class:`~repro.serve.tenant.TenantView` speaks the
:class:`~repro.paging.frame.FrameTable` interface, so demand pagers run
over shared frames unmodified; the shared replay driver runs each
tenant on the fastpath kernels and sends only faults and first shared
writes to the pool's entries (``docs/SERVING.md``); the namespace
layer forks symbolic address spaces onto views; :mod:`repro.observe`
carries the new Share / DedupHit / CoWBreak events; :mod:`repro.check`
audits refcount conservation; :mod:`repro.sweep` and the benchmark
drive the sharing-degree axis.
"""

from repro.serve.pool import REFUSED, ServeStats, SharedFramePool
from repro.serve.replay import (
    SharedReplayResult,
    seeded_writes,
    simulate_shared,
    tenant_traces,
)
from repro.serve.tenant import TenantStats, TenantView, default_share_key

__all__ = [
    "REFUSED",
    "ServeStats",
    "SharedFramePool",
    "SharedReplayResult",
    "TenantStats",
    "TenantView",
    "default_share_key",
    "seeded_writes",
    "simulate_shared",
    "tenant_traces",
]
