"""Sweep transports: pluggable worker boundaries for the campaign engine.

One protocol (:class:`~repro.sweep.transport.base.Transport`: submit
shard specs, stream back one result record per spec), three
implementations:

==============  ========================================================
``inline``      the calling process — serial, zero setup, the reference
``pool``        a local process pool with broken-worker detection
``subprocess``  asyncio stdio workers (``python -m repro.sweep.worker``)
                on this host; ``ssh:host1,host2`` reaches other hosts
                over SSH, and ``local`` entries mix both in one campaign
==============  ========================================================

All three honor the same guarantees — bit-identical records for a fixed
grid, per-shard failure isolation, bounded retry on transport loss —
so the engine (and the checkpoint file) cannot tell them apart.  See
``docs/SWEEP.md`` for the contract and the worker wire protocol.
"""

from __future__ import annotations

from repro.sweep.transport.base import (
    DEFAULT_RETRIES,
    RetryLedger,
    Runner,
    Transport,
    failure_record,
)
from repro.sweep.transport.local import InlineTransport, PoolTransport
from repro.sweep.transport.stream import (
    StreamTransport,
    TransportLoss,
    ssh_argv,
    worker_argv,
)

#: Spellings ``make_transport`` accepts (``ssh:`` takes a host list).
TRANSPORT_NAMES = ("inline", "pool", "subprocess", "ssh:HOST[,HOST...]")


def make_transport(name: str, workers: int = 1,
                   runner: Runner | None = None,
                   key: str = "shard") -> Transport:
    """Build a transport from its CLI spelling.

    ``runner`` overrides the shard executor for the *local* transports
    (inline and pool) — how traffic campaigns run their points, and the
    fault-injection seam the tests use — and ``key`` names the spec id
    field the pool's failure records carry.  Stream workers always run
    the real :func:`~repro.sweep.shard.run_shard_safely` on their own
    host.
    """
    if name == "inline":
        return InlineTransport(runner=runner)
    if name == "pool":
        return PoolTransport(workers=workers, runner=runner, key=key)
    if name == "subprocess":
        return StreamTransport(workers=workers)
    if name.startswith("ssh:"):
        hosts = tuple(host.strip() for host in name[4:].split(",")
                      if host.strip())
        if not hosts:
            raise ValueError(f"transport {name!r} names no hosts")
        return StreamTransport(workers=workers, hosts=hosts)
    spellings = ", ".join(TRANSPORT_NAMES)
    raise ValueError(f"unknown transport {name!r}; choose from {spellings}")


__all__ = [
    "DEFAULT_RETRIES",
    "InlineTransport",
    "PoolTransport",
    "RetryLedger",
    "Runner",
    "StreamTransport",
    "TRANSPORT_NAMES",
    "Transport",
    "TransportLoss",
    "failure_record",
    "make_transport",
    "ssh_argv",
    "worker_argv",
]
