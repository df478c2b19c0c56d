"""In-process and local-pool transports.

:class:`InlineTransport` runs shards in the calling process — the
``workers=1`` path, and the reference all other transports are pinned
against.  :class:`PoolTransport` fans shards over a local process pool;
unlike the ``imap_unordered`` loop it replaces, it *detects* a worker
that dies hard (OOM-kill, ``os._exit``) instead of hanging: the broken
pool surfaces on every in-flight future, each lost shard is requeued
through the shared :class:`~repro.sweep.transport.base.RetryLedger`,
and a fresh pool finishes the campaign.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from typing import Iterable, Iterator

from repro.sweep.transport.base import (
    DEFAULT_RETRIES,
    RetryLedger,
    Runner,
    default_runner,
)


def _pool_context():
    """Prefer ``fork`` where offered — markedly faster to start, and the
    workers import only :mod:`repro.sweep.shard` so spawn also works."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class InlineTransport:
    """Run every shard in the calling process, in submission order."""

    name = "inline"

    def __init__(self, runner: Runner | None = None) -> None:
        self.runner = runner if runner is not None else default_runner()

    def run(self, specs: Iterable[dict]) -> Iterator[dict]:
        for spec in specs:
            yield self.runner(spec)


class PoolTransport:
    """A local process pool with broken-worker detection and retry.

    Built on :class:`concurrent.futures.ProcessPoolExecutor` rather
    than ``multiprocessing.Pool`` because the executor *notices* abrupt
    worker death: every unfinished future fails with
    :class:`~concurrent.futures.BrokenExecutor`, which this transport
    converts into requeues (bounded by the ledger) on a replacement
    pool instead of a hung campaign.  One death breaks every future in
    its pool, so the lost specs are halved round by round until the one
    that kills its pool runs alone; only a spec lost alone can spend
    its way to a failure record (carrying the pool exception, keyed by
    the spec's ``key`` field), so its innocent pool-mates never do.
    """

    name = "pool"

    def __init__(self, workers: int = 2, runner: Runner | None = None,
                 retries: int = DEFAULT_RETRIES, key: str = "shard") -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        self.runner = runner if runner is not None else default_runner()
        self.retries = retries
        self.key = key

    def run(self, specs: Iterable[dict]) -> Iterator[dict]:
        batches = [list(specs)]
        ledger = RetryLedger(self.retries, transport=self.name, key=self.key)
        while batches:
            batch = batches.pop()
            if not batch:
                continue
            lost = []
            executor = ProcessPoolExecutor(
                max_workers=min(self.workers, len(batch)),
                mp_context=_pool_context(),
            )
            try:
                futures = {executor.submit(self.runner, spec): spec
                           for spec in batch}
                for future in as_completed(futures):
                    spec = futures[future]
                    try:
                        yield future.result()
                    except BrokenExecutor as error:
                        # One hard death breaks every in-flight future,
                        # so a shared pool cannot say whose it was: the
                        # loss counts, but only a lone spec gives up.
                        failure = ledger.record_loss(spec, error)
                        if failure is None or len(batch) > 1:
                            lost.append(spec)
                        else:
                            yield failure
            finally:
                executor.shutdown(wait=True, cancel_futures=True)
            half = len(lost) // 2
            batches += [lost[half:], lost[:half]]


__all__ = ["InlineTransport", "PoolTransport"]
