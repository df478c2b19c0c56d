"""The asyncio stream transport: subprocess and SSH shard workers.

Workers are ``python -m repro.sweep.worker`` processes reached over any
stdio byte pipe — a plain subprocess for ``local`` hosts, an ``ssh``
session for remote ones, freely mixed in one campaign (the composite-
connection idiom: the coordinator neither knows nor cares what carries
the pipe).  Each worker speaks the line protocol in
:mod:`repro.sweep.worker`: JSON shard specs down, ``RSLT`` sorted-key
JSON records back, one in flight per worker.

Loss handling mirrors the pool transport, through the same
:class:`~repro.sweep.transport.base.RetryLedger`: a worker that dies
mid-shard (connection dropped, process killed) forfeits its in-flight
spec back to the shared queue — requeued at most ``retries`` times,
then recorded as failed — and its slot respawns a fresh worker
(bounded by ``respawns``).  When every slot is dead and respawn budgets
are spent, the remaining specs become failure records; the transport
always accounts for every spec and never hangs the campaign.

The asyncio loop runs on a helper thread feeding a queue, so ``run``
is an ordinary generator the engine can drain record by record —
checkpoints land as results arrive, exactly as with the local
transports.
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
import queue
import sys
import threading
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.sweep.transport.base import (
    DEFAULT_RETRIES,
    HELLO_PREFIX,
    RESULT_PREFIX,
    RetryLedger,
    failure_record,
)

#: Host names that mean "spawn the worker directly, no SSH".
LOCAL_HOSTS = frozenset({"local", "localhost"})

#: Non-protocol lines tolerated before the hello (SSH banners, motd).
MAX_PREAMBLE_LINES = 64

#: Fresh workers a slot may start after its first, before giving up.
DEFAULT_RESPAWNS = 2

#: Seconds a new worker has to produce its hello line.
DEFAULT_HELLO_TIMEOUT = 60.0


class TransportLoss(ConnectionError):
    """A worker (or its pipe) died while a shard was outstanding."""


def repro_pythonpath() -> str:
    """A ``PYTHONPATH`` that makes :mod:`repro` importable in a child.

    The coordinator's own package location, prepended to any inherited
    ``PYTHONPATH`` — what a local worker needs when the repo is run
    from a source checkout rather than an installed package.
    """
    import repro

    root = str(Path(repro.__file__).resolve().parent.parent)
    parts = [part for part in
             os.environ.get("PYTHONPATH", "").split(os.pathsep) if part]
    if root not in parts:
        parts.insert(0, root)
    return os.pathsep.join(parts)


def worker_argv(python: str | None = None) -> list[str]:
    """Command line of a local worker subprocess."""
    return [python or sys.executable, "-m", "repro.sweep.worker"]


def ssh_argv(host: str, python: str = "python3",
             pythonpath: str | None = None) -> list[str]:
    """Command line of an SSH worker session.

    ``BatchMode`` keeps a misconfigured host from hanging the campaign
    on a password prompt — it fails fast instead, which the spawn path
    treats like any other dead worker.  The remote side needs
    :mod:`repro` importable; ``pythonpath`` is for checkouts synced to
    the same path on every host.
    """
    argv = ["ssh", "-o", "BatchMode=yes", host]
    if pythonpath:
        argv += ["env", f"PYTHONPATH={pythonpath}"]
    return argv + [python, "-m", "repro.sweep.worker"]


class StreamTransport:
    """Shards over stdio-streaming workers, local subprocess or SSH.

    Parameters
    ----------
    workers:
        Worker slots.  Slots take hosts round-robin from ``hosts``, so
        ``workers=4, hosts=("local", "big-box")`` runs two workers on
        each.
    hosts:
        Where workers live: ``"local"``/``"localhost"`` spawns the
        worker directly; anything else is an SSH destination
        (``user@host`` forms included).
    python / remote_python:
        Interpreter for local and SSH workers respectively.  Local
        defaults to ``sys.executable``; remote to ``python3`` on the
        host's PATH.
    remote_pythonpath:
        ``PYTHONPATH`` exported on SSH hosts (``None`` sends none —
        for installed packages).  Local workers always inherit the
        coordinator's :mod:`repro` location.
    retries / respawns:
        The loss budgets: per-shard requeues, and per-slot fresh
        workers after the first.
    """

    def __init__(self, workers: int = 2,
                 hosts: Sequence[str] = ("local",),
                 python: str | None = None,
                 remote_python: str = "python3",
                 remote_pythonpath: str | None = None,
                 retries: int = DEFAULT_RETRIES,
                 respawns: int = DEFAULT_RESPAWNS,
                 hello_timeout: float = DEFAULT_HELLO_TIMEOUT) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        hosts = tuple(hosts)
        if not hosts:
            raise ValueError("at least one host is required")
        self.workers = workers
        self.hosts = hosts
        self.python = python
        self.remote_python = remote_python
        self.remote_pythonpath = remote_pythonpath
        self.retries = retries
        self.respawns = respawns
        self.hello_timeout = hello_timeout
        self.name = ("subprocess" if all(h in LOCAL_HOSTS for h in hosts)
                     else "ssh:" + ",".join(hosts))

    # -- spawning ----------------------------------------------------------

    def argv_for(self, host: str) -> list[str]:
        """The command line that reaches a worker on ``host``."""
        if host in LOCAL_HOSTS:
            return worker_argv(self.python)
        return ssh_argv(host, python=self.remote_python,
                        pythonpath=self.remote_pythonpath)

    def _child_env(self, host: str) -> dict[str, str] | None:
        if host in LOCAL_HOSTS:
            env = dict(os.environ)
            env["PYTHONPATH"] = repro_pythonpath()
            return env
        return None

    async def _spawn(self, host: str) -> asyncio.subprocess.Process:
        """Start a worker and wait out its hello line."""
        proc = await asyncio.create_subprocess_exec(
            *self.argv_for(host),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=self._child_env(host),
        )
        try:
            for _ in range(MAX_PREAMBLE_LINES):
                raw = await asyncio.wait_for(proc.stdout.readline(),
                                             self.hello_timeout)
                if not raw:
                    raise TransportLoss(f"{host}: worker exited before hello")
                if raw.decode("utf-8", "replace").startswith(HELLO_PREFIX):
                    return proc
            raise TransportLoss(f"{host}: no hello in the first "
                                f"{MAX_PREAMBLE_LINES} lines")
        except BaseException:
            await self._close(proc)
            raise

    async def _close(self, proc: asyncio.subprocess.Process) -> None:
        """Shut a worker down without ever blocking the campaign."""
        try:
            if proc.stdin is not None:
                proc.stdin.close()
            try:
                await asyncio.wait_for(proc.wait(), 5.0)
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()
        except (OSError, ProcessLookupError):
            pass

    # -- the shard round trip ----------------------------------------------

    async def _roundtrip(self, proc: asyncio.subprocess.Process,
                         spec: dict) -> dict:
        """One spec down the pipe, one record back, or TransportLoss."""
        try:
            proc.stdin.write(
                (json.dumps(spec, sort_keys=True) + "\n").encode())
            await proc.stdin.drain()
            while True:
                raw = await proc.stdout.readline()
                if not raw:
                    raise TransportLoss("worker closed the stream mid-shard")
                line = raw.decode("utf-8", "replace").rstrip("\n")
                if not line.startswith(RESULT_PREFIX):
                    continue   # stray output; the worker shields, we skip
                try:
                    return json.loads(line[len(RESULT_PREFIX):])
                except json.JSONDecodeError as error:
                    raise TransportLoss(
                        f"undecodable record from worker: {error}"
                    ) from error
        except (BrokenPipeError, ConnectionResetError) as error:
            raise TransportLoss(f"pipe to worker broke: {error}") from error

    # -- the coordinator loop ----------------------------------------------

    async def _slot(self, host: str, work: collections.deque,
                    ledger: RetryLedger, out: queue.Queue,
                    abort: threading.Event) -> None:
        """One worker slot: spawn, feed shards, respawn on loss."""
        respawns = self.respawns
        proc = None
        try:
            while work and not abort.is_set():
                if proc is None:
                    try:
                        proc = await self._spawn(host)
                    except (OSError, asyncio.TimeoutError,
                            TransportLoss):
                        if respawns <= 0:
                            return
                        respawns -= 1
                    # Other slots ran during the await and may have
                    # drained the work: test the loop condition again.
                    continue
                spec = work.popleft()
                try:
                    record = await self._roundtrip(proc, spec)
                except TransportLoss as loss:
                    await self._close(proc)
                    proc = None
                    failure = ledger.record_loss(spec, loss)
                    if failure is None:
                        work.append(spec)
                    else:
                        out.put(("record", failure))
                    if respawns <= 0:
                        return
                    respawns -= 1
                    continue
                out.put(("record", record))
        finally:
            if proc is not None:
                await self._close(proc)

    async def _pump(self, specs: list[dict], out: queue.Queue,
                    abort: threading.Event) -> None:
        work: collections.deque = collections.deque(specs)
        ledger = RetryLedger(self.retries, transport=self.name)
        slots = min(self.workers, len(specs))
        await asyncio.gather(*(
            self._slot(self.hosts[index % len(self.hosts)], work, ledger,
                       out, abort)
            for index in range(slots)
        ))
        # Every slot is gone; whatever is left can never run here.
        while work and not abort.is_set():
            spec = work.popleft()
            out.put(("record", failure_record(
                spec, "no live transport workers remain", self.name,
                attempts=ledger.losses(spec) + 1,
            )))

    def run(self, specs: Iterable[dict]) -> Iterator[dict]:
        specs = list(specs)
        if not specs:
            return
        out: queue.Queue = queue.Queue()
        abort = threading.Event()

        def pump() -> None:
            try:
                asyncio.run(self._pump(specs, out, abort))
            except BaseException as error:  # surfaced on the consumer side
                out.put(("raise", error))
            finally:
                out.put(("done", None))

        thread = threading.Thread(target=pump, name="sweep-stream-pump",
                                  daemon=True)
        thread.start()
        try:
            while True:
                kind, payload = out.get()
                if kind == "record":
                    yield payload
                elif kind == "raise":
                    raise payload
                else:
                    return
        finally:
            abort.set()
            thread.join(timeout=10.0)


__all__ = [
    "DEFAULT_RESPAWNS",
    "LOCAL_HOSTS",
    "StreamTransport",
    "TransportLoss",
    "repro_pythonpath",
    "ssh_argv",
    "worker_argv",
]
