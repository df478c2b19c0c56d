"""The transport contract: submit shard specs, stream result records.

A :class:`Transport` is the worker boundary of the sweep engine.  The
contract is deliberately narrow so every placement of workers — the
calling process, a local ``multiprocessing`` pool, subprocesses on this
host, SSH sessions on other hosts — looks identical to the coordinator:

- ``run(specs)`` yields **exactly one record per spec**, in completion
  order (which is unspecified), and returns only when every spec is
  accounted for.
- A yielded record is either a shard result (see
  :func:`repro.sweep.shard.run_shard`) or a failure record
  (``{"shard", "error", ...}``) — transports never raise for a worker
  that died; they raise only for programming errors (an unpicklable
  runner, a bad argument).
- Records are pure functions of their specs, so a retry after a lost
  worker reproduces the original record bit-for-bit and the engine's
  determinism contract holds across any transport mix.

Bounded retry lives here, in :class:`RetryLedger`, so every transport
applies the same policy: a spec whose worker is lost (killed, OOM'd,
connection dropped) is requeued at most ``retries`` times, then
converted to a failure record carrying the transport exception.  The
engine never checkpoints failure records, so a later ``--resume``
retries exactly the lost shards — a dropped connection can cost work,
never corrupt the checkpoint.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Protocol, runtime_checkable

#: How many times a shard lost to transport death is requeued before it
#: is recorded as failed.  One retry distinguishes "a worker happened to
#: die under this shard" from "this shard kills every worker it meets".
DEFAULT_RETRIES = 1

#: Frame prefixes of the stream-worker wire protocol (shared with
#: :mod:`repro.sweep.worker`; they live here so the coordinator never
#: imports the worker module it launches with ``-m``).  Anything else a
#: worker — or the shell that launched it — writes to stdout (an SSH
#: banner, a stray print that escaped the shield) is skipped by the
#: coordinator, never parsed as a record.
HELLO_PREFIX = "HELO "
RESULT_PREFIX = "RSLT "

Runner = Callable[[dict], dict]


@runtime_checkable
class Transport(Protocol):
    """What the sweep engine requires of a worker boundary."""

    #: Short human-readable name, surfaced in the CLI summary.
    name: str

    def run(self, specs: Iterable[dict]) -> Iterator[dict]:
        """Execute every spec, yielding one record each as they finish."""
        ...


def failure_record(spec: dict, error: object, transport: str,
                   attempts: int = 1, key: str = "shard") -> dict:
    """The record a transport yields for a spec it could not complete.

    Shaped like :func:`repro.sweep.shard.run_safely`'s error records —
    the spec's id under ``key`` and ``"error"`` present, so the engine
    counts it failed and never checkpoints it — plus the transport name
    and attempt count for the report.
    """
    return {
        key: spec.get(key, "?"),
        "error": f"{type(error).__name__}: {error}"
        if isinstance(error, BaseException) else str(error),
        "transport": transport,
        "attempts": attempts,
    }


class RetryLedger:
    """Bounded-retry accounting shared by every transport.

    Tracks transport losses per spec id (the spec's ``key`` field:
    ``"shard"`` or ``"point"``).  ``record_loss`` returns ``None`` while
    the spec still has retry budget (the caller should requeue it) and a
    failure record once the budget is spent (the caller should yield it
    and move on).
    """

    def __init__(self, retries: int = DEFAULT_RETRIES,
                 transport: str = "?", key: str = "shard") -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = retries
        self.transport = transport
        self.key = key
        self._losses: dict[str, int] = {}

    def losses(self, spec: dict) -> int:
        return self._losses.get(spec.get(self.key, "?"), 0)

    def record_loss(self, spec: dict, error: object) -> dict | None:
        """Account one transport loss; requeue (None) or give up (record)."""
        unit = spec.get(self.key, "?")
        count = self._losses.get(unit, 0) + 1
        self._losses[unit] = count
        if count <= self.retries:
            return None
        return failure_record(spec, error, self.transport, attempts=count,
                              key=self.key)


def default_runner() -> Runner:
    """The real shard executor, resolved late to avoid import cycles."""
    from repro.sweep.shard import run_shard_safely

    return run_shard_safely


__all__ = [
    "DEFAULT_RETRIES",
    "HELLO_PREFIX",
    "RESULT_PREFIX",
    "RetryLedger",
    "Runner",
    "Transport",
    "default_runner",
    "failure_record",
]
