"""The hardened checkpoint seam: torn-line-proof JSONL appends.

``SWEEP_results.jsonl`` is the campaign's only durable state, so a
record append must be all-or-nothing under the two hazards the engine
actually faces: an interrupt (^C mid-campaign) and concurrent appends
(two transports landing records on one file).  A buffered file handle
defends against neither — a flush can be split across writes, and an
interrupt between them leaves a torn line that a later resume must
treat as damage.

:class:`CheckpointWriter` closes the seam by construction:

- each record is serialized to **one** string (sorted keys, trailing
  newline) and written with **one** ``os.write`` on an unbuffered
  ``O_APPEND`` descriptor — the kernel appends the whole line or none
  of it, and ``O_APPEND`` makes concurrent writers interleave at line
  boundaries rather than mid-record;
- there is no userspace buffer, so there is nothing to flush and no
  window where a record is half-durable while the engine moves on —
  by the time ``append`` returns (and the progress callback fires),
  the line is in the file.

A torn line can still *arrive* — a crash mid-``os.write`` on a weird
filesystem, a hand edit, a disk-full truncation — which is why the
read side (:func:`repro.sweep.engine.read_results`) counts and skips
damaged lines instead of trusting the writer: resume re-executes
exactly the shards whose lines did not survive.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable

from repro.observe.telemetry.registry import WALL_CLOCK_SUFFIX

#: Fields excluded when comparing records for bit-identity: wall time is
#: measured, not derived, and a traffic point's steady-state throughput
#: is derived from it (sweep records carry no ``refs_per_s``).  The
#: ``telemetry`` snapshot is *partly* deterministic, so
#: ``strip_nondeterministic`` reduces it rather than dropping it.
NONDETERMINISTIC_FIELDS = ("wall_s", "refs_per_s")


def strip_nondeterministic(record: dict) -> dict:
    """A record minus its measured-time fields — the comparable form.

    What the determinism tests (and any cross-run differ) should
    compare: everything in a record except wall time is a pure function
    of the grid.  A ``telemetry`` snapshot is reduced to its
    deterministic part (wall-clock ``*_seconds`` instruments stripped)
    rather than dropped — the sketches and counters that remain are
    pinned to be identical across runs, worker counts, and transports.
    """
    stripped = {
        key: value for key, value in record.items()
        if key not in NONDETERMINISTIC_FIELDS
    }
    if "telemetry" in stripped:
        stripped["telemetry"] = deterministic_telemetry(stripped["telemetry"])
    return stripped


def deterministic_telemetry(snapshot: dict) -> dict:
    """A telemetry snapshot minus its wall-clock instruments.

    The dict analogue of
    :meth:`~repro.observe.telemetry.TelemetryRegistry.deterministic_snapshot`,
    for snapshots that already crossed a JSON boundary.
    """
    return {
        section: {
            name: value for name, value in entries.items()
            if not name.endswith(WALL_CLOCK_SUFFIX)
        }
        for section, entries in snapshot.items()
    }


class CheckpointWriter:
    """Append-only JSONL writer with single-syscall record durability."""

    def __init__(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self.path = path
        self._fd: int | None = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )

    def append(self, record: dict) -> str:
        """Write ``record`` as one line in one call; returns the line.

        Raises ``OSError`` if the kernel reports a short write (which
        regular files do not produce in practice) — a torn line must
        surface as an error, never as silent half-state.
        """
        if self._fd is None:
            raise ValueError("checkpoint writer is closed")
        line = json.dumps(record, sort_keys=True) + "\n"
        data = line.encode("utf-8")
        written = os.write(self._fd, data)
        if written != len(data):
            raise OSError(
                f"short checkpoint write: {written}/{len(data)} bytes "
                f"to {self.path}"
            )
        return line

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def canonical_lines(records: Iterable[dict], key: str = "shard") -> list[str]:
    """The byte-comparable form of a campaign's records.

    Sorted by the id field ``key`` (``"shard"`` for sweeps, ``"point"``
    for traffic campaigns), measured-time fields stripped, sorted-key
    JSON — two campaigns over the same specs must produce *identical*
    lists whatever transport, worker count, or resume history produced
    them.  This is what ``python -m repro sweep --canon FILE`` writes,
    what the CI transport matrix diffs byte-for-byte, and what
    ``python -m repro traffic --compare`` checks.
    """
    stripped = [strip_nondeterministic(record) for record in records]
    stripped.sort(key=lambda record: record.get(key, ""))
    return [json.dumps(record, sort_keys=True) for record in stripped]


__all__ = [
    "NONDETERMINISTIC_FIELDS",
    "CheckpointWriter",
    "canonical_lines",
    "deterministic_telemetry",
    "strip_nondeterministic",
]
