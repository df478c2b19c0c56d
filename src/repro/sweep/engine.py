"""The campaign coordinator: transports, checkpoint file, heartbeats.

``run_sweep`` executes a grid's shards over a pluggable
:class:`~repro.sweep.transport.Transport` — inline, a local process
pool, or streaming subprocess/SSH workers — and appends each finished
shard's record to an append-only ``SWEEP_results.jsonl``.  The file is
the checkpoint: re-running the same grid with ``resume=True`` skips
every shard whose id is already recorded, so an interrupted campaign
finishes instead of restarting.

The loop itself, :func:`coordinate`, is shared with traffic campaigns
(:func:`repro.traffic.engine.run_campaign`).  The two kinds of campaign
differ only in the record's id field (``shard`` / ``point``), its name
field (``sweep`` / ``campaign``) and the runner that turns a spec into
a record; resume, checkpointing, heartbeats and worker-loss handling
are the same code.

Completion order is whatever the transport produces; nothing else is.
A shard's record depends only on its spec (see
:mod:`repro.sweep.shard`), and the merged counters are integer sums, so
any worker count — and any placement of those workers — yields the
same records and the same totals.  Appends go through
:class:`~repro.sweep.checkpoint.CheckpointWriter` (one ``os.write`` per
record on an ``O_APPEND`` descriptor), so an interrupt or a second
concurrent writer can delay a record but never tear one.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.observe.counters import Counters
from repro.observe.sinks import read_jsonl_records
from repro.observe.telemetry.dashboard import TERMINAL_STATES
from repro.observe.telemetry.registry import TelemetryRegistry
from repro.sweep.checkpoint import (
    NONDETERMINISTIC_FIELDS,
    CheckpointWriter,
    canonical_lines,
    deterministic_telemetry,
    strip_nondeterministic,
)
from repro.sweep.grid import SCHEMA, SweepGrid
from repro.sweep.shard import run_shard_safely
from repro.sweep.transport import Runner, Transport, make_transport

assert set(TERMINAL_STATES) == {"finished", "aborted"}, \
    "coordinate stamps exactly these terminal heartbeat states"

#: The least monotonic time between two running heartbeats.  A failure
#: beats at once and the terminal beat always lands, whatever the clock.
HEARTBEAT_INTERVAL_S = 0.25

#: The heartbeat cadence's clock, read through this module so tests can
#: replace it the way they replace ``run_shard_safely``.
clock = time.monotonic


def read_results(
    path: str | Path, sweep: str | None = None,
    key: str = "shard", name_field: str = "sweep",
) -> tuple[list[dict], int]:
    """``(records, corrupt)`` from a results file, damage-tolerant.

    Records are filtered to the current schema, to real results (error
    records are never checkpointed, but a hand-edited file might hold
    anything), and — when ``sweep`` is given — to that campaign name
    under ``name_field``.  ``key`` is the id field (``"shard"``, or
    ``"point"`` with ``name_field="campaign"`` for traffic results).
    The file only ever grows, so a campaign re-run without resume
    appends a second record for every id; the first record per
    (name, id) is kept, so resuming over such a file neither
    double-counts nor reports more records than the campaign has.
    Unreadable lines (including a line torn by a crash mid-write) are
    counted, not silently dropped: resume re-executes exactly the
    units whose lines did not survive.
    """
    raw, corrupt = read_jsonl_records(path)
    records: dict[tuple, dict] = {}
    for record in raw:
        if (record.get("schema") == SCHEMA
                and key in record
                and "error" not in record
                and (sweep is None or record.get(name_field) == sweep)):
            records.setdefault((record.get(name_field), record[key]), record)
    return list(records.values()), corrupt


@dataclass
class CampaignResult:
    """Outcome of one :func:`coordinate` call (a sweep or traffic run)."""

    records: list[dict]
    """Every completed record — resumed and fresh — sorted by id."""
    telemetry: TelemetryRegistry
    """All records' telemetry snapshots merged — counters summed,
    histograms merged bucket-exactly — so the deterministic part is
    identical for any worker count (pinned by the differential tests)."""
    executed: int
    skipped: int
    """Units skipped because the results file already held them."""
    failures: list[dict] = field(default_factory=list)
    corrupt_lines: int = 0
    workers: int = 1
    transport: str = "inline"
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(kw_only=True)
class SweepResult(CampaignResult):
    """Outcome of one ``run_sweep`` call."""

    grid: SweepGrid
    counters: Counters
    """All shards' counter snapshots merged (resumed shards included),
    so totals are independent of how many runs it took."""


def resolve_transport(
    transport: str | Transport | None, workers: int, shard_count: int,
    runner: Runner | None = None, key: str = "shard",
) -> Transport:
    """Turn a campaign's transport argument into a live transport.

    ``None`` keeps the historical behavior: inline for one worker (or
    one shard — a pool would cost more than it saves), a local pool
    otherwise.  A string goes through
    :func:`~repro.sweep.transport.make_transport`; an object is used
    as-is.  The local transports run ``runner``, by default
    ``run_shard_safely`` resolved from this module, which is the
    monkeypatchable fault-injection seam the tests rely on.
    """
    if transport is None:
        transport = "inline" if workers <= 1 or shard_count <= 1 else "pool"
    if isinstance(transport, str):
        return make_transport(transport, workers=workers,
                              runner=runner or run_shard_safely, key=key)
    return transport


def coordinate(
    specs: list[dict],
    name: str | None,
    *,
    key: str,
    name_field: str,
    runner: Runner,
    workers: int = 1,
    results_path: str | Path | None = None,
    resume: bool = False,
    progress: Callable[[int, int, dict], None] | None = None,
    transport: str | Transport | None = None,
) -> CampaignResult:
    """Run ``specs`` as one campaign named ``name``: the shared loop.

    ``key`` is the id field of specs and records, ``name_field`` the
    record field holding the campaign name, and ``runner`` turns a spec
    into a record (returning failures as records, never raising).
    Everything else is documented on :func:`run_sweep`: resume reads
    the prior records, each fresh record is appended through
    :class:`~repro.sweep.checkpoint.CheckpointWriter` before anything
    else learns of it, a running heartbeat lands at most once per
    :data:`HEARTBEAT_INTERVAL_S` of :data:`clock` time and at once on
    every failure, and a terminal heartbeat lands from a ``finally``
    block.
    """
    started = time.perf_counter()
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")

    prior: list[dict] = []
    corrupt = 0
    if results_path is not None and resume:
        prior, corrupt = read_results(results_path, name, key=key,
                                      name_field=name_field)
    # Only records of units this campaign names count as resumed work;
    # stale records from an edited grid stay in the file, inert.
    known = {spec[key] for spec in specs}
    prior = [record for record in prior if record[key] in known]
    completed = {record[key] for record in prior}
    pending = [spec for spec in specs if spec[key] not in completed]
    carrier = resolve_transport(transport, workers, len(pending),
                                runner=runner, key=key)

    telemetry = TelemetryRegistry()
    for record in prior:
        if "telemetry" in record:
            telemetry.merge_snapshot(record["telemetry"])

    fresh: list[dict] = []
    failures: list[dict] = []
    writer: CheckpointWriter | None = None
    if results_path is not None:
        writer = CheckpointWriter(results_path)
        beat = heartbeat_path(results_path)
    done = 0
    last_beat = float("-inf")
    state = "aborted"
    try:
        for record in carrier.run(pending):
            done += 1
            if "error" in record:
                failures.append(record)
            else:
                fresh.append(record)
                if "telemetry" in record:
                    telemetry.merge_snapshot(record["telemetry"])
                if writer is not None:
                    # One string, one write — durable before anything
                    # downstream (heartbeat, progress) learns of it.
                    writer.append(record)
            if writer is not None:
                now = clock()
                if ("error" in record
                        or now - last_beat >= HEARTBEAT_INTERVAL_S):
                    write_heartbeat(beat, name, done, len(pending),
                                    len(failures), telemetry,
                                    name_field=name_field)
                    last_beat = now
            if progress is not None:
                progress(done, len(pending), record)
        state = "finished"
    finally:
        if writer is not None:
            writer.close()
            # The terminal beat: a follower polling the heartbeat must
            # never spin on a campaign that is no longer running.
            write_heartbeat(beat, name, done, len(pending), len(failures),
                            telemetry, state=state, name_field=name_field)

    return CampaignResult(
        records=sorted(prior + fresh, key=lambda record: record[key]),
        telemetry=telemetry,
        executed=len(fresh) + len(failures),
        skipped=len(prior),
        failures=failures,
        corrupt_lines=corrupt,
        workers=workers,
        transport=carrier.name,
        wall_s=round(time.perf_counter() - started, 3),
    )


def run_sweep(
    grid: SweepGrid,
    workers: int = 1,
    results_path: str | Path | None = None,
    resume: bool = False,
    checked: bool = False,
    progress: Callable[[int, int, dict], None] | None = None,
    transport: str | Transport | None = None,
) -> SweepResult:
    """Execute ``grid``, checkpointing to ``results_path``.

    Parameters
    ----------
    workers:
        Worker count handed to the transport; 1 runs inline (no pool).
        Results are identical for any value — only wall time changes.
    results_path:
        The append-only JSONL checkpoint.  None runs entirely in
        memory (no resume possible).
    resume:
        Skip shards whose ids are already recorded for this grid name.
        Without ``resume``, existing records are ignored *and kept* —
        the file only ever grows — but every shard re-executes.
    checked:
        Route every shard through the :mod:`repro.check` invariant
        suite (replay audits, mix audits, allocator audits).  A
        violation fails that shard, never the campaign.
    progress:
        Optional ``progress(done, total, record)`` callback, called in
        the parent as each shard lands — after the record is durably
        appended, so an interrupt inside the callback cannot lose or
        tear the line it was told about.
    transport:
        Where shards run: ``"inline"``, ``"pool"``, ``"subprocess"``,
        ``"ssh:host1,host2"`` (see :mod:`repro.sweep.transport`), a
        :class:`~repro.sweep.transport.Transport` instance, or None
        for the historical workers-based choice.  Records are
        bit-identical across all of them.

    With a ``results_path``, a live heartbeat lands next to it at
    ``<results_path>.telemetry.json``: progress scalars plus the merged
    telemetry snapshot so far, written atomically so ``python -m repro
    top --snapshot`` can follow the campaign from another terminal.  A
    running beat lands at most once per :data:`HEARTBEAT_INTERVAL_S`
    (250 ms) as shards land, and at once when a shard fails, so it
    lacks at most the shards that landed in the 250 ms after it was
    written, and a follower sees every failure as it happens.  A final
    heartbeat always lands from a ``finally`` block with a terminal
    ``state`` — ``"finished"`` when the campaign ran to completion
    (failed shards included), ``"aborted"`` when the coordinator died
    mid-campaign — so followers see a dead campaign as dead, never as
    live forever, and its telemetry holds every record.
    """
    campaign = coordinate(
        [shard.spec(checked=checked) for shard in grid.shards()],
        grid.name,
        key="shard",
        name_field="sweep",
        runner=run_shard_safely,
        workers=workers,
        results_path=results_path,
        resume=resume,
        progress=progress,
        transport=transport,
    )
    counters = Counters()
    for record in campaign.records:
        counters.merge_snapshot(record.get("counters", {}))
    return SweepResult(**vars(campaign), grid=grid, counters=counters)


def heartbeat_path(results_path: str | Path) -> Path:
    """Where a campaign drops its live telemetry heartbeat."""
    path = Path(results_path)
    return path.with_name(path.name + ".telemetry.json")


def write_heartbeat(
    path: Path,
    name: str | None,
    done: int,
    total: int,
    failed: int,
    telemetry: TelemetryRegistry,
    state: str = "running",
    name_field: str = "sweep",
) -> None:
    """Atomically publish campaign progress plus merged telemetry.

    The campaign ``name`` lands under ``name_field`` (``"sweep"``, or
    ``"campaign"`` for traffic).  Write-to-temp then
    :func:`os.replace`, so a follower (``python -m repro top
    --snapshot``) polling the file never reads a torn write.
    ``state`` is ``"running"`` while records land and one of
    :data:`TERMINAL_STATES` from :func:`coordinate`'s ``finally`` block —
    the marker that tells followers to stop waiting.  Heartbeats are
    best-effort: an unwritable path must not fail the campaign, so OS
    errors are swallowed — but the side file must not outlive a failed
    publish.  A campaign beats up to four times a second and on every
    failure; if the replace step fails persistently (target directory
    vanished, permissions flipped), leaking one ``.tmp`` per beat
    litters the results directory, so cleanup rides a ``finally``.
    """
    payload = {
        name_field: name,
        "done": done,
        "total": total,
        "failed": failed,
        "state": state,
        "telemetry": telemetry.snapshot(),
    }
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n",
                       encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        pass
    finally:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass


def marginals(records: list[dict], axis: str) -> list[tuple]:
    """Per-axis-value means of the headline metrics, for report tables.

    Returns rows ``(value, shards, fault_rate, spacetime, cpu_util,
    external_frag, internal_frag, alloc_failures, serve_dedup_ratio,
    serve_spacetime_saving, traffic_shed_rate, traffic_qwait_p99)`` —
    means except for the failure count, which is a total — sorted by
    axis value.  New columns append at the end: downstream tooling
    (and the tests) index existing columns by position.
    """
    groups: dict[object, list[dict]] = {}
    for record in records:
        groups.setdefault(record.get(axis), []).append(record)

    def mean(rows: list[dict], key: str) -> float:
        return sum(row.get(key, 0) for row in rows) / len(rows)

    table = []
    for value in sorted(groups, key=str):
        rows = groups[value]
        table.append((
            value,
            len(rows),
            round(mean(rows, "fault_rate"), 4),
            round(mean(rows, "spacetime")),
            round(mean(rows, "cpu_utilization"), 3),
            round(mean(rows, "external_frag"), 3),
            round(mean(rows, "internal_frag"), 3),
            sum(row.get("alloc_failures", 0) for row in rows),
            round(mean(rows, "serve_dedup_ratio"), 3),
            round(mean(rows, "serve_spacetime_saving"), 3),
            round(mean(rows, "traffic_shed_rate"), 3),
            round(mean(rows, "traffic_queue_wait_p99"), 2),
        ))
    return table


__all__ = [
    "HEARTBEAT_INTERVAL_S",
    "NONDETERMINISTIC_FIELDS",
    "TERMINAL_STATES",
    "CampaignResult",
    "SweepResult",
    "canonical_lines",
    "coordinate",
    "deterministic_telemetry",
    "heartbeat_path",
    "marginals",
    "read_results",
    "resolve_transport",
    "run_sweep",
    "strip_nondeterministic",
    "write_heartbeat",
]
