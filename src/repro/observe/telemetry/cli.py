"""``python -m repro top`` and ``python -m repro metrics-export``.

Both commands render a telemetry snapshot — live instruments turned
into the dashboard frame (``top``) or OpenMetrics text
(``metrics-export``).  The snapshot source is either:

- ``--snapshot FILE`` — a JSON file holding a registry snapshot, or a
  sweep heartbeat file (``<results>.telemetry.json``, rewritten by
  ``run_sweep`` at most every 250 ms as shards land) whose
  ``telemetry`` field is one; or
- nothing — a built-in deterministic demo workload (a drum-backed
  demand pager, a fast replay, and a three-tenant shared pool, all
  seeded) runs on the spot, so both commands work on a bare checkout
  and in CI with no prior campaign.

``top`` follows a heartbeat file: with ``--snapshot`` and no ``--once``
it re-reads and redraws every ``--interval`` seconds while a sweep in
another process appends shards.  Without a TTY each frame appends as
plain text (see :class:`~repro.observe.telemetry.dashboard.LiveRenderer`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .dashboard import TERMINAL_STATES, LiveRenderer, render_snapshot
from .exposition import to_openmetrics, validate_openmetrics
from .registry import TelemetryRegistry


def demo_registry(seed: int = 1967) -> TelemetryRegistry:
    """A registry filled by one deterministic tour of the system.

    Three legs exercise every instrument family: a drum-backed
    :class:`~repro.paging.pager.DemandPager` replay (fault-service
    cycles, resident gauge), a fast :func:`simulate_trace` replay
    (replay counters, fault-gap sketch, kernel span), and a three-tenant
    :func:`simulate_shared` run (pool spans, serve counters).  Cycle and
    count instruments are pure functions of ``seed``; only ``*_seconds``
    wall timings vary run to run.
    """
    from repro.addressing.page_table import PageTable
    from repro.clock import Clock
    from repro.memory.backing import BackingStore
    from repro.memory.hierarchy import StorageLevel
    from repro.paging.frame import FrameTable
    from repro.paging.pager import DemandPager
    from repro.paging.replacement import make_policy
    from repro.paging.simulate import simulate_trace
    from repro.serve.replay import seeded_writes, simulate_shared, \
        tenant_traces
    from repro.workload.reference import phased_trace

    telemetry = TelemetryRegistry()
    page_size = 64
    pages, frames = 48, 12
    clock = Clock()
    pager = DemandPager(
        page_table=PageTable(page_size=page_size, pages=pages),
        frames=FrameTable(frames),
        backing=BackingStore(
            StorageLevel("drum", capacity=2 * pages * page_size,
                         access_time=2_000, transfer_rate=0.25),
            clock,
        ),
        policy=make_policy("lru"),
        clock=clock,
        telemetry=telemetry,
    )
    for page in phased_trace(pages=pages, length=4_000, working_set=8,
                             phase_length=250, locality=0.95, seed=seed):
        pager.access_page(page)

    simulate_trace(
        phased_trace(pages=128, length=8_000, working_set=24,
                     phase_length=400, locality=0.95, seed=seed + 1),
        32,
        make_policy("lru"),
        record_positions=True,
        telemetry=telemetry,
    )

    traces, shared = tenant_traces(3, pages=32, length=1_500,
                                   seed=seed + 2)
    simulate_shared(
        traces,
        8,
        lambda _index: make_policy("lru"),
        shared_pages=shared,
        writes=[seeded_writes(len(trace), seed=seed + 3 + index)
                for index, trace in enumerate(traces)],
        telemetry=telemetry,
    )
    return telemetry


def load_snapshot(path: str) -> tuple[dict, dict]:
    """``(snapshot, header)`` from a snapshot or heartbeat JSON file.

    A heartbeat file (a campaign's latest progress record) carries
    the registry snapshot under ``telemetry`` plus progress fields,
    which come back as the header; a bare snapshot has no header.
    """
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if "telemetry" in data:
        header = {key: value for key, value in data.items()
                  if key != "telemetry" and not isinstance(value, (dict, list))}
        return data["telemetry"], header
    return data, {}


def _resolve_snapshot(options: argparse.Namespace) -> tuple[dict, dict]:
    if options.snapshot:
        return load_snapshot(options.snapshot)
    return demo_registry(seed=options.seed).snapshot(), {}


def build_top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro top",
        description="live telemetry dashboard (demo workload, or a "
                    "snapshot/heartbeat file)",
    )
    parser.add_argument("--snapshot", metavar="FILE",
                        help="render this snapshot or sweep heartbeat "
                             "file instead of the demo workload")
    parser.add_argument("--once", action="store_true",
                        help="render one frame and exit")
    parser.add_argument("--interval", type=float, default=1.0,
                        metavar="SECONDS",
                        help="refresh period when following "
                             "(default: %(default)s)")
    parser.add_argument("--iterations", type=int, default=0, metavar="N",
                        help="stop after N frames (default: until ^C)")
    parser.add_argument("--seed", type=int, default=1967,
                        help="demo workload seed (default: %(default)s)")
    return parser


def run_top(argv: list[str] | None = None, stream=None) -> int:
    options = build_top_parser().parse_args(argv)
    renderer = LiveRenderer(stream=stream)
    frames = 0
    try:
        while True:
            try:
                snapshot, header = _resolve_snapshot(options)
            except (OSError, ValueError, json.JSONDecodeError) as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            title = "telemetry (demo workload)" if not options.snapshot \
                else f"telemetry ({options.snapshot})"
            frame = render_snapshot(snapshot, title=title)
            state = str(header.get("state", "")) if header else ""
            if header:
                progress = "  ".join(f"{key}={value}"
                                     for key, value in sorted(header.items()))
                frame = progress + "\n\n" + frame
            if state in TERMINAL_STATES:
                frame += f"\n\ncampaign {state} — nothing further to follow"
            renderer.render(frame)
            frames += 1
            if options.once or (options.iterations
                                and frames >= options.iterations):
                return 0
            if not options.snapshot:
                # The demo registry is one finished run; nothing will
                # change between redraws, so don't pretend to follow it.
                return 0
            if state in TERMINAL_STATES:
                # The campaign wrote its terminal beat; the file will
                # never change again, so following it would spin on a
                # dead campaign forever.
                return 0
            time.sleep(options.interval)
    except KeyboardInterrupt:
        return 0


def build_export_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro metrics-export",
        description="emit a telemetry snapshot as OpenMetrics text",
    )
    parser.add_argument("--snapshot", metavar="FILE",
                        help="export this snapshot or heartbeat file "
                             "instead of the demo workload")
    parser.add_argument("--output", metavar="FILE", default="-",
                        help="destination ('-' = stdout, the default)")
    parser.add_argument("--seed", type=int, default=1967,
                        help="demo workload seed (default: %(default)s)")
    return parser


def run_metrics_export(argv: list[str] | None = None, stream=None) -> int:
    options = build_export_parser().parse_args(argv)
    try:
        snapshot, _ = _resolve_snapshot(options)
        text = to_openmetrics(snapshot)
        validate_openmetrics(text)   # never ship malformed exposition
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if options.output == "-":
        (stream if stream is not None else sys.stdout).write(text)
    else:
        with open(options.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


__all__ = [
    "build_export_parser",
    "build_top_parser",
    "demo_registry",
    "load_snapshot",
    "run_metrics_export",
    "run_top",
]
