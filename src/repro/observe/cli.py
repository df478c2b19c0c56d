"""``python -m repro trace`` — replay a workload with tracing on.

Builds a demand pager (page table + TLB + frame pool + drum-backed
store), attaches a tracer whose sinks are a JSONL file (the full event
stream, for offline analysis) and a ring buffer (the tail, for the
printed report), replays the chosen workload, and prints the run's
counters and final events as :mod:`repro.metrics.report` tables — the
same output path the examples and benches use.

Workloads are the :mod:`repro.workload` generators by name (``phased``,
``sequential``, ``cyclic``, ``random``, ``zipf``, ``matrix``,
``overlay``) or a path to a trace file of either format, text or
binary columnar, opened by :func:`repro.workload.load_trace`.

Example::

    python -m repro trace phased --length 20000 --frames 32 \\
        --pages 256 --policy lru --output trace.jsonl
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.metrics.report import kv_table

WORKLOADS = (
    "phased", "sequential", "cyclic", "random", "zipf", "matrix", "overlay",
)

#: Every 16th reference writes, so dirty pages and write-backs appear in
#: the trace without a separate write-pattern knob.
WRITE_STRIDE = 16


def make_workload(name: str, length: int, pages: int, seed: int):
    """Resolve a workload name (or saved-trace path) to a reference string."""
    from repro.workload import (
        cyclic_trace,
        load_trace,
        matrix_traversal_trace,
        overlay_phases_trace,
        phased_trace,
        random_trace,
        sequential_trace,
        zipf_trace,
    )

    if name == "phased":
        return phased_trace(
            pages=pages, length=length, working_set=max(2, pages // 8),
            phase_length=max(100, length // 20), seed=seed,
        )
    if name == "sequential":
        sweeps = -(-length // pages)
        return sequential_trace(pages, sweeps=sweeps)[:length]
    if name == "cyclic":
        return cyclic_trace(min(pages, length), length)
    if name == "random":
        return random_trace(pages, length, seed=seed)
    if name == "zipf":
        return zipf_trace(pages, length, seed=seed)
    if name == "matrix":
        rows = max(2, int(length ** 0.5))
        return matrix_traversal_trace(rows, rows, words_per_element=64,
                                      page_size=512, order="col")
    if name == "overlay":
        phases = max(2, pages // 8)
        return overlay_phases_trace(
            phases=phases, pages_per_phase=7,
            references_per_phase=max(1, length // phases), seed=seed,
        )
    path = Path(name)
    if path.exists():
        trace = load_trace(path)
        try:
            return trace.as_list()
        finally:
            trace.close()   # a binary trace file stays mapped until closed
    raise SystemExit(
        f"unknown workload {name!r}: expected one of {', '.join(WORKLOADS)} "
        f"or a path to a saved trace"
    )


def _build_traced_pager(pages: int, frames: int, page_size: int,
                        policy_name: str, tlb_entries: int, tracer):
    """A demand pager over a drum-backed store, fully instrumented."""
    from repro.addressing.associative import AssociativeMemory
    from repro.addressing.page_table import PageTable
    from repro.clock import Clock
    from repro.memory.backing import BackingStore
    from repro.memory.hierarchy import StorageLevel
    from repro.paging.frame import FrameTable
    from repro.paging.pager import DemandPager
    from repro.paging.replacement import make_policy

    clock = Clock()
    tlb = AssociativeMemory(tlb_entries) if tlb_entries else None
    page_table = PageTable(
        page_size=page_size, pages=pages, associative_memory=tlb,
        tracer=tracer,
    )
    drum = StorageLevel(
        "drum", capacity=2 * pages * page_size, access_time=2_000,
        transfer_rate=0.25,
    )
    pager = DemandPager(
        page_table=page_table,
        frames=FrameTable(frames),
        backing=BackingStore(drum, clock),
        policy=make_policy(policy_name),
        clock=clock,
        tracer=tracer,
    )
    return pager


def run_trace(args: argparse.Namespace, stream=sys.stdout) -> int:
    from repro.observe.counters import (
        Counters,
        absorb_associative_memory,
        absorb_pager_stats,
    )
    from repro.observe.export import counters_table, events_table
    from repro.observe.sinks import CallbackSink, JsonlSink, RingBufferSink
    from repro.observe.tracer import Tracer

    trace = make_workload(args.workload, args.length, args.pages, args.seed)
    references = list(trace)
    pages = max(references) + 1 if references else 1

    counters = Counters()
    ring = RingBufferSink(args.tail)
    sinks = [
        ring,
        CallbackSink(lambda event: counters.increment(f"events.{event.kind}")),
    ]
    jsonl: JsonlSink | None = None
    if args.output is not None:
        jsonl = JsonlSink(args.output)
        sinks.append(jsonl)
    tracer = Tracer(sinks)

    pager = _build_traced_pager(
        pages=pages, frames=args.frames, page_size=args.page_size,
        policy_name=args.policy, tlb_entries=args.tlb, tracer=tracer,
    )
    with counters.timer("replay"):
        for index, page in enumerate(references):
            pager.access_page(int(page), write=(index % WRITE_STRIDE == 0))
    if jsonl is not None:
        jsonl.close()

    absorb_pager_stats(counters, pager.stats)
    if pager.page_table.tlb is not None:
        absorb_associative_memory(counters, pager.page_table.tlb)
    counters.record("clock.cycles", pager.clock.now)
    counters.record("spacetime.frame_cycles", pager.residency_cycles())

    stats = pager.stats
    print(kv_table([
        ("workload", args.workload),
        ("references", len(references)),
        ("pages", pages),
        ("frames", args.frames),
        ("page size", args.page_size),
        ("policy", args.policy),
        ("seed", args.seed),
        ("fault rate", stats.fault_rate),
        ("events emitted", tracer.emitted),
        ("trace file", str(args.output) if args.output else "(not written)"),
    ], title="trace replay"), file=stream)
    print(file=stream)
    print(counters_table(counters, title="run counters"), file=stream)
    print(file=stream)
    print(
        events_table(ring.events(), title=f"last {len(ring)} events"),
        file=stream,
    )
    if args.export_json:
        from repro.observe.export import counters_json

        counters_json(counters, args.export_json)
        print(f"wrote {args.export_json}", file=stream)
    if args.export_csv:
        from repro.observe.export import counters_csv

        counters_csv(counters, args.export_csv)
        print(f"wrote {args.export_csv}", file=stream)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "workload",
        help=f"one of {', '.join(WORKLOADS)}, or a saved-trace path",
    )
    parser.add_argument("--length", type=int, default=20_000,
                        help="references to generate (default 20000)")
    parser.add_argument("--pages", type=int, default=256,
                        help="name-space pages for random workloads")
    parser.add_argument("--frames", type=int, default=32,
                        help="page frames of working storage")
    parser.add_argument("--page-size", type=int, default=512,
                        help="words per page (power of two)")
    parser.add_argument("--policy", default="lru",
                        help="replacement policy (see `python -m repro policies`)")
    parser.add_argument("--seed", type=int, default=1967)
    parser.add_argument("--tlb", type=int, default=8,
                        help="associative-memory entries (0 disables)")
    parser.add_argument("--tail", type=int, default=24,
                        help="ring-buffer size = events shown in the report")
    parser.add_argument("--output", "-o", type=Path, default=Path("trace.jsonl"),
                        help="JSONL event-stream file (default trace.jsonl)")
    parser.add_argument("--no-write", dest="output", action="store_const",
                        const=None, help="skip writing the JSONL trace")
    parser.add_argument("--export-json", type=Path, default=None,
                        help="also write the counters registry as JSON")
    parser.add_argument("--export-csv", type=Path, default=None,
                        help="also write the counters registry as CSV")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.length <= 0 or args.pages <= 0 or args.frames <= 0:
        raise SystemExit("--length, --pages and --frames must be positive")
    return run_trace(args)


if __name__ == "__main__":
    raise SystemExit(main())
