"""``python -m repro trace-gen`` — stream a workload to a trace file.

Writes a binary columnar trace (see ``docs/TRACE_FORMAT.md``) without
materializing the trace in memory, so 100M-reference files are a matter
of patience, not RAM::

    python -m repro trace-gen phased --pages 512 --length 10000000 \\
        --output big.rtrc

``read_trace`` mmaps it back for ``simulate_trace``, and ``python -m
repro trace big.rtrc`` or ``traffic --trace-file big.rtrc`` replays it.

The generator parameters mirror :mod:`repro.workload.reference`; the
``--segment-pages`` and ``--write-fraction`` options add the optional
segment and write columns.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.trace.format import HEADER_SIZE, read_trace
from repro.trace.generate import GENERATOR_KINDS, stream_trace


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace-gen",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "kind", choices=sorted(GENERATOR_KINDS),
        help="workload family to generate",
    )
    parser.add_argument("--output", "-o", type=Path, required=True,
                        help="trace file to write (.rtrc)")
    parser.add_argument("--pages", type=int, default=256,
                        help="page population (default 256)")
    parser.add_argument("--length", type=int, default=100_000,
                        help="references to generate (default 100000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    parser.add_argument("--sweeps", type=int, default=1,
                        help="sequential: number of sweeps")
    parser.add_argument("--skew", type=float, default=1.0,
                        help="zipf: skew exponent (default 1.0)")
    parser.add_argument("--working-set", type=int, default=4,
                        help="phased: working-set size (default 4)")
    parser.add_argument("--phase-length", type=int, default=100,
                        help="phased: references per phase (default 100)")
    parser.add_argument("--locality", type=float, default=0.95,
                        help="phased: in-set hit probability (default 0.95)")
    parser.add_argument("--write-fraction", type=float, default=None,
                        help="add a write-flag column with this write rate")
    parser.add_argument("--segment-pages", type=int, default=None,
                        help="add a segment column: pages per segment")
    parser.add_argument("--chunk-refs", type=int, default=1 << 20,
                        help="references buffered per disk append")
    args = parser.parse_args(argv)

    params: dict = {"seed": args.seed}
    if args.kind == "sequential":
        params = {"pages": args.pages, "sweeps": args.sweeps}
    elif args.kind == "cyclic":
        params = {"pages": args.pages, "length": args.length}
    elif args.kind == "random":
        params = {"pages": args.pages, "length": args.length,
                  "seed": args.seed}
    elif args.kind == "zipf":
        params = {"pages": args.pages, "length": args.length,
                  "skew": args.skew, "seed": args.seed}
    else:   # phased
        params = {
            "pages": args.pages, "length": args.length,
            "working_set": args.working_set,
            "phase_length": args.phase_length,
            "locality": args.locality, "seed": args.seed,
        }

    started = time.perf_counter()
    try:
        path = stream_trace(
            args.output, args.kind,
            chunk_refs=args.chunk_refs,
            write_fraction=args.write_fraction,
            segment_pages=args.segment_pages,
            **params,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    trace = read_trace(path, use_mmap=False) if path.stat().st_size <= (
        HEADER_SIZE + 8 * 1_000_000
    ) else read_trace(path)
    try:
        count = len(trace)
        page_span, segment_span = trace.spans()
        columns = ["pages"]
        if trace.has_segments:
            columns.insert(0, "segments")
        if trace.has_writes:
            columns.append("writes")
    finally:
        trace.close()
    size = path.stat().st_size
    print(
        f"wrote {path} — {count:,} references, columns {'+'.join(columns)}, "
        f"page span {page_span:,}"
        + (f", segment span {segment_span:,}" if segment_span else "")
        + f", {size:,} bytes, {elapsed:.1f}s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
