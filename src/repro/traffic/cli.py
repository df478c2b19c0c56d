"""``python -m repro traffic`` — run an open-arrival traffic campaign.

The offered-load axis is the experiment: each ``--loads`` value runs
one point per seed, and the report's per-load table shows admission
and shedding counts, steady-state throughput, and the p50/p99 queue
and fault waits from the merged LogHistograms — the open system's
tail under load.

``--live`` redraws a top-style view as points land; ``--resume`` skips
points already in the results file; ``--compare`` re-runs every
recorded point in memory and checks that its canonical lines (see
:func:`repro.sweep.checkpoint.canonical_lines`) equal the recorded
ones (the reproducibility gate CI keys on).  Exit status is 1 when any
point failed or a comparison mismatched, 2 for bad arguments.
"""

from __future__ import annotations

import argparse
import sys

from repro.metrics.report import format_table, kv_table
from repro.sweep.checkpoint import canonical_lines
from repro.sweep.cli import default_workers
from repro.sweep.engine import read_results
from repro.traffic.arrivals import ARRIVAL_PROCESSES
from repro.traffic.engine import DEFAULT_LOADS, build_points, run_campaign
from repro.traffic.queueing import DRAIN_POLICIES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro traffic",
        description="run an open-arrival admission/quota traffic campaign",
    )
    parser.add_argument("--quick", action="store_true",
                        help="small pool and short horizon (CI smoke size)")
    parser.add_argument("--loads", nargs="+", type=float, default=None,
                        metavar="X",
                        help="offered-load multipliers of the calibrated "
                             f"capacity (default: {DEFAULT_LOADS})")
    parser.add_argument("--arrivals", default="poisson",
                        choices=sorted(ARRIVAL_PROCESSES),
                        help="arrival process shape (default: %(default)s)")
    parser.add_argument("--policy", default="fcfs",
                        choices=sorted(DRAIN_POLICIES),
                        help="queue-drain policy (default: %(default)s)")
    parser.add_argument("--replacement", default="lru", metavar="POLICY",
                        help="per-session replacement policy "
                             "(default: %(default)s)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes (default: cores, max 8)")
    parser.add_argument("--results", default="TRAFFIC_results.jsonl",
                        metavar="FILE",
                        help="append-only results file "
                             "(default: %(default)s)")
    parser.add_argument("--resume", action="store_true",
                        help="skip points already present in the "
                             "results file")
    parser.add_argument("--compare", action="store_true",
                        help="re-run recorded points in memory and verify "
                             "bit-identical deterministic fields")
    parser.add_argument("--live", action="store_true",
                        help="redraw a live dashboard as points land")
    parser.add_argument("--no-report", action="store_true",
                        help="suppress the per-load tables")
    parser.add_argument("--seeds", nargs="+", type=int, default=(0,),
                        metavar="SEED")
    parser.add_argument("--base-seed", type=int, default=1967, metavar="N")
    parser.add_argument("--name", default="traffic",
                        help="campaign name (keys resume matching)")
    parser.add_argument("--trace-file", default=None, metavar="RTRC",
                        help="replay windows of a columnar .rtrc trace "
                             "instead of generated phased traces")
    parser.add_argument("--pool-frames", type=int, default=None, metavar="N",
                        help="override the pool size for every point")
    parser.add_argument("--horizon", type=int, default=None, metavar="TICKS",
                        help="override the arrival horizon")
    return parser


class TrafficLiveView:
    """In-flight campaign rendering, fed by ``run_campaign``'s hook."""

    def __init__(self, name: str, renderer=None) -> None:
        from repro.observe.telemetry.dashboard import LiveRenderer

        self.name = name
        self.renderer = renderer if renderer is not None else LiveRenderer()
        self.failed = 0
        self.admitted = 0
        self.shed = 0
        self.completed = 0
        self.refs = 0
        self.last_point = ""

    def update(self, done: int, total: int, record: dict) -> None:
        """The ``progress(done, total, record)`` callback."""
        if "error" in record:
            self.failed += 1
            self.last_point = f"{record.get('point', '?')} (FAILED)"
        else:
            self.last_point = record.get("point", "?")
            self.admitted += record.get("admitted", 0)
            self.shed += record.get("shed", 0)
            self.completed += record.get("completed", 0)
            self.refs += record.get("refs", 0)
        lines = [
            f"traffic: {self.name}   point {done}/{total}   "
            f"failed {self.failed}",
            f"  admitted {self.admitted}   shed {self.shed}   "
            f"completed {self.completed}   refs {self.refs}",
            f"  last: {self.last_point}",
        ]
        self.renderer.render("\n".join(lines) + "\n")


LOAD_HEADERS = (
    "offered", "arrivals", "admitted", "shed", "completed", "refs",
    "refs/s", "qwait p50", "qwait p99", "fwait p50", "fwait p99",
)


def _load_rows(records: list[dict]) -> list[tuple]:
    rows = []
    for record in sorted(
        records, key=lambda r: (r.get("offered", 0), r.get("seed", 0))
    ):
        refs_per_s = record.get("refs_per_s")
        rows.append((
            record.get("offered"),
            record.get("arrivals"),
            record.get("admitted"),
            record.get("shed"),
            record.get("completed"),
            record.get("refs"),
            refs_per_s if refs_per_s is not None else "-",
            record.get("queue_wait_p50"),
            record.get("queue_wait_p99"),
            record.get("fault_wait_p50"),
            record.get("fault_wait_p99"),
        ))
    return rows


def _print_report(result, name: str) -> None:
    summary = [
        ("campaign", name),
        ("points", len(result.records)),
        ("executed", result.executed),
        ("skipped (resumed)", result.skipped),
        ("failed", len(result.failures)),
        ("workers", result.workers),
        ("wall s", result.wall_s),
    ]
    if result.corrupt_lines:
        summary.append(("corrupt result lines", result.corrupt_lines))
    print(kv_table(summary, title=f"traffic: {name}"))
    if result.corrupt_lines:
        print(f"warning: skipped {result.corrupt_lines} unreadable "
              "line(s) in the results file — it may be damaged")

    if result.records:
        print()
        print(format_table(
            LOAD_HEADERS, _load_rows(result.records),
            title="offered-load axis",
        ))

    from repro.observe.telemetry.dashboard import histogram_rows

    rows = histogram_rows(result.telemetry.snapshot())
    if rows:
        print()
        print(format_table(
            ("sketch", "count", "mean", "p50", "p90", "p99", "max",
             "shape"),
            rows, title="merged wait distributions",
        ))


def main(argv: list[str] | None = None) -> int:
    options = build_parser().parse_args(argv)
    if options.workers is not None and options.workers < 0:
        print(f"error: workers must be positive, got {options.workers}",
              file=sys.stderr)
        return 2
    overrides = {}
    if options.pool_frames is not None:
        overrides["pool_frames"] = options.pool_frames
    if options.horizon is not None:
        overrides["horizon"] = options.horizon
    try:
        points = build_points(
            loads=tuple(options.loads) if options.loads else DEFAULT_LOADS,
            arrivals=options.arrivals,
            policy=options.policy,
            replacement=options.replacement,
            seeds=tuple(options.seeds),
            quick=options.quick,
            base_seed=options.base_seed,
            name=options.name,
            trace_file=options.trace_file,
            **overrides,
        )
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    workers = options.workers if options.workers else default_workers()

    if options.compare:
        return _compare(points, options)

    progress = TrafficLiveView(options.name).update if options.live else None
    result = run_campaign(
        points,
        workers=workers,
        results_path=options.results,
        resume=options.resume,
        progress=progress,
    )

    if options.no_report:
        print(f"traffic: {options.name}  executed {result.executed}  "
              f"skipped {result.skipped}  failed {len(result.failures)}")
    else:
        _print_report(result, options.name)
        print(f"\nexecuted {result.executed}  skipped {result.skipped}  "
              f"failed {len(result.failures)}")
    for failure in result.failures:
        print(f"FAILED {failure['point']}: {failure['error']}",
              file=sys.stderr)
    return 0 if result.ok else 1


def _compare(points: list[dict], options: argparse.Namespace) -> int:
    """The reproducibility gate: fresh in-memory run vs. the record."""
    recorded, corrupt = read_results(
        options.results, options.name, key="point", name_field="campaign",
    )
    if corrupt:
        print(f"warning: {corrupt} unreadable line(s) in {options.results}",
              file=sys.stderr)
    if not recorded:
        print(f"error: no recorded points for campaign {options.name!r} "
              f"in {options.results}", file=sys.stderr)
        return 2
    recorded_ids = {record["point"] for record in recorded}
    targets = [spec for spec in points if spec["point"] in recorded_ids]
    if not targets:
        print("error: none of the requested points are recorded; "
              "run the same flags without --compare first",
              file=sys.stderr)
        return 2
    fresh = run_campaign(
        targets, workers=options.workers or default_workers(),
        results_path=None,
    )
    if fresh.failures:
        for failure in fresh.failures:
            print(f"FAILED {failure['point']}: {failure['error']}",
                  file=sys.stderr)
        return 1
    wanted = {spec["point"] for spec in targets}
    expected = canonical_lines(
        [record for record in recorded if record["point"] in wanted],
        key="point",
    )
    actual = canonical_lines(fresh.records, key="point")
    mismatched = [pid for pid, mine, theirs
                  in zip(sorted(wanted), actual, expected) if mine != theirs]
    if mismatched:
        print(f"MISMATCH: {len(mismatched)} of {len(targets)} point(s) "
              "did not reproduce:", file=sys.stderr)
        for pid in mismatched:
            print(f"  {pid}", file=sys.stderr)
        return 1
    print(f"compare: {len(targets)} point(s) reproduced bit-identically "
          f"(measured-time fields excluded)")
    return 0


__all__ = ["TrafficLiveView", "build_parser", "main"]
