"""Live rendering of telemetry: the ``top`` frame and ``sweep --live``.

Everything here renders *snapshots* — the plain dicts
:meth:`~repro.observe.telemetry.registry.TelemetryRegistry.snapshot`
produces — through the same :mod:`repro.metrics.report` table helpers
every other report uses, so the dashboard needs no terminal library and
degrades to plain text anywhere.

Two output disciplines, picked by :class:`LiveRenderer`:

- On a TTY, each frame home-and-clears the screen (ANSI ``ESC[H
  ESC[2J]``) and redraws — the classic ``top`` loop.
- Without a TTY (CI, a pipe, a log file) every frame is appended as
  plain text with a separator line, so the output stays a readable,
  greppable transcript.  The acceptance smokes run exactly this path.
"""

from __future__ import annotations

import sys
from typing import TextIO

from repro.metrics.report import format_table, kv_table, sparkline

from .sketch import LogHistogram

#: Percentile columns of the histogram table.
SUMMARY_QUANTILES = (0.50, 0.90, 0.99)

#: Heartbeat ``state`` values that mean the campaign is over.  The
#: sweep engine stamps one of these from its ``finally`` block
#: (``finished`` = ran to completion, failed shards included;
#: ``aborted`` = the coordinator died mid-campaign), and a follower
#: (``top --snapshot``) must stop polling when it sees one — a dead
#: campaign's heartbeat never changes again.
TERMINAL_STATES = ("finished", "aborted")


def histogram_rows(snapshot: dict) -> list[tuple]:
    """Summary rows for every histogram in a registry snapshot.

    ``(name, count, mean, p50, p90, p99, max, shape)`` — ``shape`` is a
    sparkline over the sketch's log-bucket counts, the distribution's
    silhouette in one table cell.
    """
    rows = []
    for name, record in snapshot.get("histograms", {}).items():
        sketch = LogHistogram.from_dict(record)
        if not sketch.count:
            rows.append((name, 0, 0.0, 0.0, 0.0, 0.0, 0.0, ""))
            continue
        counts = [count for _, count in sketch.bucket_counts()]
        rows.append((
            name,
            sketch.count,
            sketch.mean,
            *(sketch.quantile(q) for q in SUMMARY_QUANTILES),
            sketch.maximum,
            sparkline(counts, width=16),
        ))
    return rows


def render_snapshot(snapshot: dict, title: str = "telemetry") -> str:
    """One full dashboard frame for a registry snapshot."""
    sections = []
    scalars = [(name, value)
               for name, value in snapshot.get("counters", {}).items()]
    scalars += [(f"{name} (gauge)", value)
                for name, value in snapshot.get("gauges", {}).items()]
    if scalars:
        sections.append(kv_table(scalars, title=title))
    rows = histogram_rows(snapshot)
    if rows:
        sections.append(format_table(
            ("histogram", "count", "mean", "p50", "p90", "p99", "max",
             "shape"),
            rows,
            title="distributions" if scalars else title,
        ))
    if not sections:
        sections.append(f"{title}\n(no instruments registered)")
    return "\n\n".join(sections)


class LiveRenderer:
    """Frame output: ANSI redraw on a TTY, appended text otherwise."""

    CLEAR = "\x1b[H\x1b[2J"

    def __init__(self, stream: TextIO | None = None,
                 ansi: bool | None = None) -> None:
        self.stream = stream if stream is not None else sys.stdout
        if ansi is None:
            probe = getattr(self.stream, "isatty", None)
            ansi = bool(probe()) if probe is not None else False
        self.ansi = ansi
        self._frames = 0

    def render(self, frame: str) -> None:
        if self.ansi:
            self.stream.write(self.CLEAR + frame + "\n")
        else:
            if self._frames:
                self.stream.write("-" * 64 + "\n")
            self.stream.write(frame + "\n")
        self.stream.flush()
        self._frames += 1


class SweepLiveView:
    """In-flight sweep rendering, fed by ``run_sweep``'s progress hook.

    Each completed shard updates the view's running state — completed
    count, cumulative references, failure count, a fault-rate series —
    and redraws: a progress/throughput header, a fault-rate sparkline,
    and the latency distributions from the merged telemetry snapshots
    crossing the worker boundary.
    """

    def __init__(self, grid_name: str, renderer: LiveRenderer | None = None,
                 clock=None) -> None:
        import time as _time

        self.grid_name = grid_name
        self.renderer = renderer if renderer is not None else LiveRenderer()
        self.clock = clock if clock is not None else _time.perf_counter
        self.started = self.clock()
        self.references = 0
        self.failed = 0
        self.fault_rates: list[float] = []
        self.last_shard = ""
        from .registry import TelemetryRegistry

        self.telemetry = TelemetryRegistry()

    def update(self, done: int, total: int, record: dict) -> None:
        """The ``progress(done, total, record)`` callback."""
        if "error" in record:
            self.failed += 1
            self.last_shard = f"{record.get('shard', '?')} (FAILED)"
        else:
            self.last_shard = record.get("shard", "?")
            self.references += record.get("counters", {}).get(
                "replay.references", 0)
            self.fault_rates.append(record.get("fault_rate", 0.0))
            telemetry = record.get("telemetry")
            if telemetry:
                self.telemetry.merge_snapshot(telemetry)
        self.renderer.render(self.frame(done, total))

    def frame(self, done: int, total: int) -> str:
        elapsed = max(self.clock() - self.started, 1e-9)
        header = [
            ("sweep", self.grid_name),
            ("shards", f"{done}/{total}"),
            ("failed", self.failed),
            ("refs replayed", self.references),
            ("refs/s", round(self.references / elapsed)),
            ("last shard", self.last_shard),
        ]
        sections = [kv_table(header, title="sweep --live")]
        if self.fault_rates:
            sections.append(
                "fault rate  " + sparkline(self.fault_rates, width=48)
                + f"  (last {self.fault_rates[-1]:.4f})"
            )
        rows = histogram_rows(self.telemetry.snapshot())
        if rows:
            sections.append(format_table(
                ("histogram", "count", "mean", "p50", "p90", "p99", "max",
                 "shape"),
                rows,
                title="merged shard telemetry",
            ))
        return "\n\n".join(sections)


__all__ = [
    "SUMMARY_QUANTILES",
    "TERMINAL_STATES",
    "LiveRenderer",
    "SweepLiveView",
    "histogram_rows",
    "render_snapshot",
]
