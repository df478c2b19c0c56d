"""Exporters: counters as tables, JSON, and CSV; event streams as tables.

The human-facing forms reuse :mod:`repro.metrics.report` — the same
aligned tables the benchmarks print — so the trace CLI, the examples and
the experiments share one output path.  The machine-facing forms are
plain JSON / CSV for offline analysis.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Sequence

from repro.metrics.report import format_table
from repro.observe.counters import Counters
from repro.observe.events import Event


def counters_table(counters: Counters, title: str = "counters") -> str:
    """The registry as an aligned two-column table."""
    rows = [(name, value) for name, value in counters.snapshot().items()]
    return format_table(["counter", "value"], rows, title=title)


def events_table(events: Sequence[Event], title: str = "events") -> str:
    """An event stream as an aligned table (kind, time, detail)."""
    rows = []
    for event in events:
        record = event.to_dict()
        detail = "  ".join(
            f"{key}={value}"
            for key, value in record.items()
            if key not in ("event", "time") and value not in (None, False, "")
        )
        rows.append((record["event"], record["time"], detail))
    return format_table(["event", "time", "detail"], rows, title=title)


def counters_json(
    counters: Counters, path: str | Path | None = None
) -> str:
    """The registry as a JSON document; optionally written to ``path``."""
    text = json.dumps(counters.snapshot(), indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def counters_csv(
    counters: Counters, path: str | Path | None = None
) -> str:
    """The registry as two-column CSV; optionally written to ``path``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["counter", "value"])
    for name, value in counters.snapshot().items():
        writer.writerow([name, value])
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


__all__ = [
    "counters_csv",
    "counters_json",
    "counters_table",
    "events_table",
]
