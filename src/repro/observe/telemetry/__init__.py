"""Bounded-memory live telemetry: sketches, spans, registry, exposition.

The always-on metrics tier (``docs/OBSERVABILITY.md`` — Telemetry).
Where :mod:`repro.observe.tracer` records every event and
:mod:`repro.observe.counters` totals a finished run, this package keeps
*distributions* live in O(buckets) memory while the run is still going,
merges them exactly across sweep worker boundaries, and exposes them as
dashboard frames or OpenMetrics text:

- :mod:`~repro.observe.telemetry.sketch` — the exactly mergeable
  quantile sketch, :class:`LogHistogram`.
- :mod:`~repro.observe.telemetry.spans` — :class:`Span` timing brackets
  over an injectable clock (wall seconds or simulated cycles).
- :mod:`~repro.observe.telemetry.registry` —
  :class:`TelemetryRegistry` counters/gauges/histograms with JSON
  snapshots, exact snapshot merging, and the zero-cost
  :data:`NULL_TELEMETRY`.
- :mod:`~repro.observe.telemetry.exposition` — OpenMetrics text
  rendering plus a strict validator.
- :mod:`~repro.observe.telemetry.dashboard` — the ``top`` frame,
  ``sweep --live`` view, and TTY/plain renderers.
- :mod:`~repro.observe.telemetry.cli` — ``python -m repro top`` /
  ``metrics-export``.
"""

from repro.observe.telemetry.dashboard import (
    LiveRenderer,
    SweepLiveView,
    histogram_rows,
    render_snapshot,
)
from repro.observe.telemetry.exposition import (
    metric_name,
    to_openmetrics,
    validate_openmetrics,
)
from repro.observe.telemetry.registry import (
    NULL_TELEMETRY,
    TelemetryRegistry,
    as_telemetry,
)
from repro.observe.telemetry.sketch import LogHistogram
from repro.observe.telemetry.spans import NULL_SPAN, Span

__all__ = [
    "LiveRenderer",
    "LogHistogram",
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "Span",
    "SweepLiveView",
    "TelemetryRegistry",
    "as_telemetry",
    "histogram_rows",
    "metric_name",
    "render_snapshot",
    "to_openmetrics",
    "validate_openmetrics",
]
