"""Measurement helpers shared by experiments and examples.

- :class:`~repro.metrics.series.TimeSeries` — sampled metric traces
  (utilization over time, fragmentation over a request stream).
- :mod:`~repro.metrics.report` — aligned text tables
  (:func:`~repro.metrics.report.format_table`, the two-column
  :func:`~repro.metrics.report.kv_table`) and simple ASCII bar charts
  for printing experiment results the way the benches do.

Event-level measurement lives next door in :mod:`repro.observe`: its
exporters render traced events and run-wide counters through these same
table helpers, so CLI reports, examples, and experiment output all line
up identically.  Distributions (request sizes, fault gaps, waits) are
recorded in :class:`repro.observe.telemetry.LogHistogram` sketches.
"""

from repro.metrics.report import ascii_bar, format_table, kv_table
from repro.metrics.series import TimeSeries

__all__ = [
    "TimeSeries",
    "ascii_bar",
    "format_table",
    "kv_table",
]
