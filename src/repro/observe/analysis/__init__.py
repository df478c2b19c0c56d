"""Trace analytics: derived time-series, intervals, and trace diffing.

PR 2 made the paper's events first-class; this package makes the
*derived* quantities — the ones the experiments actually plot —
first-class too:

- :mod:`~repro.observe.analysis.timeseries` — :class:`TraceAnalyzer`,
  a streaming engine (usable directly as a tracer sink) deriving
  windowed fault rate, resident-set size, variable-unit occupancy and
  fragmentation, and the cumulative space-time product per program.
- :mod:`~repro.observe.analysis.intervals` — ``fault``→``evict``
  residency spans and sized-``place``→``free`` block lifetimes, with
  nearest-rank percentile summaries.
- :mod:`~repro.observe.analysis.diff` — :func:`diff_traces` aligns two
  traces and reports the divergence point plus per-kind count deltas.
- :mod:`~repro.observe.analysis.stream` — :class:`EventStream`, the
  tolerant JSONL reader that counts (rather than dies on) corrupt or
  truncated lines.
- :mod:`~repro.observe.analysis.cli` — ``python -m repro analyze`` and
  ``python -m repro trace-diff``.

The differential contract: for a traced
:func:`~repro.paging.simulate.simulate_trace` run, the ``faults``
series sums to the run's ``result.faults`` (and the ``evict`` events
to ``result.evictions``), and the ``spacetime`` series endpoint equals
an independently integrated :class:`~repro.sim.spacetime.SpaceTimeAccount`
— pinned by ``tests/test_analysis_differential.py`` across seeds.
"""

from repro.observe.analysis.diff import TraceDiff, diff_traces
from repro.observe.analysis.intervals import (
    IntervalSummary,
    Span,
    percentile,
    summarize_spans,
)
from repro.observe.analysis.stream import EventStream
from repro.observe.analysis.timeseries import (
    RUN,
    TraceAnalytics,
    TraceAnalyzer,
    analyze_events,
    pick_window,
)

__all__ = [
    "EventStream",
    "IntervalSummary",
    "RUN",
    "Span",
    "TraceAnalytics",
    "TraceAnalyzer",
    "TraceDiff",
    "analyze_events",
    "diff_traces",
    "percentile",
    "pick_window",
    "summarize_spans",
]
