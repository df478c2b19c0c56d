"""Structured observability: event tracing, run-wide counters, exporters.

The paper's quantitative claims are all measurements of internal events
— faults, placements, evictions, compactions, map lookups, advice.
This package makes those events first-class:

- :mod:`~repro.observe.events` — the typed event taxonomy (``Fault``,
  ``Place``, ``Evict``, ``Free``, ``Compact``, ``MapLookup``,
  ``Advice``) with a lossless JSON form.
- :mod:`~repro.observe.tracer` — :class:`Tracer` fans events out to
  pluggable sinks; :data:`NULL_TRACER` is the shared zero-cost disabled
  form every instrumented subsystem defaults to.
- :mod:`~repro.observe.sinks` — ring buffer, JSONL file, callback.
- :mod:`~repro.observe.counters` — one flat :class:`Counters` ledger,
  filled after a run by ``absorb_*`` adapters that fold every existing
  per-subsystem stats record (pager, allocator, TLB, space-time, replay
  result) into it; no simulator takes a ledger argument.
- :mod:`~repro.observe.export` — counters as aligned tables (via
  :mod:`repro.metrics.report`), JSON, and CSV; events as tables.
- :mod:`~repro.observe.cli` — ``python -m repro trace <workload>``:
  replay a workload with tracing on, write a JSONL trace, print the
  summary tables.
- :mod:`~repro.observe.analysis` — the analytics tier over the event
  stream: windowed time-series (fault rate, resident set, occupancy,
  cumulative space-time), fault→evict / place→free interval summaries,
  cross-run trace diffing, and the ``python -m repro analyze`` /
  ``trace-diff`` commands.
- :mod:`~repro.observe.telemetry` — the live-instrument tier: the
  exactly mergeable quantile sketch :class:`LogHistogram`, the
  :class:`TelemetryRegistry` of counters / gauges / histograms with
  :class:`Span` timing, OpenMetrics exposition, and the
  ``python -m repro top`` / ``metrics-export`` / ``sweep --live``
  dashboards.

Instrumented constructors (``tracer=`` keyword): the demand pager, the
segmented pager, the free-list allocator, compaction, the page table and
two-level mapper, and the multiprogramming simulator; the advised pager
emits through its wrapped pager's tracer.  The overhead contract and the
full taxonomy live in ``docs/OBSERVABILITY.md``.
"""

from repro.observe.analysis import (
    EventStream,
    TraceAnalytics,
    TraceAnalyzer,
    TraceDiff,
    analyze_events,
    diff_traces,
)
from repro.observe.counters import (
    Counters,
    absorb_allocator_counters,
    absorb_associative_memory,
    absorb_pager_stats,
    absorb_serve_stats,
    absorb_simulation_result,
    absorb_spacetime,
)
from repro.observe.events import (
    EVENT_TYPES,
    Advice,
    Clean,
    Compact,
    CoWBreak,
    DedupHit,
    Event,
    Evict,
    Fault,
    Free,
    MapLookup,
    Place,
    Share,
    event_from_dict,
)
from repro.observe.export import (
    counters_csv,
    counters_json,
    counters_table,
    events_table,
)
from repro.observe.sinks import (
    CallbackSink,
    JsonlSink,
    RingBufferSink,
    Sink,
    read_jsonl,
)
from repro.observe.telemetry import (
    NULL_TELEMETRY,
    LogHistogram,
    Span,
    TelemetryRegistry,
    as_telemetry,
    to_openmetrics,
)
from repro.observe.tracer import NULL_TRACER, Tracer, as_tracer

__all__ = [
    "Advice",
    "CallbackSink",
    "Clean",
    "CoWBreak",
    "Compact",
    "Counters",
    "DedupHit",
    "EVENT_TYPES",
    "Event",
    "EventStream",
    "Evict",
    "Fault",
    "Free",
    "JsonlSink",
    "LogHistogram",
    "MapLookup",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "Place",
    "RingBufferSink",
    "Share",
    "Sink",
    "Span",
    "TelemetryRegistry",
    "TraceAnalytics",
    "TraceAnalyzer",
    "TraceDiff",
    "Tracer",
    "analyze_events",
    "as_telemetry",
    "diff_traces",
    "absorb_allocator_counters",
    "absorb_associative_memory",
    "absorb_pager_stats",
    "absorb_serve_stats",
    "absorb_simulation_result",
    "absorb_spacetime",
    "as_tracer",
    "counters_csv",
    "counters_json",
    "counters_table",
    "event_from_dict",
    "events_table",
    "read_jsonl",
    "to_openmetrics",
]
