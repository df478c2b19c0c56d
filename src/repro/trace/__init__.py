"""Columnar reference traces: struct-of-arrays containers and files.

The trace tier decouples *what a reference string is* from *how it is
stored*:

- :class:`~repro.trace.columnar.ColumnarTrace` — struct-of-arrays
  columns (page id, optional write flag, optional segment id) that stay
  sequence-compatible with the list traces the reference loops consume.
  It is the one in-memory reference string: every workload generator,
  :func:`generate_trace`, :func:`read_trace` and
  :func:`repro.workload.load_trace` return one.
- :mod:`~repro.trace.format` — a versioned binary on-disk format with a
  streaming writer and an mmap'd zero-copy reader (spec in
  ``docs/TRACE_FORMAT.md``).
- :mod:`~repro.trace.generate` — the workload generators, streamed to
  disk in bounded chunks, bit-identical to their in-memory forms.

``simulate_trace(fast=True)`` detects column-backed traces and routes
them to the vectorized kernels in :mod:`repro.fastpath.columnar`.
"""

from repro.trace.columnar import ColumnarTrace
from repro.trace.format import (
    TraceFormatError,
    TraceWriter,
    is_trace_file,
    read_trace,
    write_trace,
)
from repro.trace.generate import generate_trace, stream_trace

__all__ = [
    "ColumnarTrace",
    "TraceFormatError",
    "TraceWriter",
    "generate_trace",
    "is_trace_file",
    "read_trace",
    "stream_trace",
    "write_trace",
]
