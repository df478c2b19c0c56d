"""Performance layer: batched kernels bit-identical to the reference paths.

The reproduction's quantitative experiments are driven by per-reference
replacement simulation (:mod:`repro.paging.simulate`), which dispatches
every page reference through the
:class:`~repro.paging.replacement.base.ReplacementPolicy` observer
interface and a :class:`~repro.paging.frame.FrameTable`.

This package provides drop-in fast paths for that loop:

- :mod:`repro.fastpath.replay` — whole-trace replay kernels for the
  FIFO, LRU, CLOCK and Belady-OPT policies that consume the trace in one
  tight loop over dict/array state instead of per-access dispatch.
  ``simulate_trace(..., fast=True)`` auto-selects them.
- :mod:`repro.fastpath.columnar` — vectorized (numpy) replay over
  column-backed traces (:class:`repro.trace.ColumnarTrace`, what every
  generator and loader returns): chunked candidate
  scans skip resident-hit spans in bulk, with per-policy state columns
  and a single composite-sort pass for the OPT next-use column.
  ``run_fast`` tries :func:`run_columnar` first and falls back to the
  list kernels (or the reference loop) when it declines — numpy
  missing, unsupported trace shape, or an eviction-dominated workload
  where chunk skipping cannot pay.

The contract (tested by ``tests/test_fastpath_equivalence.py``): every
fast path produces **bit-identical observable results** to the reference
loop — the same fault counts, fault positions and eviction sequences —
differing only in wall-clock time.

Observability rides the same contract: every tier's aggregate
``replay.*`` totals are read off the
:class:`~repro.paging.simulate.SimulationResult` it returns, after the
run, so a batched kernel and the reference loop report identical totals
(the differential tests in ``tests/test_observe_differential.py`` pin
the telemetry counters over 100 seeds).  Per-event *tracing*, by
contrast, inherently needs the per-access loop, so an enabled tracer
disables kernel dispatch for that call.
"""

from repro.fastpath.columnar import run_columnar
from repro.fastpath.replay import (
    FAST_KERNELS,
    replay_clock,
    replay_fifo,
    replay_lru,
    replay_opt,
    run_fast,
)

__all__ = [
    "FAST_KERNELS",
    "replay_clock",
    "replay_fifo",
    "replay_lru",
    "replay_opt",
    "run_columnar",
    "run_fast",
]
