"""Stream synthetic workloads straight to columnar trace files.

The workload generators in :mod:`repro.workload.reference` build whole
in-memory traces; fine at 10⁶ references, hopeless at 10⁸.  This module
consumes the *same* per-reference iterators (``iter_phased`` et al.) and
spools them to disk through :class:`repro.trace.format.TraceWriter` in
bounded chunks — peak memory is one chunk, and because generator and
writer share one reference stream, the file's contents are bit-identical
to the in-memory trace the same parameters produce (the streaming
differential tests assert exactly this).

Optional columns:

- ``write_fraction`` adds a write-flag column drawn from an independent
  derived RNG, so the page stream is unchanged by the presence of the
  flags.
- ``segment_pages`` adds a segment column by splitting each page id
  ``p`` into ``(p // segment_pages, p % segment_pages)`` — the
  two-level (segment, page) naming of the MULTICS/360-67 configuration,
  derived deterministically so flat and segmented views of one workload
  stay comparable.
"""

from __future__ import annotations

import random
from array import array
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator

from repro.trace.format import TraceWriter
from repro.workload.reference import (
    iter_cyclic,
    iter_phased,
    iter_random,
    iter_sequential,
    iter_zipf,
)

#: References buffered per append (8 MB of page ids).
DEFAULT_CHUNK_REFS = 1 << 20

#: kind name -> (iterator factory, accepted keyword parameters).
GENERATOR_KINDS: dict[str, Callable[..., Iterator[int]]] = {
    "sequential": iter_sequential,
    "cyclic": iter_cyclic,
    "random": iter_random,
    "zipf": iter_zipf,
    "phased": iter_phased,
}


def _write_rng(seed: int) -> random.Random:
    """An independent stream for write flags (page stream untouched)."""
    return random.Random(f"{seed}/writes")   # str seeds hash stably


def stream_trace(
    path: str | Path,
    kind: str,
    *,
    chunk_refs: int = DEFAULT_CHUNK_REFS,
    write_fraction: float | None = None,
    segment_pages: int | None = None,
    **params,
) -> Path:
    """Generate a ``kind`` workload directly into trace file ``path``.

    ``params`` are the keyword arguments of the matching generator
    (``pages``, ``length``, ``seed``, ``working_set``, ...).  Returns
    the path written.  Raises ``ValueError`` for an unknown kind or bad
    generator parameters, removing any partial file.
    """
    try:
        factory = GENERATOR_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(GENERATOR_KINDS))
        raise ValueError(
            f"unknown trace kind {kind!r}; choose from {known}"
        ) from None
    if chunk_refs <= 0:
        raise ValueError(f"chunk_refs must be positive, got {chunk_refs}")
    if write_fraction is not None and not 0.0 <= write_fraction <= 1.0:
        raise ValueError("write_fraction must be a probability")
    if segment_pages is not None and segment_pages <= 0:
        raise ValueError("segment_pages must be positive")

    stream = factory(**params)
    flag_rng = (
        _write_rng(params.get("seed", 0)) if write_fraction is not None else None
    )
    with TraceWriter(
        path,
        writes=write_fraction is not None,
        segments=segment_pages is not None,
    ) as writer:
        exhausted = False
        while not exhausted:
            chunk = array("q", islice(stream, chunk_refs))
            if not chunk:
                break
            exhausted = len(chunk) < chunk_refs
            writes = None
            if flag_rng is not None:
                writes = array("B", (
                    1 if flag_rng.random() < write_fraction else 0
                    for _ in range(len(chunk))
                ))
            segments = None
            if segment_pages is not None:
                segments = array("q", (p // segment_pages for p in chunk))
                chunk = array("q", (p % segment_pages for p in chunk))
            writer.append(chunk, writes=writes, segments=segments)
    return Path(path)


def generate_trace(
    kind: str,
    *,
    write_fraction: float | None = None,
    segment_pages: int | None = None,
    **params,
):
    """The in-memory counterpart of :func:`stream_trace`.

    Returns a :class:`repro.trace.ColumnarTrace` with the same columns
    ``stream_trace`` would have written — used by the differential tests
    to pin the two paths together, and handy for quick experiments.
    """
    from repro.trace.columnar import ColumnarTrace

    try:
        factory = GENERATOR_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(GENERATOR_KINDS))
        raise ValueError(
            f"unknown trace kind {kind!r}; choose from {known}"
        ) from None
    pages = array("q", factory(**params))
    writes = None
    if write_fraction is not None:
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be a probability")
        flag_rng = _write_rng(params.get("seed", 0))
        writes = array("B", (
            1 if flag_rng.random() < write_fraction else 0
            for _ in range(len(pages))
        ))
    segments = None
    if segment_pages is not None:
        if segment_pages <= 0:
            raise ValueError("segment_pages must be positive")
        segments = array("q", (p // segment_pages for p in pages))
        pages = array("q", (p % segment_pages for p in pages))
    return ColumnarTrace(pages, writes=writes, segments=segments)


__all__ = ["DEFAULT_CHUNK_REFS", "GENERATOR_KINDS", "generate_trace",
           "stream_trace"]
