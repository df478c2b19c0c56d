"""Recorded reference traces.

Belady-style replacement studies were run on traces recorded from real
programs.  These helpers persist and reload traces as plain text (one
page reference per line, ``#`` comments allowed), so externally gathered
traces can drive the same experiments as the synthetic generators — and
experiment inputs can be archived alongside their results.

Large traces belong in the binary columnar format instead
(:mod:`repro.trace.format`, spec in ``docs/TRACE_FORMAT.md``): it
streams while writing, mmaps while reading, and feeds the vectorized
kernels zero-copy.  :func:`load_trace` opens either format, sniffing the
``RTRC`` magic, so a call site holding a path does not need to know
which format produced it; text stays the right choice for small,
hand-edited or diff-reviewed traces.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.trace.columnar import ColumnarTrace


def save_trace(path: str | Path, trace: Iterable[int], header: str = "") -> int:
    """Write a trace to ``path``; returns the number of references saved."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="ascii") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for page in trace:
            if not isinstance(page, int) or isinstance(page, bool):
                raise TypeError(f"trace entries must be ints, got {page!r}")
            if page < 0:
                raise ValueError(f"page numbers must be non-negative, got {page}")
            handle.write(f"{page}\n")
            count += 1
    return count


def load_trace(path: str | Path) -> ColumnarTrace:
    """Open a trace of either kind: binary columnar, or text.

    Binary files are detected by their magic and mmap'd through
    :func:`repro.trace.read_trace`; text files (one page id per line,
    the :func:`save_trace` format) load as a :class:`ColumnarTrace`
    with a single page column.
    """
    from repro.trace import ColumnarTrace, is_trace_file, read_trace

    path = Path(path)
    if is_trace_file(path):
        return read_trace(path)
    pages = array("q")
    with path.open("r", encoding="ascii") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                page = int(line)
            except ValueError:
                raise ValueError(
                    f"{path}:{line_number}: not a page number: {line!r}"
                ) from None
            if page < 0:
                raise ValueError(
                    f"{path}:{line_number}: negative page number {page}"
                )
            if page >= 1 << 63:
                raise ValueError(
                    f"{path}:{line_number}: page number {page} does not "
                    f"fit in 64 bits"
                )
            pages.append(page)
    return ColumnarTrace(pages)
