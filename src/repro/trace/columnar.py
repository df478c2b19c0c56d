"""Struct-of-arrays reference traces.

A :class:`ColumnarTrace` keeps a reference string as parallel machine
columns — page ids, optional per-reference write flags, optional segment
ids — instead of a Python list of boxed objects.  The page and segment
columns are signed 64-bit integers, the write column is one byte per
reference, so a 100M-reference trace costs ~800 MB (or ~1.7 GB with all
columns) instead of the several-GB list-of-tuples equivalent, and the
columns can be handed zero-copy to :mod:`repro.fastpath.columnar`'s
vectorized kernels, to :func:`repro.trace.format.write_trace`, or to
numpy via the buffer protocol.

The container stays *sequence-compatible* with the list traces the rest
of the reproduction uses: ``len``, indexing, slicing, iteration, and
equality all behave like the equivalent list of page ids — or, when a
segment column is present, like a list of ``(segment, page)`` pairs —
so ``simulate_trace`` and every policy accept a columnar trace
unchanged.  Columns may be ``array('q')`` objects or memoryviews over an
mmap'd trace file (see :mod:`repro.trace.format`); either way the
element views below never materialize the whole trace.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from typing import Iterable, Iterator

#: Upper bound we accept for ``span`` scans on huge traces before the
#: cached max is computed (no functional effect; documentation only).
_PAGE_COLUMN_TYPECODE = "q"


def _as_page_column(values) -> "array | memoryview":
    """Coerce ``values`` to an int64 column, sharing memory when possible."""
    if isinstance(values, ColumnarTrace) and isinstance(values.pages, array):
        return values.pages
    if isinstance(values, array) and values.typecode == _PAGE_COLUMN_TYPECODE:
        return values
    if isinstance(values, memoryview):
        return values if values.format == _PAGE_COLUMN_TYPECODE else array(
            _PAGE_COLUMN_TYPECODE, values.tolist()
        )
    return array(_PAGE_COLUMN_TYPECODE, values)


def _as_write_column(values, count: int) -> "array | memoryview":
    """Coerce write flags to a byte column of exactly ``count`` entries."""
    if isinstance(values, memoryview) and values.format in ("b", "B"):
        column = values
    elif isinstance(values, array) and values.typecode in ("b", "B"):
        column = values
    else:
        column = array("B", (1 if flag else 0 for flag in values))
    if len(column) != count:
        raise ValueError(
            f"writes column has {len(column)} entries for {count} references"
        )
    return column


def _same_column(first, second) -> bool:
    """Whether two int64 columns hold the same values: two arrays
    compare in C without a copy, a memoryview through lists."""
    if isinstance(first, array) and isinstance(second, array):
        return first == second
    return first.tolist() == second.tolist()


class _PairView(Sequence):
    """A lazy sequence of ``(segment, page)`` tuples over two columns.

    The replay kernels' list fallback iterates traces element by
    element; this view lets a segmented columnar trace feed that loop
    without materializing ``len(trace)`` tuples up front — tuples are
    built one at a time as the loop consumes them.
    """

    __slots__ = ("_segments", "_pages")

    def __init__(self, segments, pages) -> None:
        self._segments = segments
        self._pages = pages

    def __len__(self) -> int:
        return len(self._pages)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _PairView(self._segments[index], self._pages[index])
        return (self._segments[index], self._pages[index])

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self._segments, self._pages)


class ColumnarTrace(Sequence):
    """An immutable struct-of-arrays reference trace.

    Parameters
    ----------
    pages:
        Page ids — any iterable of ints, an ``array('q')``, an int64
        memoryview, or another trace (its page column shared zero-copy
        when it is an array).
    writes:
        Optional per-reference write flags (one byte each).
    segments:
        Optional per-reference segment ids.  When present the trace's
        *elements* are ``(segment, page)`` tuples — the unit the
        segmented pager and two-level mapper replace over — while the
        underlying storage stays two flat integer columns.
    source:
        Opaque owner of the column buffers (an open mmap, say), kept
        alive for the trace's lifetime and closed by :meth:`close`.
        A slice has none: it borrows its parent's buffers, which its
        own memoryviews keep alive, so closing it never closes them.

    >>> ColumnarTrace([1, 2, 3]) == [1, 2, 3]
    True
    >>> ColumnarTrace([7, 8], segments=[0, 1])[1]
    (1, 8)
    """

    __slots__ = ("_pages", "_writes", "_segments", "_source", "_span_cache")

    def __init__(
        self,
        pages: Iterable[int] = (),
        writes: Iterable[int] | None = None,
        segments: Iterable[int] | None = None,
        source: object | None = None,
    ) -> None:
        self._pages = _as_page_column(pages)
        count = len(self._pages)
        self._writes = None if writes is None else _as_write_column(writes, count)
        if segments is None:
            self._segments = None
        else:
            self._segments = _as_page_column(segments)
            if len(self._segments) != count:
                raise ValueError(
                    f"segments column has {len(self._segments)} entries "
                    f"for {count} references"
                )
        self._source = source
        self._span_cache: tuple[int, int] | None = None

    # -- column access -----------------------------------------------------

    @property
    def pages(self):
        """The page-id column (``array('q')`` or an int64 memoryview)."""
        return self._pages

    @property
    def writes(self):
        """The write-flag column (bytes per reference), or None."""
        return self._writes

    @property
    def segments(self):
        """The segment-id column, or None for a flat trace."""
        return self._segments

    @property
    def has_writes(self) -> bool:
        return self._writes is not None

    @property
    def has_segments(self) -> bool:
        return self._segments is not None

    def write_flags(self) -> list[bool] | None:
        """The write column as the ``writes=`` sequence drivers expect."""
        if self._writes is None:
            return None
        return [bool(flag) for flag in self._writes]

    def spans(self) -> tuple[int, int]:
        """``(page_span, segment_span)`` — each max id + 1 (0 when empty).

        One full scan, cached; the vectorized kernels use the spans to
        size their dense per-page state without touching Python ints.
        """
        if self._span_cache is None:
            if not len(self._pages):
                self._span_cache = (0, 0)
            else:
                page_span = max(self._pages) + 1
                segment_span = (
                    max(self._segments) + 1 if self._segments is not None else 0
                )
                self._span_cache = (page_span, segment_span)
        return self._span_cache

    def cached_spans(self) -> tuple[int, int] | None:
        """The spans if already known (file header / prior scan), else None.

        The kernels prefer this over :meth:`spans` so a cold in-memory
        trace is sized by one numpy pass instead of a Python ``max``.
        """
        return self._span_cache

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._pages)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ColumnarTrace(
                self._pages[index],
                writes=None if self._writes is None else self._writes[index],
                segments=None if self._segments is None else self._segments[index],
            )
        if self._segments is not None:
            return (self._segments[index], self._pages[index])
        return self._pages[index]

    def __iter__(self):
        if self._segments is not None:
            return zip(self._segments, self._pages)
        return iter(self._pages)

    def __contains__(self, item) -> bool:
        if self._segments is not None:
            return any(pair == item for pair in self)
        return item in self._pages

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnarTrace):
            if len(self) != len(other):
                return False
            if (self._segments is None) != (other._segments is None):
                return len(self) == 0
            same_pages = _same_column(self._pages, other._pages)
            if not same_pages or self._segments is None:
                return same_pages
            return _same_column(self._segments, other._segments)
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None   # mutable-adjacent container: unhashable, like list

    def __repr__(self) -> str:
        head = ", ".join(repr(self[i]) for i in range(min(len(self), 6)))
        ellipsis = ", ..." if len(self) > 6 else ""
        columns = ["pages"]
        if self._segments is not None:
            columns.insert(0, "segments")
        if self._writes is not None:
            columns.append("writes")
        return (
            f"ColumnarTrace([{head}{ellipsis}], length={len(self)}, "
            f"columns={'+'.join(columns)})"
        )

    # -- interop -------------------------------------------------------------

    def replay_view(self):
        """The cheapest exact element view for a per-reference loop.

        Flat traces return the raw page column (no copy); segmented
        traces return a lazy pair view.  Either way peak memory stays
        O(1) extra — the fix for the old ``as_list`` unwrap that doubled
        a large trace's footprint just to replay it.
        """
        if self._segments is not None:
            return _PairView(self._segments, self._pages)
        return self._pages

    def as_list(self) -> list:
        """Escape hatch: the trace as a plain list (copies!)."""
        if self._segments is not None:
            return list(zip(self._segments.tolist(), self._pages.tolist()))
        return self._pages.tolist()

    def close(self) -> None:
        """Release the backing buffers (close an mmap'd trace file).

        After closing, element access is an error; drop the trace.
        """
        source, self._source = self._source, None
        self._pages = array(_PAGE_COLUMN_TYPECODE)
        self._writes = None
        self._segments = None
        self._span_cache = None
        if source is not None:
            close = getattr(source, "close", None)
            if close is not None:
                close()

    @classmethod
    def from_trace(
        cls,
        trace,
        writes: Iterable[int] | None = None,
        segments: Iterable[int] | None = None,
    ) -> "ColumnarTrace":
        """Wrap an existing trace (list, columnar, iterable) as columns.

        A columnar trace is returned as it is unless ``writes`` or
        ``segments`` are given.  A list of ``(segment, page)`` pairs is
        split into two columns automatically when ``segments`` is not
        given.
        """
        if isinstance(trace, ColumnarTrace) and (
            writes is None and segments is None
        ):
            return trace
        if segments is None and len(trace) and isinstance(trace[0], tuple):
            segments = array("q", (pair[0] for pair in trace))
            pages = array("q", (pair[1] for pair in trace))
            return cls(pages, writes=writes, segments=segments)
        return cls(trace, writes=writes, segments=segments)


__all__ = ["ColumnarTrace"]
