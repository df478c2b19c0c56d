"""The on-disk columnar trace format (``.rtrc``).

A versioned binary container for reference traces, built so workload
generators can *stream* a 100M-reference trace to disk without ever
materializing it, and so replay can ingest it zero-copy through mmap.
The layout (fully specified in ``docs/TRACE_FORMAT.md``)::

    offset  size  field
    0       4     magic  b"RTRC"
    4       2     version (currently 1), little-endian u16
    6       2     flags: bit 0 = writes column, bit 1 = segments column
    8       8     count — number of references, u64
    16      8     page_span — max page id + 1 (0 for an empty trace), u64
    24      8     segment_span — max segment id + 1 (0 when absent), u64
    32      ...   pages column:    count × i64 little-endian
            ...   segments column: count × i64 (only when flagged)
            ...   writes column:   count × u8  (only when flagged)

Columns are raw machine integers in column-major order, so a reader can
``mmap`` the file and cast each column to a typed memoryview (or a numpy
array) without copying a byte; the spans in the header let the
vectorized kernels size their dense per-page state without scanning.

:class:`TraceWriter` streams: page chunks append straight to the file
after a placeholder header, secondary columns spool to temporary side
files, and ``close()`` concatenates the spools and patches the header —
so peak memory is one chunk regardless of trace length.  A header whose
magic, version, flags, or byte count disagree with the file is rejected
with :class:`TraceFormatError` — a truncated or corrupt trace must
never be silently replayed as a shorter one.
"""

from __future__ import annotations

import io
import mmap
import os
import struct
import sys
from array import array
from pathlib import Path
from typing import Iterable

from repro.errors import ReproError
from repro.trace.columnar import ColumnarTrace

MAGIC = b"RTRC"
VERSION = 1
FLAG_WRITES = 1 << 0
FLAG_SEGMENTS = 1 << 1
_KNOWN_FLAGS = FLAG_WRITES | FLAG_SEGMENTS

_HEADER = struct.Struct("<4sHHQQQ")
HEADER_SIZE = _HEADER.size   # 32 bytes

#: References per spool/copy buffer while streaming (8 MB of pages).
_CHUNK_REFS = 1 << 20

_LITTLE_ENDIAN = sys.byteorder == "little"


class TraceFormatError(ReproError):
    """A trace file's header or size is inconsistent — refuse to replay."""


def _pack_header(count: int, page_span: int, segment_span: int,
                 flags: int) -> bytes:
    return _HEADER.pack(MAGIC, VERSION, flags, count, page_span, segment_span)


def _native(column: array) -> array:
    """``column`` byteswapped to little-endian when the host is not."""
    if _LITTLE_ENDIAN:
        return column
    swapped = array(column.typecode, column)
    swapped.byteswap()
    return swapped


class TraceWriter:
    """Streaming writer for the columnar trace format.

    Use as a context manager; call :meth:`append` with page-id chunks
    (plus aligned write/segment chunks when those columns were declared)
    and the writer keeps running maxima for the header spans::

        with TraceWriter(path) as writer:
            for chunk in generator:
                writer.append(chunk)

    The target file is valid only after ``close()`` (the header is a
    placeholder until then); an aborted write leaves a file whose
    placeholder count disagrees with its size, which the reader rejects.
    """

    def __init__(
        self,
        path: str | Path,
        writes: bool = False,
        segments: bool = False,
    ) -> None:
        self.path = Path(path)
        self._flags = (FLAG_WRITES if writes else 0) | (
            FLAG_SEGMENTS if segments else 0
        )
        self.count = 0
        self._page_span = 0
        self._segment_span = 0
        self._file = open(self.path, "wb")
        # Placeholder header with an impossible count: rejected if read.
        self._file.write(_pack_header(2**64 - 1, 0, 0, self._flags))
        self._spools: dict[str, io.BufferedRandom] = {}
        if segments:
            self._spools["segments"] = self._open_spool("segments")
        if writes:
            self._spools["writes"] = self._open_spool("writes")
        self._closed = False

    def _open_spool(self, name: str):
        spool = self.path.with_name(self.path.name + f".{name}.tmp")
        return open(spool, "w+b")

    @property
    def has_writes(self) -> bool:
        return bool(self._flags & FLAG_WRITES)

    @property
    def has_segments(self) -> bool:
        return bool(self._flags & FLAG_SEGMENTS)

    def append(
        self,
        pages: Iterable[int],
        writes: Iterable[int] | None = None,
        segments: Iterable[int] | None = None,
    ) -> int:
        """Append one chunk of references; returns the chunk length.

        ``pages`` may be any iterable of ints (an ``array('q')`` is
        written without conversion).  Columns declared at construction
        must be supplied with every chunk, and undeclared ones must not
        appear — a trace with a ragged column is worse than no trace.
        """
        if self._closed:
            raise ValueError(f"TraceWriter for {self.path} is closed")
        column = (
            pages
            if isinstance(pages, array) and pages.typecode == "q"
            else array("q", pages)
        )
        chunk = len(column)
        if self.has_segments != (segments is not None):
            raise ValueError(
                "segments chunk required" if self.has_segments
                else "writer was not opened with segments=True"
            )
        if self.has_writes != (writes is not None):
            raise ValueError(
                "writes chunk required" if self.has_writes
                else "writer was not opened with writes=True"
            )
        if chunk and min(column) < 0:
            raise ValueError("page ids must be non-negative")
        self._file.write(_native(column).tobytes())
        if chunk:
            self._page_span = max(self._page_span, max(column) + 1)
        if segments is not None:
            seg_column = (
                segments
                if isinstance(segments, array) and segments.typecode == "q"
                else array("q", segments)
            )
            if len(seg_column) != chunk:
                raise ValueError(
                    f"segments chunk has {len(seg_column)} entries "
                    f"for {chunk} pages"
                )
            if chunk and min(seg_column) < 0:
                raise ValueError("segment ids must be non-negative")
            self._spools["segments"].write(_native(seg_column).tobytes())
            if chunk:
                self._segment_span = max(self._segment_span, max(seg_column) + 1)
        if writes is not None:
            flag_column = (
                writes
                if isinstance(writes, array) and writes.typecode == "B"
                else array("B", (1 if flag else 0 for flag in writes))
            )
            if len(flag_column) != chunk:
                raise ValueError(
                    f"writes chunk has {len(flag_column)} entries "
                    f"for {chunk} pages"
                )
            self._spools["writes"].write(flag_column.tobytes())
        self.count += chunk
        return chunk

    def close(self) -> Path:
        """Concatenate spooled columns, patch the header, fsync, return path."""
        if self._closed:
            return self.path
        self._closed = True
        try:
            for name in ("segments", "writes"):   # on-disk column order
                spool = self._spools.get(name)
                if spool is None:
                    continue
                spool.seek(0)
                while True:
                    block = spool.read(_CHUNK_REFS * 8)
                    if not block:
                        break
                    self._file.write(block)
            self._file.seek(0)
            self._file.write(
                _pack_header(self.count, self._page_span, self._segment_span,
                             self._flags)
            )
            self._file.flush()
            os.fsync(self._file.fileno())
        finally:
            self._file.close()
            for name, spool in self._spools.items():
                spool_path = spool.name
                spool.close()
                try:
                    os.unlink(spool_path)
                except OSError:
                    pass
            self._spools.clear()
        return self.path

    def abort(self) -> None:
        """Discard everything written, including the target file."""
        if not self._closed:
            self._closed = True
            self._file.close()
            for spool in self._spools.values():
                spool_path = spool.name
                spool.close()
                try:
                    os.unlink(spool_path)
                except OSError:
                    pass
            self._spools.clear()
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_trace(
    path: str | Path,
    trace,
    writes: Iterable[int] | None = None,
    segments: Iterable[int] | None = None,
) -> Path:
    """Write an in-memory trace in one call (columns split automatically).

    Accepts a :class:`ColumnarTrace` (its own columns are used, with
    ``writes`` or ``segments`` attached when given), a list of page ids,
    or a list of ``(segment, page)`` pairs.
    """
    columnar = ColumnarTrace.from_trace(trace, writes=writes, segments=segments)
    with TraceWriter(
        path,
        writes=columnar.has_writes,
        segments=columnar.has_segments,
    ) as writer:
        writer.append(
            array("q", columnar.pages),
            writes=columnar.writes,
            segments=(
                None if columnar.segments is None
                else array("q", columnar.segments)
            ),
        )
    return Path(path)


def _parse_header(raw: bytes, path: Path, file_size: int):
    if len(raw) < HEADER_SIZE:
        raise TraceFormatError(
            f"{path}: {len(raw)}-byte file is too short for a trace header"
        )
    magic, version, flags, count, page_span, segment_span = _HEADER.unpack(
        raw[:HEADER_SIZE]
    )
    if magic != MAGIC:
        raise TraceFormatError(
            f"{path}: bad magic {magic!r} (not a columnar trace file)"
        )
    if version != VERSION:
        raise TraceFormatError(
            f"{path}: unsupported trace format version {version} "
            f"(this reader handles version {VERSION})"
        )
    if flags & ~_KNOWN_FLAGS:
        raise TraceFormatError(
            f"{path}: unknown column flags 0x{flags:04x}"
        )
    expected = HEADER_SIZE + count * 8
    if flags & FLAG_SEGMENTS:
        expected += count * 8
    if flags & FLAG_WRITES:
        expected += count
    if count >= 2**63 or file_size != expected:
        raise TraceFormatError(
            f"{path}: header promises {count} references "
            f"({expected} bytes) but the file holds {file_size} bytes — "
            f"truncated or corrupt"
        )
    return flags, count, page_span, segment_span


class _MappedFile:
    """Keeps a trace file's mmap (and fd) alive for its memoryviews."""

    __slots__ = ("_map", "_file", "_views")

    def __init__(self, file, mapping) -> None:
        self._file = file
        self._map = mapping
        self._views: list[memoryview] = []

    def view(self, start: int, stop: int, fmt: str) -> memoryview:
        view = memoryview(self._map)[start:stop].cast(fmt)
        self._views.append(view)
        return view

    def close(self) -> None:
        for view in self._views:
            view.release()
        self._views.clear()
        self._file.close()
        try:
            self._map.close()
        except BufferError:
            # A live slice's memoryviews still export the mapping; it
            # is unmapped when the last of them is dropped.
            pass


def read_trace(path: str | Path, use_mmap: bool = True) -> ColumnarTrace:
    """Open a columnar trace file; zero-copy via mmap by default.

    With ``use_mmap=True`` (the default) the returned trace's columns
    are memoryviews over the mapped file — opening a 100M-reference
    trace costs milliseconds and no resident memory until pages are
    touched.  Call :meth:`ColumnarTrace.close` when done (or let the
    trace be garbage collected).  ``use_mmap=False`` reads the columns
    into ``array`` objects, for callers that outlive the file.
    """
    path = Path(path)
    file_size = path.stat().st_size
    with open(path, "rb") as handle:
        header = handle.read(HEADER_SIZE)
    flags, count, page_span, segment_span = _parse_header(
        header, path, file_size
    )

    offsets = {"pages": (HEADER_SIZE, HEADER_SIZE + count * 8)}
    cursor = offsets["pages"][1]
    if flags & FLAG_SEGMENTS:
        offsets["segments"] = (cursor, cursor + count * 8)
        cursor += count * 8
    if flags & FLAG_WRITES:
        offsets["writes"] = (cursor, cursor + count)

    if use_mmap and count and _LITTLE_ENDIAN:
        handle = open(path, "rb")
        mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        source = _MappedFile(handle, mapping)
        pages = source.view(*offsets["pages"], "q")
        segments = (
            source.view(*offsets["segments"], "q")
            if "segments" in offsets else None
        )
        writes = (
            source.view(*offsets["writes"], "B")
            if "writes" in offsets else None
        )
        trace = ColumnarTrace(
            pages, writes=writes, segments=segments, source=source
        )
    else:
        with open(path, "rb") as handle:
            handle.seek(HEADER_SIZE)
            pages = array("q")
            pages.frombytes(handle.read(count * 8))
            segments = None
            if flags & FLAG_SEGMENTS:
                segments = array("q")
                segments.frombytes(handle.read(count * 8))
            writes = None
            if flags & FLAG_WRITES:
                writes = array("B")
                writes.frombytes(handle.read(count))
        if not _LITTLE_ENDIAN:
            pages.byteswap()
            if segments is not None:
                segments.byteswap()
        trace = ColumnarTrace(pages, writes=writes, segments=segments)
    trace._span_cache = (page_span, segment_span)
    return trace


def is_trace_file(path: str | Path) -> bool:
    """True when ``path`` starts with the columnar trace magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


__all__ = [
    "FLAG_SEGMENTS",
    "FLAG_WRITES",
    "HEADER_SIZE",
    "MAGIC",
    "TraceFormatError",
    "TraceWriter",
    "VERSION",
    "is_trace_file",
    "read_trace",
    "write_trace",
]
