"""The binary trace file format: round-trips, streaming, and rejection.

Spec in ``docs/TRACE_FORMAT.md``.  The invariants pinned here:

- whatever :class:`TraceWriter` writes, :func:`read_trace` reads back
  identically — for every column combination, chunking, and with either
  the mmap or the in-memory reader;
- a damaged file (bad magic, unknown version, undeclared flags, short or
  oversized payload, interrupted write) is *rejected*, never silently
  misread;
- the writer is transactional: abort (explicit or via an exception in
  the context manager) leaves no file behind.
"""

from __future__ import annotations

import gc
import struct
import weakref

import pytest

from repro.errors import ReproError
from repro.trace import (
    ColumnarTrace,
    TraceFormatError,
    TraceWriter,
    is_trace_file,
    read_trace,
    write_trace,
)
from repro.trace.format import HEADER_SIZE, MAGIC, VERSION
from repro.workload import load_trace, phased_trace, save_trace


COLUMN_COMBOS = [
    dict(writes=False, segments=False),
    dict(writes=True, segments=False),
    dict(writes=False, segments=True),
    dict(writes=True, segments=True),
]


def _sample_columns(n: int, seed: int = 0):
    pages = [(seed * 13 + i * 7) % 97 for i in range(n)]
    writes = [i % 3 == 0 for i in range(n)]
    segments = [p // 16 for p in pages]
    return pages, writes, segments


class TestRoundTrip:
    @pytest.mark.parametrize("combo", COLUMN_COMBOS)
    @pytest.mark.parametrize("use_mmap", [True, False])
    @pytest.mark.parametrize("chunks", [1, 3, 17])
    def test_writer_reader_round_trip(self, tmp_path, combo, use_mmap, chunks):
        pages, writes, segments = _sample_columns(230)
        path = tmp_path / "trace.rtrc"
        step = max(1, len(pages) // chunks)
        with TraceWriter(path, **combo) as writer:
            for start in range(0, len(pages), step):
                stop = start + step
                writer.append(
                    pages[start:stop],
                    writes=writes[start:stop] if combo["writes"] else None,
                    segments=segments[start:stop] if combo["segments"] else None,
                )
        trace = read_trace(path, use_mmap=use_mmap)
        try:
            assert len(trace) == len(pages)
            assert list(trace.pages) == pages
            if combo["segments"]:
                assert list(trace.segments) == segments
                assert list(trace) == list(zip(segments, pages))
            else:
                assert trace.segments is None
                assert list(trace) == pages
            if combo["writes"]:
                assert trace.write_flags() == writes
            else:
                assert trace.writes is None
            # Spans come from the header: no scan needed, but identical
            # to a fresh scan.
            cached = trace.cached_spans()
            assert cached is not None
            assert cached == trace.spans()
            assert cached[0] == max(pages) + 1
        finally:
            trace.close()

    def test_write_trace_one_shot(self, tmp_path):
        trace = phased_trace(40, 1500, seed=2)
        path = write_trace(tmp_path / "one.rtrc", trace)
        back = read_trace(path)
        assert back == trace.as_list()
        back.close()

    def test_empty_trace_round_trips(self, tmp_path):
        path = write_trace(tmp_path / "empty.rtrc", [])
        trace = read_trace(path)
        assert len(trace) == 0
        assert trace.spans() == (0, 0)
        trace.close()

    def test_trace_to_file_method(self, tmp_path):
        trace = phased_trace(30, 800, seed=9)
        path = write_trace(tmp_path / "via-method.rtrc", trace)
        assert is_trace_file(path)
        back = read_trace(path)
        assert back == trace.as_list()
        back.close()

    def test_mmap_and_memory_readers_agree(self, tmp_path):
        pages, writes, segments = _sample_columns(500, seed=4)
        path = tmp_path / "both.rtrc"
        with TraceWriter(path, writes=True, segments=True) as writer:
            writer.append(pages, writes=writes, segments=segments)
        mapped = read_trace(path, use_mmap=True)
        in_memory = read_trace(path, use_mmap=False)
        try:
            assert mapped == in_memory
            assert mapped.write_flags() == in_memory.write_flags()
            assert mapped.spans() == in_memory.spans()
        finally:
            mapped.close()
            in_memory.close()


class TestSliceLifetime:
    """A slice of an mmap'd trace borrows the mapping and never closes
    it; the mapping is unmapped when the parent and every slice are
    done with it, in either closing order."""

    @staticmethod
    def _mapped(tmp_path, combo):
        pages, writes, segments = _sample_columns(600, seed=3)
        path = write_trace(
            tmp_path / "sliced.rtrc", pages,
            writes=writes if combo["writes"] else None,
            segments=segments if combo["segments"] else None,
        )
        expected = list(zip(segments, pages)) if combo["segments"] else pages
        return read_trace(path), expected

    @pytest.mark.parametrize("combo", COLUMN_COMBOS)
    def test_closing_a_slice_leaves_the_parent_open(self, tmp_path, combo):
        trace, expected = self._mapped(tmp_path, combo)
        head = trace[:10]
        assert list(head) == expected[:10]
        head.close()
        assert trace[5] == expected[5]
        assert list(trace) == expected
        if combo["writes"]:
            assert trace.write_flags()[:4] == [True, False, False, True]
        trace.close()

    @pytest.mark.parametrize("combo", COLUMN_COMBOS)
    def test_closing_the_parent_while_slices_live(self, tmp_path, combo):
        trace, expected = self._mapped(tmp_path, combo)
        head = trace[:10]
        middle = head[2:5]
        # The reader's private handles: the file object, and the mmap
        # that the slices' memoryviews keep alive.
        handle = trace._source._file
        mapping = weakref.ref(trace._source._map)
        trace.close()                     # must not raise BufferError
        assert handle.closed
        assert list(head) == expected[:10]
        assert list(middle) == expected[2:5]
        head.close()
        gc.collect()
        assert mapping() is not None      # ``middle`` still reads it
        assert list(middle) == expected[2:5]
        middle.close()
        gc.collect()
        assert mapping() is None          # released with the last slice


class TestRejection:
    @pytest.fixture
    def valid(self, tmp_path):
        pages, writes, segments = _sample_columns(64)
        path = tmp_path / "valid.rtrc"
        with TraceWriter(path, writes=True, segments=True) as writer:
            writer.append(pages, writes=writes, segments=segments)
        return path

    def _mutated(self, tmp_path, raw: bytes):
        path = tmp_path / "mutated.rtrc"
        path.write_bytes(raw)
        return path

    def test_bad_magic(self, tmp_path, valid):
        raw = valid.read_bytes()
        bad = self._mutated(tmp_path, b"NOPE" + raw[4:])
        with pytest.raises(TraceFormatError, match="magic"):
            read_trace(bad)
        assert not is_trace_file(bad)

    def test_unknown_version(self, tmp_path, valid):
        raw = valid.read_bytes()
        bad = self._mutated(
            tmp_path,
            raw[:4] + struct.pack("<H", VERSION + 1) + raw[6:],
        )
        with pytest.raises(TraceFormatError, match="version"):
            read_trace(bad)

    def test_unknown_flags(self, tmp_path, valid):
        raw = valid.read_bytes()
        bad = self._mutated(tmp_path, raw[:6] + b"\xff\xff" + raw[8:])
        with pytest.raises(TraceFormatError, match="flag"):
            read_trace(bad)

    def test_truncated_payload(self, tmp_path, valid):
        raw = valid.read_bytes()
        bad = self._mutated(tmp_path, raw[:-8])
        with pytest.raises(TraceFormatError, match="bytes"):
            read_trace(bad)

    def test_oversized_payload(self, tmp_path, valid):
        raw = valid.read_bytes()
        bad = self._mutated(tmp_path, raw + b"\x00" * 16)
        with pytest.raises(TraceFormatError, match="bytes"):
            read_trace(bad)

    def test_truncated_header(self, tmp_path):
        bad = self._mutated(tmp_path, MAGIC + b"\x00" * 4)
        assert len(bad.read_bytes()) < HEADER_SIZE
        with pytest.raises(TraceFormatError):
            read_trace(bad)

    def test_interrupted_write_is_unreadable(self, tmp_path):
        # A crash mid-write leaves the placeholder count; the reader must
        # refuse rather than return garbage.
        path = tmp_path / "crashed.rtrc"
        writer = TraceWriter(path)
        writer.append([1, 2, 3])
        writer._file.flush()
        raw = path.read_bytes()
        writer.abort()
        crashed = self._mutated(tmp_path, raw)
        with pytest.raises(TraceFormatError):
            read_trace(crashed)

    def test_errors_are_repro_errors(self, tmp_path):
        assert issubclass(TraceFormatError, ReproError)
        bad = self._mutated(tmp_path, b"junk")
        with pytest.raises(ReproError):
            read_trace(bad)


class TestWriterContract:
    def test_abort_removes_partial_file(self, tmp_path):
        path = tmp_path / "gone.rtrc"
        writer = TraceWriter(path, writes=True, segments=True)
        writer.append([1, 2], writes=[0, 1], segments=[0, 0])
        writer.abort()
        assert not path.exists()

    def test_context_manager_aborts_on_exception(self, tmp_path):
        path = tmp_path / "boom.rtrc"
        with pytest.raises(RuntimeError, match="boom"):
            with TraceWriter(path) as writer:
                writer.append([1, 2, 3])
                raise RuntimeError("boom")
        assert not path.exists()
        assert not list(tmp_path.iterdir())   # no spool files either

    def test_append_after_close_rejected(self, tmp_path):
        path = tmp_path / "closed.rtrc"
        writer = TraceWriter(path)
        writer.append([1])
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.append([2])

    def test_misaligned_columns_rejected(self, tmp_path):
        path = tmp_path / "skew.rtrc"
        with TraceWriter(path, writes=True) as writer:
            with pytest.raises(ValueError, match="writes"):
                writer.append([1, 2, 3], writes=[1])
            writer.append([1, 2, 3], writes=[1, 0, 1])

    def test_undeclared_column_rejected(self, tmp_path):
        path = tmp_path / "undeclared.rtrc"
        with TraceWriter(path) as writer:
            with pytest.raises(ValueError, match="not opened with"):
                writer.append([1], writes=[1])
            writer.append([1])

    def test_declared_column_required(self, tmp_path):
        path = tmp_path / "missing.rtrc"
        with TraceWriter(path, segments=True) as writer:
            with pytest.raises(ValueError, match="segments"):
                writer.append([1, 2])
            writer.append([1, 2], segments=[0, 1])

    def test_negative_ids_rejected(self, tmp_path):
        path = tmp_path / "negative.rtrc"
        with TraceWriter(path) as writer:
            with pytest.raises(ValueError, match="negative"):
                writer.append([3, -1])
            writer.append([3, 1])


class TestLoadDispatch:
    """``repro.workload.load_trace`` opens either format."""

    def test_load_reads_binary(self, tmp_path):
        trace = phased_trace(20, 400, seed=1)
        path = write_trace(tmp_path / "bin.rtrc", trace)
        loaded = load_trace(path)
        assert loaded == trace.as_list()
        loaded.close()

    def test_load_falls_back_to_legacy_text(self, tmp_path):
        trace = phased_trace(20, 200, seed=1)
        path = tmp_path / "legacy.trace"
        save_trace(path, trace)
        loaded = load_trace(path)
        assert list(loaded) == trace.as_list()
