"""Tests for trace persistence and the explicit segment flush."""

import pytest

from repro.addressing import SegmentTable
from repro.alloc import FreeListAllocator
from repro.clock import Clock
from repro.memory import BackingStore, StorageLevel
from repro.paging import LruPolicy, simulate_trace
from repro.segmentation import SegmentManager
from repro.workload import load_trace, phased_trace, save_trace


class TestTracePersistence:
    def test_roundtrip(self, tmp_path):
        trace = phased_trace(pages=10, length=200, working_set=3, seed=4)
        path = tmp_path / "trace.txt"
        count = save_trace(path, trace)
        assert count == 200
        assert load_trace(path) == trace

    def test_header_is_comment(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace(path, [1, 2], header="recorded 1967\nmachine: M44")
        text = path.read_text()
        assert text.startswith("# recorded 1967\n# machine: M44\n")
        assert load_trace(path) == [1, 2]

    def test_hand_written_file_with_comments(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# a comment\n3\n 4  # trailing comment\n\n5\n")
        assert load_trace(path) == [3, 4, 5]

    def test_bad_content_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("3\nnot-a-page\n")
        with pytest.raises(ValueError) as exc_info:
            load_trace(path)
        assert ":2:" in str(exc_info.value)

    def test_negative_page_rejected_on_load(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("-1\n")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_page_beyond_64_bits_rejected_on_load(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text(f"1\n{2 ** 63}\n")
        with pytest.raises(ValueError, match=":2: page number .* 64 bits"):
            load_trace(path)

    def test_bad_entries_rejected_on_save(self, tmp_path):
        path = tmp_path / "trace.txt"
        with pytest.raises(TypeError):
            save_trace(path, ["page-one"])
        with pytest.raises(ValueError):
            save_trace(path, [-1])

    def test_loaded_trace_drives_simulation(self, tmp_path):
        trace = phased_trace(pages=10, length=300, working_set=3, seed=8)
        path = tmp_path / "trace.txt"
        save_trace(path, trace)
        original = simulate_trace(trace, 4, LruPolicy()).faults
        replayed = simulate_trace(load_trace(path), 4, LruPolicy()).faults
        assert original == replayed


def make_manager():
    clock = Clock()
    return SegmentManager(
        table=SegmentTable(),
        allocator=FreeListAllocator(1_000, policy="best_fit"),
        backing=BackingStore(
            StorageLevel("drum", 10**6, access_time=100), clock=clock
        ),
        policy=LruPolicy(),
        clock=clock,
    )


class TestExplicitFlush:
    def test_flush_writes_dirty_segment(self):
        manager = make_manager()
        manager.create("s", 100)
        manager.access("s", 0, write=True)
        assert manager.flush("s")
        assert ("segment", "s") in manager.backing
        assert not manager.table.descriptor("s").modified

    def test_flushed_segment_stays_resident(self):
        manager = make_manager()
        manager.create("s", 100)
        manager.access("s", 0, write=True)
        manager.flush("s")
        assert "s" in manager.resident_segments()

    def test_clean_segment_with_copy_not_rewritten(self):
        manager = make_manager()
        manager.create("s", 100)
        manager.access("s", 0, write=True)
        manager.flush("s")
        assert not manager.flush("s")   # nothing new to store

    def test_nonresident_flush_is_noop(self):
        manager = make_manager()
        manager.create("s", 100)
        assert not manager.flush("s")

    def test_flushed_segment_displaces_without_writeback(self):
        manager = make_manager()
        manager.create("a", 600)
        manager.create("b", 600)
        manager.access("a", 0, write=True)
        manager.flush("a")
        writebacks_after_flush = manager.stats.writebacks
        manager.access("b", 0)   # displaces the (now clean) a
        assert manager.stats.writebacks == writebacks_after_flush
