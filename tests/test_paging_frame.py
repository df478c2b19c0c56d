"""Tests for the frame table."""

import pytest

from repro.errors import OutOfMemory
from repro.paging import FifoPolicy, FrameTable
from repro.sim.multiprogramming import ProgramSpec


class TestAcquireRelease:
    def test_acquire_returns_frame_number(self):
        frames = FrameTable(4)
        assert frames.acquire("a") in range(4)

    def test_frames_are_distinct(self):
        frames = FrameTable(4)
        numbers = {frames.acquire(i) for i in range(4)}
        assert len(numbers) == 4

    def test_full_table_rejects(self):
        frames = FrameTable(2)
        frames.acquire("a")
        frames.acquire("b")
        with pytest.raises(OutOfMemory):
            frames.acquire("c")

    def test_release_recycles(self):
        frames = FrameTable(1)
        first = frames.acquire("a")
        frames.release("a")
        assert frames.acquire("b") == first

    def test_double_acquire_rejected(self):
        frames = FrameTable(4)
        frames.acquire("a")
        with pytest.raises(ValueError):
            frames.acquire("a")

    def test_release_unknown_rejected(self):
        with pytest.raises(KeyError):
            FrameTable(4).release("ghost")

    def test_release_returns_frame(self):
        frames = FrameTable(4)
        frame = frames.acquire("a")
        assert frames.release("a") == frame


class TestInspection:
    def test_counts(self):
        frames = FrameTable(4)
        frames.acquire("a")
        frames.acquire("b")
        assert frames.resident_count == 2
        assert frames.free_count == 2
        assert not frames.is_full()

    def test_is_full(self):
        frames = FrameTable(1)
        frames.acquire("a")
        assert frames.is_full()

    def test_owner_and_frame_of(self):
        frames = FrameTable(4)
        frame = frames.acquire("page-9")
        assert frames.owner(frame) == "page-9"
        assert frames.frame_of("page-9") == frame
        assert frames.frame_of("absent") is None

    def test_owner_bounds(self):
        with pytest.raises(IndexError):
            FrameTable(4).owner(4)

    def test_contains(self):
        frames = FrameTable(4)
        frames.acquire("a")
        assert "a" in frames
        assert "b" not in frames

    def test_resident_pages(self):
        frames = FrameTable(4)
        frames.acquire("a")
        frames.acquire("b")
        assert set(frames.resident_pages()) == {"a", "b"}

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            FrameTable(0)

    @pytest.mark.parametrize("count", [2.5, 4.0, True, "3"])
    def test_rejects_a_count_that_is_not_an_int(self, count):
        """A frame count is a whole number of frames: a fraction, a
        float, a bool or a string is refused before any table is built,
        by the table and by a multiprogrammed program's allotment."""
        with pytest.raises(TypeError, match="frame_count must be an int"):
            FrameTable(count)
        with pytest.raises(TypeError, match="frames must be an int"):
            ProgramSpec("p", [0, 1, 2], count, FifoPolicy())
