"""The campaign heartbeat cadence: coalesced running beats, a beat on
every failure, and the terminal beat always.

``coordinate`` writes a running beat only when
``HEARTBEAT_INTERVAL_S`` of clock time has passed since the last one,
or when a failure record lands, and its ``finally`` block always writes
the terminal beat.  The clock is read through ``repro.sweep.engine``'s
``clock``; these tests replace it with one whose time moves only when
the progress callback says a record landed, so every beat count below
is exact whatever the host's speed.  Beats are counted through a
wrapper over ``engine.write_heartbeat``, the name the benchmark's
``sweep.heartbeat`` span binds.
"""

import itertools
import json

import pytest

from repro.sweep import engine
from repro.sweep.engine import heartbeat_path, run_sweep
from repro.sweep.grid import SweepGrid
from repro.sweep.transport.base import DEFAULT_RETRIES
from repro.traffic.engine import build_points, run_campaign


def tiny_points(count=4):
    """``count`` seeds of one very small load point (milliseconds each)."""
    return build_points(loads=(1.2,), seeds=tuple(range(count)),
                        pool_frames=16, quotas=(3, 4), pages=24,
                        session_length=32, shared_pages=8, horizon=48)


def broken(point):
    """A point whose worker fails it (no pool to size)."""
    return dict(point, pool_frames=None)


def tiny_grid():
    """Four fast sweep shards."""
    return SweepGrid.from_dict(dict(
        name="tiny", machines=("baseline",), replacement=("lru", "fifo"),
        placement=("first_fit",), frames=(8,), capacities=(10_000,),
        seeds=(0, 1), length=400, pages=32, requests=200,
        mean_lifetime=60, programs=2, program_length=200,
    ))


def read_beat(path):
    return json.loads(heartbeat_path(path).read_text())


class FakeClock:
    """Time that moves ``step`` seconds each time a record lands.

    ``progress`` runs after the engine has decided whether the landed
    record beats, so the k-th record is decided at ``(k - 1) * step``.
    Integer ticks keep every reading exact for a binary ``step``.
    """

    def __init__(self, step=0.0, then=None):
        self.step = step
        self.ticks = 0
        self.then = then

    def __call__(self):
        return self.ticks * self.step

    def progress(self, done, total, record):
        self.ticks += 1
        if self.then is not None:
            self.then(done, total, record)


@pytest.fixture
def beats(monkeypatch):
    """Every heartbeat payload the engine publishes, in order."""
    published = []
    real = engine.write_heartbeat

    def counting(path, *args, **kwargs):
        real(path, *args, **kwargs)
        published.append(json.loads(path.read_text()))

    monkeypatch.setattr(engine, "write_heartbeat", counting)
    return published


@pytest.fixture
def clock(monkeypatch):
    """Install a frozen fake clock; tests may set its ``step``."""
    fake = FakeClock()
    monkeypatch.setattr(engine, "clock", fake)
    return fake


def running(published):
    return [beat for beat in published if beat["state"] == "running"]


class TestCadence:
    def test_interval_is_a_quarter_second(self):
        assert engine.HEARTBEAT_INTERVAL_S == 0.25

    def test_frozen_clock_writes_the_first_beat_and_the_terminal(
            self, tmp_path, beats, clock):
        path = tmp_path / "results.jsonl"
        run_campaign(tiny_points(6), results_path=path,
                     progress=clock.progress)
        assert [(beat["state"], beat["done"]) for beat in beats] == \
            [("running", 1), ("finished", 6)]

    @pytest.mark.parametrize("step, beating", [
        (0.3, [1, 2, 3, 4, 5, 6, 7]),   # the old cadence, as the limit
        (0.25, [1, 2, 3, 4, 5, 6, 7]),  # exactly the interval beats
        (0.125, [1, 3, 5, 7]),          # >= at the boundary, not >
        (0.1, [1, 4, 7]),
        (0.0, [1]),
    ])
    def test_running_beats_follow_the_clock(self, tmp_path, beats, clock,
                                            step, beating):
        clock.step = step
        path = tmp_path / "results.jsonl"
        run_campaign(tiny_points(7), results_path=path,
                     progress=clock.progress)
        assert [beat["done"] for beat in running(beats)] == beating
        assert beats[-1]["state"] == "finished"
        assert len(beats) == len(beating) + 1

    def test_every_failure_beats_at_once_under_a_frozen_clock(
            self, tmp_path, beats, clock):
        points = tiny_points(7)
        for index in (2, 3, 5):
            points[index] = broken(points[index])
        path = tmp_path / "results.jsonl"
        run_campaign(points, results_path=path, progress=clock.progress)
        assert [(beat["done"], beat["failed"]) for beat in running(beats)] \
            == [(1, 0), (3, 1), (4, 2), (6, 3)]
        assert beats[-1]["failed"] == 3

    def test_each_beat_follows_its_records_append(self, tmp_path,
                                                  monkeypatch):
        """The torn-line contract: every fresh record is on disk before
        the beat that counts it is written."""
        path = tmp_path / "results.jsonl"
        lines_at_beat = []
        real = engine.write_heartbeat

        def checking(target, name, done, total, failed, *args, **kwargs):
            lines_at_beat.append((done - failed,
                                  len(path.read_text().splitlines())))
            real(target, name, done, total, failed, *args, **kwargs)

        monkeypatch.setattr(engine, "write_heartbeat", checking)
        # A second per reading: every record beats.
        monkeypatch.setattr(engine, "clock", itertools.count().__next__)
        points = tiny_points(5)
        points[1] = broken(points[1])
        run_campaign(points, results_path=path)
        assert len(lines_at_beat) == 6
        assert all(fresh == lines for fresh, lines in lines_at_beat)

    def test_progress_still_fires_once_per_record(self, tmp_path, beats,
                                                  clock):
        seen = []
        clock.then = lambda done, total, record: seen.append(done)
        run_campaign(tiny_points(5), results_path=tmp_path / "r.jsonl",
                     progress=clock.progress)
        assert seen == [1, 2, 3, 4, 5]
        assert len(beats) == 2


class TestTerminalBeat:
    def test_terminal_beat_carries_every_record(self, tmp_path, beats,
                                                clock):
        points = tiny_points(6)
        points[4] = broken(points[4])
        path = tmp_path / "results.jsonl"
        result = run_campaign(points, results_path=path,
                              progress=clock.progress)
        final = read_beat(path)
        assert final == beats[-1]
        assert final["state"] == "finished"
        assert final["done"] == final["total"] == 6
        assert final["failed"] == 1
        assert final["telemetry"] == result.telemetry.snapshot()
        # The skipped running beats are folded in: the first beat saw one
        # record's telemetry, the terminal beat sees all five.
        assert beats[0]["telemetry"] != final["telemetry"]

    def test_sweep_terminal_beat_carries_every_shard(self, tmp_path, beats,
                                                     clock):
        path = tmp_path / "results.jsonl"
        result = run_sweep(tiny_grid(), workers=1, results_path=path,
                           progress=clock.progress)
        assert [(beat["state"], beat["done"]) for beat in beats] == \
            [("running", 1), ("finished", 4)]
        final = read_beat(path)
        assert final["sweep"] == "tiny" and final["failed"] == 0
        assert final["telemetry"] == result.telemetry.snapshot()

    def test_interrupt_in_progress_ends_aborted_at_the_landed_count(
            self, tmp_path, beats, clock):
        def interrupt(done, total, record):
            if done == 3:
                raise KeyboardInterrupt

        clock.then = interrupt
        path = tmp_path / "results.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(tiny_points(6), results_path=path,
                         progress=clock.progress)
        assert [(beat["state"], beat["done"]) for beat in beats] == \
            [("running", 1), ("aborted", 3)]
        assert read_beat(path)["total"] == 6


class TestWorkerDeath:
    def test_poison_point_fails_alone_and_beats_its_failure(
            self, tmp_path, beats, clock):
        """A point that kills every worker it meets spends its retries
        alone on the pool transport; its failure record beats at once
        (under a frozen clock, only the first record beats otherwise),
        and the campaign still finishes."""
        points = tiny_points(4)
        points[1] = dict(points[1], inject_exit=True)
        landed = {}

        def note_failure(done, total, record):
            if "error" in record:
                landed["done"] = done

        clock.then = note_failure
        path = tmp_path / "results.jsonl"
        result = run_campaign(points, workers=2, results_path=path,
                              progress=clock.progress)
        assert result.transport == "pool"
        (failure,) = result.failures
        assert failure["point"] == points[1]["point"]
        assert "BrokenProcessPool" in failure["error"]
        assert failure["attempts"] > DEFAULT_RETRIES
        assert [beat["done"] for beat in running(beats)] == \
            sorted({1, landed["done"]})
        failure_beat = next(beat for beat in running(beats)
                            if beat["done"] == landed["done"])
        assert failure_beat["failed"] == 1
        assert beats[-1]["state"] == "finished"
        assert beats[-1]["done"] == beats[-1]["total"] == 4
        assert beats[-1]["failed"] == 1

    def test_point_that_dies_once_costs_no_extra_beat(self, tmp_path,
                                                      beats, clock):
        points = tiny_points(3)
        points[0] = dict(points[0],
                         inject_exit_once=str(tmp_path / "died.marker"))
        path = tmp_path / "results.jsonl"
        result = run_campaign(points, workers=2, results_path=path,
                              progress=clock.progress)
        assert result.ok, result.failures
        assert result.transport == "pool"
        assert [(beat["state"], beat["done"]) for beat in beats] == \
            [("running", 1), ("finished", 3)]


class TestFailureBeatsAtOnce:
    """On the real clock, a failure shows in the heartbeat the moment it
    lands, without waiting for the next success or the end."""

    def test_sweep_failure_is_in_the_beat_read_right_after_it(
            self, tmp_path, monkeypatch):
        real = engine.run_shard_safely
        second = list(tiny_grid().shards())[1].id

        def flaky(spec):
            if spec["shard"] == second:
                return {"shard": spec["shard"], "error": "Boom: injected"}
            return real(spec)

        monkeypatch.setattr(engine, "run_shard_safely", flaky)
        path = tmp_path / "results.jsonl"
        read = []

        def after(done, total, record):
            if "error" in record:
                read.append(read_beat(path))

        result = run_sweep(tiny_grid(), workers=1, results_path=path,
                           progress=after)
        assert len(result.failures) == 1
        (payload,) = read
        assert payload["state"] == "running"
        assert payload["done"] == 2 and payload["failed"] == 1

    def test_campaign_failure_is_in_the_beat_read_right_after_it(
            self, tmp_path):
        points = tiny_points(4)
        points[1] = broken(points[1])
        path = tmp_path / "results.jsonl"
        read = []

        def after(done, total, record):
            if "error" in record:
                read.append(read_beat(path))

        result = run_campaign(points, results_path=path, progress=after)
        assert len(result.failures) == 1
        (payload,) = read
        assert payload["state"] == "running"
        assert payload["done"] == 2 and payload["failed"] == 1
