"""Traffic campaigns on the shared coordinator: death, interrupts, resume.

``run_campaign`` is a thin call into ``repro.sweep.engine.coordinate``,
so every hardening the sweep's tests pin must hold for traffic points
too: a worker that dies hard costs a retry, never a hang; an interrupt
never tears a checkpoint line; the heartbeat ends in a terminal state;
and resume counts each point once, whatever the file holds.
"""

import io
import json
import random

import pytest

from repro.sweep.checkpoint import canonical_lines
from repro.sweep.engine import heartbeat_path, read_results
from repro.traffic.engine import build_points, run_campaign


def tiny_points(count=4):
    """``count`` seeds of one very small load point (milliseconds each)."""
    return build_points(loads=(1.2,), seeds=tuple(range(count)),
                        pool_frames=16, quotas=(3, 4), pages=24,
                        session_length=32, shared_pages=8, horizon=48)


def canon(result):
    return canonical_lines(result.records, key="point")


def recorded(path):
    return read_results(path, key="point", name_field="campaign")


def beat(path):
    return json.loads(heartbeat_path(path).read_text())


def interrupt_after(count):
    def progress(done, total, record):
        if done >= count:
            raise KeyboardInterrupt
    return progress


class TestWorkerDeath:
    def test_point_that_dies_once_still_yields_every_record(self, tmp_path):
        """The imap_unordered hang, fixed for traffic: a worker killed
        hard mid-point breaks the pool, the lost points requeue on a
        fresh one, and the campaign matches a clean run."""
        points = tiny_points(3)
        points[0] = dict(points[0],
                         inject_exit_once=str(tmp_path / "died.marker"))
        result = run_campaign(points, workers=2)
        assert result.ok, result.failures
        assert result.transport == "pool"
        assert canon(result) == canon(run_campaign(tiny_points(3)))

    def test_poison_point_fails_alone_without_hanging(self, tmp_path):
        points = tiny_points(4)
        poison = points[1]["point"]
        points[1] = dict(points[1], inject_exit=True)
        path = tmp_path / "results.jsonl"
        result = run_campaign(points, workers=2, results_path=path)
        (failure,) = result.failures
        assert failure["point"] == poison
        assert "BrokenProcessPool" in failure["error"]
        # Its pool-mates were lost with it, but never charged as failed.
        assert len(result.records) == 3
        assert poison not in {record["point"] for record in result.records}
        # The failure was reported, not checkpointed, and the campaign
        # still finished.
        assert len(recorded(path)[0]) == 3
        assert beat(path)["state"] == "finished"
        assert beat(path)["failed"] == 1


class TestInterruptInjection:
    @pytest.mark.parametrize("stop_after", [1, 2, 3])
    def test_interrupt_never_leaves_a_torn_line(self, tmp_path, stop_after):
        path = tmp_path / "results.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(tiny_points(), results_path=path,
                         progress=interrupt_after(stop_after))
        records, corrupt = recorded(path)
        assert corrupt == 0
        assert len(records) == stop_after
        assert beat(path)["state"] == "aborted"
        resumed = run_campaign(tiny_points(), results_path=path, resume=True)
        assert resumed.skipped == stop_after
        assert resumed.executed == 4 - stop_after
        assert beat(path)["state"] == "finished"

    def test_seeded_interrupts_then_resume_match_a_clean_run(self, tmp_path):
        """Resume stress: cut the campaign at seeded random counts and
        resume until it finishes.  The checkpoint file is the only state
        carried between runs, and after every cut it must hold whole
        lines only; the finished campaign must be byte-identical to one
        that was never interrupted."""
        rng = random.Random(1967)
        points = tiny_points(8)
        path = tmp_path / "results.jsonl"
        states = []
        while True:
            cut = rng.randint(1, len(points))
            try:
                result = run_campaign(points, results_path=path, resume=True,
                                      progress=interrupt_after(cut))
            except KeyboardInterrupt:
                states.append(beat(path)["state"])
                assert recorded(path)[1] == 0
                continue
            states.append(beat(path)["state"])
            break
        assert len(states) > 1
        assert set(states[:-1]) == {"aborted"} and states[-1] == "finished"
        assert result.corrupt_lines == 0
        assert len(path.read_text().splitlines()) == len(points)
        clean = run_campaign(points)
        assert canon(result) == canon(clean)
        assert result.telemetry.deterministic_snapshot() == \
            clean.telemetry.deterministic_snapshot()


class TestTerminalHeartbeat:
    def test_finished_campaign_stamps_finished(self, tmp_path):
        path = tmp_path / "results.jsonl"
        run_campaign(tiny_points(), results_path=path)
        payload = beat(path)
        assert payload["state"] == "finished"
        assert payload["campaign"] == "traffic"
        assert payload["done"] == payload["total"] == 4
        assert "traffic.queue_wait" in payload["telemetry"]["histograms"]

    def test_failed_points_still_finish_the_campaign(self, tmp_path):
        path = tmp_path / "results.jsonl"
        broken = [dict(point, pool_frames=None) for point in tiny_points()]
        result = run_campaign(broken, results_path=path)
        assert len(result.failures) == 4
        assert all("point" in failure for failure in result.failures)
        assert beat(path)["state"] == "finished"
        assert beat(path)["failed"] == 4

    def test_top_snapshot_stops_following_a_finished_campaign(self,
                                                               tmp_path):
        from repro.observe.telemetry.cli import run_top

        path = tmp_path / "results.jsonl"
        run_campaign(tiny_points(), results_path=path)
        stream = io.StringIO()
        # --iterations bounds a regression to a failure instead of a hang.
        assert run_top(["--snapshot", str(heartbeat_path(path)),
                        "--iterations", "3", "--interval", "0"],
                       stream=stream) == 0
        out = stream.getvalue()
        assert "state=finished" in out
        assert "campaign=traffic" in out
        assert "campaign finished" in out
        assert "-" * 64 not in out   # one frame: it stopped following


class TestResumeOverDuplicates:
    def test_resume_counts_each_point_once(self, tmp_path):
        """Two plain runs leave every point twice in the file; resume
        must still see one record per point, not double the totals."""
        points = tiny_points()
        path = tmp_path / "results.jsonl"
        clean = run_campaign(points, results_path=path)
        run_campaign(points, results_path=path)
        assert len(path.read_text().splitlines()) == 2 * len(points)
        resumed = run_campaign(points, results_path=path, resume=True)
        assert resumed.executed == 0
        assert resumed.skipped == len(points)
        assert len(resumed.records) == len(points)
        assert canon(resumed) == canon(clean)
        assert resumed.telemetry.deterministic_snapshot() == \
            clean.telemetry.deterministic_snapshot()
