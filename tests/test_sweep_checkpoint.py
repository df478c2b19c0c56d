"""The hardened checkpoint seam: torn lines, interrupts, terminal beats.

The campaign's one durable artifact is ``SWEEP_results.jsonl``; these
tests pin the three ways it used to go wrong — a torn line under
interrupt, a resume that re-ran healthy shards after damage, and a
heartbeat that kept followers polling a dead campaign forever.
"""

import io
import json
import os

import pytest

from repro.observe.telemetry.dashboard import TERMINAL_STATES
from repro.sweep.checkpoint import (
    CheckpointWriter,
    canonical_lines,
    strip_nondeterministic,
)
from repro.sweep.engine import heartbeat_path, read_results, run_sweep
from repro.sweep.grid import SweepGrid


def tiny_grid(**overrides):
    base = dict(
        name="tiny",
        machines=("baseline",),
        replacement=("lru", "fifo"),
        placement=("first_fit",),
        frames=(8,),
        capacities=(10_000,),
        seeds=(0, 1),
        length=400,
        pages=32,
        requests=200,
        mean_lifetime=60,
        programs=2,
        program_length=200,
    )
    base.update(overrides)
    return SweepGrid.from_dict(base)


class TestCheckpointWriter:
    def test_each_record_is_one_sorted_json_line(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with CheckpointWriter(path) as writer:
            line = writer.append({"b": 2, "a": 1, "shard": "s"})
        assert line == json.dumps({"a": 1, "b": 2, "shard": "s"},
                                  sort_keys=True) + "\n"
        assert path.read_text() == line

    def test_each_record_is_exactly_one_os_write(self, tmp_path,
                                                 monkeypatch):
        """The torn-line fix by construction: serialize to one string,
        hand the kernel one write.  No second call, no userspace buffer
        to flush, no window for a half-line."""
        calls = []
        real_write = os.write

        def counting_write(fd, data):
            calls.append(bytes(data))
            return real_write(fd, data)

        writer = CheckpointWriter(tmp_path / "results.jsonl")
        monkeypatch.setattr(os, "write", counting_write)
        writer.append({"shard": "a", "value": 1})
        writer.append({"shard": "b", "value": 2})
        monkeypatch.undo()
        writer.close()
        assert len(calls) == 2
        for data in calls:
            assert data.endswith(b"\n") and data.count(b"\n") == 1

    def test_closed_writer_refuses_appends(self, tmp_path):
        writer = CheckpointWriter(tmp_path / "results.jsonl")
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.append({"shard": "s"})
        writer.close()   # idempotent

    def test_concurrent_appenders_interleave_at_line_boundaries(
            self, tmp_path):
        """O_APPEND: two writers on one file, alternating — every line
        must parse, none may interleave mid-record."""
        path = tmp_path / "results.jsonl"
        with CheckpointWriter(path) as one, CheckpointWriter(path) as two:
            for index in range(20):
                (one if index % 2 else two).append(
                    {"shard": f"s{index:02d}", "payload": "x" * 200})
        lines = path.read_text().splitlines()
        assert len(lines) == 20
        assert {json.loads(line)["shard"] for line in lines} \
            == {f"s{index:02d}" for index in range(20)}


class TestInterruptInjection:
    @pytest.mark.parametrize("stop_after", [1, 2, 3])
    def test_interrupt_never_leaves_a_torn_line(self, tmp_path,
                                                stop_after):
        """Satellite of the seam: kill the campaign (^C) inside the
        progress callback after N shards — the record the callback was
        told about is already durable, and ``read_results`` sees N
        whole lines and zero corruption."""
        path = tmp_path / "results.jsonl"

        def interrupter(done, total, record):
            if done >= stop_after:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(tiny_grid(), workers=1, results_path=path,
                      progress=interrupter)
        records, corrupt = read_results(path, sweep="tiny")
        assert corrupt == 0
        assert len(records) == stop_after
        # And the resumed campaign finishes exactly the remainder.
        resumed = run_sweep(tiny_grid(), workers=1, results_path=path,
                            resume=True)
        assert resumed.skipped == stop_after
        assert resumed.executed == 4 - stop_after

    def test_interrupted_campaign_writes_an_aborted_heartbeat(
            self, tmp_path):
        path = tmp_path / "results.jsonl"

        def interrupter(done, total, record):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(tiny_grid(), workers=1, results_path=path,
                      progress=interrupter)
        beat = json.loads(heartbeat_path(path).read_text())
        assert beat["state"] == "aborted"


class TestTerminalHeartbeat:
    def test_finished_campaign_stamps_finished(self, tmp_path):
        path = tmp_path / "results.jsonl"
        run_sweep(tiny_grid(), workers=1, results_path=path)
        beat = json.loads(heartbeat_path(path).read_text())
        assert beat["state"] == "finished"
        assert beat["done"] == beat["total"] == 4

    def test_terminal_states_are_the_published_pair(self):
        assert set(TERMINAL_STATES) == {"finished", "aborted"}

    def test_failed_shards_still_finish_the_campaign(self, tmp_path,
                                                     monkeypatch):
        """'finished' means the coordinator ran to completion — failed
        shards are in the failure list, not grounds for 'aborted'."""
        from repro.sweep import engine

        monkeypatch.setattr(
            engine, "run_shard_safely",
            lambda spec: {"shard": spec["shard"], "error": "Boom"})
        path = tmp_path / "results.jsonl"
        result = run_sweep(tiny_grid(), workers=1, results_path=path)
        assert not result.ok
        beat = json.loads(heartbeat_path(path).read_text())
        assert beat["state"] == "finished"
        assert beat["failed"] == 4

    def test_top_snapshot_stops_following_a_terminal_beat(self, tmp_path):
        """The stale-heartbeat bugfix: without a terminal marker,
        ``top --snapshot`` (no --once) followed a dead campaign's file
        forever.  On a terminal state it renders the marker and
        returns."""
        from repro.observe.telemetry.cli import run_top

        path = tmp_path / "results.jsonl"
        run_sweep(tiny_grid(), workers=1, results_path=path)
        stream = io.StringIO()
        status = run_top(
            ["--snapshot", str(heartbeat_path(path))], stream=stream)
        assert status == 0   # returned — did not spin on a dead file
        out = stream.getvalue()
        assert "campaign finished" in out
        assert "state=finished" in out

    def test_top_snapshot_still_renders_running_beats_once(self, tmp_path):
        from repro.observe.telemetry.cli import run_top

        beat = tmp_path / "beat.json"
        beat.write_text(json.dumps({
            "sweep": "tiny", "done": 1, "total": 4, "failed": 0,
            "state": "running", "telemetry": {},
        }))
        stream = io.StringIO()
        status = run_top(["--snapshot", str(beat), "--once"],
                         stream=stream)
        assert status == 0
        assert "campaign" not in stream.getvalue().splitlines()[-1]


class TestResumeAfterCorruption:
    def truncate_last_line(self, path):
        """Tear the trailing record the way a crash mid-write would."""
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        torn = lines[-1][: len(lines[-1]) // 2]
        path.write_text("".join(lines[:-1]) + torn)
        return json.loads(lines[-1])["shard"]

    def test_resume_re_executes_exactly_the_torn_shard(self, tmp_path):
        path = tmp_path / "results.jsonl"
        fresh = run_sweep(tiny_grid(), workers=1, results_path=path)
        torn_shard = self.truncate_last_line(path)

        resumed = run_sweep(tiny_grid(), workers=1, results_path=path,
                            resume=True)
        assert resumed.corrupt_lines == 1
        assert resumed.skipped == 3
        assert resumed.executed == 1
        assert len(resumed.records) == 4
        # Determinism makes the repair invisible: the re-executed
        # shard reproduces its torn record bit for bit.
        assert canonical_lines(resumed.records) \
            == canonical_lines(fresh.records)
        assert torn_shard in {r["shard"] for r in resumed.records}

    def test_cli_summary_surfaces_the_corrupt_count(self, tmp_path,
                                                    capsys):
        from repro.sweep.cli import main

        path = tmp_path / "results.jsonl"
        argv = ["--name", "tiny", "--quick", "--machines", "baseline",
                "--replacement", "lru", "fifo",
                "--placement", "first_fit", "--frames", "8",
                "--capacities", "10000", "--seeds", "0",
                "--workers", "1", "--results", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        self.truncate_last_line(path)
        assert main([*argv, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "corrupt result lines" in out
        assert "may be damaged" in out


class TestCanonicalLines:
    def test_sorted_stripped_and_key_ordered(self):
        records = [
            {"shard": "b", "wall_s": 9.9, "value": 2},
            {"shard": "a", "wall_s": 0.1, "value": 1},
        ]
        lines = canonical_lines(records)
        assert lines == [
            json.dumps({"shard": "a", "value": 1}, sort_keys=True),
            json.dumps({"shard": "b", "value": 2}, sort_keys=True),
        ]

    def test_telemetry_keeps_only_its_deterministic_part(self):
        record = {
            "shard": "a",
            "telemetry": {"spans": {"sweep.churn_seconds": 0.5,
                                    "sweep.ops": 12}},
        }
        stripped = strip_nondeterministic(record)
        assert stripped["telemetry"] == {"spans": {"sweep.ops": 12}}

    def test_completion_order_cannot_leak_into_the_bytes(self):
        records = [{"shard": f"s{i}", "wall_s": float(i)}
                   for i in range(5)]
        assert canonical_lines(records) \
            == canonical_lines(list(reversed(records)))

    def test_traffic_records_sort_by_point_and_drop_throughput(self):
        records = [
            {"point": "b", "wall_s": 1.0, "refs_per_s": 9, "refs": 2},
            {"point": "a", "wall_s": 2.0, "refs_per_s": 8, "refs": 1},
        ]
        assert canonical_lines(records, key="point") == [
            json.dumps({"point": "a", "refs": 1}),
            json.dumps({"point": "b", "refs": 2}),
        ]
