"""python -m repro traffic: report, resume, compare gate, live view."""

import pytest

from repro.traffic.cli import TrafficLiveView, main

QUICK = [
    "--quick", "--loads", "1.2", "--workers", "1",
    "--pool-frames", "24", "--horizon", "96",
]


def run(tmp_path, *extra):
    return main([*QUICK, "--results", str(tmp_path / "r.jsonl"), *extra])


class TestRuns:
    def test_report_carries_the_headline_numbers(self, tmp_path, capsys):
        assert run(tmp_path) == 0
        out = capsys.readouterr().out
        assert "offered-load axis" in out
        assert "qwait p99" in out and "fwait p99" in out
        assert "traffic.queue_wait" in out and "traffic.fault_wait" in out
        assert "executed 1  skipped 0  failed 0" in out

    def test_no_report_still_prints_the_grep_line(self, tmp_path, capsys):
        assert run(tmp_path, "--no-report") == 0
        out = capsys.readouterr().out
        assert "executed 1  skipped 0  failed 0" in out
        assert "offered-load axis" not in out

    def test_resume_skips_recorded_points(self, tmp_path, capsys):
        run(tmp_path)
        assert run(tmp_path, "--resume") == 0
        assert "executed 0  skipped 1" in capsys.readouterr().out

    def test_bad_axis_value_is_a_usage_error(self, tmp_path, capsys):
        assert run(tmp_path, "--loads", "-1") == 2
        assert "offered load" in capsys.readouterr().err

    @pytest.mark.parametrize("load", ("inf", "nan"))
    def test_non_finite_load_is_a_usage_error(self, tmp_path, capsys, load):
        assert run(tmp_path, "--loads", load) == 2
        assert "offered load must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value, message", [
        ("--pool-frames", "0", "pool_frames must be positive, got 0"),
        ("--horizon", "0", "horizon must be positive, got 0"),
        ("--replacement", "bogus", "unknown replacement policy 'bogus'"),
        ("--replacement", "opt", "'opt' needs the whole trace"),
        ("--workers", "-2", "workers must be positive, got -2"),
    ], ids=["pool-frames", "horizon", "unknown-replacement",
            "opt-replacement", "negative-workers"])
    def test_bad_argument_fails_before_any_worker(
        self, tmp_path, capsys, flag, value, message
    ):
        assert run(tmp_path, flag, value) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err
        assert list(tmp_path.iterdir()) == []   # no results, no heartbeat

    def test_unknown_arrivals_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            run(tmp_path, "--arrivals", "sawtooth")


class TestCompareGate:
    def test_recorded_campaign_reproduces(self, tmp_path, capsys):
        run(tmp_path)
        assert run(tmp_path, "--compare") == 0
        assert "reproduced bit-identically" in capsys.readouterr().out

    def test_tampered_record_fails_the_gate(self, tmp_path, capsys):
        import json

        run(tmp_path)
        path = tmp_path / "r.jsonl"
        record = json.loads(path.read_text())
        record["refs"] += 1
        path.write_text(json.dumps(record) + "\n")
        assert run(tmp_path, "--compare") == 1
        assert "MISMATCH" in capsys.readouterr().err

    def test_nothing_recorded_is_a_usage_error(self, tmp_path, capsys):
        assert run(tmp_path, "--compare") == 2
        assert "no recorded points" in capsys.readouterr().err

    def test_different_flags_do_not_match_the_record(self, tmp_path, capsys):
        run(tmp_path)
        assert run(tmp_path, "--compare", "--policy", "shortest") == 2
        assert "none of the requested points" in capsys.readouterr().err


class TestLiveView:
    class FakeRenderer:
        def __init__(self):
            self.frames = []

        def render(self, frame):
            self.frames.append(frame)

    def test_accumulates_and_renders(self):
        renderer = self.FakeRenderer()
        view = TrafficLiveView("t", renderer=renderer)
        view.update(1, 3, {"point": "p1", "admitted": 5, "shed": 1,
                           "completed": 5, "refs": 400})
        view.update(2, 3, {"point": "p2", "error": "boom"})
        assert len(renderer.frames) == 2
        assert "point 2/3" in renderer.frames[-1]
        assert "failed 1" in renderer.frames[-1]
        assert "admitted 5" in renderer.frames[-1]
        assert "p2 (FAILED)" in renderer.frames[-1]

    def test_cli_live_flag_renders_frames(self, tmp_path, capsys):
        assert run(tmp_path, "--live") == 0
        assert "traffic: traffic" in capsys.readouterr().out
