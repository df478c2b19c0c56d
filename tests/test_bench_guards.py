"""The telemetry-overhead gate, and damage counts in JSONL readers."""

import pytest

from repro import bench

#: Gate sizes small enough for a whole run to take a fraction of a second.
SMALL = dict(length=600, frames=8, pages=32, degree=2)


class TestZeroElapsed:
    def test_suite_survives_a_frozen_clock(self, monkeypatch, capsys):
        """On a coarse clock every timing can come back 0.0; the gate
        must report an unmeasured overhead and pass, not divide by
        zero."""
        readings = []
        monkeypatch.setattr(bench, "_print_reading", readings.append)
        monkeypatch.setattr(bench, "SIZES", SMALL)
        monkeypatch.setattr(bench.time, "perf_counter", lambda: 42.0)
        assert bench.main([]) == 0
        assert [reading["overhead"] for reading in readings] == [None]
        assert "could not be measured" in capsys.readouterr().out


class TestOverheadGate:
    def test_takes_no_options(self):
        with pytest.raises(SystemExit) as exit_info:
            bench.main(["--quick"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "overheads, status",
        [((0.05, 0.05, 0.05), 1), ((0.05, 0.01), 0), ((0.01,), 0)],
        ids=["over-every-time", "recovers", "within-first-time"],
    )
    def test_reading_over_budget_is_measured_again_up_to_twice(
        self, monkeypatch, capsys, overheads, status
    ):
        """The gate takes the minimum of at most three readings and
        stops measuring as soon as one is within budget."""
        readings = iter(overheads)
        calls = []

        def fake_bench_telemetry(**sizes):
            calls.append(sizes)
            overhead = next(readings)
            return {
                "replay_ratio": 1.0 + overhead, "serve_ratio": 1.0 + overhead,
                "replay_share": 0.5, "overhead": overhead,
            }

        monkeypatch.setattr(bench, "bench_telemetry", fake_bench_telemetry)
        assert bench.main([]) == status
        assert calls == [bench.SIZES] * len(overheads)
        verdict = capsys.readouterr().out.splitlines()[-1]
        assert f"{min(overheads):+.2%}" in verdict

    @pytest.mark.parametrize(
        "entry, field, leg",
        [("simulate_trace", "faults", "replay"),
         ("simulate_shared", "cow_breaks", "serve")],
    )
    def test_telemetry_changing_an_answer_raises(
        self, monkeypatch, entry, field, leg
    ):
        real = getattr(bench, entry)

        def skewed(*args, telemetry=None, **kwargs):
            result = real(*args, telemetry=telemetry, **kwargs)
            if telemetry is not None:
                setattr(result, field, getattr(result, field) + 1)
            return result

        monkeypatch.setattr(bench, entry, skewed)
        monkeypatch.setattr(bench, "SIZES", SMALL)
        with pytest.raises(AssertionError, match=f"changed the {leg} result"):
            bench.main([])


class TestReadJsonlRecords:
    def test_counts_every_kind_of_damage(self, tmp_path):
        from repro.observe.sinks import read_jsonl_records

        path = tmp_path / "records.jsonl"
        path.write_text(
            '{"ok": 1}\n'
            "not json\n"
            "[1, 2, 3]\n"
            "\n"
            '{"ok": 2}\n'
        )
        records, skipped = read_jsonl_records(path)
        assert records == [{"ok": 1}, {"ok": 2}]
        assert skipped == 2          # blank lines are not damage

    def test_missing_file_is_empty(self, tmp_path):
        from repro.observe.sinks import read_jsonl_records

        assert read_jsonl_records(tmp_path / "absent.jsonl") == ([], 0)


class TestEventStreamDamage:
    def test_trace_diff_reports_corrupt_line_counts(self, tmp_path):
        """The analysis CLI surfaces how many lines each trace lost."""
        import io

        from repro.observe.analysis.cli import build_diff_parser, run_diff
        from repro.observe.cli import build_parser, run_trace

        trace = tmp_path / "trace.jsonl"
        args = build_parser().parse_args([
            "phased", "--length", "500", "--pages", "32", "--frames", "8",
            "--output", str(trace),
        ])
        assert run_trace(args, stream=io.StringIO()) == 0
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_text("broken {\n" + trace.read_text())

        out = io.StringIO()
        diff_args = build_diff_parser().parse_args([str(trace), str(damaged)])
        run_diff(diff_args, stream=out)
        report = out.getvalue()
        assert "corrupt lines in a" in report
        assert "corrupt lines in b" in report
