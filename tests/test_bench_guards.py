"""Bench arithmetic guards: zero elapsed time, zeroed metrics, damage."""

import json

import pytest

from repro import bench
from tests.test_bench_history import canned_report


class TestZeroElapsed:
    def test_throughput_of_zero_seconds_is_none(self):
        assert bench._throughput(1_000, 0.0) is None
        assert bench._throughput(1_000, 0) is None
        assert bench._throughput(1_000, 0.5) == 2_000

    def test_suite_survives_a_frozen_clock(self, monkeypatch):
        """On a coarse clock every timing can come back 0.0; the suite
        must report n/a throughputs instead of dividing by zero."""
        monkeypatch.setattr(bench.time, "perf_counter", lambda: 42.0)
        report = bench.run_suite(quick=True)
        for stats in report["replay"]["policies"].values():
            assert stats["reference_refs_per_s"] is None
            assert stats["fast_refs_per_s"] is None
            assert stats["speedup"] is None
        for stats in report["traffic"]["loads"].values():
            assert stats["refs_per_s"] is None
            # The simulation itself runs on virtual time: the frozen
            # wall clock must not zero the measured work.
            assert stats["refs"] > 0
        # The report renders, with n/a columns, rather than crashing.
        import io

        bench._print_report(report, stream=io.StringIO())

    def test_history_record_tolerates_none_metrics(self):
        report = canned_report()
        report["replay"]["policies"]["lru"]["fast_refs_per_s"] = None
        record = bench.history_record(report)
        assert record["metrics"]["replay.lru.fast_refs_per_s"] is None

    def test_compare_skips_none_on_either_side(self):
        baseline = bench.history_record(canned_report())
        current = bench.history_record(canned_report())
        baseline["metrics"]["replay.lru.fast_refs_per_s"] = None
        current["metrics"]["replay.lru.reference_refs_per_s"] = None
        assert bench.compare_records(current, baseline) == []


def traffic_report(scale=1.0, quick=True):
    """canned_report plus the sections newer bench versions emit."""
    report = canned_report(quick=quick)
    report["telemetry"] = {
        "references": 75_000, "degree": 4, "overhead": 0.011,
        "off_refs_per_s": 300_000, "on_refs_per_s": 297_000,
    }
    report["traffic"] = {
        "pool_frames": 48, "horizon": 300, "quick": True,
        "loads": {
            "1.0": {
                "arrivals": 30, "admitted": 28, "shed": 2, "completed": 28,
                "refs": 2_000, "queue_wait_p99": 88.0,
                "fault_wait_p99": 18.5, "traffic_s": 0.01,
                "refs_per_s": int(200_000 * scale),
            },
        },
    }
    return report


class TestMixedVersionHistory:
    """--compare must survive histories written by older bench builds:
    records predating the telemetry and traffic sections (keys absent)
    and records whose new throughputs were too fast to time (null)."""

    def test_record_without_new_sections_still_flattens(self):
        record = bench.history_record(canned_report())
        assert record["telemetry_overhead"] is None
        assert not any(key.startswith("traffic.") for key in record["metrics"])

    def test_record_with_traffic_flattens(self):
        record = bench.history_record(traffic_report())
        assert record["metrics"]["traffic.load1.0.refs_per_s"] == 200_000
        assert record["telemetry_overhead"] == 0.011

    def test_overhead_rides_outside_the_compared_metrics(self):
        """A *lower* overhead must never register as a regression, so it
        must not live where compare_records reads throughputs."""
        record = bench.history_record(traffic_report())
        assert "telemetry_overhead" not in record["metrics"]
        assert not any("overhead" in key for key in record["metrics"])

    def test_compare_old_baseline_against_new_current(self):
        baseline = bench.history_record(canned_report())
        current = bench.history_record(traffic_report())
        current["metrics"]["traffic.load1.0.refs_per_s"] = 1  # collapsed
        # The traffic metric has no baseline: skipped, not flagged.
        assert bench.compare_records(current, baseline) == []

    def test_compare_new_baseline_against_old_current(self):
        baseline = bench.history_record(traffic_report())
        current = bench.history_record(canned_report())
        assert bench.compare_records(current, baseline) == []

    def test_compare_skips_untimed_traffic_on_either_side(self):
        baseline = bench.history_record(traffic_report())
        current = bench.history_record(traffic_report())
        current["metrics"]["traffic.load1.0.refs_per_s"] = None
        assert bench.compare_records(current, baseline) == []
        assert bench.compare_records(baseline, current) == []

    def test_traffic_regression_still_flagged(self):
        baseline = bench.history_record(traffic_report())
        current = bench.history_record(traffic_report(scale=0.5))
        flagged = bench.compare_records(current, baseline)
        assert [row["metric"] for row in flagged] == [
            "traffic.load1.0.refs_per_s"
        ]

    def test_cli_compare_survives_a_pre_traffic_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        import copy

        monkeypatch.setattr(
            bench, "run_suite",
            lambda quick=False, trace_file=None:
                copy.deepcopy(traffic_report(quick=quick)),
        )
        history = tmp_path / "history.jsonl"
        bench.append_history(bench.history_record(canned_report()), history)
        status = bench.main([
            "--quick", "--no-write", "--history", str(history), "--compare",
        ])
        assert status == 0
        assert "no regressions" in capsys.readouterr().out

    def test_print_report_renders_untimed_traffic(self):
        import io

        report = traffic_report()
        report["traffic"]["loads"]["1.0"]["refs_per_s"] = None
        stream = io.StringIO()
        bench._print_report(report, stream=stream)
        assert "n/a" in stream.getvalue()


class TestZeroCurrentValue:
    def test_collapse_to_zero_is_a_regression(self):
        """A current throughput of 0 against a positive baseline is the
        worst possible regression, not a metric to skip."""
        baseline = bench.history_record(canned_report())
        current = bench.history_record(canned_report())
        current["metrics"]["replay.lru.fast_refs_per_s"] = 0
        flagged = bench.compare_records(current, baseline)
        assert len(flagged) == 1
        assert flagged[0]["metric"] == "replay.lru.fast_refs_per_s"
        assert flagged[0]["change"] == -1.0

    def test_zero_baseline_still_skipped(self):
        baseline = bench.history_record(canned_report())
        current = bench.history_record(canned_report())
        baseline["metrics"]["replay.lru.fast_refs_per_s"] = 0
        assert bench.compare_records(current, baseline) == []


class TestDamagedHistory:
    def test_damage_count_surfaced(self, tmp_path):
        path = tmp_path / "history.jsonl"
        good = bench.history_record(canned_report())
        path.write_text(
            "garbage\n" + json.dumps(good) + "\n" + '{"metrics": 1}\n'
        )
        records, damaged = bench.read_history_with_damage(path)
        assert records == [good]
        assert damaged == 2

    def test_missing_file_has_no_damage(self, tmp_path):
        assert bench.read_history_with_damage(tmp_path / "none.jsonl") == \
            ([], 0)

    def test_compare_warns_about_damaged_lines(self, tmp_path, monkeypatch,
                                               capsys):
        import copy

        monkeypatch.setattr(
            bench, "run_suite",
            lambda quick=False, trace_file=None:
                copy.deepcopy(canned_report(quick=quick)),
        )
        path = tmp_path / "history.jsonl"
        baseline = bench.history_record(canned_report())
        path.write_text("corrupt {\n" + json.dumps(baseline) + "\n")
        status = bench.main([
            "--quick", "--no-write", "--history", str(path), "--compare",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "skipped 1 unreadable line(s)" in out


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
