"""The bench trajectory: history records, comparison, regression gate."""

import copy
import json

import pytest

from repro import bench


def canned_report(scale=1.0, quick=True):
    """A run_suite-shaped report with deterministic throughputs."""
    return {
        "schema": 1,
        "created": "2026-08-06T00:00:00+00:00",
        "quick": quick,
        "replay": {
            "references": 60_000, "frames": 24, "pages": 256,
            "policies": {
                "lru": {
                    "faults": 100, "reference_s": 1.0, "fast_s": 0.1,
                    "speedup": 10.0,
                    "reference_refs_per_s": int(60_000 * scale),
                    "fast_refs_per_s": int(600_000 * scale),
                },
            },
        },
    }


class TestHistoryRecord:
    def test_flattens_every_throughput_metric(self):
        record = bench.history_record(canned_report(), rev="abc1234")
        assert record["schema"] == 1
        assert record["rev"] == "abc1234"
        assert record["quick"] is True
        assert record["created"] == "2026-08-06T00:00:00+00:00"
        assert record["metrics"] == {
            "replay.lru.reference_refs_per_s": 60_000,
            "replay.lru.fast_refs_per_s": 600_000,
        }

    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        first = bench.history_record(canned_report(), rev="aaa")
        second = bench.history_record(canned_report(scale=1.1), rev="bbb")
        bench.append_history(first, path)
        bench.append_history(second, path)
        assert bench.read_history(path) == [first, second]

    def test_read_skips_damaged_lines(self, tmp_path):
        path = tmp_path / "history.jsonl"
        good = bench.history_record(canned_report())
        path.write_text(
            "not json\n"
            + json.dumps(good) + "\n"
            + '{"schema": 1, "no_metrics": true}\n'
        )
        assert bench.read_history(path) == [good]

    def test_read_missing_file_is_empty(self, tmp_path):
        assert bench.read_history(tmp_path / "absent.jsonl") == []

    def test_last_comparable_matches_size_class(self):
        quick = bench.history_record(canned_report(quick=True))
        full = bench.history_record(canned_report(quick=False))
        records = [full, quick, full]
        assert bench.last_comparable(records, quick=True) is quick
        assert bench.last_comparable(records, quick=False) is records[-1]
        assert bench.last_comparable([quick], quick=False) is None


class TestCompareRecords:
    def test_regression_past_threshold_flagged(self):
        baseline = bench.history_record(canned_report())
        current = bench.history_record(canned_report(scale=0.8))
        regressions = bench.compare_records(current, baseline, threshold=0.15)
        assert len(regressions) == 2
        assert all(row["change"] == -0.2 for row in regressions)
        assert regressions[0]["baseline"] > regressions[0]["current"]

    def test_sub_threshold_noise_ignored(self):
        baseline = bench.history_record(canned_report())
        current = bench.history_record(canned_report(scale=0.9))
        assert bench.compare_records(current, baseline, threshold=0.15) == []

    def test_improvement_never_flagged(self):
        baseline = bench.history_record(canned_report())
        current = bench.history_record(canned_report(scale=2.0))
        assert bench.compare_records(current, baseline) == []

    def test_new_metrics_skipped(self):
        baseline = bench.history_record(canned_report())
        del baseline["metrics"]["replay.lru.fast_refs_per_s"]
        current = bench.history_record(canned_report(scale=0.5))
        flagged = {
            row["metric"]
            for row in bench.compare_records(current, baseline)
        }
        assert "replay.lru.fast_refs_per_s" not in flagged
        assert len(flagged) == 1


class TestCliRegressionGate:
    @pytest.fixture()
    def fake_suite(self, monkeypatch):
        """Replace the real timing suite with the canned report."""
        state = {"scale": 1.0}

        def fake_run_suite(quick=False, trace_file=None):
            return copy.deepcopy(canned_report(scale=state["scale"],
                                               quick=quick))

        monkeypatch.setattr(bench, "run_suite", fake_run_suite)
        return state

    def run_main(self, tmp_path, extra=()):
        history = tmp_path / "history.jsonl"
        return bench.main([
            "--quick", "--no-write", "--history", str(history), *extra,
        ]), history

    def test_injected_regression_exits_nonzero(self, tmp_path, fake_suite,
                                               capsys):
        baseline = bench.history_record(canned_report(scale=1.0))
        history = tmp_path / "history.jsonl"
        bench.append_history(baseline, history)
        fake_suite["scale"] = 0.8       # 20% slower than recorded
        status = bench.main([
            "--quick", "--no-write", "--history", str(history), "--compare",
        ])
        assert status == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_steady_throughput_exits_zero(self, tmp_path, fake_suite, capsys):
        baseline = bench.history_record(canned_report(scale=1.0))
        history = tmp_path / "history.jsonl"
        bench.append_history(baseline, history)
        status = bench.main([
            "--quick", "--no-write", "--history", str(history), "--compare",
        ])
        assert status == 0
        assert "no regressions past 15%" in capsys.readouterr().out

    def test_first_run_has_no_baseline(self, tmp_path, fake_suite, capsys):
        status, history = self.run_main(tmp_path, extra=("--compare",))
        assert status == 0
        assert "recording this one as the baseline" in capsys.readouterr().out
        # The run itself was still recorded for next time.
        assert len(bench.read_history(history)) == 1

    def test_every_run_appends_to_history(self, tmp_path, fake_suite):
        _, history = self.run_main(tmp_path)
        status, _ = self.run_main(tmp_path)
        assert status == 0
        records = bench.read_history(history)
        assert len(records) == 2
        assert all(record["quick"] for record in records)

    def test_no_history_flag_skips_the_append(self, tmp_path, fake_suite):
        _, history = self.run_main(tmp_path, extra=("--no-history",))
        assert not history.exists()

    def test_full_history_never_compared_against_quick(self, tmp_path,
                                                       fake_suite, capsys):
        full_baseline = bench.history_record(canned_report(quick=False))
        history = tmp_path / "history.jsonl"
        bench.append_history(full_baseline, history)
        fake_suite["scale"] = 0.5       # would regress against full sizes
        status = bench.main([
            "--quick", "--no-write", "--history", str(history), "--compare",
        ])
        assert status == 0
        assert "no comparable quick run" in capsys.readouterr().out

    def test_bad_threshold_rejected(self, tmp_path, fake_suite):
        with pytest.raises(SystemExit, match="--threshold"):
            bench.main(["--quick", "--no-write", "--threshold", "1.5"])


def test_git_revision_shape():
    rev = bench.git_revision()
    assert rev is None or (isinstance(rev, str) and 4 <= len(rev) <= 40)
