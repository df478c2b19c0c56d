"""Bit-identity of traffic campaigns: seeds, workers, resume."""

import json

from repro.sweep.checkpoint import canonical_lines, strip_nondeterministic
from repro.sweep.engine import read_results
from repro.traffic.engine import build_points, run_campaign

SEEDS_100 = tuple(range(100))


def hundred_points(**overrides):
    """100 seeds of one very small load point (~milliseconds each)."""
    sizing = dict(pool_frames=16, quotas=(3, 4), pages=24,
                  session_length=32, shared_pages=8, horizon=48)
    sizing.update(overrides)
    return build_points(loads=(1.2,), seeds=SEEDS_100, **sizing)


class TestHundredSeeds:
    def test_workers_1_and_4_are_bit_identical(self):
        """The acceptance criterion, at campaign scale: 100 seeds run
        serially and run over 4 forked workers yield the same stripped
        records and the same merged deterministic telemetry."""
        points = hundred_points()
        serial = run_campaign(points, workers=1)
        pooled = run_campaign(points, workers=4)
        assert serial.ok and pooled.ok
        assert len(serial.records) == len(pooled.records) == 100
        assert [strip_nondeterministic(r) for r in serial.records] == \
            [strip_nondeterministic(r) for r in pooled.records]
        assert serial.telemetry.deterministic_snapshot() == \
            pooled.telemetry.deterministic_snapshot()

    def test_seeds_actually_vary_the_answer(self):
        """100 identical answers would also pass bit-identity; pin that
        the seed axis is live."""
        records = run_campaign(hundred_points(), workers=4).records
        assert len({r["refs"] for r in records}) > 10
        assert len({r["arrivals"] for r in records}) > 10

    def test_resume_executes_nothing_and_merges_everything(self, tmp_path):
        path = tmp_path / "results.jsonl"
        points = hundred_points()
        first = run_campaign(points, workers=4, results_path=path)
        resumed = run_campaign(points, workers=4, results_path=path,
                               resume=True)
        assert first.ok and resumed.ok
        assert resumed.executed == 0
        assert resumed.skipped == 100
        assert [strip_nondeterministic(r) for r in resumed.records] == \
            [strip_nondeterministic(r) for r in first.records]
        assert resumed.telemetry.deterministic_snapshot() == \
            first.telemetry.deterministic_snapshot()

    def test_partial_resume_finishes_the_campaign(self, tmp_path):
        path = tmp_path / "results.jsonl"
        points = hundred_points()
        run_campaign(points[:40], workers=4, results_path=path)
        finished = run_campaign(points, workers=4, results_path=path,
                                resume=True)
        assert finished.executed == 60
        assert finished.skipped == 40
        assert len(finished.records) == 100
        # The stitched-together campaign matches a clean one bit for bit.
        clean = run_campaign(points, workers=1)
        assert canonical_lines(clean.records, key="point") == \
            canonical_lines(finished.records, key="point")

    def test_canonical_lines_spot_a_tampered_record(self, tmp_path):
        path = tmp_path / "results.jsonl"
        points = hundred_points()[:5]
        run_campaign(points, workers=1, results_path=path)
        records, corrupt = read_results(path, key="point",
                                        name_field="campaign")
        assert corrupt == 0 and len(records) == 5
        records[2] = {**records[2], "refs": records[2]["refs"] + 1}
        fresh = canonical_lines(run_campaign(points, workers=1).records,
                                key="point")
        recorded = canonical_lines(records, key="point")
        mismatched = [json.loads(line)["point"]
                      for line, other in zip(fresh, recorded) if line != other]
        assert mismatched == [records[2]["point"]]

    def test_damaged_checkpoint_lines_are_counted(self, tmp_path):
        path = tmp_path / "results.jsonl"
        points = hundred_points()[:3]
        run_campaign(points, workers=1, results_path=path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("torn {\n")
        resumed = run_campaign(points, workers=1, results_path=path,
                               resume=True)
        assert resumed.corrupt_lines == 1
        assert resumed.executed == 0

    def test_checkpoint_lines_are_sorted_json(self, tmp_path):
        path = tmp_path / "results.jsonl"
        run_campaign(hundred_points()[:2], workers=1, results_path=path)
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert list(record) == sorted(record)
