"""The engine's contracts: determinism, resume, damage tolerance."""

import json
from dataclasses import replace

import pytest

from repro.sweep.engine import (
    NONDETERMINISTIC_FIELDS,
    heartbeat_path,
    marginals,
    read_results,
    run_sweep,
    strip_nondeterministic,
    write_heartbeat,
)
from repro.sweep.grid import SweepGrid, quick_grid
from repro.sweep.shard import run_shard


def tiny_grid(**overrides):
    """Four fast shards: enough to exercise ordering and resume."""
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


def comparable(result):
    return [strip_nondeterministic(record) for record in result.records]


class TestDeterminism:
    def test_worker_count_does_not_change_results(self):
        """The tentpole contract: 1 worker and 4 workers, bit-identical
        order-normalized records and identical merged counters."""
        serial = run_sweep(tiny_grid(), workers=1)
        pooled = run_sweep(tiny_grid(), workers=4)
        assert comparable(serial) == comparable(pooled)
        assert serial.counters.snapshot() == pooled.counters.snapshot()

    def test_repeat_runs_are_bit_identical(self):
        first = run_sweep(tiny_grid(), workers=2)
        second = run_sweep(tiny_grid(), workers=2)
        assert comparable(first) == comparable(second)

    def test_shards_are_independent(self):
        """Any single shard run alone matches its in-sweep record."""
        grid = tiny_grid()
        full = run_sweep(grid, workers=1)
        shard = list(grid.shards())[2]
        alone = run_shard(shard.spec())
        matching = [r for r in full.records if r["shard"] == shard.id]
        assert [strip_nondeterministic(alone)] == [
            strip_nondeterministic(record) for record in matching
        ]

    def test_wall_time_is_the_only_tolerated_field(self):
        # refs_per_s is traffic's wall-derived throughput; sweep records
        # carry no such field, so wall time is all a shard loses.
        assert NONDETERMINISTIC_FIELDS == ("wall_s", "refs_per_s")
        record = {"shard": "x", "wall_s": 1.0, "faults": 3}
        assert strip_nondeterministic(record) == {"shard": "x", "faults": 3}

    def test_base_seed_changes_results(self):
        a = run_sweep(tiny_grid(), workers=1)
        b = run_sweep(tiny_grid(base_seed=7), workers=1)
        assert comparable(a) != comparable(b)

    @pytest.mark.parametrize("replacement", ["lru", "fifo"])
    def test_checked_shard_writes_the_unchecked_record(self, replacement):
        """Checking forces the reference replay loop, which must leave
        the same record — counters included — as the kernel; frames
        cover every page, so the replay's eviction total is zero."""
        grid = replace(quick_grid(), machines=("baseline",),
                       replacement=(replacement,), frames=(64,), seeds=(0,))
        shard = next(grid.shards())
        assert shard.frames >= grid.pages
        plain = strip_nondeterministic(run_shard(shard.spec()))
        checked = strip_nondeterministic(run_shard(shard.spec(checked=True)))
        assert (plain.pop("checked"), checked.pop("checked")) == (False, True)
        assert checked == plain
        assert plain["counters"]["replay.evictions"] == 0


class TestTraceCache:
    def test_one_shot_traces_leave_replay_traces_cached(self, monkeypatch):
        """The mix and serve legs seed their traces from the shard id, so
        no other shard can reuse them.  They must not push the replay
        traces, which every shard of a workload shares, out of the
        worker's cache: in one process each replay trace is generated
        once, however the seeds interleave with sharing 1 and 4."""
        from collections import Counter, OrderedDict

        from repro.sweep import shard as shard_module

        real = shard_module.phased_trace
        generated = Counter()

        def counting(**params):
            generated[params["length"], params["seed"]] += 1
            return real(**params)

        monkeypatch.setattr(shard_module, "phased_trace", counting)
        monkeypatch.setattr(shard_module, "_TRACE_CACHE", OrderedDict())
        grid = tiny_grid(seeds=(0, 1, 2), sharing=(1, 4))
        specs = [shard.spec() for shard in grid.shards()]
        for spec in specs:
            run_shard(spec)
        replay = {seed: count for (length, seed), count in generated.items()
                  if length == grid.length}
        workloads = {shard_module._replay_workload_id(spec) for spec in specs}
        assert len(replay) == len(workloads) == 3
        assert list(replay.values()) == [1, 1, 1]


class TestCheckpointing:
    def test_records_appended_as_sorted_json(self, tmp_path):
        path = tmp_path / "results.jsonl"
        result = run_sweep(tiny_grid(), workers=1, results_path=path)
        lines = path.read_text().splitlines()
        assert len(lines) == result.grid.size
        for line in lines:
            record = json.loads(line)
            assert line == json.dumps(record, sort_keys=True)

    def test_resume_skips_every_completed_shard(self, tmp_path):
        path = tmp_path / "results.jsonl"
        first = run_sweep(tiny_grid(), workers=2, results_path=path)
        again = run_sweep(tiny_grid(), workers=2, results_path=path,
                          resume=True)
        assert first.executed == 4 and first.skipped == 0
        assert again.executed == 0 and again.skipped == 4
        assert comparable(first) == comparable(again)
        assert first.counters.snapshot() == again.counters.snapshot()
        # Nothing new was appended.
        assert len(path.read_text().splitlines()) == 4

    def test_partial_file_resumes_only_the_missing_shards(self, tmp_path):
        path = tmp_path / "results.jsonl"
        run_sweep(tiny_grid(), workers=1, results_path=path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")
        resumed = run_sweep(tiny_grid(), workers=1, results_path=path,
                            resume=True)
        assert resumed.skipped == 2 and resumed.executed == 2
        assert len(resumed.records) == 4

    def test_resume_ignores_other_grids_records(self, tmp_path):
        path = tmp_path / "results.jsonl"
        run_sweep(tiny_grid(name="other"), workers=1, results_path=path)
        resumed = run_sweep(tiny_grid(), workers=1, results_path=path,
                            resume=True)
        assert resumed.skipped == 0 and resumed.executed == 4

    def test_corrupt_lines_are_counted_not_fatal(self, tmp_path):
        path = tmp_path / "results.jsonl"
        run_sweep(tiny_grid(), workers=1, results_path=path)
        with open(path, "a") as handle:
            handle.write("{broken\n[1, 2]\n")
        records, corrupt = read_results(path, sweep="tiny")
        assert len(records) == 4 and corrupt == 2
        resumed = run_sweep(tiny_grid(), workers=1, results_path=path,
                            resume=True)
        assert resumed.executed == 0 and resumed.corrupt_lines == 2

    def test_without_resume_everything_re_executes(self, tmp_path):
        path = tmp_path / "results.jsonl"
        run_sweep(tiny_grid(), workers=1, results_path=path)
        again = run_sweep(tiny_grid(), workers=1, results_path=path)
        assert again.executed == 4 and again.skipped == 0
        assert len(path.read_text().splitlines()) == 8

    def test_resume_over_duplicate_lines_counts_each_shard_once(
            self, tmp_path):
        """Two plain runs leave every shard twice in the file; resume
        must see one record per shard, not merge the totals twice."""
        path = tmp_path / "results.jsonl"
        clean = run_sweep(tiny_grid(), workers=1, results_path=path)
        run_sweep(tiny_grid(), workers=1, results_path=path)
        resumed = run_sweep(tiny_grid(), workers=1, results_path=path,
                            resume=True)
        assert resumed.executed == 0
        assert resumed.skipped == resumed.grid.size == 4
        assert len(resumed.records) == 4
        assert comparable(resumed) == comparable(clean)
        assert resumed.counters.snapshot() == clean.counters.snapshot()
        assert resumed.telemetry.deterministic_snapshot() == \
            clean.telemetry.deterministic_snapshot()
        records, _ = read_results(path, sweep="tiny")
        assert len(records) == 4


class TestFailures:
    def test_failed_shard_is_reported_not_checkpointed(self, tmp_path,
                                                       monkeypatch):
        from repro.sweep import engine

        real = engine.run_shard_safely

        def flaky(spec):
            if spec["seed"] == 1:
                return {"shard": spec["shard"], "error": "Boom: injected"}
            return real(spec)

        monkeypatch.setattr(engine, "run_shard_safely", flaky)
        path = tmp_path / "results.jsonl"
        result = run_sweep(tiny_grid(), workers=1, results_path=path)
        assert not result.ok
        assert len(result.failures) == 2
        assert len(path.read_text().splitlines()) == 2
        # A later resume re-runs exactly the failed shards.
        monkeypatch.setattr(engine, "run_shard_safely", real)
        retried = run_sweep(tiny_grid(), workers=1, results_path=path,
                            resume=True)
        assert retried.ok
        assert retried.executed == 2 and retried.skipped == 2

    def test_exceptions_become_error_records(self):
        from repro.sweep.shard import run_shard_safely

        record = run_shard_safely({"shard": "machine=nowhere"})
        assert record["shard"] == "machine=nowhere"
        assert "error" in record

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(tiny_grid(), workers=0)


class TestHeartbeat:
    def test_campaign_publishes_progress(self, tmp_path):
        path = tmp_path / "results.jsonl"
        run_sweep(tiny_grid(), workers=1, results_path=path)
        beat = json.loads(heartbeat_path(path).read_text())
        assert beat["sweep"] == "tiny"
        assert beat["done"] == beat["total"] == 4
        assert beat["failed"] == 0
        assert "telemetry" in beat

    def test_replace_failure_leaves_no_tmp_litter(self, tmp_path,
                                                  monkeypatch):
        """Heartbeats are best-effort, but a persistently failing
        os.replace must not leak one .tmp per beat into the results
        directory — the failure-injection test for the cleanup path."""
        from repro.sweep import engine

        def broken_replace(src, dst):
            raise OSError("injected: target vanished")

        monkeypatch.setattr(engine.os, "replace", broken_replace)
        path = tmp_path / "results.jsonl"
        result = run_sweep(tiny_grid(), workers=1, results_path=path)
        assert result.ok                        # the campaign is unharmed
        assert len(result.records) == 4
        assert not heartbeat_path(path).exists()
        litter = [p.name for p in tmp_path.iterdir()
                  if p.name.endswith(".tmp")]
        assert litter == []

    def test_unwritable_directory_is_swallowed_and_clean(self, tmp_path):
        from repro.observe.telemetry.registry import TelemetryRegistry

        target = tmp_path / "absent" / "beat.json"
        write_heartbeat(target, "tiny", 1, 4, 0, TelemetryRegistry())
        assert not target.exists()
        assert not (tmp_path / "absent").exists()

    def test_successful_beat_replaces_atomically(self, tmp_path):
        from repro.observe.telemetry.registry import TelemetryRegistry

        target = tmp_path / "beat.json"
        write_heartbeat(target, "tiny", 1, 4, 0, TelemetryRegistry())
        write_heartbeat(target, "tiny", 2, 4, 1, TelemetryRegistry())
        beat = json.loads(target.read_text())
        assert beat["done"] == 2 and beat["failed"] == 1
        assert [p.name for p in tmp_path.iterdir()] == ["beat.json"]


class TestMarginals:
    def test_groups_by_axis_value(self):
        result = run_sweep(tiny_grid(), workers=1)
        rows = marginals(result.records, "replacement")
        assert [row[0] for row in rows] == ["fifo", "lru"]
        assert all(row[1] == 2 for row in rows)

    def test_failure_count_is_a_total(self):
        rows = marginals(
            [
                {"machine": "a", "alloc_failures": 2, "fault_rate": 0.5},
                {"machine": "a", "alloc_failures": 3, "fault_rate": 0.5},
            ],
            "machine",
        )
        assert rows[0][7] == 5
