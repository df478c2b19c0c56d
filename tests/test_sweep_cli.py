"""``python -m repro sweep``: grid resolution, reporting, exit codes."""

import json

import pytest

from repro.sweep.cli import build_parser, main, resolve_grid
from repro.sweep.grid import SweepGrid

TINY = [
    "--name", "tiny", "--machines", "baseline",
    "--replacement", "lru", "fifo", "--placement", "first_fit",
    "--frames", "8", "--capacities", "10000", "--seeds", "0",
]


def run_cli(tmp_path, *extra):
    results = tmp_path / "results.jsonl"
    status = main([*TINY, "--quick", "--workers", "1",
                   "--results", str(results), *extra])
    return status, results


class TestGridResolution:
    def parse(self, *argv):
        return resolve_grid(build_parser().parse_args(argv))

    def test_default_is_the_museum_grid(self):
        assert self.parse().name == "museum"

    def test_quick_grid_selected(self):
        grid = self.parse("--quick")
        assert grid.name == "quick" and grid.size == 16

    def test_axis_overrides_apply(self):
        grid = self.parse("--quick", "--frames", "4", "8", "16",
                          "--seeds", "0")
        assert grid.frames == (4, 8, 16) and grid.seeds == (0,)

    def test_grid_file_wins_then_overrides(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(
            SweepGrid.from_dict({"name": "filed", "seeds": [0, 1]}).to_dict()
        ))
        grid = self.parse("--grid", str(path), "--seeds", "5")
        assert grid.name == "filed" and grid.seeds == (5,)


class TestRuns:
    def test_smoke_run_and_report(self, tmp_path, capsys):
        status, results = run_cli(tmp_path)
        out = capsys.readouterr().out
        assert status == 0
        assert results.exists()
        assert "sweep: tiny" in out
        assert "marginal: replacement" in out
        assert "merged counters" in out
        # Single-valued axes get no marginal table.
        assert "marginal: machine" not in out

    def test_resume_executes_zero_shards(self, tmp_path, capsys):
        run_cli(tmp_path)
        status, _ = run_cli(tmp_path, "--resume", "--no-report")
        assert status == 0
        assert "executed 0" in capsys.readouterr().out

    def test_failures_exit_nonzero(self, tmp_path, capsys, monkeypatch):
        from repro.sweep import engine

        monkeypatch.setattr(
            engine, "run_shard_safely",
            lambda spec: {"shard": spec["shard"], "error": "Boom: injected"},
        )
        status, results = run_cli(tmp_path)
        captured = capsys.readouterr()
        assert status == 1
        assert "FAILED" in captured.err and "Boom" in captured.err
        # Failed shards are never checkpointed.
        assert not results.exists() or results.read_text() == ""

    def test_checked_flag_threads_through(self, tmp_path, capsys):
        status, results = run_cli(tmp_path, "--checked")
        assert status == 0
        record = json.loads(results.read_text().splitlines()[0])
        assert record["checked"] is True

    @pytest.mark.parametrize("load", ("inf", "nan"))
    def test_non_finite_offered_load_exits_two(self, tmp_path, capsys, load):
        status, results = run_cli(tmp_path, "--offered", load)
        assert status == 2
        assert "offered load must be finite" in capsys.readouterr().err
        assert not results.exists()

    def test_bad_grid_file_exits_two(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"machines": ["pdp11"]}))
        assert main(["--grid", str(path)]) == 2

    def test_package_cli_routes_sweep(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main

        results = tmp_path / "results.jsonl"
        assert repro_main(["sweep", *TINY, "--quick", "--workers", "1",
                           "--no-report", "--results", str(results)]) == 0
        assert "executed 2" in capsys.readouterr().out


class TestTransports:
    def test_summary_names_the_transport(self, tmp_path, capsys):
        status, _ = run_cli(tmp_path, "--transport", "inline")
        assert status == 0
        assert "transport" in capsys.readouterr().out

    def test_no_report_line_names_the_transport(self, tmp_path, capsys):
        status, _ = run_cli(tmp_path, "--transport", "inline",
                            "--no-report")
        assert status == 0
        assert "transport inline" in capsys.readouterr().out

    def test_unknown_transport_exits_two(self, tmp_path, capsys):
        status, _ = run_cli(tmp_path, "--transport", "carrier-pigeon")
        assert status == 2
        assert "unknown transport" in capsys.readouterr().err

    def test_canon_files_are_byte_identical_across_transports(
            self, tmp_path, capsys):
        """The CI diff in miniature: the same grid under two transports
        writes byte-identical --canon files."""
        canons = {}
        for name in ("inline", "pool"):
            canon = tmp_path / f"canon_{name}.jsonl"
            status = main([*TINY, "--quick", "--workers", "2",
                           "--results", str(tmp_path / f"r_{name}.jsonl"),
                           "--transport", name, "--no-report",
                           "--canon", str(canon)])
            assert status == 0
            canons[name] = canon.read_bytes()
        assert canons["inline"] == canons["pool"]
        # Canonical lines are wall-time-free sorted JSON.
        for line in canons["inline"].decode().splitlines():
            assert "wall_s" not in json.loads(line)
