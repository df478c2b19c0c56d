"""``python -m repro check`` — the CI gate's exit-status contract."""

import pytest

from repro.alloc import FreeListAllocator
from repro.check.cli import main
from repro.check.invariants import InvariantSuite
from repro.serve import SharedFramePool


class TestCheckCli:
    def test_clean_sweep_exits_zero(self, capsys):
        assert main(["--quick", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "differential oracle" in out
        assert "OK" in out

    def test_injected_violation_exits_one(self, capsys):
        assert main(["--quick", "--seeds", "2", "--inject-violation"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATIONS" in out
        assert "word_conservation" in out

    @pytest.mark.parametrize("blind_to", [SharedFramePool, FreeListAllocator])
    def test_one_missed_plant_leaves_the_run_clean(
        self, monkeypatch, capsys, blind_to
    ):
        """An engine that catches only one plant must not pass the
        inverted leg: the run reads clean and exits 0."""
        check = InvariantSuite.check

        def blind_check(self, subject, *args, **kwargs):
            if isinstance(subject, blind_to):
                return []
            return check(self, subject, *args, **kwargs)

        monkeypatch.setattr(InvariantSuite, "check", blind_check)
        assert main(["--quick", "--seeds", "2", "--domains", "replacement",
                     "--inject-violation"]) == 0
        captured = capsys.readouterr()
        assert "NOT detected" in captured.err
        assert "OK" in captured.out

    def test_domain_restriction(self, capsys):
        assert main(["--seeds", "2", "--domains", "replacement"]) == 0
        out = capsys.readouterr().out
        assert "checks: replacement" in out
        assert "checks: placement" not in out

    def test_bad_seed_count_rejected(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["--seeds", "0"])
        assert exit_info.value.code == 2

    def test_negative_max_findings_rejected(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["--max-findings", "-1"])
        assert exit_info.value.code == 2

    def test_module_entry_point(self):
        from repro.__main__ import main as repro_main

        assert repro_main(["check", "--quick", "--seeds", "1",
                           "--domains", "replacement"]) == 0
