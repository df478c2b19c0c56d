"""The differential oracle: clean sweeps, domain selection, report shape."""

import re

import pytest

from repro.alloc import FreeListAllocator
from repro.check.invariants import InvariantSuite
from repro.check.oracle import (
    OracleFinding,
    OracleReport,
    _drive_allocator,
    checked_replay_oracle,
    fault_recovery_oracle,
    placement_oracle,
    replacement_oracle,
    run_oracle,
)
from repro.workload import exponential_requests


class TestReport:
    def test_record_and_flag(self):
        report = OracleReport()
        report.record("demo")
        report.record("demo")
        assert report.ok
        report.flag("demo", 3, "something diverged")
        assert not report.ok
        assert report.domains["demo"] == 2
        assert report.findings == [OracleFinding("demo", 3, "something diverged")]

    def test_merge_combines_counts_and_findings(self):
        a, b = OracleReport(), OracleReport()
        a.record("x")
        b.record("x")
        b.flag("y", 0, "boom")
        a.merge(b)
        assert a.domains["x"] == 2
        assert len(a.findings) == 1 and not a.ok


class TestDomains:
    def test_replacement_oracle_clean(self):
        report = replacement_oracle(range(3))
        assert report.ok and report.checks > 0

    def test_placement_oracle_clean(self):
        report = placement_oracle(range(2))
        assert report.ok and report.checks > 0

    def test_placement_violation_is_reported(self):
        """A free list that loses a freed block's words is flagged with
        the step that lost them, not crashed on."""

        class LeakyFree(FreeListAllocator):
            def free(self, allocation):
                del self._live[allocation.address]

        requests = exponential_requests(40, mean_size=16, mean_lifetime=5,
                                        seed=3)
        report = OracleReport()
        assert _drive_allocator(LeakyFree(256, policy="first_fit"), requests,
                                InvariantSuite(), report, seed=3) is False
        (finding,) = report.findings
        assert (finding.domain, finding.seed) == ("placement", 3)
        assert re.match(
            r"t=\d+ free AllocationRequest\(arrival=\d+, size=\d+, "
            r"lifetime=\d+\): ",
            finding.detail,
        ), finding.detail

    def test_checked_replay_oracle_clean(self):
        report = checked_replay_oracle(range(2), length=300)
        assert report.ok and report.checks > 0

    def test_fault_recovery_oracle_clean_and_injecting(self):
        report = fault_recovery_oracle(range(2), length=300)
        assert report.ok and report.checks == 2


class TestRunOracle:
    def test_quick_sweep_is_clean(self):
        report = run_oracle(quick=True, seeds=range(2))
        assert report.ok
        assert set(report.domains) == {
            "replacement", "placement", "checked_replay", "fault_recovery",
        }

    def test_domain_restriction(self):
        report = run_oracle(seeds=range(2), domains=("replacement",))
        assert set(report.domains) == {"replacement"}

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError):
            run_oracle(seeds=range(1), domains=("nonsense",))
