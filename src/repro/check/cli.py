"""``python -m repro check`` — run the differential oracle and exit 0/1.

The executable form of the paper's correctness hardware: replays the
fast-kernel equivalence sweep, the invariant-checked placement churn, a
checked-mode traced run, and the fault-injection recovery proof,
printing one table per domain and exiting nonzero on *any* divergence
or invariant violation — suitable as a CI gate.  Usage errors exit 2.

Examples::

    python -m repro check                 # full sweep (40 seeds)
    python -m repro check --quick         # smoke sweep (8 seeds)
    python -m repro check --seeds 100     # widen the sweep
    python -m repro check --inject-violation   # prove detection: exits 1
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.check.invariants import InvariantSuite
from repro.check.oracle import OracleReport, run_oracle
from repro.errors import InvariantViolation

DOMAINS = ("replacement", "placement", "checked_replay", "fault_recovery")


def _inject_violation(report: OracleReport, seed: int) -> None:
    """Deliberately corrupt live subjects and demand the engine notice.

    Two plants, one per accounting domain: a duplicated hole over a live
    allocator block (word-conservation *and* overlap violation), and a
    phantom reference on a shared frame pool (refcount-conservation
    violation — the pool counts a reference no tenant view holds).  The
    findings are flagged only when the engine catches both, driving the
    exit status to 1, which is what the CI smoke jobs assert; if it ever
    goes blind to either, neither is flagged and the expected-failure
    leg catches the clean run.
    """
    from repro.alloc import FreeListAllocator
    from repro.serve import SharedFramePool, TenantView

    allocator = FreeListAllocator(256, policy="best_fit")
    block = allocator.allocate(64)
    allocator.allocate(32)
    # Corrupt: resurrect the live block's extent as a free hole.
    allocator._holes.insert(0, (block.address, block.size))

    pool = SharedFramePool(8)
    parent = TenantView(pool, "parent", shared_pages=4)
    parent.acquire(0)
    child = parent.fork("child")
    child.acquire(0)
    # Corrupt: a phantom reference the views cannot account for.
    pool._refs[("shared", 0)] += 1

    suite = InvariantSuite()
    plants = (allocator, pool)
    caught = []
    for subject in plants:
        report.record("injected")
        try:
            suite.check(subject)
        except InvariantViolation as violation:
            caught.append(violation)
    if len(caught) < len(plants):
        # The engine failed to notice a planted corruption: report *that*
        # loudly, but as a clean run — the caller asserting exit 1 fails.
        print(
            "warning: an injected corruption was NOT detected by the "
            "invariant engine", file=sys.stderr,
        )
        return
    for violation in caught:
        report.flag("injected", seed, f"(deliberate) {violation}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--seeds", type=int, default=None,
                        help="number of seeds to sweep (default 40; 8 quick)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-sized sweep for CI")
    parser.add_argument("--domains", nargs="+", choices=DOMAINS,
                        default=list(DOMAINS),
                        help="restrict to specific oracle domains")
    parser.add_argument("--inject-violation", action="store_true",
                        help="plant a corruption the engine must detect "
                             "(proves exit 1 on violation)")
    parser.add_argument("--max-findings", type=int, default=10,
                        help="findings to print in full (default 10)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    from repro.metrics.report import kv_table

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seeds is not None and args.seeds <= 0:
        parser.error("--seeds must be positive")
    if args.max_findings < 0:
        parser.error("--max-findings must be non-negative")

    seeds = range(args.seeds) if args.seeds is not None else None
    report = run_oracle(seeds=seeds, quick=args.quick, domains=args.domains)
    if args.inject_violation:
        _inject_violation(report, seed=-1)

    rows = [("checks run", report.checks)]
    rows += [(f"checks: {domain}", count)
             for domain, count in sorted(report.domains.items())]
    rows += [("findings", len(report.findings)),
             ("verdict", "OK" if report.ok else "VIOLATIONS")]
    print(kv_table(rows, title="checked mode: differential oracle"))

    if report.findings:
        print()
        shown = report.findings[: args.max_findings]
        for finding in shown:
            print(f"  [{finding.domain}] seed={finding.seed}: {finding.detail}")
        hidden = len(report.findings) - len(shown)
        if hidden:
            print(f"  ... and {hidden} more")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
