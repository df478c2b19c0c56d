"""Checked mode: runtime invariants, fault injection, differential oracle.

The paper's "special hardware facilities" section is correctness
machinery — bound checking, invalid-access traps, usage sensors.  This
package makes the simulated counterparts *executable*:

- :mod:`repro.check.invariants` — a composable suite of runtime
  invariants (word conservation, extent non-overlap, hole maximality,
  page-table↔frame-table bijection, TLB coherence, space-time
  monotonicity) runnable directly or as a sampling tracer sink, and
  threaded through the core builder, ``simulate_trace`` and the
  multiprogramming simulator via ``checked=True``.
- :mod:`repro.check.faults` — seeded, deterministic fault injection
  (transient backing-store failures, failing storage-to-storage moves,
  torn trace lines) plus a retry policy proving graceful degradation.
- :mod:`repro.check.oracle` — a differential oracle cross-checking the
  fast kernels against the reference loops and running the invariant
  suite over free-list churn, exposed as ``python -m repro check``.
"""

from repro.check.faults import (
    FaultPlan,
    FlakyBackingStore,
    FlakyMemory,
    RetryPolicy,
    RetryStats,
    RetryingBackingStore,
    TornJsonlSink,
)
from repro.check.invariants import (
    DEFAULT_INVARIANTS,
    InvariantSink,
    InvariantSuite,
    Violation,
    check_invariants,
)
from repro.check.oracle import OracleFinding, OracleReport, run_oracle
from repro.check.system import CheckedSystem, discover_subjects
from repro.errors import InvariantViolation, TransientFault

__all__ = [
    "CheckedSystem",
    "DEFAULT_INVARIANTS",
    "FaultPlan",
    "FlakyBackingStore",
    "FlakyMemory",
    "InvariantSink",
    "InvariantSuite",
    "InvariantViolation",
    "OracleFinding",
    "OracleReport",
    "RetryPolicy",
    "RetryStats",
    "RetryingBackingStore",
    "TornJsonlSink",
    "TransientFault",
    "Violation",
    "check_invariants",
    "discover_subjects",
    "run_oracle",
]
