"""Synthetic workloads.

The paper's quantitative claims are about program behaviour in the
aggregate; these generators supply the behaviours its arguments assume:

- Reference traces (:mod:`~repro.workload.reference`): sequential scans,
  uniform random, cyclic loops, Zipf-biased, and the phase-structured
  locality model under which demand paging is "quite effective" and
  outside which Figure 3's warning bites.
- Allocation request streams (:mod:`~repro.workload.requests`): sized,
  lifetimed requests for the placement/fragmentation experiments
  (Wald-style statistical analysis needs request distributions).
- Whole synthetic programs (:mod:`~repro.workload.programs`): the
  matrix-traversal and overlay-structured programs the introduction's
  scenarios describe.

All generators are seeded and deterministic.
"""

from repro.workload.analysis import (
    locality_score,
    lru_fault_curve,
    mean_working_set,
    phase_transitions,
    reuse_distances,
    unique_pages,
    working_set_sizes,
)
from repro.workload.programs import (
    matrix_traversal_trace,
    overlay_phases_trace,
)
from repro.workload.recorded import load_trace, save_trace
from repro.workload.reference import (
    cyclic_trace,
    iter_cyclic,
    iter_phased,
    iter_random,
    iter_sequential,
    iter_zipf,
    phased_trace,
    random_trace,
    sequential_trace,
    zipf_trace,
)
from repro.workload.requests import (
    AllocationRequest,
    exponential_requests,
    request_schedule,
    uniform_requests,
)

__all__ = [
    "AllocationRequest",
    "cyclic_trace",
    "iter_cyclic",
    "iter_phased",
    "iter_random",
    "iter_sequential",
    "iter_zipf",
    "locality_score",
    "lru_fault_curve",
    "mean_working_set",
    "phase_transitions",
    "reuse_distances",
    "unique_pages",
    "working_set_sizes",
    "exponential_requests",
    "load_trace",
    "matrix_traversal_trace",
    "overlay_phases_trace",
    "phased_trace",
    "random_trace",
    "request_schedule",
    "save_trace",
    "sequential_trace",
    "uniform_requests",
    "zipf_trace",
]
