"""Differential tests: vectorized columnar kernels vs. the reference loop.

The columnar kernels (:mod:`repro.fastpath.columnar`) are a third
implementation tier under the DESIGN.md §6 contract: for every trace
they must produce the same fault count, cold faults, fault positions,
and victim sequence as both the per-access reference loop and the list
kernels — including every tie-break, and including the segmented
(``(segment, page)``) path.  These tests sweep the contract over 100
randomized seeds, with and without numpy.  Advice-decorated policies
have no kernel; the tests pin that they decline to the reference loop.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from array import array
from pathlib import Path

import pytest

import repro.fastpath.columnar as columnar_module
from repro.advice.pager import AdvisedReplacementPolicy
from repro.fastpath.columnar import run_columnar
from repro.fastpath.replay import FAST_KERNELS, run_fast
from repro.paging import (
    BeladyOptimalPolicy,
    ClockPolicy,
    FifoPolicy,
    LruPolicy,
    simulate_trace,
)
from repro.trace import ColumnarTrace, read_trace
from repro.trace.cli import main as trace_gen_main
from repro.workload import phased_trace, random_trace, zipf_trace

SEEDS = range(100)

FAST_POLICIES = ("lru", "fifo", "clock", "opt")

RESULT_FIELDS = (
    "policy", "frames", "references", "faults", "evictions",
    "cold_faults", "fault_positions", "victims",
)

numpy_missing = columnar_module.load_numpy() is None


def _make_policy(name: str, trace):
    if name == "opt":
        return BeladyOptimalPolicy(trace)
    return {"lru": LruPolicy, "fifo": FifoPolicy, "clock": ClockPolicy}[name]()


def _trace_for_seed(seed: int):
    """A varied workload: shape, size, and locality all depend on the seed."""
    rng = random.Random(seed)
    pages = rng.randint(4, 60)
    length = rng.randint(50, 600)
    kind = seed % 3
    if kind == 0:
        return random_trace(pages, length, seed=seed)
    if kind == 1:
        return zipf_trace(pages, length, skew=1.0 + rng.random(), seed=seed)
    return phased_trace(
        pages,
        length,
        working_set=rng.randint(2, max(2, pages // 2)),
        phase_length=rng.randint(10, 80),
        locality=0.7 + 0.25 * rng.random(),
        seed=seed,
    )


def _assert_same(reference, candidate, context: str) -> None:
    assert candidate is not None, context
    for field in RESULT_FIELDS:
        assert getattr(candidate, field) == getattr(reference, field), (
            f"{context}: {field} diverged"
        )


class TestColumnarEquivalence:
    """Flat traces: list kernel, columnar kernel, reference loop agree."""

    @pytest.mark.skipif(numpy_missing, reason="columnar kernels need numpy")
    @pytest.mark.parametrize("name", FAST_POLICIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical_across_seeds(self, name, seed):
        trace = _trace_for_seed(seed)
        columnar = ColumnarTrace(trace)
        frames = random.Random(seed * 31 + 7).randint(1, 24)
        reference = simulate_trace(
            trace, frames, _make_policy(name, trace),
            record_positions=True, record_evictions=True, fast=False,
        )
        vectorized = run_columnar(
            columnar, frames, _make_policy(name, columnar),
            record_positions=True, record_evictions=True, force=True,
        )
        _assert_same(reference, vectorized, f"{name} seed={seed}")

    @pytest.mark.skipif(numpy_missing, reason="columnar kernels need numpy")
    @pytest.mark.parametrize("name", FAST_POLICIES)
    def test_auto_dispatch_above_threshold(self, name):
        # Long enough that simulate_trace(fast=True) picks the columnar
        # path on its own; results must still match the reference loop.
        trace = phased_trace(
            64, 9000, working_set=8, phase_length=120, locality=0.97, seed=11
        )
        columnar = ColumnarTrace(trace)
        reference = simulate_trace(
            trace, 16, _make_policy(name, trace),
            record_positions=True, record_evictions=True, fast=False,
        )
        fast = simulate_trace(
            columnar, 16, _make_policy(name, columnar),
            record_positions=True, record_evictions=True,
        )
        _assert_same(reference, fast, name)

    @pytest.mark.skipif(numpy_missing, reason="columnar kernels need numpy")
    @pytest.mark.parametrize("name", FAST_POLICIES)
    def test_duplicate_heavy_spans(self, name):
        # A tiny page population maximizes duplicate keys inside one hit
        # span, exercising the scatter-assignment ordering the LRU/OPT
        # states rely on (later stores win).
        trace = ColumnarTrace([i % 3 for i in range(800)])
        reference = simulate_trace(
            list(trace), 2, _make_policy(name, list(trace)),
            record_positions=True, record_evictions=True, fast=False,
        )
        vectorized = run_columnar(
            trace, 2, _make_policy(name, trace),
            record_positions=True, record_evictions=True, force=True,
        )
        _assert_same(reference, vectorized, name)

    @pytest.mark.skipif(numpy_missing, reason="columnar kernels need numpy")
    @pytest.mark.parametrize("name", FAST_POLICIES)
    def test_empty_and_tiny(self, name):
        for refs in ([], [0], [0, 1, 0]):
            trace = ColumnarTrace(refs)
            reference = simulate_trace(
                refs, 2, _make_policy(name, refs),
                record_positions=True, record_evictions=True, fast=False,
            )
            vectorized = run_columnar(
                trace, 2, _make_policy(name, trace),
                record_positions=True, record_evictions=True, force=True,
            )
            _assert_same(reference, vectorized, f"{name} {refs}")


class TestSegmentedEquivalence:
    """(segment, page) traces replay over encoded keys, decoded victims."""

    @pytest.mark.skipif(numpy_missing, reason="columnar kernels need numpy")
    @pytest.mark.parametrize("name", FAST_POLICIES)
    @pytest.mark.parametrize("seed", range(0, 100, 4))
    def test_segmented_bit_identical(self, name, seed):
        flat = _trace_for_seed(seed)
        segment_pages = 2 + seed % 7
        segments = array("q", (p // segment_pages for p in flat))
        pages = array("q", (p % segment_pages for p in flat))
        columnar = ColumnarTrace(pages, segments=segments)
        pairs = list(zip(segments.tolist(), pages.tolist()))
        frames = random.Random(seed * 17 + 3).randint(1, 16)
        reference = simulate_trace(
            pairs, frames, _make_policy(name, pairs),
            record_positions=True, record_evictions=True, fast=False,
        )
        vectorized = run_columnar(
            columnar, frames, _make_policy(name, columnar),
            record_positions=True, record_evictions=True, force=True,
        )
        _assert_same(reference, vectorized, f"{name} seed={seed}")
        if vectorized.victims:
            assert all(
                isinstance(victim, tuple) for victim in vectorized.victims
            )

    @pytest.mark.parametrize("name", FAST_POLICIES)
    def test_segmented_list_fallback(self, name):
        # Without numpy the list kernels consume the lazy pair view; the
        # results must be the same as with the vectorized path.
        flat = _trace_for_seed(5)
        segments = array("q", (p // 4 for p in flat))
        pages = array("q", (p % 4 for p in flat))
        columnar = ColumnarTrace(pages, segments=segments)
        pairs = list(zip(segments.tolist(), pages.tolist()))
        reference = simulate_trace(
            pairs, 6, _make_policy(name, pairs),
            record_positions=True, record_evictions=True, fast=False,
        )
        fast = simulate_trace(
            columnar, 6, _make_policy(name, columnar),
            record_positions=True, record_evictions=True,
        )
        _assert_same(reference, fast, name)


class TestAdvisedEquivalence:
    """Advised policies have no kernel: every base runs the reference loop."""

    @pytest.mark.parametrize("name", FAST_POLICIES)
    def test_advised_policies_have_no_kernel(self, name):
        trace = list(_trace_for_seed(3))
        frames = 4

        def advised():
            policy = AdvisedReplacementPolicy(_make_policy(name, trace))
            for page in (1, 5, 2):
                policy.hint_discard(page)
            policy.lock(0)
            return policy

        assert run_fast(trace, frames, advised()) is None
        reference_policy = advised()
        reference = simulate_trace(
            trace, frames, reference_policy,
            record_positions=True, record_evictions=True, fast=False,
        )
        policy = advised()
        fast = simulate_trace(
            trace, frames, policy,
            record_positions=True, record_evictions=True, fast=True,
        )
        _assert_same(reference, fast, f"advised-{name}")
        # The reference loop ran on the policy itself: its advice state
        # moved exactly as in the fast=False run.
        assert reference_policy.hints_honoured > 0
        assert policy.discard_hints == reference_policy.discard_hints
        assert policy.hints_honoured == reference_policy.hints_honoured

    def test_advised_subclass_base_falls_back(self):
        class Spiteful(LruPolicy):
            def choose_victim(self, resident, now):
                return max(resident, key=lambda p: self.last_use[p])

        policy = AdvisedReplacementPolicy(Spiteful())
        assert run_fast([0, 1, 2, 0, 3], 2, policy) is None

    def test_advised_opt_wrong_trace_falls_back(self):
        policy = AdvisedReplacementPolicy(BeladyOptimalPolicy([0, 1, 2]))
        assert run_fast([9, 8, 7], 2, policy) is None


class TestColumnarDispatchGuards:
    @pytest.mark.skipif(numpy_missing, reason="columnar kernels need numpy")
    def test_small_trace_declines_without_force(self):
        trace = ColumnarTrace([0, 1, 2, 0, 1])
        assert run_columnar(trace, 2, LruPolicy()) is None
        assert run_columnar(trace, 2, LruPolicy(), force=True) is not None

    @pytest.mark.skipif(numpy_missing, reason="columnar kernels need numpy")
    def test_sparse_id_space_declines(self):
        huge = columnar_module.MAX_DENSE_KEYS + 10
        trace = ColumnarTrace([0, huge, 0, huge])
        assert run_columnar(trace, 2, LruPolicy(), force=True) is None

    @pytest.mark.skipif(numpy_missing, reason="columnar kernels need numpy")
    def test_negative_ids_decline(self):
        trace = ColumnarTrace([3, -1, 3, 2])
        assert run_columnar(trace, 2, FifoPolicy(), force=True) is None

    @pytest.mark.skipif(numpy_missing, reason="columnar kernels need numpy")
    def test_plain_list_declines(self):
        assert run_columnar([0, 1, 0, 1], 2, LruPolicy(), force=True) is None

    @pytest.mark.skipif(numpy_missing, reason="columnar kernels need numpy")
    def test_fault_heavy_trace_aborts_but_stays_correct(self):
        # A cyclic scan over more pages than frames misses on every
        # reference: the abort heuristic hands it to the list kernels.
        from repro.workload import cyclic_trace

        trace = cyclic_trace(3000, 80_000)
        columnar = ColumnarTrace(trace)
        assert run_columnar(columnar, 8, FifoPolicy()) is None
        forced = run_columnar(columnar, 8, FifoPolicy(), force=True)
        via_dispatch = simulate_trace(columnar, 8, FifoPolicy())
        reference = simulate_trace(trace, 8, FifoPolicy(), fast=False)
        _assert_same(reference, forced, "forced")
        _assert_same(reference, via_dispatch, "dispatch")

    def test_no_numpy_falls_back_to_list_kernels(self, monkeypatch):
        monkeypatch.setattr(columnar_module, "_np", None)
        trace = phased_trace(
            32, 6000, working_set=6, phase_length=90, locality=0.95, seed=3
        )
        columnar = ColumnarTrace(trace)
        assert run_columnar(columnar, 8, LruPolicy(), force=True) is None
        reference = simulate_trace(
            trace, 8, LruPolicy(),
            record_positions=True, record_evictions=True, fast=False,
        )
        fast = simulate_trace(
            columnar, 8, LruPolicy(),
            record_positions=True, record_evictions=True,
        )
        _assert_same(reference, fast, "no-numpy")


def test_list_replays_never_import_numpy():
    """numpy loads on the first column-backed replay long enough for the
    columnar tier, never before: not for list traces, not for a
    generated trace under ``MIN_COLUMNAR_REFS``, and not in a sweep
    shard."""
    # A fresh interpreter: this test process may hold numpy already.
    script = textwrap.dedent("""
        import sys
        import repro.fastpath.replay
        import repro.serve
        from repro.paging import simulate_trace
        from repro.paging.replacement import make_policy
        from repro.serve import (
            seeded_writes, simulate_shared, tenant_traces,
        )
        from repro.sweep.grid import quick_grid
        from repro.sweep.shard import run_shard
        from repro.workload import phased_trace

        traces, shared = tenant_traces(3, pages=64, length=6000, seed=1)
        writes = [seeded_writes(len(trace), seed=index)
                  for index, trace in enumerate(traces)]
        for name in ("lru", "fifo", "clock"):
            simulate_shared(traces, 8, lambda _index: make_policy(name),
                            shared_pages=shared, writes=writes)
        trace = phased_trace(pages=64, length=3000, working_set=8, seed=1)
        for name in ("lru", "fifo", "clock"):
            simulate_trace(trace, 8, make_policy(name))
        record = run_shard(next(quick_grid().shards()).spec())
        assert "error" not in record, record
        assert "numpy" not in sys.modules, "numpy was imported"
    """)
    src = str(Path(columnar_module.__file__).parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


@pytest.mark.skipif(numpy_missing, reason="columnar kernels need numpy")
class TestNoNumpyMatrix:
    """A reduced seed sweep with numpy masked out: the list-kernel
    fallback over ``replay_view()`` must match the reference loop."""

    @pytest.mark.parametrize("name", FAST_POLICIES)
    @pytest.mark.parametrize("seed", range(0, 100, 8))
    def test_fallback_bit_identical(self, name, seed, monkeypatch):
        monkeypatch.setattr(columnar_module, "_np", None)
        trace = _trace_for_seed(seed)
        columnar = ColumnarTrace(trace)
        frames = random.Random(seed * 31 + 7).randint(1, 24)
        reference = simulate_trace(
            trace, frames, _make_policy(name, trace),
            record_positions=True, record_evictions=True, fast=False,
        )
        fast = simulate_trace(
            columnar, frames, _make_policy(name, columnar),
            record_positions=True, record_evictions=True,
        )
        _assert_same(reference, fast, f"{name} seed={seed}")


class TestTraceFileReplay:
    """A ``trace-gen`` file mmapped back by ``read_trace`` replays
    bit-identically through the default dispatch, the list kernel over
    the mapped column and, with numpy, the vectorized kernel."""

    @pytest.mark.parametrize("name", FAST_POLICIES)
    def test_mmapped_file_matches_reference_loop(self, tmp_path, name):
        path = tmp_path / "phased.rtrc"
        assert trace_gen_main([
            "phased", "--length", "60000", "--pages", "256",
            "--working-set", "24", "--phase-length", "5000",
            "--locality", "0.995", "--output", str(path),
        ]) == 0
        trace = read_trace(path)
        try:
            assert isinstance(trace.replay_view(), memoryview)
            record = dict(record_positions=True, record_evictions=True)
            refs = trace.as_list()
            reference = simulate_trace(
                refs, 128, _make_policy(name, refs), fast=False, **record
            )
            kernel = FAST_KERNELS[type(_make_policy(name, trace))]
            tiers = {
                "dispatch": simulate_trace(
                    trace, 128, _make_policy(name, trace), **record
                ),
                "list kernel": kernel(trace, 128, **record),
            }
            if not numpy_missing:
                tiers["columnar"] = run_columnar(
                    trace, 128, _make_policy(name, trace), force=True,
                    **record,
                )
            for tier, result in tiers.items():
                _assert_same(reference, result, f"{name} {tier}")
        finally:
            trace.close()


class TestColumnarTraceContainer:
    def test_sequence_semantics_flat(self):
        trace = ColumnarTrace([5, 6, 7, 5])
        assert list(trace) == [5, 6, 7, 5]
        assert trace == [5, 6, 7, 5]
        assert trace[1] == 6
        assert list(trace[1:3]) == [6, 7]
        assert 7 in trace and 9 not in trace
        assert len(trace) == 4

    def test_sequence_semantics_segmented(self):
        trace = ColumnarTrace([5, 6], segments=[0, 1])
        assert list(trace) == [(0, 5), (1, 6)]
        assert trace[1] == (1, 6)
        assert trace == [(0, 5), (1, 6)]
        assert (0, 5) in trace
        view = trace.replay_view()
        assert list(view) == [(0, 5), (1, 6)]
        assert view[0] == (0, 5)
        assert list(view[1:]) == [(1, 6)]

    def test_from_trace_splits_pairs(self):
        trace = ColumnarTrace.from_trace([(0, 1), (2, 3)])
        assert trace.has_segments
        assert list(trace.segments) == [0, 2]
        assert list(trace.pages) == [1, 3]

    def test_write_flags_round_trip(self):
        trace = ColumnarTrace([1, 2, 3], writes=[1, 0, 1])
        assert trace.write_flags() == [True, False, True]
        assert ColumnarTrace([1, 2]).write_flags() is None

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="writes column"):
            ColumnarTrace([1, 2, 3], writes=[1, 0])
        with pytest.raises(ValueError, match="segments column"):
            ColumnarTrace([1, 2, 3], segments=[0])

    def test_close_releases_columns(self):
        trace = ColumnarTrace([1, 2, 3])
        trace.close()
        assert len(trace) == 0
