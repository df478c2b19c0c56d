"""The performance benchmark trajectory (``python -m repro.bench``).

Times the reproduction's hottest loop — trace-driven replacement
replay — in both its reference and :mod:`repro.fastpath` forms, verifies
the fast paths are result-identical in the same run, and writes a
machine-readable ``BENCH_perf.json`` so successive PRs can track
throughput like the experiments track fault rates.

``BENCH_perf.json`` keeps latest-run semantics (one report, overwritten
each run); the *trajectory* lives in ``BENCH_history.jsonl``, which gets
one appended record per run — timestamp, git revision, quick/full flag,
and the flat throughput metrics — so successive runs never overwrite
each other.  ``--compare`` checks the current run against the last
recorded run of the same size class and exits nonzero when any
throughput metric regressed by more than ``--threshold`` (default 15%)
— the CI-facing half of the observability story.

Run it as::

    python -m repro.bench             # full sizes (a 1M-reference trace)
    python -m repro.bench --quick     # CI smoke sizes
    python -m repro.bench --quick --compare   # regression-gate mode
    python -m repro bench             # same, via the package CLI
    python benchmarks/perf_suite.py   # same, from a source checkout

Metrics reported per replacement policy: references replayed per second
(reference vs. batched kernel) and the speedup.  Every timed pair is
cross-checked — identical fault counts and victim sequences — so a
speedup can never be bought with a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from repro.observe.sinks import read_jsonl_records
from repro.paging.replacement import make_policy
from repro.paging.replacement.belady import BeladyOptimalPolicy
from repro.paging.simulate import SimulationResult, simulate_trace
from repro.workload.reference import Trace, phased_trace

REPLAY_POLICIES = ("lru", "fifo", "clock", "opt")

#: The two size classes every run belongs to.
SIZE_CLASSES: dict[str, dict[str, dict]] = {
    "quick": {
        "replay": dict(length=60_000, frames=24, pages=256),
        "columnar": dict(
            length=200_000, frames=128, pages=512,
            working_set=24, phase_length=5_000, locality=0.995,
        ),
        "serve": dict(length=15_000, frames=16, pages=128, degrees=(1, 4)),
        "traffic": dict(loads=(0.5, 1.0, 1.5), quick=True),
    },
    "full": {
        "replay": dict(length=1_000_000, frames=32, pages=512),
        # The columnar section's trace is long and locality-rich: chunked
        # hit-span skipping is what the vectorized kernels monetize, and
        # a ~0.05% fault rate is representative of a well-provisioned
        # program (frames >> working set), exactly where replay spends
        # its time in the sweep experiments.
        "columnar": dict(
            length=10_000_000, frames=256, pages=1024,
            working_set=32, phase_length=125_000, locality=0.9996,
        ),
        "serve": dict(length=100_000, frames=32, pages=256, degrees=(1, 4)),
        "traffic": dict(loads=(0.5, 1.0, 1.5), quick=False),
    },
}


def _timed(fn: Callable[[], object]) -> tuple[object, float]:
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _throughput(operations: int, seconds: float) -> int | None:
    """Operations per second, or None when the timer saw no time pass.

    On ``--quick`` sizes under a coarse timer ``seconds`` can be 0.0;
    a None throughput means "too fast to measure", never a crash.
    """
    if not seconds:
        return None
    return round(operations / seconds)


# -- trace replay ---------------------------------------------------------


def _replay_policy(name: str, trace: Trace) -> object:
    if name == "opt":
        return BeladyOptimalPolicy(trace)
    return make_policy(name)


def bench_replay(length: int, frames: int, pages: int) -> dict:
    """Reference vs. batched-kernel replay over one phased trace."""
    trace = phased_trace(
        pages=pages,
        length=length,
        working_set=frames,
        phase_length=max(200, length // 500),
        locality=0.95,
        seed=1967,
    )
    # Warm up the fast path on a short prefix so one-time costs (the
    # lazy numpy import, module loads) are not billed to the first
    # timed policy.
    warm = trace.as_list()[: min(len(trace), 5_000)]
    simulate_trace(warm, frames, _replay_policy("lru", warm), fast=True)
    policies: dict[str, dict] = {}
    for name in REPLAY_POLICIES:
        reference, reference_s = _timed(
            lambda: simulate_trace(
                trace, frames, _replay_policy(name, trace),
                record_evictions=True, fast=False,
            )
        )
        fast, fast_s = _timed(
            lambda: simulate_trace(
                trace, frames, _replay_policy(name, trace),
                record_evictions=True, fast=True,
            )
        )
        assert isinstance(reference, SimulationResult)
        assert isinstance(fast, SimulationResult)
        if (
            fast.faults != reference.faults
            or fast.cold_faults != reference.cold_faults
            or fast.victims != reference.victims
        ):
            raise AssertionError(
                f"fastpath mismatch for {name}: "
                f"{fast.faults}/{fast.cold_faults} faults vs "
                f"reference {reference.faults}/{reference.cold_faults}"
            )
        policies[name] = {
            "faults": reference.faults,
            "reference_s": round(reference_s, 4),
            "fast_s": round(fast_s, 4),
            "speedup": round(reference_s / fast_s, 2) if fast_s else None,
            "reference_refs_per_s": _throughput(length, reference_s),
            "fast_refs_per_s": _throughput(length, fast_s),
        }
    return {
        "references": length,
        "frames": frames,
        "pages": pages,
        "policies": policies,
    }


# -- columnar replay ------------------------------------------------------


def bench_columnar(
    length: int,
    frames: int,
    pages: int,
    working_set: int,
    phase_length: int,
    locality: float,
    trace_file: Path | None = None,
) -> dict:
    """Three trace backends through the fast kernels, cross-verified.

    Per policy: the list kernels over a materialized Python list
    (``list``), the same kernels consuming a columnar trace zero-copy
    through ``replay_view()`` (``columnar`` — the pure-stdlib path), and
    the vectorized numpy kernels over the mmap'd trace file
    (``columnar_numpy``).  Each backend is billed for its own ingest
    from the trace file: the list backend must materialize a Python
    list (``list_ingest_s``, timed once and charged to every policy's
    ``list_s``) while the columnar backends replay the mmap'd columns
    zero-copy — that asymmetry is the point of the format.  Bare kernel
    times are recorded alongside (``list_replay_s``) so both views are
    checked in.  The headline ``speedup`` is vectorized vs. list.
    Timed runs skip eviction recording; a separate untimed pair of
    recording runs asserts bit-identical victims, so the speedup can
    never be bought with a wrong answer.

    ``trace_file`` replays an existing ``.rtrc`` file instead of
    generating (and then deleting) a temporary one — the
    ``bench --trace-file`` path.
    """
    import tempfile

    from repro.fastpath.columnar import load_numpy, run_columnar
    from repro.fastpath.replay import FAST_KERNELS
    from repro.trace import read_trace, stream_trace

    cleanup: Path | None = None
    if trace_file is None:
        handle = tempfile.NamedTemporaryFile(
            suffix=".rtrc", delete=False
        )
        handle.close()
        cleanup = Path(handle.name)
        trace_file = stream_trace(
            cleanup, "phased",
            pages=pages, length=length, working_set=working_set,
            phase_length=phase_length, locality=locality, seed=1967,
        )
    trace = read_trace(trace_file)
    has_numpy = load_numpy() is not None
    try:
        length = len(trace)
        # The list backend's mandatory materialization, timed once:
        # every policy's end-to-end list time pays it.
        refs_list, ingest_s = _timed(lambda: trace.as_list())
        policies: dict[str, dict] = {}
        for name in REPLAY_POLICIES:
            policy_type = type(_replay_policy(name, refs_list))
            kernel = FAST_KERNELS[policy_type]
            _, replay_s = _timed(lambda: kernel(refs_list, frames))
            list_s = ingest_s + replay_s
            _, view_s = _timed(lambda: kernel(trace, frames))
            vectorized_s = None
            if has_numpy:
                vectorized, vectorized_s = _timed(
                    lambda: run_columnar(
                        trace, frames, _replay_policy(name, trace),
                        force=True,
                    )
                )
                assert vectorized is not None
                # Cross-verify with recording runs (untimed).
                recorded = run_columnar(
                    trace, frames, _replay_policy(name, trace),
                    record_evictions=True, force=True,
                )
                baseline = kernel(refs_list, frames, record_evictions=True)
                if (
                    recorded.faults != baseline.faults
                    or recorded.cold_faults != baseline.cold_faults
                    or recorded.victims != baseline.victims
                ):
                    raise AssertionError(
                        f"columnar kernel mismatch for {name}: "
                        f"{recorded.faults} faults vs {baseline.faults}"
                    )
            list_rate = _throughput(length, list_s)
            vector_rate = (
                _throughput(length, vectorized_s)
                if vectorized_s is not None else None
            )
            policies[name] = {
                "list_s": round(list_s, 4),
                "list_ingest_s": round(ingest_s, 4),
                "list_replay_s": round(replay_s, 4),
                "columnar_s": round(view_s, 4),
                "columnar_numpy_s": (
                    round(vectorized_s, 4) if vectorized_s is not None else None
                ),
                "list_refs_per_s": list_rate,
                "columnar_refs_per_s": _throughput(length, view_s),
                "columnar_numpy_refs_per_s": vector_rate,
                "speedup": (
                    round(list_s / vectorized_s, 2)
                    if vectorized_s else None
                ),
            }
        return {
            "references": length,
            "frames": frames,
            "pages": trace.spans()[0],
            "numpy": has_numpy,
            "trace_file": str(trace_file) if cleanup is None else None,
            "policies": policies,
        }
    finally:
        trace.close()
        if cleanup is not None:
            cleanup.unlink(missing_ok=True)


# -- shared-pool serving --------------------------------------------------


def bench_serve(
    length: int, frames: int, pages: int, degrees: tuple[int, ...]
) -> dict:
    """Multi-tenant shared-pool replay throughput, per sharing degree.

    Each degree replays ``degree`` tenant traces (``length`` references
    each) over one :class:`~repro.serve.SharedFramePool`; the reported
    rate is total references served per second, alongside the dedup
    ratio and CoW-break count the serving contract promises.  Degree 1
    is cross-checked against the unshared reference loop — identical
    fault/eviction counts — so the serving tier's overhead can never
    hide a wrong answer.
    """
    from repro.serve import seeded_writes, simulate_shared, tenant_traces

    runs: dict[str, dict] = {}
    for degree in degrees:
        traces, shared_pages = tenant_traces(
            degree, pages=pages, length=length,
            shared_fraction=0.5, working_set=max(4, pages // 4),
            phase_length=max(200, length // 50), seed=1967,
        )
        writes = [
            seeded_writes(length, fraction=0.1, seed=1967 + index)
            for index in range(degree)
        ]
        result, seconds = _timed(
            lambda: simulate_shared(
                traces, frames,
                lambda _index: make_policy("lru"),
                shared_pages=shared_pages, writes=writes,
            )
        )
        if degree == 1:
            baseline = simulate_trace(
                traces[0], frames, make_policy("lru"),
                writes=writes[0], fast=False,
            )
            solo = result.tenants[0]
            if (
                solo.faults != baseline.faults
                or solo.evictions != baseline.evictions
            ):
                raise AssertionError(
                    f"serve degree-1 mismatch: {solo.faults}/{solo.evictions} "
                    f"vs unshared {baseline.faults}/{baseline.evictions}"
                )
        runs[str(degree)] = {
            "references": result.references,
            "faults": result.faults,
            "fetches": result.fetches,
            "dedup_ratio": round(result.pool_stats.dedup_ratio, 4),
            "cow_breaks": result.cow_breaks,
            "spacetime_saving": round(result.spacetime_saving, 4),
            "serve_s": round(seconds, 4),
            "refs_per_s": _throughput(result.references, seconds),
        }
    return {
        "length": length,
        "frames": frames,
        "pages": pages,
        "degrees": runs,
    }


# -- open-arrival traffic -------------------------------------------------


def bench_traffic(loads: tuple[float, ...], quick: bool = True) -> dict:
    """Open-arrival service throughput per offered-load point.

    Each load runs one seeded traffic point (poisson arrivals, fcfs
    drain, LRU replacement) through :func:`~repro.traffic.simulate_traffic`
    and reports served references per second alongside the tail-latency
    headline numbers the traffic tier promises (queue-wait and
    fault-wait p99).  The point ids match the ``python -m repro
    traffic`` CLI so a bench row can be reproduced interactively.
    """
    from repro.traffic import build_points, simulate_traffic

    points = build_points(
        loads=loads, arrivals="poisson", policy="fcfs",
        replacement="lru", seeds=(0,), quick=quick, name="bench",
    )
    runs: dict[str, dict] = {}
    for spec in points:
        result, seconds = _timed(lambda: simulate_traffic(spec))
        runs[str(spec["offered"])] = {
            "arrivals": result.arrivals,
            "admitted": result.admitted,
            "shed": result.shed,
            "completed": result.completed,
            "refs": result.refs,
            "queue_wait_p99": round(result.queue_wait.quantile(0.99), 2),
            "fault_wait_p99": round(result.fault_wait.quantile(0.99), 2),
            "traffic_s": round(seconds, 4),
            "refs_per_s": _throughput(result.refs, seconds),
        }
    sizing = points[0]
    return {
        "pool_frames": sizing["pool_frames"],
        "horizon": sizing["horizon"],
        "quick": quick,
        "loads": runs,
    }


# -- telemetry overhead ---------------------------------------------------


def _paired_ratio(
    off_fn: Callable[[], object],
    on_fn: Callable[[], object],
    repeats: int = 7,
) -> tuple[object, object, float, float, float]:
    """``(off_result, on_result, off_s, on_s, ratio)`` — robustly timed.

    Measuring a ~1% relative difference through wall clocks needs three
    defences at once: the arms are *interleaved* (off, on, off, on …)
    so load drift hits both sides equally; the collector is paused
    during each timed run so a cycle collection cannot land inside one
    arm; and the headline ``ratio`` is the **median of the per-pair
    ratios**, so a preempted run — which corrupts one pair, not all
    seven — falls out of the estimate instead of becoming it.  The
    reported seconds are the per-arm minima (the usual best-case
    throughput numbers); the overhead gate uses the median ratio.
    """
    import gc
    import statistics

    off_times: list[float] = []
    on_times: list[float] = []
    off_result = on_result = None
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            off_result, seconds = _timed(off_fn)
            off_times.append(seconds)
            on_result, seconds = _timed(on_fn)
            on_times.append(seconds)
            gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    ratios = [
        on / off for off, on in zip(off_times, on_times) if off > 0
    ]
    ratio = statistics.median(ratios) if ratios else 1.0
    return off_result, on_result, min(off_times), min(on_times), ratio


def bench_telemetry(
    length: int, frames: int, pages: int, degrees: tuple[int, ...] = (2,)
) -> dict:
    """Telemetry-off vs. telemetry-on timing of the instrumented paths.

    Two legs, each an interleaved median-of-pairs measurement (see
    :func:`_paired_ratio`): kernel replay through
    :func:`simulate_trace` (telemetry reads the result after the run —
    the cheap pattern) and shared-pool serving at degree
    ``degrees[-1]`` (sampled per-acquire and per-CoW wall spans — the
    per-event pattern).  Results are cross-checked identical between
    the on and off runs, so the overhead number can never hide a
    changed answer; the differential tests pin the same property
    across 100 seeds.  ``overhead`` is the work-weighted combination
    of the two legs' median ratios, the quantity
    ``--max-telemetry-overhead`` gates in CI.
    """
    from repro.observe.telemetry import TelemetryRegistry
    from repro.serve import seeded_writes, simulate_shared, tenant_traces

    trace = phased_trace(
        pages=pages, length=length, working_set=frames,
        phase_length=max(200, length // 500), locality=0.95, seed=1967,
    )
    # The serve arm carries the per-event spans, so it needs enough
    # work per timed run (hundreds of milliseconds) for a ~1% signal
    # to clear timer and scheduler noise.
    degree = degrees[-1]
    tenant_set, shared_pages = tenant_traces(
        degree, pages=pages, length=length,
        shared_fraction=0.5, working_set=max(4, pages // 4),
        phase_length=max(200, length // 50), seed=1967,
    )
    serve_length = len(tenant_set[0])
    writes = [
        seeded_writes(serve_length, fraction=0.1, seed=1967 + index)
        for index in range(degree)
    ]

    def replay(telemetry):
        return simulate_trace(
            trace, frames, make_policy("lru"), telemetry=telemetry
        )

    def serve(telemetry):
        return simulate_shared(
            tenant_set, frames, lambda _index: make_policy("lru"),
            shared_pages=shared_pages, writes=writes, telemetry=telemetry,
        )

    replay(None)    # warm the fast path before either timed arm
    replay_off, replay_on, replay_off_s, replay_on_s, replay_ratio = (
        _paired_ratio(lambda: replay(None),
                      lambda: replay(TelemetryRegistry()))
    )
    serve_off, serve_on, serve_off_s, serve_on_s, serve_ratio = (
        _paired_ratio(lambda: serve(None),
                      lambda: serve(TelemetryRegistry()))
    )
    if replay_on != replay_off:
        raise AssertionError("telemetry changed the replay result")
    if (
        serve_on.tenants != serve_off.tenants
        or serve_on.shares != serve_off.shares
        or serve_on.cow_breaks != serve_off.cow_breaks
    ):
        raise AssertionError("telemetry changed the serve result")
    off_s = replay_off_s + serve_off_s
    on_s = replay_on_s + serve_on_s
    # Weight each leg's median ratio by its share of the off-arm time,
    # so the headline overhead is what a combined run would see while
    # staying robust to a single preempted measurement in either leg.
    if off_s:
        overhead = (
            (replay_ratio - 1.0) * (replay_off_s / off_s)
            + (serve_ratio - 1.0) * (serve_off_s / off_s)
        )
    else:
        overhead = None
    references = length + degree * serve_length
    return {
        "references": references,
        "frames": frames,
        "degree": degree,
        "replay_off_s": round(replay_off_s, 4),
        "replay_on_s": round(replay_on_s, 4),
        "serve_off_s": round(serve_off_s, 4),
        "serve_on_s": round(serve_on_s, 4),
        "off_s": round(off_s, 4),
        "on_s": round(on_s, 4),
        "off_refs_per_s": _throughput(references, off_s),
        "on_refs_per_s": _throughput(references, on_s),
        "overhead": round(overhead, 4) if overhead is not None else None,
    }


# -- the regression trajectory --------------------------------------------

#: Throughput metrics compared by ``--compare`` — higher is better.
THROUGHPUT_KEYS = ("reference_refs_per_s", "fast_refs_per_s")
COLUMNAR_THROUGHPUT_KEYS = (
    "list_refs_per_s", "columnar_refs_per_s", "columnar_numpy_refs_per_s",
)
SERVE_THROUGHPUT_KEYS = ("refs_per_s",)
TRAFFIC_THROUGHPUT_KEYS = ("refs_per_s",)


def git_revision() -> str | None:
    """The checkout's short commit hash, or None outside a git repo."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def history_record(report: dict, rev: str | None = None) -> dict:
    """One ``BENCH_history.jsonl`` line: provenance + flat throughputs.

    A metric measured as None (zero elapsed time on quick sizes) is
    recorded as null, keeping the metric set stable across runs;
    :func:`compare_records` skips such entries.
    """
    metrics: dict[str, int | None] = {}
    for name, row in report["replay"]["policies"].items():
        for key in THROUGHPUT_KEYS:
            metrics[f"replay.{name}.{key}"] = row.get(key)
    for name, row in report.get("columnar", {}).get("policies", {}).items():
        for key in COLUMNAR_THROUGHPUT_KEYS:
            metrics[f"columnar.{name}.{key}"] = row.get(key)
    for degree, row in report.get("serve", {}).get("degrees", {}).items():
        for key in SERVE_THROUGHPUT_KEYS:
            metrics[f"serve.deg{degree}.{key}"] = row.get(key)
    for load, row in report.get("traffic", {}).get("loads", {}).items():
        for key in TRAFFIC_THROUGHPUT_KEYS:
            metrics[f"traffic.load{load}.{key}"] = row.get(key)
    # The overhead rides the record top-level, NOT metrics: it is a
    # lower-is-better ratio, and compare_records reads every metric as a
    # higher-is-better throughput — an *improvement* (less overhead)
    # would register as a regression.
    return {
        "schema": 1,
        "created": report["created"],
        "rev": rev,
        "quick": report["quick"],
        "telemetry_overhead": report.get("telemetry", {}).get("overhead"),
        "metrics": metrics,
    }


def append_history(record: dict, path: Path) -> None:
    """Append one record; the file is never rewritten, only grown."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_history(path: Path) -> list[dict]:
    """All recorded runs, oldest first; damaged lines are skipped."""
    return read_history_with_damage(path)[0]


def read_history_with_damage(path: Path) -> tuple[list[dict], int]:
    """``(records, skipped)`` — usable runs plus the damaged-line count.

    A corrupt history must not masquerade as a short one: every line
    that fails to parse, is not an object, or lacks ``metrics`` counts
    as skipped, and the CLI surfaces the total.
    """
    raw, skipped = read_jsonl_records(path)
    records = [
        record for record in raw if isinstance(record.get("metrics"), dict)
    ]
    skipped += len(raw) - len(records)
    return records, skipped


def last_comparable(records: list[dict], quick: bool) -> dict | None:
    """The most recent record of the same size class (quick vs. full)."""
    for record in reversed(records):
        if bool(record.get("quick")) == quick:
            return record
    return None


def compare_records(
    current: dict, baseline: dict, threshold: float = 0.15
) -> list[dict]:
    """Throughput regressions of ``current`` against ``baseline``.

    Returns one entry per shared metric whose throughput dropped by more
    than ``threshold`` (fractional): ``{"metric", "baseline", "current",
    "change"}`` with ``change`` negative.  Improvements and sub-threshold
    noise return nothing.

    A metric that is None on either side (too fast to time) is skipped —
    it carries no information.  A current value of *zero* against a
    positive baseline is NOT skipped: a throughput collapsed to nothing
    is the worst possible regression, not noise.
    """
    regressions = []
    baseline_metrics = baseline.get("metrics", {})
    for metric, value in sorted(current.get("metrics", {}).items()):
        recorded = baseline_metrics.get(metric)
        if recorded is None or value is None:
            continue
        if not recorded:
            # Zero baseline: relative change is undefined; nothing to gate.
            continue
        change = value / recorded - 1.0
        if change < -threshold:
            regressions.append({
                "metric": metric,
                "baseline": recorded,
                "current": value,
                "change": round(change, 4),
            })
    return regressions


# -- harness --------------------------------------------------------------


def run_suite(quick: bool = False, trace_file: Path | None = None) -> dict:
    sizes = SIZE_CLASSES["quick" if quick else "full"]
    replay = bench_replay(**sizes["replay"])
    columnar = bench_columnar(**sizes["columnar"], trace_file=trace_file)
    serve = bench_serve(**sizes["serve"])
    traffic = bench_traffic(**sizes["traffic"])
    telemetry = bench_telemetry(
        **{key: value for key, value in sizes["serve"].items()
           if key != "degrees"},
        degrees=sizes["serve"]["degrees"],
    )
    return {
        "schema": 1,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quick": quick,
        "replay": replay,
        "columnar": columnar,
        "serve": serve,
        "traffic": traffic,
        "telemetry": telemetry,
    }


def _fmt(value: int | float | None, width: int) -> str:
    """Right-aligned thousands-grouped number, or n/a for unmeasured."""
    if value is None:
        return "n/a".rjust(width)
    return f"{value:>{width},}"


def _print_report(report: dict, stream=sys.stdout) -> None:
    replay = report["replay"]
    print(
        f"trace replay — {replay['references']:,} references, "
        f"{replay['frames']} frames, {replay['pages']} pages",
        file=stream,
    )
    for name, row in replay["policies"].items():
        print(
            f"  {name:<10} ref {_fmt(row['reference_refs_per_s'], 12)}/s   "
            f"fast {_fmt(row['fast_refs_per_s'], 12)}/s   "
            f"speedup {row['speedup'] if row['speedup'] is not None else 'n/a':>6}x",
            file=stream,
        )
    columnar = report.get("columnar")
    if columnar:
        backend = "numpy" if columnar["numpy"] else "stdlib only"
        print(
            f"columnar replay — {columnar['references']:,} references, "
            f"{columnar['frames']} frames ({backend})",
            file=stream,
        )
        for name, row in columnar["policies"].items():
            print(
                f"  {name:<10} list {_fmt(row['list_refs_per_s'], 12)}/s   "
                f"vector {_fmt(row['columnar_numpy_refs_per_s'], 12)}/s   "
                f"speedup {row['speedup'] if row['speedup'] is not None else 'n/a':>6}x",
                file=stream,
            )
    serve = report.get("serve")
    if serve:
        print(
            f"shared-pool serving — {serve['length']:,} references per "
            f"tenant, {serve['frames']} frames each",
            file=stream,
        )
        for degree, row in serve["degrees"].items():
            print(
                f"  degree {degree:<4} "
                f"serve {_fmt(row['refs_per_s'], 12)}/s   "
                f"dedup {row['dedup_ratio']:>6.1%}   "
                f"cow {row['cow_breaks']:>6,}",
                file=stream,
            )
    traffic = report.get("traffic")
    if traffic:
        print(
            f"open-arrival traffic — {traffic['pool_frames']} pool frames, "
            f"{traffic['horizon']:,}-tick horizon",
            file=stream,
        )
        for load, row in traffic["loads"].items():
            print(
                f"  load {load:<6} "
                f"serve {_fmt(row['refs_per_s'], 12)}/s   "
                f"shed {row['shed']:>4,}   "
                f"qwait p99 {row['queue_wait_p99']:>8,.1f}   "
                f"fwait p99 {row['fault_wait_p99']:>8,.1f}",
                file=stream,
            )
    telemetry = report.get("telemetry")
    if telemetry:
        overhead = telemetry["overhead"]
        print(
            f"telemetry overhead — {telemetry['references']:,} references "
            f"(replay + degree-{telemetry['degree']} serve, "
            f"median of paired runs)",
            file=stream,
        )
        print(
            f"  off {_fmt(telemetry['off_refs_per_s'], 12)}/s   "
            f"on {_fmt(telemetry['on_refs_per_s'], 12)}/s   "
            f"overhead "
            f"{f'{overhead:+.2%}' if overhead is not None else 'n/a':>8}",
            file=stream,
        )


def _print_regressions(regressions: list[dict], baseline: dict) -> None:
    provenance = baseline.get("rev") or baseline.get("created") or "unknown"
    print(f"throughput vs. last recorded run ({provenance}):")
    for row in regressions:
        print(
            f"  REGRESSION {row['metric']:<36} "
            f"{row['baseline']:>12,} -> {row['current']:>12,}  "
            f"({row['change'] * 100:+.1f}%)"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes for CI smoke runs (seconds, not minutes)",
    )
    parser.add_argument(
        "--output", "-o", type=Path, default=Path("BENCH_perf.json"),
        help="where to write the JSON report (default: ./BENCH_perf.json)",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="print the report but do not write the JSON file",
    )
    parser.add_argument(
        "--history", type=Path, default=Path("BENCH_history.jsonl"),
        help="append-only run trajectory (default: ./BENCH_history.jsonl)",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="do not append this run to the history file",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="compare against the last recorded run of the same size "
             "class; exit nonzero on any regression past --threshold",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.15,
        help="fractional throughput drop that counts as a regression "
             "(default 0.15 = 15%%)",
    )
    parser.add_argument(
        "--trace-file", type=Path, default=None,
        help="replay this .rtrc trace (see `python -m repro trace-gen`) "
             "in the columnar section instead of generating one",
    )
    parser.add_argument(
        "--max-telemetry-overhead", type=float, default=None,
        metavar="FRACTION",
        help="exit nonzero when telemetry's fractional time overhead "
             "exceeds this (the CI contract is 0.02 = 2%%)",
    )
    args = parser.parse_args(argv)
    if not 0 < args.threshold < 1:
        raise SystemExit("--threshold must be a fraction in (0, 1)")
    if (
        args.max_telemetry_overhead is not None
        and args.max_telemetry_overhead <= 0
    ):
        raise SystemExit("--max-telemetry-overhead must be positive")
    if args.trace_file is not None and not args.trace_file.exists():
        raise SystemExit(f"--trace-file {args.trace_file} does not exist")

    report = run_suite(quick=args.quick, trace_file=args.trace_file)
    _print_report(report)
    record = history_record(report, rev=git_revision())

    status = 0
    if args.max_telemetry_overhead is not None:
        overhead = report.get("telemetry", {}).get("overhead")
        if overhead is None:
            print("telemetry overhead could not be measured "
                  "(runs too fast to time)")
        else:
            # Overhead is one-sided: the instrumentation can only add
            # time, so scheduler noise inflates a measurement but never
            # deflates it below the true cost for long.  A first reading
            # over budget is therefore re-measured (up to twice) and the
            # gate takes the minimum — a genuine regression stays over
            # budget on every try, while a preempted run does not.
            sizes = SIZE_CLASSES["quick" if args.quick else "full"]["serve"]
            attempts = [overhead]
            while (
                min(attempts) > args.max_telemetry_overhead
                and len(attempts) < 3
            ):
                print(
                    f"telemetry overhead {attempts[-1]:+.2%} over the "
                    f"{args.max_telemetry_overhead:.2%} budget; re-measuring"
                )
                retry = bench_telemetry(**sizes)["overhead"]
                if retry is None:
                    break
                attempts.append(retry)
            overhead = min(attempts)
            report["telemetry"]["overhead"] = overhead
            record["telemetry_overhead"] = overhead
            if overhead > args.max_telemetry_overhead:
                print(
                    f"TELEMETRY OVERHEAD {overhead:+.2%} exceeds the "
                    f"{args.max_telemetry_overhead:.2%} budget"
                )
                status = 1
            else:
                print(
                    f"telemetry overhead {overhead:+.2%} within the "
                    f"{args.max_telemetry_overhead:.2%} budget"
                )
    if args.compare:
        records, damaged = read_history_with_damage(args.history)
        if damaged:
            print(
                f"warning: skipped {damaged} unreadable line(s) in "
                f"{args.history} — the history may be damaged"
            )
        baseline = last_comparable(records, args.quick)
        if baseline is None:
            print(
                f"no comparable {'quick' if args.quick else 'full'} run in "
                f"{args.history}; recording this one as the baseline"
            )
        else:
            regressions = compare_records(
                record, baseline, threshold=args.threshold
            )
            if regressions:
                _print_regressions(regressions, baseline)
                status = 1
            else:
                provenance = (
                    baseline.get("rev") or baseline.get("created") or "unknown"
                )
                print(
                    f"no regressions past {args.threshold:.0%} vs. last "
                    f"recorded run ({provenance})"
                )

    if not args.no_history:
        append_history(record, args.history)
        print(f"appended run to {args.history}")
    if not args.no_write:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
